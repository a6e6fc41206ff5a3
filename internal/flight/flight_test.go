package flight

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newIntCache() *Cache[int, int] {
	return NewCache[int, int](0, func(k int) uint32 { return uint32(k) })
}

// constant returns a price function that answers every led key with v.
func constant(v int) func([]int) ([]int, error) {
	return func(led []int) ([]int, error) {
		out := make([]int, len(led))
		for i := range out {
			out[i] = v
		}
		return out, nil
	}
}

// waitFor spins until cond holds (a goroutine reached a wait).
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
	}
}

// TestResolveDeduplicates: N concurrent Resolve calls for one missing
// key must price it exactly once, and every caller must see the
// leader's value.
func TestResolveDeduplicates(t *testing.T) {
	c := newIntCache()
	var execs atomic.Int64
	release := make(chan struct{})
	const callers = 16

	var wg sync.WaitGroup
	vals := make([]int, callers)
	batches := make([]Batch, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, b, err := c.Resolve(context.Background(), []int{7}, func(led []int) ([]int, error) {
				execs.Add(1)
				<-release
				return []int{42}, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			vals[i], batches[i] = got[0], b
		}(i)
	}
	// Let the waiters pile up behind the leader before releasing it.
	waitFor(t, func() bool { return c.Stats().Waits >= callers-1 })
	close(release)
	wg.Wait()

	if n := execs.Load(); n != 1 {
		t.Fatalf("price executed %d times, want 1", n)
	}
	leaders := 0
	for i := range vals {
		if vals[i] != 42 {
			t.Fatalf("caller %d got %d, want 42", i, vals[i])
		}
		leaders += batches[i].Led
	}
	if leaders != 1 {
		t.Fatalf("%d callers led, want 1", leaders)
	}
	st := c.Stats()
	if st.Leads != 1 || st.Misses != 1 || st.Coalesced != callers-1 || st.Hits != callers-1 || st.Stores != 1 {
		t.Fatalf("stats = %+v, want 1 lead/miss/store and %d coalesced hits", st, callers-1)
	}
	// A later call is a plain table hit.
	if got, b, err := c.Resolve(context.Background(), []int{7}, constant(0)); err != nil || got[0] != 42 || b.Hits != 1 {
		t.Fatalf("warm Resolve = (%v, %+v, %v), want ([42], 1 hit, nil)", got, b, err)
	}
}

// TestResolveDuplicateKeysPriceOnce: a key repeated inside one batch
// is priced once and served to every position.
func TestResolveDuplicateKeysPriceOnce(t *testing.T) {
	c := newIntCache()
	var priced []int
	got, b, err := c.Resolve(context.Background(), []int{3, 5, 3, 3}, func(led []int) ([]int, error) {
		priced = append(priced, led...)
		out := make([]int, len(led))
		for i := range led {
			out[i] = 10 * (i + 1)
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(priced) != "[0 1]" || fmt.Sprint(got) != "[10 20 10 10]" {
		t.Fatalf("priced positions %v, values %v; want [0 1] and [10 20 10 10]", priced, got)
	}
	if b.Led != 2 || b.Coalesced != 2 || c.Stats().DupStores != 0 {
		t.Fatalf("batch %+v stats %+v, want 2 led, 2 coalesced, no duplicate store", b, c.Stats())
	}
}

// TestHandoverOnAbandon: a leader whose pricing fails must not strand
// or poison its waiters — one of them takes over and prices the key.
func TestHandoverOnAbandon(t *testing.T) {
	c := newIntCache()
	leaderIn := make(chan struct{})
	lctx, cancel := context.WithCancel(context.Background())

	var wg sync.WaitGroup
	var leaderErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, leaderErr = c.Resolve(lctx, []int{1}, func([]int) ([]int, error) {
			close(leaderIn)
			<-lctx.Done()
			return nil, lctx.Err()
		})
	}()
	<-leaderIn
	var wv []int
	var werr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		wv, _, werr = c.Resolve(context.Background(), []int{1}, constant(7))
	}()
	waitFor(t, func() bool { return c.Stats().Waits >= 1 })
	cancel()
	wg.Wait()

	if !errors.Is(leaderErr, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", leaderErr)
	}
	if werr != nil || wv[0] != 7 {
		t.Fatalf("waiter got (%v, %v), want ([7], nil) after handover", wv, werr)
	}
	if st := c.Stats(); st.Handovers != 1 || st.Stores != 1 {
		t.Fatalf("stats = %+v, want 1 handover and only the waiter's store", st)
	}
}

// TestWaitRespectsContext: a caller's own context ends its wait
// without disturbing the in-flight call.
func TestWaitRespectsContext(t *testing.T) {
	c := newIntCache()
	entered, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan error)
	go func() {
		_, _, err := c.Resolve(context.Background(), []int{1}, func([]int) ([]int, error) {
			close(entered)
			<-release
			return []int{1}, nil
		})
		leaderDone <- err
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Resolve(ctx, []int{1}, constant(0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait = %v, want context.Canceled", err)
	}
	// The abandoned wait must not have disturbed the call: a second
	// waiter with a live context still observes the leader's value.
	got := make(chan []int)
	go func() {
		v, _, _ := c.Resolve(context.Background(), []int{1}, constant(0))
		got <- v
	}()
	waitFor(t, func() bool { return c.Stats().Waits >= 2 })
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	if v := <-got; v[0] != 1 {
		t.Fatalf("Resolve after fulfilment = %v, want [1]", v)
	}
}

// TestAbandonIsIdempotentAfterFulfill: the leader's "abandon whatever
// is still unresolved" cleanup must not clobber a published value.
func TestAbandonIsIdempotentAfterFulfill(t *testing.T) {
	var g group[string, int]
	lc, leader := g.lead("k")
	wc, joined := g.lead("k")
	if !leader || joined || wc != lc {
		t.Fatal("second lead of a busy key did not join the first call")
	}
	g.resolve("k", lc, 9, false)
	g.resolve("k", lc, 0, true) // no-op: already resolved
	if v, err := wc.wait(context.Background()); err != nil || v != 9 {
		t.Fatalf("wait = (%d, %v), want (9, nil)", v, err)
	}
	if _, leader := g.lead("k"); !leader {
		t.Fatal("a resolved key was not released for the next leader")
	}
}

// TestStressRandomizedCancellation: many goroutines race single-key
// Resolve calls over a small key space, a random subset with contexts
// that cancel mid-flight and a random subset of pricings failing. Per
// key, never two pricings run at once; every call ends with the exact
// value, its own pricing failure or its own cancellation.
func TestStressRandomizedCancellation(t *testing.T) {
	const (
		keys       = 8
		goroutines = 32
		iters      = 200
	)
	c := newIntCache()
	var running [keys * iters / 20]atomic.Int32 // in-flight pricings per key
	var execs atomic.Int64
	boom := errors.New("boom")

	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for it := 0; it < iters; it++ {
				// Fresh keys every few iterations keep the cache cold.
				key := rng.Intn(keys) + keys*(it/20)
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if rng.Intn(4) == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(100))*time.Microsecond)
				}
				delay, fail := rng.Intn(50), rng.Intn(10) == 0
				v, _, err := c.Resolve(ctx, []int{key}, func(led []int) ([]int, error) {
					if n := running[key].Add(1); n != 1 {
						t.Errorf("key %d: %d concurrent pricings", key, n)
					}
					defer running[key].Add(-1)
					execs.Add(int64(len(led)))
					select {
					case <-time.After(time.Duration(delay) * time.Microsecond):
					case <-ctx.Done():
						return nil, ctx.Err()
					}
					if fail {
						return nil, boom
					}
					return []int{key * 10}, nil
				})
				cancel()
				switch {
				case err == nil:
					if v[0] != key*10 {
						t.Errorf("key %d: got %d, want %d", key, v[0], key*10)
					}
				case errors.Is(err, boom), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
				default:
					t.Errorf("key %d: unexpected error %v", key, err)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stress test hung: a waiter was stranded")
	}

	if st := c.Stats(); st.Leads != execs.Load() || st.DupStores != 0 {
		t.Fatalf("stats = %+v: leads must equal the %d pricings and no store may duplicate", st, execs.Load())
	}
	t.Logf("stats: %+v", c.Stats())
}

// TestTwoPhaseBatchersDoNotDeadlock is the -race gauntlet for Resolve:
// concurrent batchers each ask for an overlapping slice of keys, with
// random pricing failures and random context cancellations. Every call
// must end; every returned value must be exact; a failed pricing must
// store nothing; and no priced value may be stored twice.
func TestTwoPhaseBatchersDoNotDeadlock(t *testing.T) {
	const (
		keys     = 32
		batchers = 8
		rounds   = 60
	)
	type priced struct{ key, exec int }
	c := NewCache[int, priced](0, func(k int) uint32 { return uint32(k) })
	var execs, keysPriced atomic.Int64
	var mu sync.Mutex
	failed := map[int]bool{} // executions whose pricing failed
	stored := map[int]int{}  // key -> execution whose value was stored
	c.SetOnStore(func(k int, v priced) {
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := stored[k]; ok {
			t.Errorf("key %d stored twice (executions %d and %d)", k, prev, v.exec)
		}
		stored[k] = v.exec
	})
	boom := errors.New("boom")

	var wg sync.WaitGroup
	for b := 0; b < batchers; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(b)))
			for r := 0; r < rounds; r++ {
				// An overlapping window of this round's key space, sometimes
				// with a repeated key.
				base := keys * (r / 10)
				batch := make([]int, 4+rng.Intn(12))
				for i := range batch {
					batch[i] = base + rng.Intn(keys)
				}
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if rng.Intn(5) == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(200))*time.Microsecond)
				}
				fail := rng.Intn(6) == 0
				got, _, err := c.Resolve(ctx, batch, func(led []int) ([]priced, error) {
					exec := int(execs.Add(1))
					keysPriced.Add(int64(len(led)))
					time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
					out := make([]priced, len(led))
					for i, p := range led {
						out[i] = priced{batch[p], exec}
					}
					if fail || ctx.Err() != nil {
						// Partial values beside the error, as a worker pool
						// returns them: none may reach the table.
						mu.Lock()
						failed[exec] = true
						mu.Unlock()
						return out, boom
					}
					return out, nil
				})
				cancel()
				if err != nil {
					if !errors.Is(err, boom) && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("batcher %d: unexpected error %v", b, err)
					}
					continue
				}
				for i, k := range batch {
					if got[i].key != k {
						t.Errorf("batcher %d: key %d got the value of key %d", b, k, got[i].key)
					}
				}
			}
		}(b)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("two-phase batchers deadlocked")
	}

	for k, exec := range stored {
		if failed[exec] {
			t.Errorf("key %d holds a value from failed execution %d", k, exec)
		}
	}
	st := c.Stats()
	if st.DupStores != 0 || st.Leads != keysPriced.Load() || st.Entries != len(stored) {
		t.Fatalf("stats = %+v: want 0 duplicate stores, %d leads, %d entries", st, keysPriced.Load(), len(stored))
	}
	if len(failed) == 0 || (st.Handovers == 0 && st.Coalesced == 0) {
		t.Fatalf("gauntlet exercised too little: %d failed pricings, stats %+v", len(failed), st)
	}
	t.Logf("stats: %+v (%d pricings, %d failed)", st, execs.Load(), len(failed))
}

func ExampleCache_Resolve() {
	c := NewCache[string, int](0, func(k string) uint32 { return uint32(len(k)) })
	price := func(keys []string) func(led []int) ([]int, error) {
		return func(led []int) ([]int, error) {
			fmt.Println("pricing", len(led), "key(s)")
			out := make([]int, len(led))
			for i, p := range led {
				out[i] = len(keys[p])
			}
			return out, nil
		}
	}
	keys := []string{"ab", "abc"}
	v, _, _ := c.Resolve(context.Background(), keys, price(keys))
	fmt.Println(v)
	keys = []string{"abc", "abcd"}
	v, _, _ = c.Resolve(context.Background(), keys, price(keys))
	fmt.Println(v)
	// Output:
	// pricing 2 key(s)
	// [2 3]
	// pricing 1 key(s)
	// [3 4]
}
