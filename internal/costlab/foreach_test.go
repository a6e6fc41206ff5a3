package costlab

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachSizesFleetToWork: forEach visits every index once and
// starts one worker per minPerWorker items, up to the workers asked
// for — a batch of at most minPerWorker items runs on the caller alone.
func TestForEachSizesFleetToWork(t *testing.T) {
	for _, tc := range []struct{ n, workers, want int }{
		{1, 4, 1},
		{minPerWorker, 8, 1},
		{minPerWorker + 1, 8, 2},
		{3 * minPerWorker, 2, 2},
		{8 * minPerWorker, 4, 4},
	} {
		var (
			mu       sync.Mutex
			seen     = make([]int, tc.n)
			active   atomic.Int32
			peak     int32
			firsts   atomic.Int32
			arrive   sync.WaitGroup
			released = make(chan struct{})
			stuck    atomic.Bool
		)
		// The first want items each hold their worker until want workers
		// hold one: a smaller fleet never gets there, and while they are
		// held, a larger fleet's extra worker runs an item beside them.
		arrive.Add(tc.want)
		go func() {
			arrive.Wait()
			time.Sleep(20 * time.Millisecond)
			close(released)
		}()
		err := forEach(context.Background(), tc.n, tc.workers, func(i int) error {
			a := active.Add(1)
			defer active.Add(-1)
			mu.Lock()
			seen[i]++
			peak = max(peak, a)
			mu.Unlock()
			if firsts.Add(1) <= int32(tc.want) {
				arrive.Done()
				select {
				case <-released:
				case <-time.After(5 * time.Second):
					stuck.Store(true)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d workers=%d: index %d visited %d times", tc.n, tc.workers, i, c)
			}
		}
		if stuck.Load() {
			t.Fatalf("n=%d workers=%d: fewer than %d workers started", tc.n, tc.workers, tc.want)
		}
		if int(peak) != tc.want {
			t.Errorf("n=%d workers=%d: %d items ran at once, want %d", tc.n, tc.workers, peak, tc.want)
		}
	}
}

// TestForEachSerialStopsAtFirstError: on the caller alone, the first
// error ends the batch and no later index runs.
func TestForEachSerialStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	ran := 0
	err := forEach(context.Background(), minPerWorker, 4, func(i int) error {
		ran++
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || ran != 4 {
		t.Fatalf("err %v after %d items, want boom after 4", err, ran)
	}
}
