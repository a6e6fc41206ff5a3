package intern

import (
	"fmt"
	"sync"
	"testing"
)

func newTestBounded(capTotal int) *Bounded[[2]uint32, float64] {
	return NewBounded[[2]uint32, float64](4, capTotal, func(k [2]uint32) uint32 {
		return Mix32(k[0], k[1])
	})
}

func TestBoundedInsertOnce(t *testing.T) {
	b := newTestBounded(0)
	k := [2]uint32{1, 2}
	if _, ok := b.Get(k); ok {
		t.Fatal("Get on empty map hit")
	}
	if !b.PutIfAbsent(k, 42) {
		t.Fatal("first PutIfAbsent did not store")
	}
	if b.PutIfAbsent(k, 99) {
		t.Fatal("second PutIfAbsent overwrote")
	}
	if v, ok := b.Get(k); !ok || v != 42 {
		t.Fatalf("Get = %v,%v, want 42,true (first writer wins)", v, ok)
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1", b.Len())
	}
	if b.Evictions() != 0 {
		t.Fatalf("Evictions = %d on an uncapped map", b.Evictions())
	}
}

// Uncapped, a Bounded map keeps Map's permanence contract: entries
// accumulate across every shard and never vanish.
func TestBoundedUncappedNeverEvicts(t *testing.T) {
	b := newTestBounded(0)
	const n = 2000
	for i := 0; i < n; i++ {
		b.PutIfAbsent([2]uint32{uint32(i), uint32(i)}, float64(i))
	}
	if b.Len() != n {
		t.Fatalf("Len = %d, want %d", b.Len(), n)
	}
	sum := 0
	for _, s := range b.ShardSizes() {
		sum += s
	}
	if sum != n {
		t.Fatalf("ShardSizes sum = %d, want %d", sum, n)
	}
	for i := 0; i < n; i++ {
		if v, ok := b.Get([2]uint32{uint32(i), uint32(i)}); !ok || v != float64(i) {
			t.Fatalf("Get(%d) = %v,%v", i, v, ok)
		}
	}
}

// Capped, every shard must stay at or under its cap no matter how many
// distinct keys churn through, and the evictions counter must account
// for the overflow.
func TestBoundedCapBoundsShards(t *testing.T) {
	const capTotal = 64
	b := newTestBounded(capTotal)
	per := b.CapPerShard()
	if per != capTotal/4 {
		t.Fatalf("CapPerShard = %d, want %d", per, capTotal/4)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		b.PutIfAbsent([2]uint32{uint32(i), uint32(i * 7)}, float64(i))
		for s, size := range b.ShardSizes() {
			if size > per {
				t.Fatalf("after insert %d: shard %d holds %d entries, cap %d", i, s, size, per)
			}
		}
	}
	if b.Len() > capTotal {
		t.Fatalf("Len = %d, want ≤ %d", b.Len(), capTotal)
	}
	if b.Evictions() == 0 {
		t.Fatal("no evictions despite churning far past the cap")
	}
	// Survivors must read back exactly what was stored.
	hits := 0
	for i := 0; i < n; i++ {
		if v, ok := b.Get([2]uint32{uint32(i), uint32(i * 7)}); ok {
			hits++
			if v != float64(i) {
				t.Fatalf("survivor %d holds %v", i, v)
			}
		}
	}
	if hits != b.Len() {
		t.Fatalf("%d readable entries, Len = %d", hits, b.Len())
	}
}

// The second-chance bit: entries read between overflows must outlive
// entries never read. With a hot key re-read before every insert, the
// hot key survives churn that evicts thousands of cold keys.
func TestBoundedClockKeepsHotEntries(t *testing.T) {
	b := newTestBounded(64)
	hot := [2]uint32{1, 1}
	b.PutIfAbsent(hot, 1)
	for i := 2; i < 2000; i++ {
		if _, ok := b.Get(hot); !ok {
			t.Fatalf("hot key evicted after %d cold inserts despite constant reads", i-2)
		}
		b.PutIfAbsent([2]uint32{uint32(i), uint32(i * 7)}, float64(i))
	}
	if _, ok := b.Get(hot); !ok {
		t.Fatal("hot key evicted")
	}
}

// Readers racing writers across promotions and evictions must only
// ever observe complete entries: a visible value always matches what
// its key's writer stored (vanishing is allowed — the map is capped).
func TestBoundedConcurrentVisibility(t *testing.T) {
	b := NewBounded[uint64, uint64](4, 256, func(k uint64) uint32 {
		return Mix32(uint32(k), uint32(k>>32))
	})
	const (
		writers = 4
		perW    = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				k := uint64(w*perW + i)
				b.PutIfAbsent(k, k*3+1)
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 20; pass++ {
				for k := uint64(0); k < writers*perW; k++ {
					if v, ok := b.Get(k); ok && v != k*3+1 {
						panic(fmt.Sprintf("torn read: Get(%d) = %d, want %d", k, v, k*3+1))
					}
				}
			}
		}()
	}
	wg.Wait()
	for s, size := range b.ShardSizes() {
		if size > b.CapPerShard() {
			t.Fatalf("shard %d holds %d entries, cap %d", s, size, b.CapPerShard())
		}
	}
}

func TestBoundedShardCountValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two shard count did not panic")
		}
	}()
	NewBounded[uint32, int](3, 0, func(k uint32) uint32 { return k })
}

// Churning far past the cap must keep the books exact: every stored
// entry is either resident or counted evicted, the shard sizes add up
// to Len, Range yields exactly the resident entries with their stored
// values, and keys re-read as the churn goes survive it.
func TestBoundedChurnAccounting(t *testing.T) {
	const (
		capTotal = 1024
		hot      = 16
		n        = 50 * capTotal
	)
	b := NewBounded[[2]uint32, float64](DefaultShards, capTotal, func(k [2]uint32) uint32 {
		return Mix32(k[0], k[1])
	})
	key := func(i int) [2]uint32 { return [2]uint32{uint32(i), uint32(i * 7)} }
	val := func(k [2]uint32) float64 { return float64(k[0])*3 + 1 }
	inserted := 0
	for i := 0; i < n; i++ {
		if i%16 == 0 {
			for h := 0; h < hot && h < i; h++ {
				b.Get(key(h))
			}
		}
		if b.PutIfAbsent(key(i), val(key(i))) {
			inserted++
		}
	}
	if got, want := b.Evictions(), int64(inserted-b.Len()); got != want {
		t.Fatalf("Evictions = %d, want inserted %d − Len %d = %d", got, inserted, b.Len(), want)
	}
	sum := 0
	for s, size := range b.ShardSizes() {
		if size > b.CapPerShard() {
			t.Fatalf("shard %d holds %d entries, cap %d", s, size, b.CapPerShard())
		}
		sum += size
	}
	if sum != b.Len() {
		t.Fatalf("ShardSizes sum = %d, Len = %d", sum, b.Len())
	}
	seen := map[[2]uint32]bool{}
	b.Range(func(k [2]uint32, v float64) bool {
		if seen[k] {
			t.Fatalf("Range yielded %v twice", k)
		}
		seen[k] = true
		if v != val(k) {
			t.Fatalf("Range yielded %v = %v, stored %v", k, v, val(k))
		}
		if got, ok := b.Get(k); !ok || got != v {
			t.Fatalf("Get(%v) = %v,%v after Range yielded %v", k, got, ok, v)
		}
		return true
	})
	if len(seen) != b.Len() {
		t.Fatalf("Range yielded %d pairs, Len = %d", len(seen), b.Len())
	}
	for h := 0; h < hot; h++ {
		if !seen[key(h)] {
			t.Fatalf("hot key %d evicted despite re-reads every 16 inserts", h)
		}
	}
}

// BenchmarkBoundedChurn prices the capped insert path: each iteration
// pushes 20 000 new (statement id, signature) keys — the shared state
// memo's key shape — through a full 4 096-entry, 16-shard map, so
// every insert takes an evicted entry's place. B/op is gated in CI: an
// eviction that copies its shard shows up there.
func BenchmarkBoundedChurn(b *testing.B) {
	type key struct {
		id  uint32
		sig string
	}
	const (
		capTotal = 4096
		perOp    = 20000
	)
	sigs := make([]string, 64)
	for i := range sigs {
		sigs[i] = fmt.Sprintf("photoobj(ra)+specobj(bestobjid)#%02d", i)
	}
	m := NewBounded[key, float64](DefaultShards, capTotal, func(k key) uint32 {
		return Mix32(k.id, uint32(len(k.sig)))
	})
	next := uint32(0)
	push := func(n int) {
		for i := 0; i < n; i++ {
			next++
			m.PutIfAbsent(key{next, sigs[next%uint32(len(sigs))]}, float64(next))
		}
	}
	push(capTotal)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push(perOp)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perOp), "ns/insert")
}
