package intern

import (
	"sync"
	"sync/atomic"
)

// DefaultShards is the shard count Bounded maps are normally built
// with: enough to spread writer mutexes across cores, small enough
// that per-shard snapshots stay dense.
const DefaultShards = 16

// Bounded is a sharded, optionally capped concurrent map: keys hash
// onto a fixed power-of-two number of shards, each shard serves reads
// lock-free from an immutable snapshot and takes writes in a
// mutex-guarded dirty tier, and an optional per-map entry cap evicts
// cold entries with a CLOCK (second-chance) sweep when a shard fills.
// With cap 0 it is insert-once and never evicts.
//
// Eviction relaxes the uncapped "published entries are forever"
// contract to "a present entry never changes, but may disappear":
// readers still never observe a torn or stale value, only a miss where there was
// once a hit — callers must treat any miss as re-computable, which the
// pricing memos this backs always could. Reads keep an entry warm by
// setting its reference bit (one lock-free atomic store on the hit
// path); the CLOCK sweep evicts only entries not read since the hand
// last passed them.
type Bounded[K comparable, V any] struct {
	shards []boundedShard[K, V]
	mask   uint32
	hash   func(K) uint32
	// capPerShard is the eviction threshold per shard (0 = unbounded).
	capPerShard int
	evictions   atomic.Int64
}

type boundedShard[K comparable, V any] struct {
	snap   atomic.Pointer[map[K]*clockEntry[V]]
	mu     sync.Mutex
	dirty  map[K]*clockEntry[V]
	dirtyN atomic.Int32
	size   atomic.Int64
	// ring holds the shard's live keys in insertion order — the CLOCK
	// ring the eviction hand sweeps. Maintained under mu; always the
	// exact key set of snap ∪ dirty.
	ring []K
	hand int
}

// clockEntry boxes a value with its CLOCK reference bit. One pointer
// per entry keeps Get's bit-set lock-free without making map values
// mutable.
type clockEntry[V any] struct {
	val V
	ref atomic.Bool
}

// NewBounded returns a map with the given shard count (a power of
// two; DefaultShards when 0), total entry cap (0 = unbounded) and key
// hash. The cap divides evenly across shards, rounded up, so the
// map's total size stays within roughly cap (exactly cap·shards/shards
// per shard).
func NewBounded[K comparable, V any](shards, capTotal int, hash func(K) uint32) *Bounded[K, V] {
	if shards == 0 {
		shards = DefaultShards
	}
	if shards <= 0 || shards&(shards-1) != 0 {
		panic("intern: shard count must be a power of two")
	}
	b := &Bounded[K, V]{
		shards: make([]boundedShard[K, V], shards),
		mask:   uint32(shards - 1),
		hash:   hash,
	}
	if capTotal > 0 {
		b.capPerShard = (capTotal + shards - 1) / shards
	}
	return b
}

// Mix32 hashes a pair of interned uint32 ids into a well-mixed shard
// hash (a 64-bit finalizer over the packed pair). The memo keys this
// package serves are all id pairs; dense sequential ids would
// otherwise land consecutive keys on one shard.
func Mix32(a, b uint32) uint32 {
	x := uint64(a)<<32 | uint64(b)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return uint32(x)
}

// Get returns the value stored for k, if any, marking the entry
// recently used. Lock-free whenever k is in its shard's published
// snapshot or that shard's dirty tier is empty.
func (b *Bounded[K, V]) Get(k K) (V, bool) {
	sh := &b.shards[b.hash(k)&b.mask]
	snap := sh.snap.Load()
	if snap != nil {
		if e, ok := (*snap)[k]; ok {
			e.ref.Store(true)
			return e.val, true
		}
	}
	// As in Table.ID: a promotion publishes the new snapshot before it
	// empties the dirty tier, so only an empty dirty tier behind an
	// unchanged snapshot is a true miss.
	if sh.dirtyN.Load() == 0 && sh.snap.Load() == snap {
		var zero V
		return zero, false
	}
	sh.mu.Lock()
	e, ok := sh.dirty[k]
	if cur := sh.snap.Load(); !ok && cur != nil {
		e, ok = (*cur)[k]
	}
	sh.mu.Unlock()
	if !ok {
		var zero V
		return zero, false
	}
	e.ref.Store(true)
	return e.val, true
}

// PutIfAbsent stores v for k unless k is already present, reporting
// whether it stored. First writer wins. When the insert pushes the
// shard past its cap, cold entries are evicted before returning.
func (b *Bounded[K, V]) PutIfAbsent(k K, v V) bool {
	sh := &b.shards[b.hash(k)&b.mask]
	if snap := sh.snap.Load(); snap != nil {
		if _, ok := (*snap)[k]; ok {
			return false
		}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.dirty[k]; ok {
		return false
	}
	// Re-check the snapshot: a promotion may have moved k out of the
	// dirty tier between the lock-free probe and acquiring the lock.
	if snap := sh.snap.Load(); snap != nil {
		if _, ok := (*snap)[k]; ok {
			return false
		}
	}
	if sh.dirty == nil {
		sh.dirty = make(map[K]*clockEntry[V])
	}
	sh.dirty[k] = &clockEntry[V]{val: v}
	sh.dirtyN.Store(int32(len(sh.dirty)))
	sh.size.Add(1)
	sh.ring = append(sh.ring, k)
	if b.capPerShard > 0 && int(sh.size.Load()) > b.capPerShard {
		b.evictLocked(sh)
	} else {
		sh.promoteLocked()
	}
	return true
}

// evictLocked runs a CLOCK sweep bringing the shard down to a low-
// water mark below the cap, then republishes the shard as one fresh
// snapshot. Evicting a batch (⅛ of the cap) per overflow amortizes
// the O(shard) rebuild to O(1) per insert at steady state. Callers
// hold sh.mu.
func (b *Bounded[K, V]) evictLocked(sh *boundedShard[K, V]) {
	// Flatten both tiers: the sweep rebuilds the snapshot anyway.
	live := make(map[K]*clockEntry[V], int(sh.size.Load()))
	if snap := sh.snap.Load(); snap != nil {
		for k, e := range *snap {
			live[k] = e
		}
	}
	for k, e := range sh.dirty {
		live[k] = e
	}

	target := b.capPerShard - b.capPerShard/8
	if target < 1 {
		target = 1
	}
	need := len(live) - target
	n := len(sh.ring)
	evict := make(map[K]bool, need)
	// Second chance from the hand: a set reference bit buys the entry
	// one more revolution (clear and pass); a clear bit evicts. Two
	// revolutions bound the sweep — after one, every bit is clear.
	pos := sh.hand % n
	for steps := 0; len(evict) < need && steps < 2*n; steps++ {
		k := sh.ring[pos]
		pos = (pos + 1) % n
		if evict[k] {
			continue
		}
		e := live[k]
		if e.ref.Load() {
			e.ref.Store(false)
			continue
		}
		evict[k] = true
	}

	// Rebuild ring (preserving clock order, rotated so the hand
	// restarts where the sweep stopped) and snapshot minus the evicted.
	ring := make([]K, 0, len(live)-len(evict))
	for i := 0; i < n; i++ {
		if k := sh.ring[(pos+i)%n]; !evict[k] {
			ring = append(ring, k)
		}
	}
	next := make(map[K]*clockEntry[V], len(live)-len(evict))
	for k, e := range live {
		if !evict[k] {
			next[k] = e
		}
	}
	sh.ring, sh.hand = ring, 0
	sh.snap.Store(&next)
	sh.dirty = nil
	sh.dirtyN.Store(0)
	sh.size.Store(int64(len(next)))
	b.evictions.Add(int64(len(evict)))
}

// promoteLocked merges the dirty tier into a fresh snapshot using the
// same growth policy as Table.promoteLocked. Callers hold sh.mu.
func (sh *boundedShard[K, V]) promoteLocked() {
	var snapLen int
	snap := sh.snap.Load()
	if snap != nil {
		snapLen = len(*snap)
	}
	if len(sh.dirty) < 16 && snapLen > 0 {
		return
	}
	if 4*len(sh.dirty) < snapLen {
		return
	}
	next := make(map[K]*clockEntry[V], snapLen+len(sh.dirty))
	if snap != nil {
		for k, e := range *snap {
			next[k] = e
		}
	}
	for k, e := range sh.dirty {
		next[k] = e
	}
	sh.snap.Store(&next)
	sh.dirty = nil
	sh.dirtyN.Store(0)
}

// Len reports the number of entries across all shards. Lock-free.
func (b *Bounded[K, V]) Len() int {
	total := 0
	for i := range b.shards {
		total += int(b.shards[i].size.Load())
	}
	return total
}

// ShardSizes reports the entry count of every shard — the observability
// hook behind the serve layer's per-shard stats. Lock-free.
func (b *Bounded[K, V]) ShardSizes() []int {
	sizes := make([]int, len(b.shards))
	for i := range b.shards {
		sizes[i] = int(b.shards[i].size.Load())
	}
	return sizes
}

// Evictions reports how many entries the cap has evicted so far.
func (b *Bounded[K, V]) Evictions() int64 { return b.evictions.Load() }

// CapPerShard reports the per-shard entry cap (0 = unbounded).
func (b *Bounded[K, V]) CapPerShard() int { return b.capPerShard }

// Range calls fn for every resident entry, stopping early if fn
// returns false. Iteration is weakly consistent: each shard's live
// set (published snapshot plus dirty tier, which are disjoint) is
// copied under that shard's lock, so entries inserted or evicted
// concurrently may or may not appear, but no entry is ever seen torn.
// Reference bits are not touched — a full export must not look like a
// read burst to the CLOCK hand.
func (b *Bounded[K, V]) Range(fn func(K, V) bool) {
	type pair struct {
		k K
		v V
	}
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		pairs := make([]pair, 0, int(sh.size.Load()))
		if snap := sh.snap.Load(); snap != nil {
			for k, e := range *snap {
				pairs = append(pairs, pair{k, e.val})
			}
		}
		for k, e := range sh.dirty {
			pairs = append(pairs, pair{k, e.val})
		}
		sh.mu.Unlock()
		for _, p := range pairs {
			if !fn(p.k, p.v) {
				return
			}
		}
	}
}
