package intern

import (
	"sync"
	"sync/atomic"
)

// DefaultShards is the shard count Bounded maps are normally built
// with: enough to spread shard mutexes across cores, small enough that
// a capped map's per-shard CLOCK rings stay a useful size.
const DefaultShards = 16

// Bounded is a sharded, optionally capped concurrent map: keys hash
// onto a fixed power-of-two number of shards, each one mutex guarding
// a key → slot index and a slot array. The slot array is the shard's
// CLOCK ring: each slot holds a key, its value and a reference bit, and
// an optional per-map entry cap evicts cold entries with a second-
// chance sweep of the ring, in place, when a shard fills. With cap 0
// it is insert-once and never evicts.
//
// Eviction relaxes the uncapped "stored entries are forever" contract
// to "a present entry never changes, but may disappear": readers never
// observe a torn or stale value, only a miss where there was once a
// hit — callers must treat any miss as re-computable, which the pricing
// memos this backs always could. Reads keep an entry warm by setting
// its reference bit; the sweep evicts only entries not read since the
// hand last passed them.
type Bounded[K comparable, V any] struct {
	shards []boundedShard[K, V]
	mask   uint32
	hash   func(K) uint32
	// capPerShard is the eviction threshold per shard (0 = unbounded).
	capPerShard int
	evictions   atomic.Int64
}

type boundedShard[K comparable, V any] struct {
	mu    sync.Mutex
	index map[K]int32 // key → its slot in slots
	// slots is the CLOCK ring the hand sweeps; evicted slots are dead
	// and listed in free until an insert reuses them.
	slots []slot[K, V]
	free  []int32
	hand  int
	// churn counts evictions since index was last re-made: a map keeps
	// the table size its churn grew it to, so it is copied at exact
	// size once per capPerShard evictions (amortized O(1)).
	churn int
}

type slot[K comparable, V any] struct {
	key       K
	val       V
	ref, live bool
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
// recently used.
func (b *Bounded[K, V]) Get(k K) (V, bool) {
	sh := &b.shards[b.hash(k)&b.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i, ok := sh.index[k]
	if !ok {
		var zero V
		return zero, false
	}
	s := &sh.slots[i]
	s.ref = true
	return s.val, true
}

// PutIfAbsent stores v for k unless k is already present, reporting
// whether it stored. First writer wins. When the shard is full, cold
// entries are evicted to make room first.
func (b *Bounded[K, V]) PutIfAbsent(k K, v V) bool {
	sh := &b.shards[b.hash(k)&b.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.index[k]; ok {
		return false
	}
	if sh.index == nil {
		sh.index = make(map[K]int32)
	}
	if b.capPerShard > 0 && len(sh.index) >= b.capPerShard {
		b.evictLocked(sh)
	}
	var i int32
	if n := len(sh.free); n > 0 {
		i, sh.free = sh.free[n-1], sh.free[:n-1]
	} else {
		i = int32(len(sh.slots))
		sh.slots = append(sh.slots, slot[K, V]{})
	}
	sh.slots[i] = slot[K, V]{key: k, val: v, live: true}
	sh.index[k] = i
	return true
}

// evictLocked frees room in a full shard: the CLOCK hand sweeps the
// ring in place until the shard holds cap − cap/8 − 1 entries, so that
// with the insert that follows it sits at the low-water mark cap −
// cap/8. Second chance: a set reference bit buys its entry one more
// revolution (clear and pass); a clear bit evicts, and its slot goes on
// the free list. Within two revolutions every bit is clear, so the
// sweep ends. Freed slots lie just behind the hand, so the entries that
// reuse them are swept last. Callers hold sh.mu.
func (b *Bounded[K, V]) evictLocked(sh *boundedShard[K, V]) {
	target := b.capPerShard - b.capPerShard/8 - 1
	evicted := 0
	for len(sh.index) > target {
		s := &sh.slots[sh.hand]
		if s.live {
			if s.ref {
				s.ref = false
			} else {
				delete(sh.index, s.key)
				*s = slot[K, V]{}
				sh.free = append(sh.free, int32(sh.hand))
				evicted++
			}
		}
		sh.hand = (sh.hand + 1) % len(sh.slots)
	}
	b.evictions.Add(int64(evicted))
	if sh.churn += evicted; sh.churn >= b.capPerShard {
		index := make(map[K]int32, len(sh.index))
		for k, i := range sh.index {
			index[k] = i
		}
		sh.index, sh.churn = index, 0
	}
}

// Len reports the number of entries across all shards.
func (b *Bounded[K, V]) Len() int {
	total := 0
	for _, n := range b.ShardSizes() {
		total += n
	}
	return total
}

// ShardSizes reports the entry count of every shard — the observability
// hook behind the serve layer's per-shard stats.
func (b *Bounded[K, V]) ShardSizes() []int {
	sizes := make([]int, len(b.shards))
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		sizes[i] = len(sh.index)
		sh.mu.Unlock()
	}
	return sizes
}

// Evictions reports how many entries the cap has evicted so far.
func (b *Bounded[K, V]) Evictions() int64 { return b.evictions.Load() }

// CapPerShard reports the per-shard entry cap (0 = unbounded).
func (b *Bounded[K, V]) CapPerShard() int { return b.capPerShard }

// Range calls fn for every resident entry, stopping early if fn
// returns false. Iteration is weakly consistent: each shard's live
// entries are copied under that shard's lock, so entries inserted or
// evicted concurrently may or may not appear, but no entry is ever
// seen torn. Reference bits are not touched — a full export must not
// look like a read burst to the CLOCK hand.
func (b *Bounded[K, V]) Range(fn func(K, V) bool) {
	type pair struct {
		k K
		v V
	}
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		pairs := make([]pair, 0, len(sh.index))
		for _, s := range sh.slots {
			if s.live {
				pairs = append(pairs, pair{s.key, s.val})
			}
		}
		sh.mu.Unlock()
		for _, p := range pairs {
			if !fn(p.k, p.v) {
				return
			}
		}
	}
}
