// Package flight is the memoised-singleflight pricing primitive behind
// both pricing memos (costlab.Memo and session.SharedMemo). A Cache
// stores priced values in a sharded, optionally capped table
// (intern.Bounded, a mutex-per-shard CLOCK map) and dedups pricing
// that is merely *in progress*: when several callers need the same
// missing key at the same time, exactly one of them, the leader,
// prices it while the others wait for its value. Concurrent demand for
// one (query, design) state therefore costs one optimizer invocation,
// not N.
//
// Cache.Resolve holds the package's only copy of the two-phase batch
// protocol. A call looks every key up. For each missing key it either
// becomes the key's leader or gets a wait on the caller already
// pricing it. It prices every key it leads in one batch, stores and
// publishes those values, and only then waits on the keys other
// callers lead. Publishing every led key before waiting on any foreign
// key keeps any number of concurrent batches deadlock-free: a blocked
// caller never holds an unresolved leadership, so every wait targets a
// leader that is still making progress.
//
// A leader whose pricing fails abandons its keys and stores nothing.
// Its waiters observe the abandonment and take over (handover), so a
// failed or cancelled leader never strands them.
//
// Accounting: every key a caller asks for is counted once, when it is
// answered — a hit if the table or another caller's in-flight pricing
// answered it, a miss if this caller had to price it (for a plain Get,
// if nothing was stored). Stores count priced values written to the
// table; DupStores count the ones whose key was already there — pricing
// work duplicated by racing callers, which the leader election pins at
// zero. Values priced elsewhere and merely recorded (Put) count nothing.
package flight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/intern"
)

// errAbandoned is what a wait returns when the leader released the key
// without a value: the waiter retries the key, and either finds it
// stored by now or leads it itself.
var errAbandoned = errors.New("flight: leader abandoned the call")

// group elects one leader per in-flight key. The zero value is ready.
type group[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]
}

// call is one key's in-flight pricing. val and abandoned are written
// once, before done is closed; the close orders them for every waiter.
type call[V any] struct {
	done      chan struct{}
	val       V
	abandoned bool
	resolved  bool // guarded by group.mu
}

// lead returns key's in-flight call and whether the caller leads it.
// The first caller for an idle key registers a fresh call and must
// resolve it; everyone else joins the registered one.
func (g *group[K, V]) lead(key K) (*call[V], bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c, false
	}
	if g.calls == nil {
		g.calls = make(map[K]*call[V])
	}
	c := &call[V]{done: make(chan struct{})}
	g.calls[key] = c
	return c, true
}

// resolve finalizes the led call c of key: it unregisters the key (so
// the next lead starts a fresh call), records the outcome and wakes
// every waiter. Resolving a call twice is a no-op, so a leader can
// abandon everything it led on its way out without clobbering values
// it already published.
func (g *group[K, V]) resolve(key K, c *call[V], v V, abandoned bool) {
	g.mu.Lock()
	if c.resolved {
		g.mu.Unlock()
		return
	}
	c.resolved = true
	delete(g.calls, key)
	g.mu.Unlock()
	c.val, c.abandoned = v, abandoned
	close(c.done)
}

// wait blocks until c's leader resolves it or ctx is done, returning
// the leader's value, errAbandoned, or ctx.Err().
func (c *call[V]) wait(ctx context.Context) (V, error) {
	var zero V
	select {
	case <-ctx.Done():
		return zero, ctx.Err()
	case <-c.done:
	}
	if c.abandoned {
		return zero, errAbandoned
	}
	return c.val, nil
}

// Cache is a memo of priced values with in-flight deduplication. Build
// one with NewCache; all methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	table   *intern.Bounded[K, V]
	flights group[K, V]
	onStore atomic.Pointer[func(K, V)]

	hits, misses, stores, dupStores    atomic.Int64
	leads, waits, coalesced, handovers atomic.Int64
}

// NewCache returns an empty cache capped at roughly capTotal entries
// (0 = unbounded), spread by hash over intern.DefaultShards shards,
// each a mutex-guarded CLOCK ring that evicts in place. An evicted
// value simply misses and is priced again.
func NewCache[K comparable, V any](capTotal int, hash func(K) uint32) *Cache[K, V] {
	return &Cache[K, V]{table: intern.NewBounded[K, V](intern.DefaultShards, capTotal, hash)}
}

// Get returns the stored value of k, counting a hit or a miss.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	v, ok := c.table.Get(k)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Peek returns the stored value of k without counting: a read on
// another tier's behalf, which is that tier's hit or miss, not this
// one's.
func (c *Cache[K, V]) Peek(k K) (V, bool) { return c.table.Get(k) }

// Put records v for k unless k is present. It is for values priced
// elsewhere — restores — so it moves no counter and runs no store hook.
func (c *Cache[K, V]) Put(k K, v V) { c.table.PutIfAbsent(k, v) }

// SetOnStore installs fn (nil detaches) to run synchronously for every
// priced value Resolve stores first, after the value is in the table
// and before the key's waiters wake.
func (c *Cache[K, V]) SetOnStore(fn func(K, V)) {
	if fn == nil {
		c.onStore.Store(nil)
		return
	}
	c.onStore.Store(&fn)
}

// Range calls fn for every stored entry until fn returns false; see
// intern.Bounded.Range for its consistency.
func (c *Cache[K, V]) Range(fn func(K, V) bool) { c.table.Range(fn) }

// Len reports the number of stored entries.
func (c *Cache[K, V]) Len() int { return c.table.Len() }

// ShardSizes reports the entry count of every table shard.
func (c *Cache[K, V]) ShardSizes() []int { return c.table.ShardSizes() }

// Batch reports how one Resolve call's keys were answered.
type Batch struct {
	Hits      int // found in the table
	Coalesced int // served by another caller's in-flight pricing
	Led       int // priced by this call
}

// Resolve returns the value of every key, in key order. Stored keys
// are served from the table; each missing key is priced exactly once
// across all concurrent callers. price is called once per round with
// the positions (into keys) this call leads and must return their
// values in the same order; a key that appears twice in keys is priced
// once. Every priced value is stored, handed to the store hook and only
// then released to its waiters. If price fails, nothing is stored, the
// led keys are abandoned to their waiters and the error is returned. A
// ctx cancellation ends a wait; price sees ctx only through its
// closure.
func (c *Cache[K, V]) Resolve(ctx context.Context, keys []K, price func(led []int) ([]V, error)) ([]V, Batch, error) {
	vals := make([]V, len(keys))
	var b Batch
	pending := make([]int, len(keys))
	for i := range pending {
		pending[i] = i
	}
	for len(pending) > 0 {
		var led, waits []int
		var ledCalls, waitCalls []*call[V]
		hits := 0
		for _, i := range pending {
			v, ok := c.table.Get(keys[i])
			if !ok {
				cl, leader := c.flights.lead(keys[i])
				if !leader {
					waits, waitCalls = append(waits, i), append(waitCalls, cl)
					continue
				}
				// Leadership won after a miss: the miss may be stale (a
				// prior leader stored and resolved in between), so probe
				// again before pricing.
				if v, ok = c.table.Get(keys[i]); !ok {
					led, ledCalls = append(led, i), append(ledCalls, cl)
					continue
				}
				c.flights.resolve(keys[i], cl, v, false)
			}
			vals[i] = v
			hits++
		}
		c.hits.Add(int64(hits))
		b.Hits += hits
		if len(led) > 0 {
			if err := c.priceLed(keys, led, ledCalls, price, vals); err != nil {
				return nil, b, err
			}
			b.Led += len(led)
		}
		// Every led key is published; only now may this call block on
		// keys other callers lead. An abandoned key comes back for
		// another round.
		pending = pending[:0]
		for p, i := range waits {
			c.waits.Add(1)
			v, err := waitCalls[p].wait(ctx)
			if errors.Is(err, errAbandoned) {
				c.handovers.Add(1)
				pending = append(pending, i)
				continue
			}
			if err != nil {
				return nil, b, err
			}
			vals[i] = v
			b.Coalesced++
			c.coalesced.Add(1)
			c.hits.Add(1)
		}
	}
	return vals, b, nil
}

// priceLed prices the keys this call leads, then for each one stores
// the value, runs the store hook and wakes the waiters, in that order.
// On a pricing error (or a panic) every led call still unresolved is
// abandoned, so its waiters take over instead of hanging.
func (c *Cache[K, V]) priceLed(keys []K, led []int, calls []*call[V], price func([]int) ([]V, error), vals []V) error {
	published := false
	defer func() {
		if published {
			return
		}
		var zero V
		for p, cl := range calls {
			c.flights.resolve(keys[led[p]], cl, zero, true)
		}
	}()
	c.leads.Add(int64(len(led)))
	c.misses.Add(int64(len(led)))
	got, err := price(led)
	if err != nil {
		return err
	}
	for p, i := range led {
		vals[i] = got[p]
		c.stores.Add(1)
		if !c.table.PutIfAbsent(keys[i], got[p]) {
			c.dupStores.Add(1)
		} else if fn := c.onStore.Load(); fn != nil {
			(*fn)(keys[i], got[p])
		}
		c.flights.resolve(keys[i], calls[p], got[p], false)
	}
	published = true
	return nil
}

// Stats are a cache's lifetime counters (see the package comment for
// the accounting rule).
type Stats struct {
	Hits      int64 // keys answered without pricing: stored, or coalesced
	Misses    int64 // keys this caller priced (or a Get found absent)
	Entries   int   // stored values
	Stores    int64 // priced values written, duplicates included
	DupStores int64 // priced values whose key was already stored
	Evictions int64 // entries the cap dropped (0 when unbounded)
	Leads     int64 // keys handed to a price call
	Waits     int64 // waits begun on another caller's pricing
	Coalesced int64 // waits served a value: pricing saved
	Handovers int64 // waits that outlived an abandoned leader
}

// Stats returns the cache's lifetime counters.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Entries:   c.table.Len(),
		Stores:    c.stores.Load(),
		DupStores: c.dupStores.Load(),
		Evictions: c.table.Evictions(),
		Leads:     c.leads.Load(),
		Waits:     c.waits.Load(),
		Coalesced: c.coalesced.Load(),
		Handovers: c.handovers.Load(),
	}
}
