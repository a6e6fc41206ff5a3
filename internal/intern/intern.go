// Package intern maps canonical strings — printed query SQL and
// backend-tagged projected design keys — to dense uint32 ids, so the
// pricing hot path compares and hashes two machine words instead of
// re-hashing multi-hundred-byte keys on every memo probe.
//
// The package provides two building blocks:
//
//   - Table interns strings to ids. Ids are dense, start at 1 (0 is
//     reserved as "unset" so a zero-valued id field is never a valid
//     key), and are stable for the table's lifetime. Intern is
//     get-or-add; ID is lookup-only and never grows the table, which
//     makes "probe a memo with a key nobody ever stored" a guaranteed
//     miss instead of interner pollution.
//
//   - Bounded is a read-optimized concurrent map, sharded by key
//     hash: reads hit an immutable per-shard snapshot behind an
//     atomic.Pointer without locking, writes go to a small
//     mutex-guarded dirty tier that is merged into a fresh snapshot
//     once it grows past a fraction of the snapshot (the same
//     copy-on-write publication pattern ingest.Tuner uses for designs,
//     generalized to a map). PutIfAbsent is the only write, so a
//     present entry never changes and readers can never observe a torn
//     or stale value. An optional entry cap is enforced by CLOCK
//     (second-chance) eviction — the form the shared pricing memo runs
//     under `serve -memo-cap` — which relaxes insert-once to "an entry
//     never changes while present, but a cold one may disappear".
//
// All types are safe for concurrent use by any number of readers and
// writers. Ids are table-specific: never mix ids across tables.
//
// Tables are append-only and never evict; uncapped maps share that
// lifecycle — exactly the shared pricing memo's (see
// session.SharedMemo): entries accumulate for the owner's lifetime and
// the owner's stats counters are the growth observability. A capped
// Bounded map trades that permanence for a memory ceiling.
package intern

import (
	"sync"
	"sync/atomic"
)

// Table interns strings to dense uint32 ids starting at 1.
// The zero value is ready to use.
type Table struct {
	snap   atomic.Pointer[map[string]uint32] // immutable published tier
	strs   atomic.Pointer[[]string]          // id-1 -> string, copy-on-append
	mu     sync.Mutex                        // guards dirty and promotion
	dirty  map[string]uint32                 // entries newer than snap
	dirtyN atomic.Int32                      // len(dirty), read lock-free
}

// NewTable returns an empty interning table.
func NewTable() *Table { return &Table{} }

// Intern returns the id of s, assigning the next dense id if s has
// never been seen. Safe for concurrent use; the warm path (s already
// interned and promoted) is lock-free.
func (t *Table) Intern(s string) uint32 {
	if snap := t.snap.Load(); snap != nil {
		if id, ok := (*snap)[s]; ok {
			return id
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.dirty[s]; ok {
		return id
	}
	// Re-check the snapshot: a promotion may have landed between the
	// lock-free probe and acquiring the lock.
	if snap := t.snap.Load(); snap != nil {
		if id, ok := (*snap)[s]; ok {
			return id
		}
	}
	id := uint32(t.appendLocked(s))
	if t.dirty == nil {
		t.dirty = make(map[string]uint32)
	}
	t.dirty[s] = id
	t.dirtyN.Store(int32(len(t.dirty)))
	t.promoteLocked()
	return id
}

// ID returns the id of s if it has been interned. Unlike Intern it
// never grows the table, so probing with a never-stored key stays a
// cheap miss.
func (t *Table) ID(s string) (uint32, bool) {
	snap := t.snap.Load()
	if snap != nil {
		if id, ok := (*snap)[s]; ok {
			return id, true
		}
	}
	// A promotion publishes the new snapshot before it empties the dirty
	// tier, so an empty dirty tier behind an unchanged snapshot is a
	// true miss; otherwise s may have moved from the dirty tier into a
	// newer snapshot since the probe above — look in both under the lock.
	if t.dirtyN.Load() == 0 && t.snap.Load() == snap {
		return 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.dirty[s]; ok {
		return id, true
	}
	if cur := t.snap.Load(); cur != nil {
		id, ok := (*cur)[s]
		return id, ok
	}
	return 0, false
}

// Lookup returns the string interned as id, or "" if id was never
// assigned (including the reserved id 0).
func (t *Table) Lookup(id uint32) string {
	strs := t.strs.Load()
	if strs == nil || id == 0 || int(id) > len(*strs) {
		return ""
	}
	return (*strs)[id-1]
}

// Len reports how many strings have been interned.
func (t *Table) Len() int {
	if strs := t.strs.Load(); strs != nil {
		return len(*strs)
	}
	return 0
}

// appendLocked appends s to the reverse-lookup slice and republishes
// it, returning the 1-based id. Callers hold t.mu. Readers holding the
// previous header never see the new element (their len excludes it),
// so reusing spare capacity is safe: the element is written before the
// longer header is atomically published, and the atomic store/load
// pair orders the write for readers of the new header.
func (t *Table) appendLocked(s string) int {
	var cur []string
	if p := t.strs.Load(); p != nil {
		cur = *p
	}
	var next []string
	if cap(cur) > len(cur) {
		next = cur[: len(cur)+1 : cap(cur)]
	} else {
		next = make([]string, len(cur)+1, 2*len(cur)+8)
		copy(next, cur)
	}
	next[len(cur)] = s
	t.strs.Store(&next)
	return len(next)
}

// promoteLocked merges dirty into a fresh snapshot once dirty has
// grown past a quarter of the snapshot (with a floor so tiny tables
// don't thrash). Amortized O(1) per insert. Callers hold t.mu.
func (t *Table) promoteLocked() {
	var snapLen int
	snap := t.snap.Load()
	if snap != nil {
		snapLen = len(*snap)
	}
	if len(t.dirty) < 16 && snapLen > 0 {
		return
	}
	if 4*len(t.dirty) < snapLen {
		return
	}
	next := make(map[string]uint32, snapLen+len(t.dirty))
	if snap != nil {
		for s, id := range *snap {
			next[s] = id
		}
	}
	for s, id := range t.dirty {
		next[s] = id
	}
	t.snap.Store(&next)
	t.dirty = nil
	t.dirtyN.Store(0)
}
