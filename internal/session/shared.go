package session

import (
	"context"
	"hash/maphash"
	"sync/atomic"

	"repro/internal/costlab"
	"repro/internal/flight"
	"repro/internal/intern"
)

// SharedMemo is the cross-session pricing memo behind multi-tenant
// serving: many DesignSessions over one read-only catalog share one,
// so a (query, projected-design) state any tenant priced is served to
// every other tenant with zero optimizer calls — including the
// workload-sized base pricing a fresh session performs at creation.
//
// It has two tiers. The state tier holds full query states (cost,
// rewrite, indexes used — named by design key, so sessions whose
// what-if name counters diverged still exchange states) keyed by
// (statement id, projected design signature). The cost tier is a
// costlab.Memo holding plain (query, index-configuration) costs; it
// doubles as every attached session's Memo(), so advisor warm starts
// see the union of all tenants' pricing work. Statement ids are
// interned once, in the cost tier's interner, when a session is born,
// so the per-edit probe path hashes an id and the signature string,
// lock-free (the state tier is sharded, each shard an atomic-snapshot
// map, see intern.Bounded), instead of taking an RWMutex over full
// printed-SQL keys. Signatures are not interned: a key lives exactly as
// long as its state, so an evicted state frees it.
//
// The memo dedups in-flight work, not just completed work: a state one
// session is still planning is acquired by every other session as a
// wait ticket (see internal/flight), so N tenants needing the same
// missing state issue one batch of plan calls between them — the
// leader's — and creating N identical tenants concurrently prices the
// base workload once, not N times. A leader that fails abandons its
// keys and a waiter takes over, so no tenant is ever stranded.
//
// The memo lives as long as its owner (the serve Manager keeps one for
// its whole life). Unbounded — the default — it is append-only:
// distinct (query, design) states accumulate without eviction, which
// is the point — any tenant may revisit them for free — but memory
// grows with the number of distinct states ever priced. Built with
// NewSharedMemoBounded (`serve -memo-cap`), both tiers instead cap
// their entry count, CLOCK-evicting the states read least recently.
// The cap trades the "revisit for free" contract down to "revisit the
// states you keep warm for free": an evicted state is not an error,
// it simply re-misses and re-prices (and re-publishes) on next use,
// while the cost tier's interners — whose ids keep evicted states
// re-publishable under stable keys — stay append-only in both modes.
// States hold only flat strings to keep entries small, and Stats
// (per-shard sizes, evictions, in-flight counters) is the operator's
// watch on all of it.
//
// All methods are safe for concurrent use; the sessions sharing a
// SharedMemo may live on different goroutines (each individual
// session still requires external serialization).
type SharedMemo struct {
	costs  *costlab.Memo
	states *intern.Bounded[stateKey, *queryState]

	// flights coordinates in-flight state pricing across sessions:
	// exactly one session plans a missing (stmt, sig) state at a time,
	// everyone else waits for its publication.
	flights flight.Group[stateKey, *queryState]

	// onPublish, when non-nil, observes every first-writer state
	// publication under canonical string keys (see SetOnPublish).
	onPublish atomic.Pointer[func(SharedState)]

	hits   atomic.Int64
	misses atomic.Int64
	stores atomic.Int64
	// dupStores counts state publications that found their key
	// already present: two sessions raced to price the same state —
	// the duplicated work the singleflight tier exists to eliminate
	// (it pins this at zero; see the serve manager race gauntlet).
	dupStores atomic.Int64
}

// stateKey is a (statement, projected signature) pair. The statement
// id comes from the cost tier's interner (sessions hold it as
// DesignSession.stmtIDs).
type stateKey struct {
	stmt uint32
	sig  string
}

// NewSharedMemo returns an empty, unbounded shared memo.
func NewSharedMemo() *SharedMemo { return NewSharedMemoBounded(0) }

// NewSharedMemoBounded returns an empty shared memo whose state and
// cost tiers are each capped at roughly capTotal entries (0 =
// unbounded), spread over intern.DefaultShards CLOCK-evicting shards.
// See the type comment for what the cap does to the revisit-for-free
// contract.
func NewSharedMemoBounded(capTotal int) *SharedMemo {
	seed := maphash.MakeSeed()
	return &SharedMemo{
		costs: costlab.NewMemoBounded(capTotal),
		states: intern.NewBounded[stateKey, *queryState](intern.DefaultShards, capTotal, func(k stateKey) uint32 {
			return intern.Mix32(k.stmt, uint32(maphash.String(seed, k.sig)))
		}),
	}
}

// Costs exposes the memo's cost tier (full-optimizer costs only).
func (m *SharedMemo) Costs() *costlab.Memo { return m.costs }

// acquireRole says how a session obtained a (stmt, sig) state slot.
type acquireRole int

const (
	// roleHit: the state is published; use it directly.
	roleHit acquireRole = iota
	// roleLead: this session must price the state and release the
	// ticket via publish (or Abandon on failure).
	roleLead
	// roleWait: another session is pricing the state; block on the
	// ticket via wait — after publishing everything this session
	// leads.
	roleWait
)

// acquire resolves the slot of (stmtID, sig) for re-pricing: a
// published state, leadership of the missing state, or a wait ticket
// on the session already pricing it.
func (m *SharedMemo) acquire(stmtID uint32, sig string) (*queryState, *flight.Ticket[stateKey, *queryState], acquireRole) {
	k := stateKey{stmtID, sig}
	if st, ok := m.states.Get(k); ok {
		m.hits.Add(1)
		return st, nil, roleHit
	}
	tk, leader := m.flights.TryLead(k)
	if !leader {
		return nil, tk, roleWait
	}
	// Leadership won after a miss: the miss may be stale (the prior
	// leader published and resolved in between) — re-probe before
	// reporting a lead.
	if st, ok := m.states.Get(k); ok {
		tk.Fulfill(st)
		m.hits.Add(1)
		return st, nil, roleHit
	}
	m.misses.Add(1)
	return nil, tk, roleLead
}

// wait blocks on a foreign leader's pricing of a state. A nil error
// means the state arrived (counted as a hit — it cost this session no
// plan calls); flight.ErrAbandoned means the leader gave up and the
// caller should re-acquire the key.
func (m *SharedMemo) wait(ctx context.Context, tk *flight.Ticket[stateKey, *queryState]) (*queryState, error) {
	st, err := tk.Wait(ctx)
	if err != nil {
		return nil, err
	}
	m.hits.Add(1)
	return st, nil
}

// publish stores a state and releases the leader's ticket,
// waking every session waiting on it. First writer wins: a duplicate
// publication is dropped (and counted), so concurrent readers never
// see an entry's pointer change — with the singleflight tier
// serializing leaders per key, duplicates cannot happen.
func (m *SharedMemo) publish(tk *flight.Ticket[stateKey, *queryState], stmtID uint32, sig string, st *queryState) {
	dup := !m.states.PutIfAbsent(stateKey{stmtID, sig}, st)
	m.stores.Add(1)
	if dup {
		m.dupStores.Add(1)
	} else if fn := m.onPublish.Load(); fn != nil {
		(*fn)(SharedState{
			Stmt:        m.costs.StmtKey(stmtID),
			Sig:         sig,
			Cost:        st.cost,
			Rewritten:   st.rewrittenSQL,
			IndexesUsed: append([]string(nil), st.indexesUsed...),
		})
	}
	if tk != nil {
		tk.Fulfill(st)
	}
}

// SharedStats reports a shared memo's lifetime counters.
type SharedStats struct {
	Hits   int64 `json:"hits"`   // state lookups served (in-flight waits included)
	Misses int64 `json:"misses"` // state acquisitions that had to plan
	States int   `json:"states"` // published (query, design) states
	Stores int64 `json:"stores"` // state publications, duplicates included
	// DupStores counts publications that lost the race to an earlier
	// identical one — pricing work duplicated by concurrent tenants.
	// The singleflight tier pins this at zero.
	DupStores int64 `json:"dupStores"`
	// InflightWaits counts the times a session blocked on a state
	// another session was already planning, and CoalescedPlanCalls the
	// waits that were served that session's result — whole pricing
	// batches saved. Handovers counts waits that outlived an abandoned
	// leader and re-acquired the key.
	InflightWaits      int64 `json:"inflightWaits"`
	CoalescedPlanCalls int64 `json:"coalescedPlanCalls"`
	Handovers          int64 `json:"handovers"`
	// Evictions counts state-tier entries dropped by the memo cap (0
	// when unbounded); ShardSizes is the live entry count per state-
	// tier shard — with a cap, every element stays ≤ cap/shards.
	Evictions  int64             `json:"evictions"`
	ShardSizes []int             `json:"shardSizes"`
	Costs      costlab.MemoStats `json:"-"` // cost-tier counters
}

// FlightStats reports the state tier's singleflight counters directly
// (SharedStats folds the wait-side ones in; this adds Leads for the
// /metrics flight family).
func (m *SharedMemo) FlightStats() flight.Stats { return m.flights.Stats() }

// Stats returns the memo's lifetime counters.
func (m *SharedMemo) Stats() SharedStats {
	fs := m.flights.Stats()
	return SharedStats{
		Hits:               m.hits.Load(),
		Misses:             m.misses.Load(),
		States:             m.states.Len(),
		Stores:             m.stores.Load(),
		DupStores:          m.dupStores.Load(),
		InflightWaits:      fs.Waits,
		CoalescedPlanCalls: fs.Coalesced,
		Handovers:          fs.Handovers,
		Evictions:          m.states.Evictions(),
		ShardSizes:         m.states.ShardSizes(),
		Costs:              m.costs.Stats(),
	}
}

// ---------------------------------------------------------------------
// Durability surface: string-keyed state export/restore + publish hook
// ---------------------------------------------------------------------

// SharedState is one published (query, projected design) state under
// its canonical string keys — the process-restart-stable form of a
// state-tier entry (interned ids renumber across restarts, so they
// never leave the process). Records written before explains stopped
// being stored may carry an "explain" field; decoding ignores it.
type SharedState struct {
	Stmt        string   `json:"stmt"`
	Sig         string   `json:"sig"`
	Cost        float64  `json:"cost"`
	Rewritten   string   `json:"rewritten,omitempty"`
	IndexesUsed []string `json:"indexesUsed,omitempty"`
}

// SetOnPublish installs fn to run synchronously inside every non-
// duplicate state publication, with the state's canonical string keys.
// Pass nil to detach. The serve tier uses it to journal publications;
// it is attached only after recovery, so replayed restores never
// re-journal.
func (m *SharedMemo) SetOnPublish(fn func(SharedState)) {
	if fn == nil {
		m.onPublish.Store(nil)
		return
	}
	m.onPublish.Store(&fn)
}

// ExportStates snapshots every published state under string keys.
// Weakly consistent under concurrent publications (see
// intern.Bounded.Range) — callers pair it with WAL replay to catch
// states published mid-export.
func (m *SharedMemo) ExportStates() []SharedState {
	out := make([]SharedState, 0, m.states.Len())
	m.states.Range(func(k stateKey, st *queryState) bool {
		out = append(out, SharedState{
			Stmt:        m.costs.StmtKey(k.stmt),
			Sig:         k.sig,
			Cost:        st.cost,
			Rewritten:   st.rewrittenSQL,
			IndexesUsed: append([]string(nil), st.indexesUsed...),
		})
		return true
	})
	return out
}

// RestoreState re-publishes an exported state (idempotent — present
// keys win; no hook fires, no store is counted). Restores go through
// the cost tier's statement interner so a later live session born over
// the same workload sees the restored states as plain hits.
func (m *SharedMemo) RestoreState(st SharedState) {
	k := stateKey{m.costs.InternStmtKey(st.Stmt), st.Sig}
	m.states.PutIfAbsent(k, &queryState{
		rewrittenSQL: st.Rewritten,
		cost:         st.Cost,
		indexesUsed:  append([]string(nil), st.IndexesUsed...),
	})
}
