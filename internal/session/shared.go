package session

import (
	"hash/maphash"

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
// It has two tiers, both keyed by the one pricing identity (statement,
// projected design — design.ProjectedKey). The state tier holds full
// query states (cost, rewrite, indexes used — named by design key, so
// sessions whose what-if name counters diverged still exchange states)
// that design sessions price. The cost tier is the costlab.Memo behind
// every attached session's Memo() and the serve layer's recommend
// jobs: it holds plain costs under (statement, backend-tagged projected
// key) and reads the state tier through on a full-optimizer miss, so
// an advisor warm-starts from every state any tenant priced —
// partitioned and nested-loops-off designs included — without
// sessions mirroring anything into it. Statement ids are interned
// once, in the cost tier's interner, when a session is born, so the
// per-edit probe path hashes an id and the signature string and takes
// one shard's mutex (the state tier is sharded, see intern.Bounded),
// instead of taking an RWMutex over full printed-SQL keys. Signatures
// are not interned in the state tier: a key lives exactly as long as
// its state, so an evicted state frees it.
//
// The memo dedups in-flight work, not just completed work: both tiers
// are flight.Caches, so a state one session is still planning is
// waited on by every other session that needs it — N tenants needing
// the same missing state issue one batch of plan calls between them,
// the leader's, and creating N identical tenants concurrently prices
// the base workload once, not N times. A leader that fails abandons its
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
// while the cost tier's interners — whose ids keep evicted costs
// re-priceable under stable keys — stay append-only in both modes and
// grow only with what advisors price.
// States hold only flat strings to keep entries small, and Stats
// (per-shard sizes, evictions, in-flight counters) is the operator's
// watch on all of it.
//
// All methods are safe for concurrent use; the sessions sharing a
// SharedMemo may live on different goroutines (each individual
// session still requires external serialization).
type SharedMemo struct {
	costs  *costlab.Memo
	states *flight.Cache[stateKey, *queryState]
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
// unbounded), spread over intern.DefaultShards CLOCK-evicting shards,
// with the cost tier reading the state tier through. See the type
// comment for what the cap does to the revisit-for-free contract.
func NewSharedMemoBounded(capTotal int) *SharedMemo {
	seed := maphash.MakeSeed()
	m := &SharedMemo{
		states: flight.NewCache[stateKey, *queryState](capTotal, func(k stateKey) uint32 {
			return intern.Mix32(k.stmt, uint32(maphash.String(seed, k.sig)))
		}),
	}
	m.costs = costlab.NewMemoBounded(capTotal, func(stmt uint32, sig string) (float64, bool) {
		// Peek: the cost tier counts this read, the state tier does not.
		st, ok := m.states.Peek(stateKey{stmt, sig})
		if !ok {
			return 0, false
		}
		return st.cost, true
	})
	return m
}

// Costs exposes the memo's cost tier.
func (m *SharedMemo) Costs() *costlab.Memo { return m.costs }

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

// StateStats returns the state tier's cache counters.
func (m *SharedMemo) StateStats() flight.Stats { return m.states.Stats() }

// Stats returns the memo's lifetime counters.
func (m *SharedMemo) Stats() SharedStats {
	st := m.states.Stats()
	return SharedStats{
		Hits:               st.Hits,
		Misses:             st.Misses,
		States:             st.Entries,
		Stores:             st.Stores,
		DupStores:          st.DupStores,
		InflightWaits:      st.Waits,
		CoalescedPlanCalls: st.Coalesced,
		Handovers:          st.Handovers,
		Evictions:          st.Evictions,
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
// duplicate state publication, with the state's canonical string keys:
// after the state is stored, before the sessions waiting on it wake.
// Pass nil to detach. The serve tier uses it to journal publications;
// it is attached only after recovery, so replayed restores never
// re-journal.
func (m *SharedMemo) SetOnPublish(fn func(SharedState)) {
	if fn == nil {
		m.states.SetOnStore(nil)
		return
	}
	m.states.SetOnStore(func(k stateKey, st *queryState) { fn(m.sharedState(k, st)) })
}

// sharedState is a state-tier entry under its canonical string keys.
func (m *SharedMemo) sharedState(k stateKey, st *queryState) SharedState {
	return SharedState{
		Stmt:        m.costs.StmtKey(k.stmt),
		Sig:         k.sig,
		Cost:        st.cost,
		Rewritten:   st.rewrittenSQL,
		IndexesUsed: append([]string(nil), st.indexesUsed...),
	}
}

// ExportStates snapshots every published state under string keys.
// Weakly consistent under concurrent publications (see
// intern.Bounded.Range) — callers pair it with WAL replay to catch
// states published mid-export.
func (m *SharedMemo) ExportStates() []SharedState {
	out := make([]SharedState, 0, m.states.Len())
	m.states.Range(func(k stateKey, st *queryState) bool {
		out = append(out, m.sharedState(k, st))
		return true
	})
	return out
}

// RestoreState re-publishes an exported state (idempotent — present
// keys win; no hook fires, no counter moves). Restores go through
// the cost tier's statement interner so a later live session born over
// the same workload sees the restored states as plain hits.
func (m *SharedMemo) RestoreState(st SharedState) {
	k := stateKey{m.costs.InternStmtKey(st.Stmt), st.Sig}
	m.states.Put(k, &queryState{
		rewrittenSQL: st.Rewritten,
		cost:         st.Cost,
		indexesUsed:  append([]string(nil), st.IndexesUsed...),
	})
}
