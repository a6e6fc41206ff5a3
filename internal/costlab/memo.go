package costlab

import (
	"context"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/design"
	"repro/internal/flight"
	"repro/internal/intern"
	"repro/internal/inum"
	"repro/internal/obs"
	"repro/internal/sql"
)

// Memo is a concurrency-safe cost memo under one pricing identity:
// (statement, projected design, backend). The projected design is
// design.ProjectedKey with nested loops on — the objects on the tables
// the statement reads, the fact INUM rests on — so a design differing
// from a priced one only elsewhere is a hit; the backend tag keeps INUM
// and optimizer costs apart in one memo. EvaluateDelta and the
// recommender's evaluator serve repeats from it, and advisors
// warm-start from it. A memo built with a read-through (session.
// SharedMemo wires in its state tier) consults it on a full-optimizer
// miss, so a cost any design session priced is served, not planned.
//
// Identities are interned to dense uint32s, so a probe hashes two
// machine words: on the benchmark's recommend.joint job the cost tier
// is most of the heap, and string keys measured 32 % more of it than
// the interned pairs with their interners. Costs live in a flight.Cache
// (lock-free reads, an optional CLOCK-evicting cap, in-flight dedup:
// concurrent batches missing one cost price it once). Probes for
// identities nobody interned are misses that never grow the interners.
type Memo struct {
	stmts   intern.Table
	designs intern.Table // "backend:projected key"
	costs   *flight.Cache[Key, float64]

	// states, when non-nil, is the read-through; readHits counts the
	// keys it answered (hits to the memo, priced values to its cache).
	states   func(stmt uint32, projected string) (float64, bool)
	readHits atomic.Int64
}

// Key is an interned (statement, backend-tagged projected design) memo
// key. The zero Key is never valid: interned ids start at 1.
type Key struct{ Stmt, Design uint32 }

// NewMemo returns an empty, unbounded memo with no read-through.
func NewMemo() *Memo { return NewMemoBounded(0, nil) }

// NewMemoBounded returns an empty memo whose cost table is capped at
// roughly capTotal entries (0 = unbounded). The interners stay
// append-only: stable ids are what keep evicted costs re-priceable
// under the same key. states, when non-nil, is read through on a
// full-optimizer miss: it returns the cost priced elsewhere for (this
// memo's statement id, untagged projected key), if any.
func NewMemoBounded(capTotal int, states func(stmt uint32, projected string) (float64, bool)) *Memo {
	return &Memo{
		costs: flight.NewCache[Key, float64](capTotal, func(k Key) uint32 {
			return intern.Mix32(k.Stmt, k.Design)
		}),
		states: states,
	}
}

// InternStmt interns the canonical identity of a statement (its
// printed SQL) and returns its dense id.
func (mo *Memo) InternStmt(stmt *sql.Select) uint32 {
	return mo.stmts.Intern(sql.PrintSelect(stmt))
}

// InternStmtKey interns a pre-printed statement identity.
func (mo *Memo) InternStmtKey(stmtKey string) uint32 { return mo.stmts.Intern(stmtKey) }

// InternDesign interns a projected design key (design.ProjectedKey,
// nested loops on) under the backend of the estimator that prices it.
func (mo *Memo) InternDesign(est CostEstimator, projected string) uint32 {
	return mo.designs.Intern(tagged(backendOf(est), projected))
}

// tagged is the interned form of a projected key priced by backend.
func tagged(backend, projected string) string { return backend + ":" + projected }

// backendOf is est's memo tag: INUM reconstructs its costs, every other
// estimator is taken for the full optimizer.
func backendOf(est CostEstimator) string {
	if _, ok := est.(*INUM); ok {
		return BackendINUM
	}
	return BackendFull
}

// projectedKey is the projected design of a job carrying no ids: cfg
// as stmt's footprint sees it, nested loops on.
func projectedKey(stmt *sql.Select, cfg Config) string {
	return design.ProjectedKey(design.Design{Indexes: cfg}, nil, sql.FootprintOf(stmt), true)
}

// Lookup returns the memoized full-optimizer cost of (stmt, cfg) and
// whether one is recorded, counting a hit or a miss. It derives the key
// exactly as EvaluateDelta does for a job without ids priced by a
// full-optimizer estimator (any but INUM); INUM-priced costs are not
// visible through it. Identities never interned have id 0, which no
// stored key holds, so they count as plain misses.
func (mo *Memo) Lookup(stmt *sql.Select, cfg Config) (float64, bool) {
	s, _ := mo.stmts.ID(sql.PrintSelect(stmt))
	d, _ := mo.designs.ID(tagged(BackendFull, projectedKey(stmt, cfg)))
	return mo.LookupID(Key{s, d})
}

// LookupID is Lookup over an interned key — the hot path: no string
// hashing, no lock.
func (mo *Memo) LookupID(k Key) (float64, bool) { return mo.costs.Get(k) }

// jobKey resolves a job's interned memo key, preferring the ids the
// caller stamped on the job (see Job.StmtID) and deriving the rest from
// the statement's footprint, as Lookup does.
func (mo *Memo) jobKey(est CostEstimator, job Job) Key {
	k := Key{job.StmtID, job.DesignID}
	if k.Stmt == 0 {
		k.Stmt = mo.InternStmt(job.Stmt)
	}
	if k.Design == 0 {
		k.Design = mo.InternDesign(est, projectedKey(job.Stmt, job.Config))
	}
	return k
}

// Resolve returns the cost of every key, pricing only the missing ones
// through price, once across all concurrent callers (see
// flight.Cache.Resolve). A full-optimizer key the memo misses is first
// read through (NewMemoBounded): what that answers is stored like a
// priced cost but counts as a hit, and price never sees it.
func (mo *Memo) Resolve(ctx context.Context, keys []Key, price func(led []int) ([]float64, error)) ([]float64, flight.Batch, error) {
	if mo.states == nil {
		return mo.costs.Resolve(ctx, keys, price)
	}
	read := 0
	costs, b, err := mo.costs.Resolve(ctx, keys, func(led []int) ([]float64, error) {
		out := make([]float64, len(led))
		var rest, at []int // keys left to price, and their positions in led
		for p, i := range led {
			if cost, ok := mo.readThrough(keys[i]); ok {
				out[p] = cost
				read++
				continue
			}
			rest, at = append(rest, i), append(at, p)
		}
		if len(rest) > 0 {
			got, err := price(rest)
			if err != nil {
				return nil, err
			}
			for q, p := range at {
				out[p] = got[q]
			}
		}
		return out, nil
	})
	mo.readHits.Add(int64(read))
	b.Hits += read
	b.Led -= read
	return costs, b, err
}

// readThrough asks the read-through for a full-optimizer key.
func (mo *Memo) readThrough(k Key) (float64, bool) {
	projected, ok := strings.CutPrefix(mo.designs.Lookup(k.Design), tagged(BackendFull, ""))
	if !ok {
		return 0, false
	}
	return mo.states(k.Stmt, projected)
}

// StmtKey returns the canonical statement string behind an interned
// statement id ("" if unknown).
func (mo *Memo) StmtKey(id uint32) string { return mo.stmts.Lookup(id) }

// MemoStats reports a memo's lifetime counters: its cost cache's
// (flight.Stats, with read-through answers counted as hits) plus the
// interner sizes.
type MemoStats struct {
	flight.Stats
	// InternedStmts and InternedDesigns are the interner sizes: how many
	// distinct statement and backend-tagged projected-design identities
	// the memo has ever seen. Sessions intern only their statements, so
	// churning sessions over one workload must not grow either — they
	// are the leak watch for the append-only interners.
	InternedStmts   int
	InternedDesigns int
}

// Stats returns the memo's lifetime counters.
func (mo *Memo) Stats() MemoStats {
	st := mo.costs.Stats()
	read := mo.readHits.Load()
	st.Hits += read
	st.Misses -= read
	return MemoStats{Stats: st, InternedStmts: mo.stmts.Len(), InternedDesigns: mo.designs.Len()}
}

// BatchStats reports how one incremental batch split between the memo,
// the in-flight coordination tier and the estimator.
type BatchStats struct {
	Hits   int // jobs served from the memo (or its read-through), no estimator call
	Misses int // jobs priced by the estimator (now memoized)
	// Coalesced counts jobs served by blocking on a concurrent
	// caller's in-flight pricing of the same key — estimator calls this
	// batch needed but did not pay for.
	Coalesced int
}

// EvaluateDelta is the incremental sibling of EvaluateAll: jobs whose
// (statement, projected design, backend) cost is already in memo are
// served without touching est, and only the remainder fans out over the
// worker pool (which then records its results back into memo). Results
// are in job order; the returned stats make the incremental saving
// observable. Concurrent calls over one memo price a missing key once
// between them (memo.Resolve); a failed batch records nothing.
//
// A job's key holds only the specs on tables its statement reads, so a
// spec elsewhere is not part of its identity and is never checked by
// the memo: a hit serves the job whatever that spec is, and only a
// priced job, whose estimator installs the whole configuration, reports
// an invalid one. Callers validate configurations they did not build
// from the catalog (design.Validate) before pricing them.
//
// A Full estimator is served one design at a time: the led jobs are
// grouped by their whole design — never by projected id, which two
// statements may share under different designs — so each pooled
// session moves to a design once and plans that design's statements
// back to back. Other estimators claim the led jobs round-robin across
// statements (InterleaveByStmt), so INUM's shard mutexes don't
// serialize the pool.
//
// When ctx carries an obs.Span (the serve layer's request tracing),
// the batch's outcome is added to it: memo hits as shared hits, led
// keys as leads, waits served as coalesced calls, plus the estimator
// plan-call delta when est exposes PlanCalls.
func EvaluateDelta(ctx context.Context, est CostEstimator, jobs []Job, memo *Memo, workers int) ([]float64, BatchStats, error) {
	sp := obs.SpanFromContext(ctx)
	pc, _ := est.(interface{ PlanCalls() int64 })
	var pc0 int64
	if sp != nil && pc != nil {
		pc0 = pc.PlanCalls()
	}
	keys := make([]Key, len(jobs))
	for i, job := range jobs {
		keys[i] = memo.jobKey(est, job)
	}
	costs, b, err := memo.Resolve(ctx, keys, func(led []int) ([]float64, error) {
		order, price := scheduleLed(est, jobs, keys, led)
		out := make([]float64, len(led))
		return out, forEach(ctx, len(led), workers, func(q int) error {
			p := order[q]
			cost, err := price(p)
			if err != nil {
				return &JobError{Index: led[p], Err: err}
			}
			out[p] = cost
			return nil
		})
	})
	stats := BatchStats{Hits: b.Hits, Misses: b.Led, Coalesced: b.Coalesced}
	if sp != nil {
		sp.AddSharedHits(int64(stats.Hits))
		sp.AddLed(int64(stats.Misses))
		sp.AddCoalesced(int64(stats.Coalesced))
		if pc != nil {
			sp.AddPlanCalls(pc.PlanCalls() - pc0)
		}
	}
	return costs, stats, err
}

// scheduleLed returns the pricing order of the led jobs (positions into
// led) and the pricer of one position.
func scheduleLed(est CostEstimator, jobs []Job, keys []Key, led []int) ([]int, func(p int) (float64, error)) {
	f, ok := est.(*Full)
	if !ok {
		order := InterleaveByStmt(len(led), func(p int) int { return int(keys[led[p]].Stmt) })
		return order, func(p int) (float64, error) { return est.Cost(jobs[led[p]].Stmt, jobs[led[p]].Config) }
	}
	// Jobs sharing a configuration slice share its Target without
	// re-keying it; distinct slices holding one design share by key.
	type cfgRef struct {
		first *inum.IndexSpec
		n     int
	}
	byRef, byKey := map[cfgRef]int{}, map[string]int{}
	var targets []*Target
	group := make([]int, len(led))
	for p, j := range led {
		cfg := jobs[j].Config
		var ref cfgRef
		if len(cfg) > 0 {
			ref = cfgRef{&cfg[0], len(cfg)}
		}
		g, ok := byRef[ref]
		if !ok {
			t := configTarget(cfg)
			if g, ok = byKey[t.Key]; !ok {
				g = len(targets)
				targets = append(targets, t)
				byKey[t.Key] = g
			}
			byRef[ref] = g
		}
		group[p] = g
	}
	order := make([]int, len(led))
	for p := range order {
		order[p] = p
	}
	if len(targets) > 1 {
		sort.SliceStable(order, func(a, b int) bool { return group[order[a]] < group[order[b]] })
	}
	return order, func(p int) (float64, error) { return f.cost(jobs[led[p]].Stmt, targets[group[p]]) }
}
