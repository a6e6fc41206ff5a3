package costlab

import (
	"context"
	"sort"

	"repro/internal/design"
	"repro/internal/flight"
	"repro/internal/intern"
	"repro/internal/obs"
	"repro/internal/sql"
)

// Memo is a concurrency-safe cost memo keyed by (query identity,
// configuration signature). It is the persistence layer behind
// incremental re-pricing: a design session records every cost it
// computes, EvaluateDelta serves repeat jobs from it without touching
// the estimator, and advisors can warm-start from a memo a session
// already filled.
//
// Identities are interned: the memo maps each canonical statement key
// (printed SQL) and configuration key (ConfigKey) to a dense uint32 id
// once, and every probe after that hashes a Key of two machine words
// instead of two long strings. The costs themselves live in a
// flight.Cache — lock-free reads, an optional CLOCK-evicting cap
// (NewMemoBounded; an evicted cost simply re-misses and re-prices), and
// in-flight deduplication: two batches needing the same missing cost
// at the same time issue one estimator call between them, the second
// waiting on the first. Probes for identities nobody ever interned stay
// cheap misses and never grow the interners.
//
// Costs from different estimator backends are NOT interchangeable
// (INUM reconstructs, Full optimizes); a memo must only ever be fed
// by — and serve — one backend kind. Callers own that pairing.
type Memo struct {
	stmts intern.Table
	cfgs  intern.Table
	costs *flight.Cache[Key, float64]
}

// Key is an interned (statement, configuration) memo key. The zero
// Key is never valid: interned ids start at 1.
type Key struct{ Stmt, Cfg uint32 }

// NewMemo returns an empty, unbounded memo.
func NewMemo() *Memo { return NewMemoBounded(0) }

// NewMemoBounded returns an empty memo whose cost table is capped at
// roughly capTotal entries (0 = unbounded). The interners themselves
// stay append-only: identities are tiny next to priced states, and
// stable ids are what keep evicted costs re-priceable under the same
// key.
func NewMemoBounded(capTotal int) *Memo {
	return &Memo{
		costs: flight.NewCache[Key, float64](capTotal, func(k Key) uint32 {
			return intern.Mix32(k.Stmt, k.Cfg)
		}),
	}
}

// InternStmt interns the canonical identity of a statement (its
// printed SQL) and returns its dense id. Sessions do this once at
// statement birth and probe by id afterwards.
func (mo *Memo) InternStmt(stmt *sql.Select) uint32 {
	return mo.stmts.Intern(sql.PrintSelect(stmt))
}

// InternStmtKey interns a pre-printed statement identity.
func (mo *Memo) InternStmtKey(stmtKey string) uint32 { return mo.stmts.Intern(stmtKey) }

// InternConfig interns the canonical identity of a configuration.
func (mo *Memo) InternConfig(cfg Config) uint32 { return mo.cfgs.Intern(ConfigKey(cfg)) }

// InternCfgKey interns a pre-computed configuration (or projected
// design signature) key — the design session keys configurations by
// projected design signature rather than Config.
func (mo *Memo) InternCfgKey(cfgKey string) uint32 { return mo.cfgs.Intern(cfgKey) }

// ConfigKey returns the canonical identity of a configuration: the
// sorted spec keys — design.Key of the index-only design, so joint
// designs and plain configurations share one key space.
// Order-insensitive, so permutations of one index set share memo
// entries.
func ConfigKey(cfg Config) string { return design.Key(design.Design{Indexes: cfg}) }

// Lookup returns the memoized cost of (stmt, cfg) and whether one is
// recorded, counting a hit or a miss. Identities never interned have
// id 0, which no stored key holds, so they count as plain misses.
func (mo *Memo) Lookup(stmt *sql.Select, cfg Config) (float64, bool) {
	s, _ := mo.stmts.ID(sql.PrintSelect(stmt))
	c, _ := mo.cfgs.ID(ConfigKey(cfg))
	return mo.LookupID(Key{s, c})
}

// LookupID is Lookup over an interned key — the hot path: no string
// hashing, no lock.
func (mo *Memo) LookupID(k Key) (float64, bool) { return mo.costs.Get(k) }

// StoreIDIfAbsent records a cost priced elsewhere (a session mirroring
// its states, a restore) unless the key is present. Like every
// recorded-not-priced value it moves no counter.
func (mo *Memo) StoreIDIfAbsent(k Key, cost float64) { mo.costs.Put(k, cost) }

// Resolve returns the cost of every key, pricing only the missing ones
// through price, once across all concurrent callers (see
// flight.Cache.Resolve).
func (mo *Memo) Resolve(ctx context.Context, keys []Key, price func(led []int) ([]float64, error)) ([]float64, flight.Batch, error) {
	return mo.costs.Resolve(ctx, keys, price)
}

// MemoStats reports a memo's lifetime counters: its cost cache's
// (flight.Stats) plus the interner sizes.
type MemoStats struct {
	flight.Stats
	// InternedStmts and InternedCfgs are the interner sizes: how many
	// distinct statement and configuration identities the memo has ever
	// seen. Sessions churning over the same workload must not grow
	// these — they are the leak watch for the append-only interners.
	InternedStmts int
	InternedCfgs  int
}

// Stats returns the memo's lifetime counters.
func (mo *Memo) Stats() MemoStats {
	return MemoStats{Stats: mo.costs.Stats(), InternedStmts: mo.stmts.Len(), InternedCfgs: mo.cfgs.Len()}
}

// BatchStats reports how one incremental batch split between the memo,
// the in-flight coordination tier and the estimator.
type BatchStats struct {
	Hits   int // jobs served from the memo, no estimator call
	Misses int // jobs priced by the estimator (now memoized)
	// Coalesced counts jobs served by blocking on a concurrent
	// caller's in-flight pricing of the same key — estimator calls this
	// batch needed but did not pay for.
	Coalesced int
}

// jobKey resolves a job's interned memo key, preferring the ids the
// caller stamped on the job (see Job.StmtID) and interning the
// statement/configuration only as a fallback.
func (mo *Memo) jobKey(job Job) Key {
	k := Key{job.StmtID, job.CfgID}
	if k.Stmt == 0 {
		k.Stmt = mo.InternStmt(job.Stmt)
	}
	if k.Cfg == 0 {
		k.Cfg = mo.InternConfig(job.Config)
	}
	return k
}

// EvaluateDelta is the incremental sibling of EvaluateAll: jobs whose
// (statement, configuration) cost is already in memo are served
// without touching est, and only the remainder fans out over the
// worker pool (which then records its results back into memo).
// Results are in job order; the returned stats make the incremental
// saving observable. Concurrent calls over one memo price a missing
// key once between them (memo.Resolve); a failed batch records
// nothing. A Full estimator is served one design at a time: the led
// jobs are grouped by configuration, so each pooled session moves to a
// design once and plans that design's statements back to back.
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
		keys[i] = memo.jobKey(job)
	}
	costs, b, err := memo.Resolve(ctx, keys, func(led []int) ([]float64, error) {
		price := func(j int) (float64, error) { return est.Cost(jobs[j].Stmt, jobs[j].Config) }
		order := make([]int, len(led)) // positions into led, in pricing order
		for p := range order {
			order[p] = p
		}
		if f, ok := est.(*Full); ok {
			// One design at a time: the led jobs grouped by configuration,
			// each group's Target keyed by its interned string.
			targets := map[uint32]*Target{}
			for _, j := range led {
				if c := keys[j].Cfg; targets[c] == nil {
					targets[c] = configTarget(jobs[j].Config, memo.cfgs.Lookup(c))
				}
			}
			if len(targets) > 1 {
				sort.SliceStable(order, func(a, b int) bool { return keys[led[order[a]]].Cfg < keys[led[order[b]]].Cfg })
			}
			price = func(j int) (float64, error) { return f.cost(jobs[j].Stmt, targets[keys[j].Cfg]) }
		}
		out := make([]float64, len(led))
		return out, forEach(ctx, len(led), workers, func(q int) error {
			p := order[q]
			cost, err := price(led[p])
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

// ---------------------------------------------------------------------
// Durability surface: string-keyed export/restore
// ---------------------------------------------------------------------
//
// Interned uint32 ids are process-local — they number keys in arrival
// order, which differs run to run — so anything persisted must carry
// the canonical strings. CostRecord is that wire form; Export and
// Restore round-trip the memo through it.

// StmtKey returns the canonical statement string behind an interned
// statement id ("" if unknown).
func (mo *Memo) StmtKey(id uint32) string { return mo.stmts.Lookup(id) }

// CostRecord is one memoized (statement, configuration) cost under
// its canonical string keys — the process-restart-stable form.
type CostRecord struct {
	Stmt string  `json:"stmt"`
	Cfg  string  `json:"cfg"`
	Cost float64 `json:"cost"`
}

// Export snapshots every memoized cost under string keys. Weakly
// consistent under concurrent stores (see intern.Bounded.Range).
func (mo *Memo) Export() []CostRecord {
	out := make([]CostRecord, 0, mo.costs.Len())
	mo.costs.Range(func(k Key, cost float64) bool {
		out = append(out, CostRecord{Stmt: mo.stmts.Lookup(k.Stmt), Cfg: mo.cfgs.Lookup(k.Cfg), Cost: cost})
		return true
	})
	return out
}

// Restore re-publishes an exported cost (idempotent: present keys are
// left untouched).
func (mo *Memo) Restore(rec CostRecord) {
	mo.StoreIDIfAbsent(Key{mo.stmts.Intern(rec.Stmt), mo.cfgs.Intern(rec.Cfg)}, rec.Cost)
}
