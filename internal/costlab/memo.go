package costlab

import (
	"context"
	"errors"
	"sync/atomic"

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
// once, at first store, and every probe after that hashes a Key of two
// machine words instead of two long strings. Lookups and warm stores
// are lock-free — the cost table is sharded by key hash, each shard an
// atomic-snapshot map (see intern.Bounded) — so concurrent sessions
// sharing one memo never contend on the hit path. String-keyed probes
// for keys nobody ever stored stay cheap misses and never grow the
// interners. A memo built with NewMemoBounded additionally caps the
// cost table, CLOCK-evicting cold entries; an evicted cost simply
// re-misses and re-prices.
//
// The memo also dedups *in-flight* pricing: EvaluateDelta coordinates
// concurrent callers through a flight.Group keyed by the interned Key,
// so two batches needing the same missing cost at the same time issue
// one estimator call between them, the second blocking on the first.
//
// Costs from different estimator backends are NOT interchangeable
// (INUM reconstructs, Full optimizes); a memo must only ever be fed
// by — and serve — one backend kind. Callers own that pairing.
type Memo struct {
	stmts intern.Table
	cfgs  intern.Table
	costs *intern.Bounded[Key, float64]

	flights flight.Group[Key, float64]

	hits      atomic.Int64
	misses    atomic.Int64
	stores    atomic.Int64
	dupStores atomic.Int64
}

// Key is an interned (statement, configuration) memo key. The zero
// Key is never valid: interned ids start at 1.
type Key struct{ Stmt, Cfg uint32 }

// NewMemo returns an empty, unbounded memo.
func NewMemo() *Memo { return NewMemoBounded(0) }

// NewMemoBounded returns an empty memo whose cost table is capped at
// roughly capTotal entries (0 = unbounded), spread over
// intern.DefaultShards CLOCK-evicting shards. The interners themselves
// stay append-only: identities are tiny next to priced states, and
// stable ids are what keep evicted costs re-priceable under the same
// key.
func NewMemoBounded(capTotal int) *Memo {
	return &Memo{
		costs: intern.NewBounded[Key, float64](intern.DefaultShards, capTotal, func(k Key) uint32 {
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
// recorded, bumping the hit/miss counters.
func (mo *Memo) Lookup(stmt *sql.Select, cfg Config) (float64, bool) {
	return mo.LookupKey(sql.PrintSelect(stmt), ConfigKey(cfg))
}

// LookupKey is Lookup over pre-computed string keys. A key that was
// never stored is a guaranteed miss and does not grow the interners.
func (mo *Memo) LookupKey(stmtKey, cfgKey string) (float64, bool) {
	stmt, ok := mo.stmts.ID(stmtKey)
	if !ok {
		mo.misses.Add(1)
		return 0, false
	}
	cfg, ok := mo.cfgs.ID(cfgKey)
	if !ok {
		mo.misses.Add(1)
		return 0, false
	}
	return mo.LookupID(Key{stmt, cfg})
}

// LookupID is Lookup over an interned key — the hot path: no string
// hashing, no lock.
func (mo *Memo) LookupID(k Key) (float64, bool) {
	cost, ok := mo.costs.Get(k)
	if ok {
		mo.hits.Add(1)
	} else {
		mo.misses.Add(1)
	}
	return cost, ok
}

// Store records the cost of (stmt, cfg).
func (mo *Memo) Store(stmt *sql.Select, cfg Config, cost float64) {
	mo.StoreID(Key{mo.InternStmt(stmt), mo.InternConfig(cfg)}, cost)
}

// StoreKey is Store over pre-computed string keys (interning them).
func (mo *Memo) StoreKey(stmtKey, cfgKey string, cost float64) {
	mo.StoreID(Key{mo.stmts.Intern(stmtKey), mo.cfgs.Intern(cfgKey)}, cost)
}

// StoreID records a cost under an interned key. Costs are idempotent —
// re-pricing a key yields the same cost — so first writer wins. A
// store whose key is already recorded counts as a duplicate: the
// caller priced work the memo already held — under a shared memo, the
// signature of concurrent sessions racing to price the same job.
// Callers that merely mirror state they may have published before
// (and did not re-price) should use StoreIDIfAbsent so the DupStores
// counter keeps meaning "duplicated pricing work".
func (mo *Memo) StoreID(k Key, cost float64) {
	dup := !mo.costs.PutIfAbsent(k, cost)
	mo.stores.Add(1)
	if dup {
		mo.dupStores.Add(1)
	}
}

// StoreKeyIfAbsent records the cost only when the key is missing, and
// counts neither a store nor a duplicate otherwise — the idempotent
// publication path for callers re-mirroring known state.
func (mo *Memo) StoreKeyIfAbsent(stmtKey, cfgKey string, cost float64) {
	mo.StoreIDIfAbsent(Key{mo.stmts.Intern(stmtKey), mo.cfgs.Intern(cfgKey)}, cost)
}

// StoreIDIfAbsent is StoreKeyIfAbsent over an interned key. The warm
// path (key already published) is lock-free.
func (mo *Memo) StoreIDIfAbsent(k Key, cost float64) {
	if mo.costs.PutIfAbsent(k, cost) {
		mo.stores.Add(1)
	}
}

// MemoStats reports a memo's lifetime counters.
type MemoStats struct {
	Hits    int64 // lookups served from the memo
	Misses  int64 // lookups that found nothing
	Entries int   // recorded (query, configuration) costs
	Stores  int64 // store calls, duplicates included
	// DupStores counts stores that found their key already recorded —
	// pricing work duplicated by concurrent sessions sharing the memo
	// (the contention the shared-memo design is meant to shrink).
	DupStores int64
	// InternedStmts and InternedCfgs are the interner sizes: how many
	// distinct statement and configuration identities the memo has ever
	// seen. Sessions churning over the same workload must not grow
	// these — they are the leak watch for the append-only interners.
	InternedStmts int
	InternedCfgs  int
	// Evictions counts cost entries the cap has dropped (0 on an
	// unbounded memo).
	Evictions int64
	// InflightWaits / CoalescedCalls / Handovers are the singleflight
	// tier's counters: waits begun on another caller's in-flight
	// pricing, waits that were served its result (estimator calls
	// saved), and waits that outlived an abandoned leader.
	InflightWaits  int64
	CoalescedCalls int64
	Handovers      int64
}

// FlightStats reports the memo's singleflight tier directly (Stats
// folds the wait-side counters in; this adds Leads for the /metrics
// flight family).
func (mo *Memo) FlightStats() flight.Stats { return mo.flights.Stats() }

// Stats returns the memo's lifetime counters.
func (mo *Memo) Stats() MemoStats {
	fs := mo.flights.Stats()
	return MemoStats{
		Hits:           mo.hits.Load(),
		Misses:         mo.misses.Load(),
		Entries:        mo.costs.Len(),
		Stores:         mo.stores.Load(),
		DupStores:      mo.dupStores.Load(),
		InternedStmts:  mo.stmts.Len(),
		InternedCfgs:   mo.cfgs.Len(),
		Evictions:      mo.costs.Evictions(),
		InflightWaits:  fs.Waits,
		CoalescedCalls: fs.Coalesced,
		Handovers:      fs.Handovers,
	}
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
// saving observable. A nil memo degrades to plain EvaluateAll.
//
// Concurrent EvaluateDelta calls over one memo coordinate through its
// singleflight tier: a missing key another caller is already pricing
// is waited on (context-aware) instead of re-priced, so N callers
// needing the same cost pay for one estimator call. The protocol is
// two-phase — price and publish every key this call leads, then wait
// on foreign keys — which keeps any number of concurrent batches
// deadlock-free: a blocked batch never holds an unpublished
// leadership. A leader that fails abandons its keys; its waiters take
// over and price them locally.
//
// When ctx carries an obs.Span (the serve layer's request tracing),
// the batch's outcome is added to it: memo hits as shared hits, led
// keys as leads, waits served as coalesced calls, plus the estimator
// plan-call delta when est exposes PlanCalls.
func EvaluateDelta(ctx context.Context, est CostEstimator, jobs []Job, memo *Memo, workers int) ([]float64, BatchStats, error) {
	sp := obs.SpanFromContext(ctx)
	if sp == nil {
		return evaluateDelta(ctx, est, jobs, memo, workers)
	}
	pc, _ := est.(interface{ PlanCalls() int64 })
	var pc0 int64
	if pc != nil {
		pc0 = pc.PlanCalls()
	}
	costs, stats, err := evaluateDelta(ctx, est, jobs, memo, workers)
	sp.AddSharedHits(int64(stats.Hits))
	sp.AddLed(int64(stats.Misses))
	sp.AddCoalesced(int64(stats.Coalesced))
	if pc != nil {
		sp.AddPlanCalls(pc.PlanCalls() - pc0)
	}
	return costs, stats, err
}

func evaluateDelta(ctx context.Context, est CostEstimator, jobs []Job, memo *Memo, workers int) ([]float64, BatchStats, error) {
	if memo == nil {
		costs, err := EvaluateAll(ctx, est, jobs, workers)
		return costs, BatchStats{Misses: len(jobs)}, err
	}
	results := make([]float64, len(jobs))
	keys := make([]Key, len(jobs))
	var stats BatchStats
	var missIdx []int                          // jobs this call leads (prices with est)
	var tickets []*flight.Ticket[Key, float64] // aligned with missIdx
	var waitIdx []int                          // jobs another caller is pricing
	var waitTks []*flight.Ticket[Key, float64] // aligned with waitIdx
	// Strand-proofing: abandoning a resolved ticket is a no-op, so on
	// any error path every unpublished leadership is released and its
	// waiters hand over instead of hanging.
	defer func() {
		for _, tk := range tickets {
			tk.Abandon()
		}
	}()
	for i, job := range jobs {
		keys[i] = memo.jobKey(job)
		if cost, ok := memo.LookupID(keys[i]); ok {
			results[i] = cost
			stats.Hits++
			continue
		}
		tk, leader := memo.flights.TryLead(keys[i])
		if !leader {
			waitIdx = append(waitIdx, i)
			waitTks = append(waitTks, tk)
			continue
		}
		// Leadership won after a miss: the miss may be stale (a prior
		// leader published and resolved in between) — re-probe before
		// paying the estimator.
		if cost, ok := memo.costs.Get(keys[i]); ok {
			tk.Fulfill(cost)
			results[i] = cost
			stats.Hits++
			continue
		}
		missIdx = append(missIdx, i)
		tickets = append(tickets, tk)
	}
	stats.Misses = len(missIdx)
	// Phase 1: price and publish every key this call leads.
	if len(missIdx) > 0 {
		err := forEach(ctx, len(missIdx), workers, func(p int) error {
			i := missIdx[p]
			cost, err := est.Cost(jobs[i].Stmt, jobs[i].Config)
			if err != nil {
				return &JobError{Index: i, Err: err}
			}
			results[i] = cost
			memo.StoreID(keys[i], cost)
			tickets[p].Fulfill(cost)
			return nil
		})
		if err != nil {
			return nil, stats, err
		}
	}
	// Phase 2: collect the costs foreign leaders are producing. A
	// handover (abandoned leader) loops back to leading the key — by
	// then it is usually published; otherwise this call prices it.
	for p, i := range waitIdx {
		tk := waitTks[p]
		for {
			cost, err := tk.Wait(ctx)
			if err == nil {
				results[i] = cost
				stats.Coalesced++
				break
			}
			if !errors.Is(err, flight.ErrAbandoned) {
				return nil, stats, err
			}
			var leader bool
			tk, leader = memo.flights.TryLead(keys[i])
			if !leader {
				continue
			}
			if cost, ok := memo.costs.Get(keys[i]); ok {
				tk.Fulfill(cost)
				results[i] = cost
				stats.Coalesced++
				break
			}
			cost, cerr := est.Cost(jobs[i].Stmt, jobs[i].Config)
			if cerr != nil {
				tk.Abandon()
				return nil, stats, &JobError{Index: i, Err: cerr}
			}
			results[i] = cost
			memo.StoreID(keys[i], cost)
			tk.Fulfill(cost)
			stats.Misses++
			break
		}
	}
	return results, stats, nil
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

// CfgKey returns the canonical configuration string behind an
// interned configuration id ("" if unknown).
func (mo *Memo) CfgKey(id uint32) string { return mo.cfgs.Lookup(id) }

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
// left untouched and counted as neither stores nor duplicates).
func (mo *Memo) Restore(rec CostRecord) {
	mo.StoreKeyIfAbsent(rec.Stmt, rec.Cfg, rec.Cost)
}
