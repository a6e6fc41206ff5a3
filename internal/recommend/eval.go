package recommend

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/costlab"
	"repro/internal/design"
	"repro/internal/inum"
	"repro/internal/sql"
)

// Evaluator is the pipeline's single evaluation core: every candidate
// design — an index configuration, a partition selection, or a joint
// design mixing both — prices through it.
//
// Index-only designs price through the selected costlab backend (INUM
// or full optimizer); designs carrying partitions always price through
// the full optimizer (INUM cannot reconstruct fragment-join plans) on
// one long-lived costlab.Full. Every price goes through the memo under
// one identity — (statement, projected design, backend) — computed once
// per footprint class per design, so a trial that differs from a priced
// design only on tables a query never reads is a hit for that query.
// The memo may be a SharedMemo's cost tier, in which case designs a DBA
// priced interactively are never re-planned.
type Evaluator struct {
	cat     *catalog.Catalog
	queries []Query
	stmts   []*sql.Select
	stmtIDs []uint32         // query identities interned in memo, stamped on jobs
	foot    []*sql.Footprint // per-query footprints
	class   []int            // per-query footprint class (design.Classes)
	workers int
	est     costlab.Backend
	full    *costlab.Full // partition trials and reports; est itself when estFull
	estFull bool
	memo    *costlab.Memo

	trials     atomic.Int64 // candidate designs priced
	memoHits   atomic.Int64
	memoMisses atomic.Int64

	// Lazy-sweep savings (see lazy.go): candidate evaluations served
	// entirely from the gain cache, and pricing jobs never built
	// because only footprint-stale queries are re-priced.
	evalsSkipped atomic.Int64
	jobsPruned   atomic.Int64

	mu         sync.Mutex
	searchBase []float64 // unweighted base costs through est
	reportBase []float64 // unweighted base costs through the full optimizer
}

// NewEvaluator builds the evaluation core for one workload. backend
// selects the index-pricing engine ("" defaults to INUM); memo may be
// nil for cold pricing.
func NewEvaluator(cat *catalog.Catalog, queries []Query, backend string, workers int, memo *costlab.Memo) (*Evaluator, error) {
	est, err := costlab.NewBackend(cat, backend)
	if err != nil {
		return nil, err
	}
	ev := newEvaluator(cat, queries, est, workers, memo)
	if ev.full, ev.estFull = est.(*costlab.Full); !ev.estFull {
		ev.full = costlab.NewFull(cat)
	}
	return ev, nil
}

// newEvaluator analyzes the workload once — statement ids interned in
// memo, footprints and their classes — for pricing through est.
func newEvaluator(cat *catalog.Catalog, queries []Query, est costlab.Backend, workers int, memo *costlab.Memo) *Evaluator {
	if memo == nil {
		memo = costlab.NewMemo()
	}
	ev := &Evaluator{cat: cat, queries: queries, workers: workers, est: est, memo: memo}
	for _, q := range queries {
		ev.stmts = append(ev.stmts, q.Stmt)
		ev.stmtIDs = append(ev.stmtIDs, memo.InternStmt(q.Stmt))
		ev.foot = append(ev.foot, sql.FootprintOf(q.Stmt))
	}
	ev.class = design.Classes(ev.foot)
	return ev
}

// WeightedTotal folds unweighted per-query costs into the workload
// objective.
func (ev *Evaluator) WeightedTotal(per []float64) float64 {
	total := 0.0
	for i, q := range ev.queries {
		total += per[i] * q.Weight
	}
	return total
}

// all lists every workload position.
func (ev *Evaluator) all() []int {
	qs := make([]int, len(ev.stmts))
	for i := range qs {
		qs[i] = i
	}
	return qs
}

// keys returns the memo keys of the queries qs under d priced by est:
// one projected key per footprint class among qs.
func (ev *Evaluator) keys(est costlab.CostEstimator, d design.Design, qs []int) []costlab.Key {
	parents := design.FragmentParents(d)
	byClass := map[int]uint32{}
	keys := make([]costlab.Key, len(qs))
	for p, i := range qs {
		id, ok := byClass[ev.class[i]]
		if !ok {
			id = ev.memo.InternDesign(est, design.ProjectedKey(d, parents, ev.foot[i], true))
			byClass[ev.class[i]] = id
		}
		keys[p] = costlab.Key{Stmt: ev.stmtIDs[i], Design: id}
	}
	return keys
}

// indexJobs returns the backend pricing jobs of the queries qs under
// the index configuration cfg, stamped with their memo keys.
func (ev *Evaluator) indexJobs(cfg costlab.Config, qs []int) []costlab.Job {
	keys := ev.keys(ev.est, design.Design{Indexes: cfg}, qs)
	jobs := make([]costlab.Job, len(qs))
	for p, i := range qs {
		jobs[p] = costlab.Job{Stmt: ev.stmts[i], Config: cfg, StmtID: keys[p].Stmt, DesignID: keys[p].Design}
	}
	return jobs
}

// BaseCosts prices the workload under the empty design through the
// search backend, memo first. Cached for the evaluator's lifetime.
func (ev *Evaluator) BaseCosts(ctx context.Context) ([]float64, error) {
	ev.mu.Lock()
	cached := ev.searchBase
	ev.mu.Unlock()
	if cached != nil {
		return cached, nil
	}
	costs, err := ev.evaluateJobs(ctx, ev.indexJobs(nil, ev.all()))
	if err != nil {
		return nil, err
	}
	ev.mu.Lock()
	ev.searchBase = costs
	ev.mu.Unlock()
	return costs, nil
}

// evaluateJobs prices a batch of (statement, index configuration)
// jobs through the backend, serving repeats from the memo.
func (ev *Evaluator) evaluateJobs(ctx context.Context, jobs []costlab.Job) ([]float64, error) {
	costs, stats, err := costlab.EvaluateDelta(ctx, ev.est, jobs, ev.memo, ev.workers)
	if err != nil {
		return nil, err
	}
	// Coalesced jobs were priced by a concurrent caller while this one
	// waited — no estimator call paid here, so they count as hits.
	ev.memoHits.Add(int64(stats.Hits + stats.Coalesced))
	ev.memoMisses.Add(int64(stats.Misses))
	return costs, nil
}

// DesignCosts prices every workload query under one joint design and
// returns the unweighted per-query costs. One call counts as one
// design trial.
func (ev *Evaluator) DesignCosts(ctx context.Context, d design.Design) ([]float64, error) {
	return ev.DesignCostsAt(ctx, d, ev.all())
}

// DesignCostsAt prices design d for the query subset qs only (ascending
// positions into the evaluator's workload) and returns unweighted costs
// aligned with qs — the lazy scorer's partial re-pricing primitive. One
// call counts as one design trial regardless of the subset size.
func (ev *Evaluator) DesignCostsAt(ctx context.Context, d design.Design, qs []int) ([]float64, error) {
	ev.trials.Add(1)
	if len(d.Partitions) == 0 {
		return ev.evaluateJobs(ctx, ev.indexJobs(d.Indexes, qs))
	}
	return ev.partitionCostsAt(ctx, d, qs)
}

// DesignCost is DesignCosts folded into the weighted workload total.
func (ev *Evaluator) DesignCost(ctx context.Context, d design.Design) (float64, error) {
	per, err := ev.DesignCosts(ctx, d)
	if err != nil {
		return 0, err
	}
	return ev.WeightedTotal(per), nil
}

// partitionCostsAt prices a partition-carrying design for a query
// subset (workload positions; the returned costs align with qs):
// queries rewrite onto the fragments and plan with the full optimizer
// against what-if fragment tables, memoized under their projected keys,
// so a query reading no table the design changes is served by whatever
// design priced its projection first. Concurrent callers pricing the
// same design share the plan calls (costlab.Memo.Resolve).
func (ev *Evaluator) partitionCostsAt(ctx context.Context, d design.Design, qs []int) ([]float64, error) {
	keys := ev.keys(ev.full, d, qs)
	costs, b, err := ev.memo.Resolve(ctx, keys, func(led []int) ([]float64, error) {
		rw := design.Rewriter(ev.cat, d)
		stmts := make([]*sql.Select, len(led))
		missIdx := make([]int, len(led)) // workload positions
		for j, p := range led {
			missIdx[j] = qs[p]
			rq, err := rw.Rewrite(ev.stmts[qs[p]])
			if err != nil {
				return nil, err
			}
			stmts[j] = rq
		}
		got, _, err := ev.full.PriceAll(ctx, costlab.Target{Design: d, NestLoop: true}, stmts, ev.workers)
		return got, remapJobErr(err, missIdx)
	})
	ev.memoHits.Add(int64(b.Hits + b.Coalesced))
	ev.memoMisses.Add(int64(b.Led))
	return costs, err
}

// remapJobErr rewrites a JobError's index from a miss-batch position
// back to the caller's query position.
func remapJobErr(err error, missIdx []int) error {
	if je, ok := err.(*costlab.JobError); ok && je.Index >= 0 && je.Index < len(missIdx) {
		return &costlab.JobError{Index: missIdx[je.Index], Err: je.Err}
	}
	return err
}

// SpecSizeBytes returns the Equation-1 size of a candidate index.
func (ev *Evaluator) SpecSizeBytes(spec inum.IndexSpec) (int64, error) {
	return ev.est.SpecSizeBytes(spec)
}

// ReplicationOverhead estimates the extra bytes a design's partition
// selection occupies beyond the original tables.
func (ev *Evaluator) ReplicationOverhead(d design.Design) int64 {
	sel := make(map[string][][]string, len(d.Partitions))
	for _, p := range d.Partitions {
		sel[p.Table] = p.Fragments
	}
	return replicationOverhead(ev.cat, sel)
}

// PlanCalls reports full optimizer invocations consumed so far, across
// the backend, partition pricing and reports.
func (ev *Evaluator) PlanCalls() int64 {
	n := ev.est.PlanCalls()
	if !ev.estFull && ev.full != nil { // nil around a test's stub backend
		n += ev.full.PlanCalls()
	}
	return n
}

// Trials reports candidate designs priced so far — the anytime
// budget's evaluation currency.
func (ev *Evaluator) Trials() int64 { return ev.trials.Load() }

// MemoHits and MemoMisses split pricing jobs between the warm-start
// memo and the estimator.
func (ev *Evaluator) MemoHits() int64   { return ev.memoHits.Load() }
func (ev *Evaluator) MemoMisses() int64 { return ev.memoMisses.Load() }

// EvalsSkipped reports candidate evaluations the lazy sweep served
// entirely from its gain cache — evaluations an eager sweep would have
// priced. JobsPruned reports the (candidate, query) pricing jobs never
// built, relative to an eager full-workload rebuild every round.
func (ev *Evaluator) EvalsSkipped() int64 { return ev.evalsSkipped.Load() }
func (ev *Evaluator) JobsPruned() int64   { return ev.jobsPruned.Load() }

// noteSweep records one lazy round's savings.
func (ev *Evaluator) noteSweep(skipped, pruned int64) {
	ev.evalsSkipped.Add(skipped)
	ev.jobsPruned.Add(pruned)
}

// Report is the final full-optimizer account of a chosen design.
type Report struct {
	BaseCost  float64 // weighted workload cost before
	NewCost   float64 // weighted workload cost after
	PerQuery  []QueryBenefit
	Rewritten []string // workload rewritten onto fragments, when partitioned
}

// Report prices every query under the chosen design with the full
// optimizer (not the cache), producing the per-query report.
func (ev *Evaluator) Report(ctx context.Context, d design.Design) (*Report, error) {
	base, err := ev.reportBaseCosts(ctx)
	if err != nil {
		return nil, err
	}
	rw := design.Rewriter(ev.cat, d)
	targets := make([]*sql.Select, len(ev.stmts))
	var rewritten []string
	for i, stmt := range ev.stmts {
		targets[i] = stmt
		if rw != nil {
			rq, err := rw.Rewrite(stmt)
			if err != nil {
				return nil, err
			}
			targets[i] = rq
			rewritten = append(rewritten, sql.PrintSelect(rq))
		}
	}
	costs, used, err := ev.full.PriceAll(ctx, costlab.Target{Design: d, NestLoop: true}, targets, ev.workers)
	if err != nil {
		return nil, err
	}
	rep := &Report{Rewritten: rewritten}
	for qi, q := range ev.queries {
		rep.PerQuery = append(rep.PerQuery, QueryBenefit{
			SQL:         q.SQL,
			BaseCost:    base[qi] * q.Weight,
			NewCost:     costs[qi] * q.Weight,
			IndexesUsed: used[qi],
		})
		rep.BaseCost += base[qi] * q.Weight
		rep.NewCost += costs[qi] * q.Weight
	}
	return rep, nil
}

// reportBaseCosts prices the empty design with the full optimizer,
// once per evaluator — the report's "before" column, kept separate
// from the search backend so INUM-searched results are still reported
// in full-optimizer units.
func (ev *Evaluator) reportBaseCosts(ctx context.Context) ([]float64, error) {
	ev.mu.Lock()
	if ev.reportBase == nil && ev.estFull && ev.searchBase != nil {
		// The search backend already priced the base workload in
		// full-optimizer units; re-pricing would only repeat the calls.
		ev.reportBase = ev.searchBase
	}
	if ev.reportBase != nil {
		cached := ev.reportBase
		ev.mu.Unlock()
		return cached, nil
	}
	ev.mu.Unlock()

	costs, _, err := ev.full.PriceAll(ctx, costlab.Target{NestLoop: true}, ev.stmts, ev.workers)
	if err != nil {
		return nil, err
	}
	ev.mu.Lock()
	ev.reportBase = costs
	ev.mu.Unlock()
	return costs, nil
}
