// Package recommend is PARINDA's unified joint physical-design
// recommender: one pluggable pipeline behind automatic index
// suggestion (§3.4), automatic partition suggestion (§3.3) and the new
// joint search over both. It is assembled from
//
//   - candidate *generators* — index candidates mined from the
//     workload (IndexCandidates) and partition fragments derived from
//     AutoPart's atomic-fragment analysis (AtomicFragments);
//   - a shared *pruning/compression* stage — workload template
//     compression (CompressWorkload), candidate deduplication and an
//     optional candidate cap;
//   - interchangeable *search strategies* — one greedy loop
//     (anytime.go) that honours context cancellation plus an explicit
//     max-evaluations/wall-clock budget and always returns the best
//     design found so far, AutoPart's refinement loop (greedy.go), and
//     the exact ILP solve (ilp.go);
//   - one evaluation *core* (Evaluator) that prices every candidate
//     design, index-only or joint.
//
// Candidates and results are design.Design values — the type design
// sessions edit — so a recommendation applies to a session verbatim.
//
// The search space of the joint mode is genuinely joint: every round
// may pick an index or a partitioning move, with one storage budget
// shared across index bytes and partition replication. A search can be
// warm-started from a design session's shared cost memo, so (query,
// projected design) pairs a DBA priced interactively — partitioned and
// nested-loops-off designs included — are never re-planned.
//
// Strategy names: "greedy" and "anytime" are the same search — the one
// greedy loop, which with a zero Budget runs to convergence — except
// for partitions-only searches, where "greedy" is the AutoPart
// algorithm (mandatory atomic start, lowest-cost objective). "ilp"
// searches indexes only.
//
// This package is the only implementation of the automatic components:
// the CLI, internal/session, internal/serve (asynchronous cancellable
// jobs) and internal/ingest call Recommend directly.
package recommend

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/costlab"
	"repro/internal/design"
	"repro/internal/inum"
)

// Object-kind names accepted by Options.Objects.
const (
	ObjectsIndexes    = "indexes"
	ObjectsPartitions = "partitions"
	ObjectsJoint      = "joint"
)

// Built-in strategy names.
const (
	StrategyGreedy  = "greedy"
	StrategyAnytime = "anytime"
	StrategyILP     = "ilp"
)

// Budget bounds a search. The zero value means "run to convergence".
type Budget struct {
	// MaxEvaluations caps candidate-design trials (Evaluator.Trials).
	MaxEvaluations int64
	// MaxDuration caps wall-clock search time.
	MaxDuration time.Duration
}

// Progress is one anytime checkpoint, reported by the round-based
// strategies (greedy, anytime) once before the first round and after
// every completed round, so Round counts 0, 1, 2, … up to
// Result.Rounds and BestCost never increases.
type Progress struct {
	Round        int     `json:"round"`        // rounds completed
	Evaluations  int64   `json:"evaluations"`  // candidate designs priced
	PlanCalls    int64   `json:"planCalls"`    // optimizer invocations consumed
	EvalsSkipped int64   `json:"evalsSkipped"` // evaluations served from the lazy gain cache
	JobsPruned   int64   `json:"jobsPruned"`   // pricing jobs the lazy sweep never built
	BaseCost     float64 `json:"baseCost"`     // workload cost before
	BestCost     float64 `json:"bestCost"`     // best workload cost found so far
	LastMove     string  `json:"lastMove,omitempty"`
}

// BestSpeedup returns BaseCost / BestCost, 1 for degenerate costs.
func (p Progress) BestSpeedup() float64 {
	if p.BestCost <= 0 || p.BaseCost <= 0 {
		return 1
	}
	return p.BaseCost / p.BestCost
}

// Options configure a recommendation run.
type Options struct {
	// Objects selects the search space: ObjectsIndexes,
	// ObjectsPartitions or ObjectsJoint (the default).
	Objects string
	// Strategy names the search strategy: StrategyGreedy (default),
	// StrategyAnytime, StrategyILP (index-only), or any name
	// registered via RegisterStrategy.
	Strategy string

	// StorageBudget bounds the recommendation's total extra bytes —
	// Equation-1 index sizes plus partition replication overhead,
	// shared across both object kinds. 0 means unlimited.
	StorageBudget int64
	// ReplicationBudget applies only to partition-only searches and
	// keeps AutoPart's convention: it bounds replication bytes, with 0
	// meaning no replication beyond the primary keys.
	ReplicationBudget int64

	// MaxIndexColumns / SingleColumnOnly bound index candidates.
	MaxIndexColumns  int
	SingleColumnOnly bool
	// MaxCandidates caps the pruned index-candidate list (0 = no cap).
	MaxCandidates int
	// CompressQueries compresses the workload to at most N template
	// queries before searching (0 = off).
	CompressQueries int
	// MaxIterations bounds search rounds (default: strategy-specific).
	MaxIterations int
	// UpdateRates gives, per table, the row modifications per workload
	// execution; every index on a modified table is charged its
	// maintenance (§3.4's "update costs" constraint).
	UpdateRates map[string]float64
	// Tables restricts partition moves to the named tables; empty
	// means every table the workload touches.
	Tables []string

	// Backend selects the index-pricing engine (costlab.BackendINUM or
	// costlab.BackendFull). Searches that may touch partitions require
	// the full backend and default to it.
	Backend string
	// Workers caps pricing parallelism (0 = GOMAXPROCS).
	Workers int
	// Memo warm-starts pricing — typically a design session's shared
	// cost memo. Its keys carry the backend, so runs of either kind
	// may share one.
	Memo *costlab.Memo

	// Budget bounds the search; the anytime strategy returns the best
	// design found when it runs out.
	Budget Budget
	// Progress, when set, receives a checkpoint after every round.
	Progress func(Progress)

	// MaxSolverNodes bounds the ILP branch-and-bound (0 = default).
	MaxSolverNodes int
}

func (o Options) wantIndexes() bool    { return o.Objects != ObjectsPartitions }
func (o Options) wantPartitions() bool { return o.Objects != ObjectsIndexes }

// partitionReplicationBudget resolves the replication bound of a
// partition-only search: ReplicationBudget with AutoPart's convention
// (0 = no replication), falling back to the shared StorageBudget when
// only that one is set — the CLI and the serve jobs speak the shared
// budget.
func (o Options) partitionReplicationBudget() int64 {
	if o.ReplicationBudget == 0 && o.StorageBudget > 0 {
		return o.StorageBudget
	}
	return o.ReplicationBudget
}

// ValidateSearch checks an objects/strategy pair without running a
// search. Recommend runs it before building anything, and servers call
// it to reject malformed asynchronous job requests synchronously.
// Empty strings mean the defaults.
func ValidateSearch(objects, strategy string) error {
	switch objects {
	case "", ObjectsIndexes, ObjectsPartitions, ObjectsJoint:
	default:
		return fmt.Errorf("recommend: unknown objects %q (want %q, %q or %q)",
			objects, ObjectsIndexes, ObjectsPartitions, ObjectsJoint)
	}
	if strategy != "" {
		if _, err := strategyFor(strategy); err != nil {
			return err
		}
	}
	if strategy == StrategyILP && objects != ObjectsIndexes {
		return fmt.Errorf("recommend: the %q strategy searches indexes only (set objects to %q)",
			StrategyILP, ObjectsIndexes)
	}
	return nil
}

// MaintenanceCost prices the upkeep of one candidate index under the
// update profile: per modified row, one B-Tree descent plus one leaf
// write.
func MaintenanceCost(spec inum.IndexSpec, sizeBytes int64, rates map[string]float64) float64 {
	rate := rates[spec.Table]
	if rate <= 0 {
		return 0
	}
	const randomPage, cpuIndexTuple = 4.0, 0.005
	height := catalog.BTreeHeight(sizeBytes / catalog.PageSize)
	perRow := 2*float64(height+1)*randomPage + cpuIndexTuple
	return rate * perRow
}

// Problem is the assembled search input a strategy operates on:
// workload, generated candidates and the evaluation core.
type Problem struct {
	Cat     *catalog.Catalog
	Queries []Query
	Eval    *Evaluator
	Opts    Options

	// IndexCandidates are the mined (and pruned) index candidates;
	// empty when the search excludes indexes.
	IndexCandidates []inum.IndexSpec
	// PartitionTables and Atomic hold the partition generator's
	// output: eligible tables and their atomic fragments. Empty when
	// the search excludes partitions.
	PartitionTables []string
	Atomic          map[string][][]string
}

// Outcome is a strategy's raw result, before the final full-optimizer
// report.
type Outcome struct {
	Design      design.Design
	BaseCost    float64 // search-backend workload cost before
	Cost        float64 // search-backend workload cost of Design
	PerCosts    []float64
	SizeBytes   int64 // Equation-1 bytes of Design.Indexes
	Maintenance float64
	Rounds      int
	Work        int // solver nodes (ILP) or trial evaluations (greedy)
	Truncated   bool
	CostTrace   []float64 // cost after each round, starting at BaseCost
}

// SearchFunc is a pluggable search strategy.
type SearchFunc func(ctx context.Context, p *Problem) (*Outcome, error)

var (
	stratMu    sync.RWMutex
	strategies = map[string]SearchFunc{}
)

// RegisterStrategy makes a search strategy available under name,
// replacing any previous registration. Tests register their own (the
// exhaustive-sweep oracle, blocking stubs).
func RegisterStrategy(name string, fn SearchFunc) {
	stratMu.Lock()
	defer stratMu.Unlock()
	strategies[name] = fn
}

func strategyFor(name string) (SearchFunc, error) {
	stratMu.RLock()
	defer stratMu.RUnlock()
	if fn, ok := strategies[name]; ok {
		return fn, nil
	}
	known := make([]string, 0, len(strategies))
	for k := range strategies {
		known = append(known, k)
	}
	sort.Strings(known)
	return nil, fmt.Errorf("recommend: unknown strategy %q (have %v)", name, known)
}

func init() {
	RegisterStrategy(StrategyGreedy, searchGreedy)
	RegisterStrategy(StrategyAnytime, searchAnytime)
	RegisterStrategy(StrategyILP, searchILP)
}

// Result is a completed recommendation.
type Result struct {
	// Design is the recommended joint design, directly applicable to a
	// design session; partitions are sorted by table, and fragment i of
	// table t is named design.FragName(t, i).
	Design design.Design
	// Rewritten holds the workload rewritten onto the fragments, in
	// input order (nil without partitions).
	Rewritten []string

	SizeBytes        int64 // Equation-1 bytes of the chosen indexes
	ReplicationBytes int64 // partition replication overhead

	BaseCost float64 // weighted workload cost before (full optimizer)
	NewCost  float64 // weighted workload cost after (full optimizer)
	PerQuery []QueryBenefit

	Candidates   int   // index candidates considered
	Rounds       int   // search rounds completed
	SolverWork   int   // branch-and-bound nodes (ILP) or evaluations (greedy)
	Evaluations  int64 // candidate designs priced
	PlanCalls    int64 // full optimizer invocations consumed
	MemoHits     int64 // pricing jobs served from the warm-start memo
	MemoMisses   int64 // pricing jobs that reached the estimator
	EvalsSkipped int64 // evaluations served from the lazy gain cache
	JobsPruned   int64 // pricing jobs the lazy sweep never built

	MaintenanceCost float64
	// Truncated reports that the budget (or cancellation) stopped the
	// search before convergence; the result is the best design found.
	Truncated bool
	// CostTrace is the search-backend workload cost after each round,
	// starting at the strategy's initial design cost (the base cost;
	// for AutoPart, the mandatory atomic split) — monotonically
	// non-increasing for the greedy strategies.
	CostTrace []float64

	Strategy string
	Objects  string
}

// Speedup returns BaseCost / NewCost, 1 for degenerate costs
// (empty or zero-cost workloads never report NaN/Inf).
func (r *Result) Speedup() float64 {
	if r.NewCost <= 0 || r.BaseCost <= 0 {
		return 1
	}
	return r.BaseCost / r.NewCost
}

// AvgBenefit returns 1 - new/base (0 for degenerate costs).
func (r *Result) AvgBenefit() float64 {
	if r.BaseCost <= 0 {
		return 0
	}
	return 1 - r.NewCost/r.BaseCost
}

// Recommend runs the full pipeline: generate candidates, prune, search
// with the selected strategy under the budget, and report the chosen
// design with full-optimizer pricing. ctx cancels the search; the
// anytime strategy treats cancellation like budget exhaustion and
// still returns its best-so-far design.
func Recommend(ctx context.Context, cat *catalog.Catalog, queries []Query, opts Options) (*Result, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("recommend: empty workload")
	}
	if err := ValidateSearch(opts.Objects, opts.Strategy); err != nil {
		return nil, err
	}
	if opts.Objects == "" {
		opts.Objects = ObjectsJoint
	}
	if opts.Strategy == "" {
		opts.Strategy = StrategyGreedy
	}
	if opts.wantPartitions() {
		// Partition plans only price through the full optimizer; a
		// mixed-backend search would compare incomparable costs.
		switch opts.Backend {
		case "", costlab.BackendFull:
			opts.Backend = costlab.BackendFull
		default:
			return nil, fmt.Errorf("recommend: objects %q require the %q backend (got %q)",
				opts.Objects, costlab.BackendFull, opts.Backend)
		}
	}
	strat, err := strategyFor(opts.Strategy)
	if err != nil {
		return nil, err
	}

	// Shared pruning/compression stage, part 1: the workload.
	if opts.CompressQueries > 0 {
		queries = CompressWorkload(cat, queries, opts.CompressQueries)
	}

	ev, err := NewEvaluator(cat, queries, opts.Backend, opts.Workers, opts.Memo)
	if err != nil {
		return nil, err
	}
	p := &Problem{Cat: cat, Queries: queries, Eval: ev, Opts: opts}

	// Candidate generators + pruning, part 2: index candidates.
	if opts.wantIndexes() {
		cands := IndexCandidates(cat, queries, CandidateOptions{
			MaxIndexColumns:  opts.MaxIndexColumns,
			SingleColumnOnly: opts.SingleColumnOnly,
		})
		if opts.MaxCandidates > 0 && len(cands) > opts.MaxCandidates {
			cands = capCandidates(cands, opts.MaxCandidates)
		}
		p.IndexCandidates = cands
	}
	// Candidate generators, part 3: partition fragments.
	if opts.wantPartitions() {
		tables, err := partitionTables(cat, queries, opts.Tables)
		if err != nil {
			return nil, err
		}
		p.PartitionTables = tables
		p.Atomic = map[string][][]string{}
		for _, t := range tables {
			p.Atomic[t] = AtomicFragments(cat.Table(t), queries)
		}
	}

	out, err := strat(ctx, p)
	if err != nil {
		return nil, err
	}
	return assembleResult(ctx, p, out)
}

// partitionTables resolves the tables eligible for partition moves.
func partitionTables(cat *catalog.Catalog, queries []Query, restrict []string) ([]string, error) {
	tables := restrict
	if len(tables) == 0 {
		seen := map[string]bool{}
		for _, q := range queries {
			for _, tr := range q.Stmt.From {
				seen[tr.Table] = true
			}
			for _, j := range q.Stmt.Joins {
				seen[j.Table.Table] = true
			}
		}
		for t := range seen {
			tables = append(tables, t)
		}
		sort.Strings(tables)
	}
	for _, t := range tables {
		if cat.Table(t) == nil {
			return nil, fmt.Errorf("recommend: unknown table %q", t)
		}
	}
	return tables, nil
}

// assembleResult turns a strategy outcome into the final Result. With
// a live context the chosen design is re-priced by the full optimizer
// (per-query benefits, index usage, rewrites); after cancellation the
// report is assembled from the search's own costs so an aborted
// anytime run still returns its best-so-far design.
func assembleResult(ctx context.Context, p *Problem, out *Outcome) (*Result, error) {
	ev := p.Eval
	res := &Result{
		Design:           out.Design,
		SizeBytes:        out.SizeBytes,
		ReplicationBytes: ev.ReplicationOverhead(out.Design),
		Candidates:       len(p.IndexCandidates),
		Rounds:           out.Rounds,
		SolverWork:       out.Work,
		MaintenanceCost:  out.Maintenance,
		Truncated:        out.Truncated,
		CostTrace:        out.CostTrace,
		Strategy:         p.Opts.Strategy,
		Objects:          p.Opts.Objects,
	}
	reported := false
	if ctx.Err() == nil {
		rep, err := ev.Report(ctx, out.Design)
		switch {
		case err == nil:
			res.BaseCost, res.NewCost = rep.BaseCost, rep.NewCost
			res.PerQuery, res.Rewritten = rep.PerQuery, rep.Rewritten
			reported = true
		case ctx.Err() == nil || out.PerCosts == nil:
			// A real pricing failure — or a cancellation with nothing
			// to fall back to.
			return nil, err
		}
	}
	if !reported {
		// Cancelled mid-search (or mid-report): fall back to the
		// search backend's own costs of the best-so-far design without
		// issuing another optimizer call.
		if out.PerCosts == nil {
			return nil, ctx.Err()
		}
		res.Truncated = true
		basePer, err := ev.BaseCosts(context.Background()) // cached; no pricing
		if err != nil {
			return nil, err
		}
		for qi, q := range p.Queries {
			res.PerQuery = append(res.PerQuery, QueryBenefit{
				SQL:      q.SQL,
				BaseCost: basePer[qi] * q.Weight,
				NewCost:  out.PerCosts[qi] * q.Weight,
			})
			res.BaseCost += basePer[qi] * q.Weight
			res.NewCost += out.PerCosts[qi] * q.Weight
		}
	}
	res.Evaluations = ev.Trials()
	res.PlanCalls = ev.PlanCalls()
	res.MemoHits = ev.MemoHits()
	res.MemoMisses = ev.MemoMisses()
	res.EvalsSkipped = ev.EvalsSkipped()
	res.JobsPruned = ev.JobsPruned()
	return res, nil
}

// report emits a progress checkpoint if the caller asked for one.
func report(p *Problem, round int, base, best float64, lastMove string) {
	if p.Opts.Progress == nil {
		return
	}
	p.Opts.Progress(Progress{
		Round:        round,
		Evaluations:  p.Eval.Trials(),
		PlanCalls:    p.Eval.PlanCalls(),
		EvalsSkipped: p.Eval.EvalsSkipped(),
		JobsPruned:   p.Eval.JobsPruned(),
		BaseCost:     base,
		BestCost:     best,
		LastMove:     lastMove,
	})
}
