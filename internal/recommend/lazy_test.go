package recommend

// Property tests for the lazy candidate scorer (lazy.go): the greedy
// loop must reproduce the exhaustive sweep's *move sequence* — not just
// the final cost — bit for bit, while issuing strictly fewer pricing
// calls. The exhaustive sweep is the test oracle (oracle_test.go). The
// backend here is a stub so the pricing-call count is exact and the
// cost model is fully controlled: deterministic, physical (an index
// discounts only statements that reference its table — the invariance
// the lazy cache relies on), and multiplicative (stacked indexes give
// diminishing returns, so later rounds genuinely reshuffle scores).
//
// Like zerosize_test.go this file lives in the package: it wires the
// stub straight into an Evaluator and calls the strategy functions
// directly. The seed-workload equivalents (real backends, through
// Recommend) live in lazyseed_test.go.

import (
	"context"
	"hash/fnv"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/costlab"
	"repro/internal/inum"
	"repro/internal/sql"
)

// physicalStub prices cost = base(stmt) · Π factor(spec, stmt) over
// the configuration's indexes whose table the statement references.
// base and factor are deterministic hashes, so every run prices
// identically and no two candidates tie by accident.
type physicalStub struct {
	calls atomic.Int64 // Cost invocations — the pricing-call currency

	mu   sync.Mutex
	foot map[*sql.Select]*sql.Footprint
}

func hashUnit(parts ...string) float64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return float64(h.Sum64()%100000) / 100000
}

func (s *physicalStub) footprint(stmt *sql.Select) *sql.Footprint {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.foot == nil {
		s.foot = map[*sql.Select]*sql.Footprint{}
	}
	fp, ok := s.foot[stmt]
	if !ok {
		fp = sql.FootprintOf(stmt)
		s.foot[stmt] = fp
	}
	return fp
}

func (s *physicalStub) Cost(stmt *sql.Select, cfg costlab.Config) (float64, error) {
	s.calls.Add(1)
	fp := s.footprint(stmt)
	text := sql.PrintSelect(stmt)
	cost := 1000 + 500*hashUnit("base", text)
	for _, spec := range cfg {
		if fp.TouchesTable(spec.Table) {
			cost *= 0.60 + 0.39*hashUnit("factor", spec.Key(), text)
		}
	}
	return cost, nil
}

func (s *physicalStub) SpecSizeBytes(spec inum.IndexSpec) (int64, error) {
	return 1<<16 + int64(float64(1<<20)*hashUnit("size", spec.Key())), nil
}

func (s *physicalStub) PlanCalls() int64 { return s.calls.Load() }

// lazyProblem builds a multi-table workload with overlapping
// footprints (joins make single moves stale several candidates) and
// an explicit candidate list, priced by a fresh physicalStub.
func lazyProblem(t *testing.T, opts Options) (*Problem, *physicalStub) {
	t.Helper()
	queries, err := ParseWorkload([]string{
		`SELECT a FROM t1 WHERE a > 0`,
		`SELECT b FROM t1 WHERE b > 5 AND a < 100`,
		`SELECT c FROM t2 WHERE c > 0`,
		`SELECT t2.c FROM t2 JOIN t3 ON t2.id = t3.id WHERE t3.d > 1`,
		`SELECT e FROM t3 WHERE e > 2`,
		`SELECT f FROM t4 WHERE f > 3`,
		`SELECT g FROM t4 JOIN t1 ON t4.id = t1.id WHERE t1.a > 7`,
		`SELECT d FROM t3 WHERE d BETWEEN 1 AND 2`,
	})
	if err != nil {
		t.Fatal(err)
	}
	stub := &physicalStub{}
	ev := newEvaluator(catalog.New(), queries, stub, 1, nil)
	var cands []inum.IndexSpec
	for _, c := range []struct {
		table string
		cols  []string
	}{
		{"t1", []string{"a"}},
		{"t1", []string{"b"}},
		{"t1", []string{"a", "b"}},
		{"t2", []string{"c"}},
		{"t2", []string{"id"}},
		{"t3", []string{"d"}},
		{"t3", []string{"e"}},
		{"t3", []string{"id"}},
		{"t4", []string{"f"}},
		{"t4", []string{"id"}},
	} {
		cands = append(cands, inum.IndexSpec{Table: c.table, Columns: c.cols})
	}
	return &Problem{
		Cat:             catalog.New(),
		Queries:         queries,
		Eval:            ev,
		Opts:            opts,
		IndexCandidates: cands,
	}, stub
}

// runMoves runs strategy on a fresh problem and returns the full move
// sequence, the outcome, and the stub's pricing-call count.
func runMoves(t *testing.T, strategy SearchFunc, opts Options) ([]string, *Outcome, int64) {
	t.Helper()
	var moves []string
	opts.Progress = func(p Progress) {
		if p.LastMove != "" {
			moves = append(moves, p.LastMove)
		}
	}
	p, stub := lazyProblem(t, opts)
	out, err := strategy(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return moves, out, stub.calls.Load()
}

func designKeys(out *Outcome) []string {
	var keys []string
	for _, ix := range out.Design.Indexes {
		keys = append(keys, ix.Key())
	}
	return keys
}

// assertMatchesOracle runs the greedy loop and the exhaustive oracle
// on the same problem and checks the identity and savings properties.
func assertMatchesOracle(t *testing.T, opts Options) {
	t.Helper()
	oracleMoves, oracleOut, oracleCalls := runMoves(t, searchOracle, opts)
	lazyMoves, lazyOut, lazyCalls := runMoves(t, searchGreedy, opts)

	if len(oracleMoves) == 0 {
		t.Fatal("oracle made no moves — the workload is not exercising the sweep")
	}
	if !reflect.DeepEqual(lazyMoves, oracleMoves) {
		t.Fatalf("move sequences diverge:\n lazy   %v\n oracle %v", lazyMoves, oracleMoves)
	}
	if !reflect.DeepEqual(designKeys(lazyOut), designKeys(oracleOut)) {
		t.Fatalf("designs diverge:\n lazy   %v\n oracle %v", designKeys(lazyOut), designKeys(oracleOut))
	}
	if !reflect.DeepEqual(lazyOut.CostTrace, oracleOut.CostTrace) {
		t.Fatalf("cost traces diverge:\n lazy   %v\n oracle %v", lazyOut.CostTrace, oracleOut.CostTrace)
	}
	if !reflect.DeepEqual(lazyOut.PerCosts, oracleOut.PerCosts) {
		t.Fatalf("per-query costs diverge:\n lazy   %v\n oracle %v", lazyOut.PerCosts, oracleOut.PerCosts)
	}
	if lazyOut.SizeBytes != oracleOut.SizeBytes || lazyOut.Maintenance != oracleOut.Maintenance {
		t.Fatalf("bookkeeping diverges: lazy (%d B, maint %v), oracle (%d B, maint %v)",
			lazyOut.SizeBytes, lazyOut.Maintenance, oracleOut.SizeBytes, oracleOut.Maintenance)
	}
	if lazyCalls >= oracleCalls {
		t.Errorf("lazy saved nothing: %d pricing calls vs the oracle's %d", lazyCalls, oracleCalls)
	}
	t.Logf("pricing calls: oracle %d, lazy %d (%.1f×)", oracleCalls, lazyCalls,
		float64(oracleCalls)/float64(lazyCalls))
}

// TestLazyMatchesOracle: identical move sequence, identical design and
// costs, strictly fewer pricing calls. "greedy" and "anytime" are the
// same loop for an index search, so one strategy covers both.
func TestLazyMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"unconstrained", Options{}},
		// The budget filter interacts with the cache: a candidate can
		// leave the eligible set as the budget tightens while its
		// cached entries stay live.
		{"storage budget", Options{StorageBudget: 2 << 20}}, // roughly two median candidates
		// Maintenance charges shift gains and can disqualify candidates.
		{"maintenance", Options{UpdateRates: map[string]float64{"t1": 0.5, "t3": 2.0}}},
		{"round cap", Options{MaxIterations: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Objects, tc.opts.Strategy = ObjectsIndexes, StrategyGreedy
			assertMatchesOracle(t, tc.opts)
		})
	}
}

// TestLazySkipCounters: the lazy run reports its savings through the
// Evaluator counters; the oracle, which skips nothing, reports zero.
func TestLazySkipCounters(t *testing.T) {
	opts := Options{Objects: ObjectsIndexes, Strategy: StrategyGreedy}
	p, _ := lazyProblem(t, opts)
	if _, err := searchGreedy(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if p.Eval.EvalsSkipped() <= 0 {
		t.Errorf("lazy run skipped no evaluations (EvalsSkipped = %d)", p.Eval.EvalsSkipped())
	}
	if p.Eval.JobsPruned() <= 0 {
		t.Errorf("lazy run pruned no jobs (JobsPruned = %d)", p.Eval.JobsPruned())
	}

	op, _ := lazyProblem(t, opts)
	if _, err := searchOracle(context.Background(), op); err != nil {
		t.Fatal(err)
	}
	if op.Eval.EvalsSkipped() != 0 || op.Eval.JobsPruned() != 0 {
		t.Errorf("oracle reported lazy savings: skipped %d, pruned %d",
			op.Eval.EvalsSkipped(), op.Eval.JobsPruned())
	}
}
