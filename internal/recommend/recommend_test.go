// Tests live in an external package so they can build catalogs and
// workloads with internal/workload, which imports this package (an
// internal test package would cycle).
package recommend_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/costlab"
	"repro/internal/recommend"
	"repro/internal/workload"
)

func testCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat, err := workload.BuildCatalog(50000)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func mustWorkload(t testing.TB, sqls ...string) []recommend.Query {
	t.Helper()
	qs, err := recommend.ParseWorkload(sqls)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

func seedWorkload(t testing.TB) []recommend.Query {
	t.Helper()
	return mustWorkload(t, workload.Queries()...)
}

// TestAnytimeBudgetBestSoFar: a tight evaluation budget stops the
// joint search early; the result is still a valid best-so-far design
// with a monotonically non-increasing cost trace, never exceeding the
// evaluation budget.
func TestAnytimeBudgetBestSoFar(t *testing.T) {
	cat := testCatalog(t)
	queries := seedWorkload(t)
	const budget = 12
	res, err := recommend.Recommend(context.Background(), cat, queries, recommend.Options{
		Objects:  recommend.ObjectsJoint,
		Strategy: recommend.StrategyAnytime,
		Budget:   recommend.Budget{MaxEvaluations: budget},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("tight budget did not truncate the search")
	}
	if res.Evaluations > budget {
		t.Errorf("evaluations %d exceed the budget %d", res.Evaluations, budget)
	}
	if res.NewCost > res.BaseCost+1e-6 {
		t.Errorf("best-so-far design worse than doing nothing: %v > %v", res.NewCost, res.BaseCost)
	}
	assertMonotone(t, res.CostTrace)
}

func assertMonotone(t *testing.T, trace []float64) {
	t.Helper()
	if len(trace) == 0 {
		t.Fatal("empty cost trace")
	}
	for i := 1; i < len(trace); i++ {
		if trace[i] > trace[i-1]+1e-9 {
			t.Fatalf("cost trace not monotone at round %d: %v", i, trace)
		}
	}
}

// TestJointPicksIndexesAndPartitions: with partition moves restricted
// to the wide table, the joint search must combine a partitioning (for
// the narrow projections) with an index (for the selective predicate
// on the other table) in one design, under one shared budget.
func TestJointPicksIndexesAndPartitions(t *testing.T) {
	cat := testCatalog(t)
	queries := mustWorkload(t,
		"SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 100 AND 200",
		"SELECT objid, ra, dec FROM photoobj WHERE dec BETWEEN 0 AND 40",
		"SELECT z FROM specobj WHERE bestobjid = 12345",
	)
	res, err := recommend.Recommend(context.Background(), cat, queries, recommend.Options{
		Objects: recommend.ObjectsJoint,
		Tables:  []string{"photoobj"}, // partition moves only on the wide table
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Design.Partitions) == 0 {
		t.Errorf("joint search chose no partitioning: %+v", res.Design)
	}
	if len(res.Design.Indexes) == 0 {
		t.Errorf("joint search chose no index: %+v", res.Design)
	}
	for _, ix := range res.Design.Indexes {
		if ix.Table == "photoobj" {
			t.Errorf("index %s on the partitioned table can never be used", ix.Key())
		}
	}
	if res.NewCost >= res.BaseCost {
		t.Errorf("no improvement: %v >= %v", res.NewCost, res.BaseCost)
	}
	if res.Rewritten == nil {
		t.Error("partitioned recommendation carries no rewritten workload")
	}
	assertMonotone(t, res.CostTrace)
}

// TestDegenerateWorkloadEmptyRecommendation: a workload with no
// indexable predicates and no partitionable access pattern (star
// select reads every column) must yield an empty recommendation, not
// an error, through every strategy.
func TestDegenerateWorkloadEmptyRecommendation(t *testing.T) {
	cat := testCatalog(t)
	queries := mustWorkload(t, "SELECT * FROM photoobj")
	for _, strategy := range []string{recommend.StrategyGreedy, recommend.StrategyAnytime} {
		res, err := recommend.Recommend(context.Background(), cat, queries, recommend.Options{
			Objects:  recommend.ObjectsJoint,
			Strategy: strategy,
		})
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if len(res.Design.Indexes) != 0 || len(res.Design.Partitions) != 0 {
			t.Errorf("%s: degenerate workload got a non-empty design: %+v", strategy, res.Design)
		}
		if s := res.Speedup(); s != 1 || math.IsNaN(s) || math.IsInf(s, 0) {
			t.Errorf("%s: degenerate speedup = %v, want 1", strategy, s)
		}
		if b := res.AvgBenefit(); b != 0 {
			t.Errorf("%s: degenerate benefit = %v, want 0", strategy, b)
		}
	}
	// The index-only ILP strategy handles the no-candidates case too.
	res, err := recommend.Recommend(context.Background(), cat, queries, recommend.Options{
		Objects:  recommend.ObjectsIndexes,
		Strategy: recommend.StrategyILP,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Design.Indexes) != 0 {
		t.Errorf("ILP suggested indexes for an unindexable workload: %v", res.Design.Indexes)
	}
}

// TestCancelledAnytimeReturnsBestSoFar: cancelling the context
// mid-search is treated like budget exhaustion — the best design found
// before the cancel comes back without an error, priced from the
// search's own memoized costs (no further optimizer calls).
func TestCancelledAnytimeReturnsBestSoFar(t *testing.T) {
	cat := testCatalog(t)
	queries := seedWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rounds := 0
	res, err := recommend.Recommend(ctx, cat, queries, recommend.Options{
		Objects:  recommend.ObjectsJoint,
		Strategy: recommend.StrategyAnytime,
		Progress: func(p recommend.Progress) {
			rounds = p.Round
			if p.Round >= 1 {
				cancel() // pull the plug after the first accepted move
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rounds < 1 {
		t.Fatal("search never completed a round")
	}
	if !res.Truncated {
		t.Error("cancelled search not marked truncated")
	}
	if len(res.PerQuery) != len(queries) {
		t.Errorf("per-query report has %d entries, want %d", len(res.PerQuery), len(queries))
	}
	if res.NewCost > res.BaseCost {
		t.Errorf("best-so-far design worse than base: %v > %v", res.NewCost, res.BaseCost)
	}
	assertMonotone(t, res.CostTrace)
}

func TestRecommendValidation(t *testing.T) {
	cat := testCatalog(t)
	queries := mustWorkload(t, "SELECT objid FROM photoobj WHERE ra > 1")
	if _, err := recommend.Recommend(context.Background(), cat, nil, recommend.Options{}); err == nil {
		t.Error("empty workload accepted")
	}
	if _, err := recommend.Recommend(context.Background(), cat, queries,
		recommend.Options{Strategy: "nosuch"}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := recommend.Recommend(context.Background(), cat, queries,
		recommend.Options{Objects: "nosuch"}); err == nil {
		t.Error("unknown objects accepted")
	}
	if _, err := recommend.Recommend(context.Background(), cat, queries,
		recommend.Options{Objects: recommend.ObjectsJoint, Backend: "inum"}); err == nil {
		t.Error("INUM backend accepted for a partition-capable search")
	}
	if _, err := recommend.Recommend(context.Background(), cat, queries,
		recommend.Options{Objects: recommend.ObjectsPartitions, Tables: []string{"nosuch"}}); err == nil {
		t.Error("unknown partition table accepted")
	}
	// ValidateSearch mirrors those checks for servers that must reject
	// job requests synchronously.
	if err := recommend.ValidateSearch("", ""); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
	for _, bad := range [][2]string{{"bogus", ""}, {"", "bogus"}, {recommend.ObjectsJoint, recommend.StrategyILP}} {
		if err := recommend.ValidateSearch(bad[0], bad[1]); err == nil {
			t.Errorf("ValidateSearch(%q, %q) accepted", bad[0], bad[1])
		}
	}
}

// TestRecommendValidatesBeforePricing: Recommend and ValidateSearch are
// one validation path, run before anything is built — the index-only
// rule of the ILP strategy surfaces as ValidateSearch's error with the
// warm-start memo untouched (no statement interned, no cost priced).
func TestRecommendValidatesBeforePricing(t *testing.T) {
	cat := testCatalog(t)
	queries := mustWorkload(t, "SELECT objid FROM photoobj WHERE ra > 1")
	memo := costlab.NewMemo()
	_, err := recommend.Recommend(context.Background(), cat, queries, recommend.Options{
		Objects: recommend.ObjectsJoint, Strategy: recommend.StrategyILP, Memo: memo,
	})
	want := recommend.ValidateSearch(recommend.ObjectsJoint, recommend.StrategyILP)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("Recommend error = %v, want ValidateSearch's %v", err, want)
	}
	if st := memo.Stats(); st.Entries != 0 || st.InternedStmts != 0 {
		t.Errorf("rejected search touched the memo: %+v", st)
	}
	// The default object kind is joint, so a bare ILP request fails too.
	if _, err := recommend.Recommend(context.Background(), cat, queries,
		recommend.Options{Strategy: recommend.StrategyILP}); err == nil {
		t.Error("ILP accepted the default (joint) search space")
	}
}

// TestProgressContract: the round-based strategies report a checkpoint
// before the first round and after every completed one — rounds arrive
// as 0, 1, 2, …, the best cost never increases, and the last
// checkpoint's round is the result's round count.
func TestProgressContract(t *testing.T) {
	cat := testCatalog(t)
	queries := mustWorkload(t,
		"SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 100 AND 140",
		"SELECT objid, ra, u FROM photoobj WHERE u BETWEEN 15 AND 16",
		"SELECT z FROM specobj WHERE bestobjid = 12345",
	)
	for _, strategy := range []string{recommend.StrategyGreedy, recommend.StrategyAnytime} {
		for _, objects := range []string{recommend.ObjectsIndexes, recommend.ObjectsPartitions, recommend.ObjectsJoint} {
			t.Run(strategy+"/"+objects, func(t *testing.T) {
				var got []recommend.Progress
				res, err := recommend.Recommend(context.Background(), cat, queries, recommend.Options{
					Objects:           objects,
					Strategy:          strategy,
					Tables:            []string{"photoobj"},
					ReplicationBudget: 1 << 30,
					Progress:          func(p recommend.Progress) { got = append(got, p) },
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) < 2 {
					t.Fatalf("%d checkpoints — the search completed no round", len(got))
				}
				for i, p := range got {
					if p.Round != i {
						t.Fatalf("checkpoint %d reports round %d", i, p.Round)
					}
					if i > 0 && p.BestCost > got[i-1].BestCost {
						t.Errorf("best cost rose at round %d: %v -> %v", i, got[i-1].BestCost, p.BestCost)
					}
				}
				if last := got[len(got)-1].Round; last != res.Rounds {
					t.Errorf("last checkpoint is round %d, result reports %d rounds", last, res.Rounds)
				}
			})
		}
	}
}

// TestAnytimePartitionsHonourReplicationBudget: the partition-only
// anytime search applies the same replication bound as the greedy
// AutoPart loop — a zero budget forbids replicated composites.
func TestAnytimePartitionsHonourReplicationBudget(t *testing.T) {
	cat := testCatalog(t)
	queries := mustWorkload(t,
		"SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 100 AND 140",
		"SELECT objid, ra, u FROM photoobj WHERE u BETWEEN 15 AND 16",
	)
	generous, err := recommend.Recommend(context.Background(), cat, queries, recommend.Options{
		Objects: recommend.ObjectsPartitions, Strategy: recommend.StrategyAnytime,
		ReplicationBudget: 1 << 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := recommend.Recommend(context.Background(), cat, queries, recommend.Options{
		Objects: recommend.ObjectsPartitions, Strategy: recommend.StrategyAnytime,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tight.ReplicationBytes != 0 {
		t.Errorf("zero replication budget replicated %d bytes", tight.ReplicationBytes)
	}
	if tight.NewCost < generous.NewCost-1e-6 {
		t.Errorf("tight budget (%v) beat generous (%v)", tight.NewCost, generous.NewCost)
	}
}

// TestResultDegenerateGuards: the regression tests for the NaN/Inf
// guards on zero costs.
func TestResultDegenerateGuards(t *testing.T) {
	zero := &recommend.Result{}
	if zero.Speedup() != 1 || zero.AvgBenefit() != 0 {
		t.Errorf("zero result: speedup %v benefit %v", zero.Speedup(), zero.AvgBenefit())
	}
	freeBase := &recommend.Result{BaseCost: 0, NewCost: 5}
	if s := freeBase.Speedup(); s != 1 || math.IsInf(s, 0) || math.IsNaN(s) {
		t.Errorf("zero-base speedup = %v, want 1", s)
	}
	freeNew := &recommend.Result{BaseCost: 42, NewCost: 0}
	if s := freeNew.Speedup(); s != 1 {
		t.Errorf("zero-new speedup = %v, want 1", s)
	}
	qb := recommend.QueryBenefit{BaseCost: 0, NewCost: 0}
	if qb.Speedup() != 1 {
		t.Errorf("degenerate query speedup = %v", qb.Speedup())
	}
}
