// Seed-workload property tests for the greedy loop, through the full
// Recommend pipeline with real backends (external package — the
// in-package stub tests live in lazy_test.go). The reference is the
// exhaustive-sweep oracle of oracle_test.go, selected by its test-only
// strategy name: the loop must pick the identical move sequence while
// pricing strictly less. Both price through the evaluator's memo, whose
// projected keys already serve every query a trial does not change, so
// the loop's estimator work is a subset of the oracle's: what it saves
// on top are the re-prices its CELF bound skips, which under the full
// optimizer are plan calls the oracle pays.
package recommend_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/costlab"
	"repro/internal/design"
	"repro/internal/recommend"
)

// runSearch runs one Recommend pass and captures the move sequence.
func runSearch(t *testing.T, cat *catalog.Catalog, queries []recommend.Query, opts recommend.Options) ([]string, *recommend.Result) {
	t.Helper()
	var moves []string
	opts.Progress = func(p recommend.Progress) {
		if p.LastMove != "" {
			moves = append(moves, p.LastMove)
		}
	}
	res, err := recommend.Recommend(context.Background(), cat, queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	return moves, res
}

// runWithOracle runs opts through the greedy loop and through the
// oracle and asserts move-for-move, bit-for-bit identity.
func runWithOracle(t *testing.T, cat *catalog.Catalog, queries []recommend.Query, opts recommend.Options) (lazy, oracle *recommend.Result) {
	t.Helper()
	oracleOpts := opts
	oracleOpts.Strategy = recommend.StrategyOracle
	oracleMoves, oracle := runSearch(t, cat, queries, oracleOpts)
	lazyMoves, lazy := runSearch(t, cat, queries, opts)

	if len(oracleMoves) == 0 {
		t.Fatal("oracle made no moves")
	}
	if !reflect.DeepEqual(lazyMoves, oracleMoves) {
		t.Fatalf("move sequences diverge:\n lazy   %v\n oracle %v", lazyMoves, oracleMoves)
	}
	if design.Key(lazy.Design) != design.Key(oracle.Design) {
		t.Fatalf("designs diverge:\n lazy   %v\n oracle %v",
			design.Key(lazy.Design), design.Key(oracle.Design))
	}
	if !reflect.DeepEqual(lazy.CostTrace, oracle.CostTrace) {
		t.Fatalf("cost traces diverge:\n lazy   %v\n oracle %v", lazy.CostTrace, oracle.CostTrace)
	}
	if lazy.NewCost != oracle.NewCost {
		t.Fatalf("final costs diverge: lazy %v, oracle %v", lazy.NewCost, oracle.NewCost)
	}
	if lazy.SizeBytes != oracle.SizeBytes || lazy.ReplicationBytes != oracle.ReplicationBytes {
		t.Fatalf("sizes diverge: lazy (%d + %d), oracle (%d + %d)",
			lazy.SizeBytes, lazy.ReplicationBytes, oracle.SizeBytes, oracle.ReplicationBytes)
	}
	t.Logf("evaluations: oracle %d, lazy %d; estimator jobs: oracle %d, lazy %d; plan calls: oracle %d, lazy %d",
		oracle.Evaluations, lazy.Evaluations, oracle.MemoMisses, lazy.MemoMisses, oracle.PlanCalls, lazy.PlanCalls)
	return lazy, oracle
}

// assertSavings checks that the lazy run evaluated and built strictly
// less than the oracle, sent no more jobs to the estimator, and said so
// through its counters.
func assertSavings(t *testing.T, lazy, oracle *recommend.Result) {
	t.Helper()
	if lazy.Evaluations >= oracle.Evaluations {
		t.Errorf("lazy priced no fewer candidate designs: %d >= %d", lazy.Evaluations, oracle.Evaluations)
	}
	if built, oracleBuilt := lazy.MemoHits+lazy.MemoMisses, oracle.MemoHits+oracle.MemoMisses; built >= oracleBuilt {
		t.Errorf("lazy built no fewer pricing jobs: %d >= %d", built, oracleBuilt)
	}
	if lazy.MemoMisses > oracle.MemoMisses {
		t.Errorf("lazy sent more jobs to the estimator: %d > %d", lazy.MemoMisses, oracle.MemoMisses)
	}
	if lazy.EvalsSkipped <= 0 || lazy.JobsPruned <= 0 {
		t.Errorf("lazy run reported no savings: skipped %d, pruned %d", lazy.EvalsSkipped, lazy.JobsPruned)
	}
	if oracle.EvalsSkipped != 0 || oracle.JobsPruned != 0 {
		t.Errorf("oracle reported lazy savings: skipped %d, pruned %d", oracle.EvalsSkipped, oracle.JobsPruned)
	}
}

// TestSeedLazyGreedyIdentity: index-only greedy on the seed workload,
// INUM backend (the index-only default).
func TestSeedLazyGreedyIdentity(t *testing.T) {
	lazy, oracle := runWithOracle(t, testCatalog(t), seedWorkload(t), recommend.Options{
		Objects:  recommend.ObjectsIndexes,
		Strategy: recommend.StrategyGreedy,
	})
	assertSavings(t, lazy, oracle)
}

// TestSeedLazyGreedyIdentityFullBackend: under the full optimizer, the
// lazy greedy issues strictly fewer plan calls while producing the
// identical design, for index-only and joint searches alike.
func TestSeedLazyGreedyIdentityFullBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("full-optimizer sweep is the slow path")
	}
	for _, objects := range []string{recommend.ObjectsIndexes, recommend.ObjectsJoint} {
		t.Run(objects, func(t *testing.T) {
			lazy, oracle := runWithOracle(t, testCatalog(t), seedWorkload(t), recommend.Options{
				Objects:  objects,
				Strategy: recommend.StrategyGreedy,
				Backend:  costlab.BackendFull,
			})
			assertSavings(t, lazy, oracle)
			if lazy.MemoMisses >= oracle.MemoMisses {
				t.Errorf("lazy sent no fewer jobs to the estimator: %d >= %d", lazy.MemoMisses, oracle.MemoMisses)
			}
			if lazy.PlanCalls >= oracle.PlanCalls {
				t.Fatalf("lazy issued no fewer plan calls: %d >= %d", lazy.PlanCalls, oracle.PlanCalls)
			}
		})
	}
}

// TestSeedLazyStorageBudgetIdentity: the shared storage budget filters
// candidates differently every round; the identity must survive it on
// the real backend too.
func TestSeedLazyStorageBudgetIdentity(t *testing.T) {
	lazy, oracle := runWithOracle(t, testCatalog(t), seedWorkload(t), recommend.Options{
		Objects:       recommend.ObjectsIndexes,
		Strategy:      recommend.StrategyGreedy,
		StorageBudget: 4 << 20,
	})
	assertSavings(t, lazy, oracle)
	if lazy.SizeBytes > 4<<20 {
		t.Errorf("budget violated: %d bytes", lazy.SizeBytes)
	}
}

// jointWorkload mixes narrow projections on the wide table (where a
// partitioning pays) with selective predicates on the other (where an
// index does).
func jointWorkload(t *testing.T) []recommend.Query {
	return mustWorkload(t,
		"SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 100 AND 200",
		"SELECT objid, ra, dec FROM photoobj WHERE dec BETWEEN 0 AND 40",
		"SELECT z FROM specobj WHERE bestobjid = 12345",
		"SELECT bestobjid FROM specobj WHERE z BETWEEN 2.98 AND 3.0",
	)
}

// TestJointLazyMatchesEager: the joint search mixes lazily-swept index
// moves with fully-priced partitioning moves; the scorer absorbs the
// partition moves (dead candidates, stale footprints) and the move
// sequence must still match the exhaustive oracle exactly.
func TestJointLazyMatchesEager(t *testing.T) {
	lazy, oracle := runWithOracle(t, testCatalog(t), jointWorkload(t), recommend.Options{
		Objects: recommend.ObjectsJoint,
		Tables:  []string{"photoobj"},
	})
	if len(oracle.Design.Partitions) == 0 {
		t.Fatal("joint search chose no partitioning — the test is not exercising applyExternal")
	}
	if len(oracle.Design.Indexes) == 0 {
		t.Fatal("joint search chose no index — the test is not exercising the lazy sweep")
	}
	// On these four queries both pay 22 plan calls: every pair the
	// CELF bound skips is one the oracle gets from the memo. The seed
	// workload shows the strict saving
	// (TestSeedLazyGreedyIdentityFullBackend).
	if lazy.PlanCalls > oracle.PlanCalls {
		t.Errorf("lazy issued more plan calls: %d > %d", lazy.PlanCalls, oracle.PlanCalls)
	}
}

// TestPartitionMovesMatchOracle: partition moves alone — the anytime
// strategy over partitions only, where every move is priced over the
// full workload and the replication budget is AutoPart's. The queries
// overlap column-wise, so composite fragments (which replicate columns)
// are in play after the atomic split.
func TestPartitionMovesMatchOracle(t *testing.T) {
	queries := mustWorkload(t,
		"SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 100 AND 140",
		"SELECT objid, ra, u FROM photoobj WHERE u BETWEEN 15 AND 16",
		"SELECT objid, u, g FROM photoobj WHERE g BETWEEN 14 AND 15",
	)
	lazy, _ := runWithOracle(t, testCatalog(t), queries, recommend.Options{
		Objects:           recommend.ObjectsPartitions,
		Strategy:          recommend.StrategyAnytime,
		Tables:            []string{"photoobj"},
		ReplicationBudget: 1 << 30,
	})
	if lazy.Rounds < 2 || lazy.ReplicationBytes == 0 {
		t.Fatalf("search accepted no composite fragment (rounds %d, replication %d) — the test is not exercising the generator",
			lazy.Rounds, lazy.ReplicationBytes)
	}
}

// TestGreedyIsAnytimeUnbudgeted locks the merge: for index and joint
// searches "greedy" and "anytime" with a zero Budget are one loop, so
// they must agree on everything observable — design, costs, cost
// trace, rounds and the optimizer calls spent.
func TestGreedyIsAnytimeUnbudgeted(t *testing.T) {
	cat := testCatalog(t)
	for _, objects := range []string{recommend.ObjectsIndexes, recommend.ObjectsJoint} {
		t.Run(objects, func(t *testing.T) {
			queries := seedWorkload(t)
			opts := recommend.Options{Objects: objects, Strategy: recommend.StrategyGreedy}
			greedyMoves, greedy := runSearch(t, cat, queries, opts)
			opts.Strategy = recommend.StrategyAnytime
			anytimeMoves, anytime := runSearch(t, cat, queries, opts)

			if len(greedyMoves) == 0 {
				t.Fatal("greedy made no moves on the seed workload")
			}
			if !reflect.DeepEqual(greedyMoves, anytimeMoves) {
				t.Fatalf("move sequences differ:\n greedy  %v\n anytime %v", greedyMoves, anytimeMoves)
			}
			if !reflect.DeepEqual(greedy.Design, anytime.Design) {
				t.Fatalf("designs differ:\n greedy  %+v\n anytime %+v", greedy.Design, anytime.Design)
			}
			if greedy.BaseCost != anytime.BaseCost || greedy.NewCost != anytime.NewCost {
				t.Errorf("costs differ: greedy (%v, %v), anytime (%v, %v)",
					greedy.BaseCost, greedy.NewCost, anytime.BaseCost, anytime.NewCost)
			}
			if !reflect.DeepEqual(greedy.CostTrace, anytime.CostTrace) {
				t.Errorf("cost traces differ:\n greedy  %v\n anytime %v", greedy.CostTrace, anytime.CostTrace)
			}
			if greedy.Rounds != anytime.Rounds || greedy.Evaluations != anytime.Evaluations ||
				greedy.PlanCalls != anytime.PlanCalls {
				t.Errorf("work differs: greedy (%d rounds, %d evals, %d plan calls), anytime (%d, %d, %d)",
					greedy.Rounds, greedy.Evaluations, greedy.PlanCalls,
					anytime.Rounds, anytime.Evaluations, anytime.PlanCalls)
			}
			if greedy.Truncated || anytime.Truncated {
				t.Error("unbudgeted run reported truncation")
			}
		})
	}
}
