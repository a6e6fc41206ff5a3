package recommend

// Regression test for benefit-per-byte scoring of zero-size
// candidates: a bare gain/size scores a zero-size candidate (an index
// over an empty table, sized by a backend that doesn't round up to a
// page) at +Inf, so it is always picked first. The rule is that
// bytes < 1 clamp to 1 — free moves score by raw gain — and the greedy
// loop and the exhaustive oracle must both rank candidates that way.
//
// The test lives in the package (not recommend_test) so it can wire a
// stub pricing backend straight into an Evaluator and control candidate
// sizes and gains exactly.

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/costlab"
	"repro/internal/inum"
	"repro/internal/sql"
)

// stubBackend prices a statement as a fixed base cost minus a fixed
// discount per configuration index on a table the statement references
// (an index cannot help a query that never touches its table — the
// invariance the lazy cache relies on), and sizes specs from a fixed
// table — full control over gain and benefit-per-byte.
type stubBackend struct {
	base     float64
	discount map[string]float64 // index key → cost reduction
	sizes    map[string]int64   // index key → Equation-1 bytes
	calls    atomic.Int64
}

func (s *stubBackend) Cost(stmt *sql.Select, cfg costlab.Config) (float64, error) {
	s.calls.Add(1)
	cost := s.base
	fp := sql.FootprintOf(stmt)
	for _, spec := range cfg {
		if fp.TouchesTable(spec.Table) {
			cost -= s.discount[spec.Key()]
		}
	}
	return cost, nil
}

func (s *stubBackend) SpecSizeBytes(spec inum.IndexSpec) (int64, error) {
	return s.sizes[spec.Key()], nil
}

func (s *stubBackend) PlanCalls() int64 { return s.calls.Load() }

// zeroSizeProblem assembles a Problem over the stub backend with two
// candidates: a zero-size index whose gain is tiny, and a real-size
// index whose benefit-per-byte beats that raw gain. Under the
// documented rule (free moves score by raw gain) the real index must
// be picked first; an unclamped gain/size picks the free one at +Inf
// instead.
func zeroSizeProblem(t *testing.T, opts Options) (*Problem, inum.IndexSpec, inum.IndexSpec) {
	t.Helper()
	free := inum.IndexSpec{Table: "emptytab", Columns: []string{"c"}}
	big := inum.IndexSpec{Table: "bigtab", Columns: []string{"d"}}
	stub := &stubBackend{
		base: 1000,
		// free gain 1e-5 (positive, above the improvement epsilon);
		// big gain 100 over 1 MiB ≈ 9.5e-5 per byte — larger than the
		// free move's raw gain, so the clamped ranking picks big first.
		discount: map[string]float64{free.Key(): 1e-5, big.Key(): 100},
		sizes:    map[string]int64{free.Key(): 0, big.Key(): 1 << 20},
	}
	queries, err := ParseWorkload([]string{
		`SELECT c FROM emptytab WHERE c > 0`,
		`SELECT d FROM bigtab WHERE d > 0`,
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := newEvaluator(catalog.New(), queries, stub, 1, nil)
	return &Problem{
		Cat:             catalog.New(),
		Queries:         queries,
		Eval:            ev,
		Opts:            opts,
		IndexCandidates: []inum.IndexSpec{free, big},
	}, free, big
}

// runFirstMove runs strategy on a fresh zero-size problem and returns
// the first move's label and the cost after the first round.
func runFirstMove(t *testing.T, strategy SearchFunc, opts Options) (string, float64) {
	t.Helper()
	var moves []string
	opts.Progress = func(p Progress) {
		if p.LastMove != "" {
			moves = append(moves, p.LastMove)
		}
	}
	p, _, _ := zeroSizeProblem(t, opts)
	p.Opts = opts
	out, err := strategy(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) == 0 {
		t.Fatalf("strategy made no move (design %+v)", out.Design)
	}
	if len(out.CostTrace) < 2 {
		t.Fatalf("cost trace has no round: %v", out.CostTrace)
	}
	return moves[0], out.CostTrace[1]
}

// TestZeroSizeCandidateMatchesOracle is the regression test for the
// +Inf scoring bug: with a zero-size candidate present, the greedy loop
// and the oracle must select the same first move (and land on the same
// cost after it) — the benefit-per-byte winner, not the free move.
func TestZeroSizeCandidateMatchesOracle(t *testing.T) {
	opts := Options{Objects: ObjectsIndexes, Strategy: StrategyGreedy, MaxIterations: 1}
	greedyMove, greedyCost := runFirstMove(t, searchGreedy, opts)
	oracleMove, oracleCost := runFirstMove(t, searchOracle, opts)

	if greedyMove != oracleMove {
		t.Fatalf("first moves diverge: greedy picked %q, the oracle %q", greedyMove, oracleMove)
	}
	if greedyCost != oracleCost {
		t.Fatalf("first round's costs diverge: greedy %v, oracle %v", greedyCost, oracleCost)
	}
	if want := "index bigtab(d)"; greedyMove != want {
		t.Fatalf("first move = %q, want %q (benefit-per-byte with the zero-size clamp)", greedyMove, want)
	}
}

// TestZeroSizeCandidateStillSelectable: the clamp must not ban free
// moves — a zero-size candidate with a real gain still wins when no
// other candidate beats its raw gain per byte.
func TestZeroSizeCandidateStillSelectable(t *testing.T) {
	free := inum.IndexSpec{Table: "emptytab", Columns: []string{"c"}}
	stub := &stubBackend{
		base:     1000,
		discount: map[string]float64{free.Key(): 50},
		sizes:    map[string]int64{free.Key(): 0},
	}
	queries, err := ParseWorkload([]string{`SELECT c FROM emptytab WHERE c > 0`})
	if err != nil {
		t.Fatal(err)
	}
	ev := newEvaluator(catalog.New(), queries, stub, 1, nil)
	p := &Problem{
		Cat:             catalog.New(),
		Queries:         queries,
		Eval:            ev,
		Opts:            Options{Objects: ObjectsIndexes},
		IndexCandidates: []inum.IndexSpec{free},
	}
	out, err := searchGreedy(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Design.Indexes) != 1 || out.Design.Indexes[0].Key() != free.Key() {
		t.Fatalf("free candidate with real gain not selected: %+v", out.Design)
	}
	if out.Cost != 950 {
		t.Fatalf("cost after the free move = %v, want 950", out.Cost)
	}
}
