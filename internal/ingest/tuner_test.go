package ingest

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
	cat, err := workload.BuildCatalog(20000)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// indexOnlyOpts keeps tuner searches cheap and deterministic in tests:
// the budgeted anytime index search on the full optimizer, warm-started
// from memo (nil: a private memo per search).
func indexOnlyOpts(memo *costlab.Memo) recommend.Options {
	return recommend.Options{
		Objects:  recommend.ObjectsIndexes,
		Strategy: recommend.StrategyAnytime,
		Backend:  costlab.BackendFull,
		Memo:     memo,
	}
}

// TestTunerSkipsBelowThreshold: a window matching the baseline's shape
// must not trigger a retune; baseline advances after one does, so a
// second check over an unchanged window is also a skip.
func TestTunerSkipsBelowThreshold(t *testing.T) {
	cat := testCatalog(t)
	all := workload.Queries()
	baseline, err := recommend.ParseWorkload([]string{all[0], all[1]})
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	win := NewWindow(Options{Now: clk.now})
	tuner := NewTuner(TunerOptions{
		Catalog:   cat,
		Baseline:  baseline,
		Recommend: indexOnlyOpts(costlab.NewMemo()),
	})
	ctx := context.Background()

	// Empty window: nothing to tune.
	if ret, drift, err := tuner.Check(ctx, win.Queries()); ret != nil || drift != 0 || err != nil {
		t.Fatalf("empty-window check = (%v, %v, %v), want skip", ret, drift, err)
	}
	// Same shape as the baseline: no drift.
	for _, q := range []string{all[0], all[1]} {
		if err := win.Ingest(q); err != nil {
			t.Fatal(err)
		}
	}
	if ret, drift, err := tuner.Check(ctx, win.Queries()); ret != nil || err != nil {
		t.Fatalf("no-drift check = (%v, %v, %v), want skip", ret, drift, err)
	}
	// Drift the window onto different tables: retune fires.
	for _, q := range []string{all[15], all[17], all[15], all[17]} { // specobj traffic
		if err := win.Ingest(q); err != nil {
			t.Fatal(err)
		}
	}
	ret, drift, err := tuner.Check(ctx, win.Queries())
	if err != nil {
		t.Fatal(err)
	}
	if ret == nil {
		t.Fatalf("drifted check did not retune (drift %v)", drift)
	}
	if ret.Drift != drift || drift < DefaultDriftThreshold {
		t.Fatalf("retune drift %v, measured %v, threshold %v", ret.Drift, drift, DefaultDriftThreshold)
	}
	if ret.Result.NewCost > ret.StaleCost+1e-6 {
		t.Fatalf("retuned design prices worse than stale on the new window: %v > %v",
			ret.Result.NewCost, ret.StaleCost)
	}
	// Baseline advanced to the window: an unchanged window is a skip.
	if ret2, drift2, err := tuner.Check(ctx, win.Queries()); ret2 != nil || err != nil {
		t.Fatalf("post-retune check = (%v, %v, %v), want skip", ret2, drift2, err)
	}
}

// TestTunerWarmStartBeatsColdRun: a drift-triggered re-search sharing
// a memo with earlier pricing work must issue strictly fewer optimizer
// calls than a cold run over the same window — the continuous tuner's
// whole economic argument.
func TestTunerWarmStartBeatsColdRun(t *testing.T) {
	cat := testCatalog(t)
	all := workload.Queries()
	ctx := context.Background()
	memo := costlab.NewMemo()

	// Price the original workload once (the "design session history"
	// that warms the shared memo).
	baseline, err := recommend.ParseWorkload([]string{all[0], all[1]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recommend.Recommend(ctx, cat, baseline, indexOnlyOpts(memo)); err != nil {
		t.Fatal(err)
	}

	// The drifted window keeps one original query and adds new ones.
	clk := newFakeClock()
	win := NewWindow(Options{Now: clk.now})
	for _, q := range []string{all[0], all[15], all[17]} {
		if err := win.Ingest(q); err != nil {
			t.Fatal(err)
		}
	}

	tuner := NewTuner(TunerOptions{
		Catalog:        cat,
		Baseline:       baseline,
		DriftThreshold: -1, // always retune
		Recommend:      indexOnlyOpts(memo),
	})
	ret, _, err := tuner.Check(ctx, win.Queries())
	if err != nil {
		t.Fatal(err)
	}
	if ret == nil {
		t.Fatal("no retune")
	}
	if ret.Result.MemoHits == 0 {
		t.Fatal("warm retune hit the memo zero times — the warm start is not wired")
	}

	cold, err := recommend.Recommend(ctx, cat, win.Queries(), indexOnlyOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	if ret.Result.PlanCalls >= cold.PlanCalls {
		t.Fatalf("warm retune consumed %d optimizer calls, cold run %d — want strictly fewer",
			ret.Result.PlanCalls, cold.PlanCalls)
	}
}

// TestTunerFiltersUnpricableQueries: streamed traffic referencing
// foreign tables or columns must be excluded from the retune instead of
// failing every search.
func TestTunerFiltersUnpricableQueries(t *testing.T) {
	cat := testCatalog(t)
	clk := newFakeClock()
	win := NewWindow(Options{Now: clk.now})
	for _, q := range []string{
		`SELECT x FROM nosuchtable WHERE x > 0`,
		`SELECT nosuchcol FROM photoobj WHERE nosuchcol > 0`,
		workload.Queries()[0],
	} {
		if err := win.Ingest(q); err != nil {
			t.Fatal(err)
		}
	}
	tuner := NewTuner(TunerOptions{
		Catalog:        cat,
		DriftThreshold: -1,
		Recommend:      indexOnlyOpts(nil),
	})
	ret, _, err := tuner.Check(context.Background(), win.Queries())
	if err != nil {
		t.Fatal(err)
	}
	if ret == nil {
		t.Fatal("no retune")
	}
	if ret.WindowQueries != 1 {
		t.Fatalf("retuned over %d queries, want 1 (unpricable traffic filtered)", ret.WindowQueries)
	}
}

// TestRetuneDegenerateGuards: zero or garbage stale costs must never
// surface as NaN/Inf speedups.
func TestRetuneDegenerateGuards(t *testing.T) {
	cases := []*Retune{
		{StaleCost: 0, Result: &recommend.Result{NewCost: 10}},
		{StaleCost: math.NaN(), Result: &recommend.Result{NewCost: 10}},
		{StaleCost: math.Inf(1), Result: &recommend.Result{NewCost: 10}},
		{StaleCost: 100, Result: &recommend.Result{NewCost: 0}},
		{StaleCost: 100},
	}
	for i, r := range cases {
		if v := r.Speedup(); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("case %d: Speedup = %v", i, v)
		}
	}
	r := &Retune{StaleCost: 100, Result: &recommend.Result{NewCost: 50}}
	if r.Speedup() != 2 {
		t.Fatalf("healthy retune: speedup %v", r.Speedup())
	}
}
