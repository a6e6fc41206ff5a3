// Package integration cross-validates the whole PARINDA stack against
// ground truth: suggested designs are materialized in the storage
// engine and checked for real effect (buffer-pool misses, result-set
// equivalence), not just estimated cost.
package integration

import (
	"context"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/design"
	"repro/internal/inum"
	"repro/internal/optimizer"
	"repro/internal/recommend"
	"repro/internal/rewrite"
	"repro/internal/session"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/whatif"
	"repro/internal/workload"
)

func populate(t testing.TB, scale int64) *storage.Database {
	t.Helper()
	db := storage.NewDatabase(512) // small pool so misses are visible
	if err := workload.PopulateDatabase(db, scale, 99); err != nil {
		t.Fatal(err)
	}
	return db
}

func parse(t testing.TB, q string) *sql.Select {
	t.Helper()
	sel, err := sql.ParseSelect(q)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

// TestSuggestedIndexReducesRealIO materializes the advisor's top
// suggestion and verifies that executing the workload touches far
// fewer pages — the estimated benefit corresponds to a physical one.
func TestSuggestedIndexReducesRealIO(t *testing.T) {
	db := populate(t, 20000)
	wl := []string{"SELECT objid FROM photoobj WHERE ra BETWEEN 100 AND 100.5"}
	queries, err := recommend.ParseWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := recommend.Recommend(context.Background(), db.Catalog, queries, recommend.Options{
		Objects:  recommend.ObjectsIndexes,
		Strategy: recommend.StrategyILP,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Design.Indexes) == 0 {
		t.Fatal("advisor found nothing for a selective range query")
	}

	sel := parse(t, wl[0])
	run := func() int64 {
		db.Pool.Reset()
		if _, err := db.Execute(sel); err != nil {
			t.Fatal(err)
		}
		return db.Pool.Misses()
	}
	missesBefore := run()

	for i, spec := range res.Design.Indexes {
		ci := &sql.CreateIndex{
			Name: "int_ix" + string(rune('a'+i)), Table: spec.Table, Columns: spec.Columns,
		}
		if _, err := db.BuildIndex(ci); err != nil {
			t.Fatal(err)
		}
	}
	missesAfter := run()
	if missesAfter*4 > missesBefore {
		t.Errorf("index did not reduce real I/O enough: %d -> %d pool misses",
			missesBefore, missesAfter)
	}
}

// TestEstimatedAndRealSpeedupAgreeInDirection checks, for each query
// the advisor claims to improve, that the real page traffic also
// drops; estimation and reality must agree on the *direction* of every
// per-query verdict.
func TestEstimatedAndRealSpeedupAgreeInDirection(t *testing.T) {
	db := populate(t, 15000)
	wl := []string{
		"SELECT objid FROM photoobj WHERE ra BETWEEN 100 AND 100.4",
		"SELECT objid FROM photoobj WHERE run = 93 AND camcol = 3",
		"SELECT run, COUNT(*) FROM photoobj GROUP BY run", // unindexable
	}
	queries, err := recommend.ParseWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := recommend.Recommend(context.Background(), db.Catalog, queries, recommend.Options{
		Objects:  recommend.ObjectsIndexes,
		Strategy: recommend.StrategyILP,
	})
	if err != nil {
		t.Fatal(err)
	}

	missesFor := func(q string) int64 {
		sel := parse(t, q)
		db.Pool.Reset()
		if _, err := db.Execute(sel); err != nil {
			t.Fatal(err)
		}
		return db.Pool.Misses()
	}
	before := make([]int64, len(wl))
	for i, q := range wl {
		before[i] = missesFor(q)
	}
	for i, spec := range res.Design.Indexes {
		ci := &sql.CreateIndex{
			Name: "dir_ix" + string(rune('a'+i)), Table: spec.Table, Columns: spec.Columns,
		}
		if _, err := db.BuildIndex(ci); err != nil {
			t.Fatal(err)
		}
	}
	for i, q := range wl {
		after := missesFor(q)
		claimed := res.PerQuery[i].NewCost < res.PerQuery[i].BaseCost*0.9
		realImproved := after < before[i]
		if claimed && !realImproved {
			t.Errorf("query %d: advisor claimed improvement but misses went %d -> %d",
				i+1, before[i], after)
		}
	}
}

// TestAutoPartRewrittenWorkloadEquivalentOnRealData materializes an
// AutoPart suggestion and verifies that every rewritten query returns
// exactly the original result set.
func TestAutoPartRewrittenWorkloadEquivalentOnRealData(t *testing.T) {
	db := populate(t, 8000)
	wl := []string{
		"SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 50 AND 150 ORDER BY objid",
		"SELECT objid, u, g FROM photoobj WHERE u BETWEEN 14 AND 16 ORDER BY objid",
		"SELECT run, COUNT(*) AS n FROM photoobj GROUP BY run ORDER BY run",
	}
	queries, err := recommend.ParseWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := recommend.Recommend(context.Background(), db.Catalog, queries, recommend.Options{
		Objects:           recommend.ObjectsPartitions,
		Strategy:          recommend.StrategyGreedy,
		ReplicationBudget: 1 << 30,
		Tables:            []string{"photoobj"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Design.Partitions) != 1 || len(res.Design.Partitions[0].Fragments) < 2 {
		t.Skip("AutoPart kept the table whole at this scale")
	}

	// Materialize the fragments via the session's accuracy check. Fragments are named
	// by design.FragName on both sides, so the rewritten workload runs
	// against the same tables.
	if _, err := session.MaterializeAndCompare(db, wl[:1], design.Design{Partitions: res.Design.Partitions}); err != nil {
		t.Fatal(err)
	}

	for i, q := range wl {
		orig, err := db.Execute(parse(t, q))
		if err != nil {
			t.Fatalf("original %d: %v", i+1, err)
		}
		rw, err := db.Execute(parse(t, res.Rewritten[i]))
		if err != nil {
			t.Fatalf("rewritten %d: %v\n%s", i+1, err, res.Rewritten[i])
		}
		if !sameRows(orig.Rows, rw.Rows) {
			t.Errorf("query %d: result mismatch (%d vs %d rows)\nrewritten: %s",
				i+1, len(orig.Rows), len(rw.Rows), res.Rewritten[i])
		}
	}
}

// TestWhatIfEstimatesMatchMeasuredStatistics verifies the what-if
// table derivation against ANALYZE on a materialized fragment: row
// counts identical, page estimate close.
func TestWhatIfEstimatesMatchMeasuredStatistics(t *testing.T) {
	db := populate(t, 10000)
	session := whatif.NewSession(db.Catalog)
	hypo, err := session.CreateTable(whatif.TableDef{
		Name: "po_pos", Parent: "photoobj", Columns: []string{"ra", "dec"},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Materialize the same fragment.
	ddl := parseStmt(t, "CREATE TABLE po_pos_real (objid bigint, ra float8, dec float8, PRIMARY KEY (objid))")
	if _, err := db.CreateTable(ddl.(*sql.CreateTable)); err != nil {
		t.Fatal(err)
	}
	it := db.Heap("photoobj").Scan()
	tab := db.Catalog.Table("photoobj")
	oRA, oDec := tab.ColumnIndex("ra"), tab.ColumnIndex("dec")
	for {
		row, ok := it.Next()
		if !ok {
			break
		}
		if err := db.Insert("po_pos_real", []catalog.Datum{row[0], row[oRA], row[oDec]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AnalyzeTable("po_pos_real"); err != nil {
		t.Fatal(err)
	}
	real := db.Catalog.Table("po_pos_real")

	if hypo.RowCount != real.RowCount {
		t.Errorf("row counts: what-if %d vs real %d", hypo.RowCount, real.RowCount)
	}
	relErr := float64(hypo.Pages-real.Pages) / float64(real.Pages)
	if relErr < 0 {
		relErr = -relErr
	}
	if relErr > 0.2 {
		t.Errorf("page estimate off by %.0f%%: what-if %d vs real %d",
			100*relErr, hypo.Pages, real.Pages)
	}
}

// TestFullDemoPipeline drives all three scenarios back to back on one
// catalog, as the demo does, and checks nothing interferes.
func TestFullDemoPipeline(t *testing.T) {
	cat, err := workload.BuildCatalog(100000)
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.Queries()

	s, err := session.New(cat, wl[:6], session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := s.ApplyDesign(design.Design{
		Indexes: []inum.IndexSpec{{Table: "photoobj", Columns: []string{"ra"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := recommend.ParseWorkload(wl[:6])
	if err != nil {
		t.Fatal(err)
	}
	if inter.AvgBenefit() <= 0 {
		t.Error("interactive scenario found no benefit")
	}

	parts, err := recommend.Recommend(context.Background(), cat, queries, recommend.Options{
		Objects:           recommend.ObjectsPartitions,
		Strategy:          recommend.StrategyGreedy,
		ReplicationBudget: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if parts.Speedup() < 1 {
		t.Error("partition scenario regressed")
	}

	idx, err := recommend.Recommend(context.Background(), cat, queries, recommend.Options{
		Objects:  recommend.ObjectsIndexes,
		Strategy: recommend.StrategyILP,
	})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Speedup() <= 1 {
		t.Error("index scenario found no benefit")
	}
	// The catalog must still be pristine.
	if len(cat.Indexes()) != 0 {
		t.Error("scenarios leaked objects into the catalog")
	}
	for _, tab := range cat.Tables() {
		if tab.Hypothetical {
			t.Errorf("hypothetical table %q leaked", tab.Name)
		}
	}
}

// TestRewriterCoverageOfFullWorkload rewrites all 30 queries onto an
// AutoPart partitioning and checks each parses and plans.
func TestRewriterCoverageOfFullWorkload(t *testing.T) {
	cat, err := workload.BuildCatalog(100000)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := workload.ParseQueries()
	if err != nil {
		t.Fatal(err)
	}
	res, err := recommend.Recommend(context.Background(), cat, queries, recommend.Options{
		Objects:           recommend.ObjectsPartitions,
		Strategy:          recommend.StrategyGreedy,
		ReplicationBudget: 1 << 30,
		Tables:            []string{"photoobj"},
		MaxIterations:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rewritten) != 30 {
		t.Fatalf("rewrote %d of 30", len(res.Rewritten))
	}
	for i, q := range res.Rewritten {
		if _, err := sql.ParseSelect(q); err != nil {
			t.Errorf("Q%d rewritten unparseable: %v", i+1, err)
		}
	}
	_ = rewrite.Fragment{} // keep the rewrite import meaningful
}

func parseStmt(t testing.TB, s string) sql.Statement {
	t.Helper()
	st, err := sql.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func sameRows(a, b [][]catalog.Datum) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(rows [][]catalog.Datum) map[string]int {
		m := map[string]int{}
		for _, r := range rows {
			parts := make([]string, len(r))
			for j, d := range r {
				parts[j] = d.Key()
			}
			m[strings.Join(parts, "|")]++
		}
		return m
	}
	ka, kb := key(a), key(b)
	if len(ka) != len(kb) {
		return false
	}
	for k, n := range ka {
		if kb[k] != n {
			return false
		}
	}
	return true
}

// TestCardinalityEstimatesWithinReason executes every workload query
// and compares the optimizer's row estimate with the true result
// cardinality. Single-block estimation over synthetic uniform data
// should stay within two orders of magnitude — loose, but it catches
// selectivity-model regressions immediately.
func TestCardinalityEstimatesWithinReason(t *testing.T) {
	db := populate(t, 10000)
	p := optimizerNew(db)
	for i, q := range workload.Queries() {
		sel := parse(t, q)
		plan, err := p.Plan(sel)
		if err != nil {
			t.Fatalf("Q%d plan: %v", i+1, err)
		}
		res, err := db.Execute(sel)
		if err != nil {
			t.Fatalf("Q%d exec: %v", i+1, err)
		}
		actual := float64(len(res.Rows))
		est := plan.Rows
		// Tiny results: only require the estimate is also smallish.
		if actual < 5 {
			if est > 5000 {
				t.Errorf("Q%d: actual %d rows but estimated %.0f", i+1, len(res.Rows), est)
			}
			continue
		}
		ratio := est / actual
		if ratio < 0.01 || ratio > 100 {
			t.Errorf("Q%d: estimate %.0f vs actual %.0f (ratio %.2f)", i+1, est, actual, ratio)
		}
	}
}

// TestSampledAnalyzePlansLikeFullAnalyze runs the planner with full
// and sampled statistics and verifies plan shapes agree across the
// workload — sampling must not flip access-path decisions. Then a full
// ANALYZE replaces the sampled statistics under the planner that
// planned with them: it must plan exactly as a fresh planner does, not
// from the statistics it prepared the statements with.
func TestSampledAnalyzePlansLikeFullAnalyze(t *testing.T) {
	full := populate(t, 12000)
	sampled := populate(t, 12000)
	for _, tab := range sampled.Catalog.Tables() {
		if err := sampled.AnalyzeTableSampled(tab.Name, 2000, 7); err != nil {
			t.Fatal(err)
		}
	}
	pf := optimizerNew(full)
	ps := optimizerNew(sampled)
	var sels []*sql.Select
	var before []float64
	for i, q := range workload.Queries() {
		sel := parse(t, q)
		a, err := pf.Plan(sel)
		if err != nil {
			t.Fatalf("Q%d: %v", i+1, err)
		}
		b, err := ps.Plan(sel)
		if err != nil {
			t.Fatalf("Q%d sampled: %v", i+1, err)
		}
		// Cardinalities should be in the same ballpark.
		ratio := (a.Rows + 1) / (b.Rows + 1)
		if ratio < 0.2 || ratio > 5 {
			t.Errorf("Q%d: full estimate %.0f vs sampled %.0f", i+1, a.Rows, b.Rows)
		}
		sels, before = append(sels, sel), append(before, b.TotalCost)
	}

	for _, tab := range sampled.Catalog.Tables() {
		if err := sampled.AnalyzeTable(tab.Name); err != nil {
			t.Fatal(err)
		}
	}
	changed := 0
	for i, sel := range sels {
		got, err := ps.Plan(sel)
		if err != nil {
			t.Fatalf("Q%d re-analyzed: %v", i+1, err)
		}
		want, err := optimizerNew(sampled).Plan(sel)
		if err != nil {
			t.Fatal(err)
		}
		if got.TotalCost != want.TotalCost || optimizer.Explain(got) != optimizer.Explain(want) {
			t.Errorf("Q%d after ANALYZE: the planner that planned before plans\n%s\na fresh planner\n%s",
				i+1, optimizer.Explain(got), optimizer.Explain(want))
		}
		if got.TotalCost != before[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Error("re-analyzing changed no cost: the check above proves nothing")
	}
}

func optimizerNew(db *storage.Database) *optimizer.Planner {
	return optimizer.New(db.Catalog)
}
