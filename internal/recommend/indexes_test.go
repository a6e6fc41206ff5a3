// Index-suggestion tests (§3.4): candidate generation, the ILP and
// greedy index searches, workload compression and DDL rendering, on a
// small hand-built catalog. Ported from the former internal/advisor
// wrapper package onto Recommend.
package recommend_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/inum"
	"repro/internal/recommend"
	"repro/internal/sql"
)

// suggestIndexes runs an index-only search with the given strategy.
func suggestIndexes(t testing.TB, cat *catalog.Catalog, qs []recommend.Query, strategy string, opts recommend.Options) *recommend.Result {
	t.Helper()
	opts.Objects, opts.Strategy = recommend.ObjectsIndexes, strategy
	res, err := recommend.Recommend(context.Background(), cat, qs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// smallCatalog is a two-table SDSS miniature with synthetic statistics.
func smallCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	mk := func(ddl string, rows int64) *catalog.Table {
		st, err := sql.Parse(ddl)
		if err != nil {
			t.Fatal(err)
		}
		tab := catalog.NewTable(st.(*sql.CreateTable))
		tab.RowCount = rows
		tab.Pages = tab.EstimatePages(rows)
		if err := cat.AddTable(tab); err != nil {
			t.Fatal(err)
		}
		return tab
	}
	po := mk(`CREATE TABLE photoobj (objid bigint, ra float8, dec float8, run int,
		camcol int, type int, u float8, g float8, r float8, PRIMARY KEY (objid))`, 500000)
	po.Column("objid").Stats = catalog.SyntheticUniformStats(0, 5e5, 500000, 5e5)
	po.Column("ra").Stats = catalog.SyntheticUniformStats(0, 360, 500000, 400000)
	po.Column("dec").Stats = catalog.SyntheticUniformStats(-90, 90, 500000, 400000)
	po.Column("run").Stats = catalog.SyntheticUniformStats(0, 800, 500000, 800)
	po.Column("camcol").Stats = catalog.SyntheticUniformStats(1, 6, 500000, 6)
	po.Column("type").Stats = catalog.SyntheticUniformStats(0, 6, 500000, 2)
	for _, b := range []string{"u", "g", "r"} {
		po.Column(b).Stats = catalog.SyntheticUniformStats(12, 26, 500000, 300000)
	}
	so := mk(`CREATE TABLE specobj (specid bigint, bestobjid bigint, z float8,
		class int, PRIMARY KEY (specid))`, 50000)
	so.Column("specid").Stats = catalog.SyntheticUniformStats(0, 5e4, 50000, 5e4)
	so.Column("bestobjid").Stats = catalog.SyntheticUniformStats(0, 5e5, 50000, 48000)
	so.Column("z").Stats = catalog.SyntheticUniformStats(0, 3, 50000, 45000)
	so.Column("class").Stats = catalog.SyntheticUniformStats(0, 3, 50000, 4)
	return cat
}

func TestIndexCandidates(t *testing.T) {
	cat := smallCatalog(t)
	qs := mustWorkload(t,
		"SELECT objid FROM photoobj WHERE run = 125 AND camcol = 3 AND ra BETWEEN 10 AND 10.2",
		"SELECT p.objid FROM photoobj p, specobj s WHERE p.objid = s.bestobjid AND s.z > 2.5 ORDER BY s.z",
	)
	cands := recommend.IndexCandidates(cat, qs, recommend.CandidateOptions{})
	keys := map[string]bool{}
	for _, c := range cands {
		keys[c.Key()] = true
	}
	for _, want := range []string{
		"photoobj(run)", "photoobj(camcol)", "photoobj(ra)",
		"photoobj(camcol,run,ra)", // eq prefix + range
		"specobj(bestobjid)", "specobj(z)",
	} {
		if !keys[want] {
			t.Errorf("missing candidate %s in %v", want, keys)
		}
	}
	// Deterministic and deduplicated.
	again := recommend.IndexCandidates(cat, qs, recommend.CandidateOptions{})
	if len(again) != len(cands) {
		t.Error("candidate generation nondeterministic")
	}
	for i := range cands {
		if cands[i].Key() != again[i].Key() {
			t.Error("candidate order nondeterministic")
		}
	}
}

func TestIndexCandidatesSingleColumnOnly(t *testing.T) {
	cat := smallCatalog(t)
	qs := mustWorkload(t, "SELECT objid FROM photoobj WHERE run = 1 AND ra BETWEEN 1 AND 2")
	cands := recommend.IndexCandidates(cat, qs, recommend.CandidateOptions{SingleColumnOnly: true})
	for _, c := range cands {
		if len(c.Columns) != 1 {
			t.Errorf("single-column mode emitted %v", c)
		}
	}
}

func TestIndexCandidatesWidthLimit(t *testing.T) {
	cat := smallCatalog(t)
	qs := mustWorkload(t,
		"SELECT objid FROM photoobj WHERE run = 1 AND camcol = 2 AND type = 3 AND ra BETWEEN 1 AND 2")
	cands := recommend.IndexCandidates(cat, qs, recommend.CandidateOptions{MaxIndexColumns: 2})
	for _, c := range cands {
		if len(c.Columns) > 2 {
			t.Errorf("width limit violated: %v", c)
		}
	}
}

func TestILPFindsUsefulIndexes(t *testing.T) {
	cat := smallCatalog(t)
	qs := mustWorkload(t,
		"SELECT objid FROM photoobj WHERE ra BETWEEN 180 AND 180.2 AND dec BETWEEN 0 AND 0.2",
		"SELECT objid FROM photoobj WHERE run = 125 AND camcol = 3",
		"SELECT objid, r FROM photoobj WHERE ra BETWEEN 200 AND 200.1",
	)
	res := suggestIndexes(t, cat, qs, recommend.StrategyILP, recommend.Options{})
	if len(res.Design.Indexes) == 0 {
		t.Fatal("no indexes suggested")
	}
	if res.Speedup() < 2 {
		t.Errorf("speedup = %.2f, want >= 2 for highly selective workload", res.Speedup())
	}
	if res.AvgBenefit() <= 0 || res.AvgBenefit() >= 1 {
		t.Errorf("benefit = %v", res.AvgBenefit())
	}
	// Every suggested index is used by some query.
	used := map[string]bool{}
	for _, pq := range res.PerQuery {
		for _, u := range pq.IndexesUsed {
			used[u] = true
		}
	}
	for _, ix := range res.Design.Indexes {
		if !used[ix.Key()] {
			t.Errorf("suggested index %s unused by every query", ix.Key())
		}
	}
	if res.Candidates == 0 || res.PlanCalls == 0 {
		t.Error("bookkeeping missing")
	}
}

func TestILPRespectsStorageBudget(t *testing.T) {
	cat := smallCatalog(t)
	qs := mustWorkload(t,
		"SELECT objid FROM photoobj WHERE ra BETWEEN 180 AND 180.2",
		"SELECT objid FROM photoobj WHERE dec BETWEEN 0 AND 0.2",
		"SELECT objid FROM photoobj WHERE run = 125",
	)
	unlimited := suggestIndexes(t, cat, qs, recommend.StrategyILP, recommend.Options{})
	if len(unlimited.Design.Indexes) < 2 {
		t.Skipf("need >= 2 indexes unlimited, got %d", len(unlimited.Design.Indexes))
	}
	// Budget for roughly one index.
	budget := unlimited.SizeBytes / 2
	limited := suggestIndexes(t, cat, qs, recommend.StrategyILP, recommend.Options{StorageBudget: budget})
	if limited.SizeBytes > budget {
		t.Errorf("budget violated: %d > %d", limited.SizeBytes, budget)
	}
	if len(limited.Design.Indexes) >= len(unlimited.Design.Indexes) {
		t.Errorf("budget did not shrink the design: %d vs %d", len(limited.Design.Indexes), len(unlimited.Design.Indexes))
	}
	// Still beneficial.
	if limited.NewCost >= limited.BaseCost {
		t.Error("budgeted design has no benefit")
	}
}

func TestGreedyIndexSearch(t *testing.T) {
	cat := smallCatalog(t)
	qs := mustWorkload(t,
		"SELECT objid FROM photoobj WHERE ra BETWEEN 180 AND 180.2",
		"SELECT objid FROM photoobj WHERE run = 125 AND camcol = 3",
	)
	res := suggestIndexes(t, cat, qs, recommend.StrategyGreedy, recommend.Options{})
	if len(res.Design.Indexes) == 0 {
		t.Fatal("greedy suggested nothing")
	}
	if res.NewCost >= res.BaseCost {
		t.Error("greedy design has no benefit")
	}
	if res.SolverWork == 0 {
		t.Error("no evaluations recorded")
	}
}

func TestILPAtLeastAsGoodAsGreedyUnderBudget(t *testing.T) {
	cat := smallCatalog(t)
	// Workload designed so greedy's benefit-per-byte ordering is
	// misleading: several medium-benefit cheap indexes vs. fewer
	// large ones; the exact solver must not do worse.
	qs := mustWorkload(t,
		"SELECT objid FROM photoobj WHERE ra BETWEEN 180 AND 180.2",
		"SELECT objid FROM photoobj WHERE dec BETWEEN 0 AND 0.2",
		"SELECT objid FROM photoobj WHERE run = 125",
		"SELECT objid FROM photoobj WHERE g BETWEEN 14 AND 14.01",
		"SELECT p.objid FROM photoobj p, specobj s WHERE p.objid = s.bestobjid AND s.z > 2.99",
	)
	budgets := []int64{8 << 20, 16 << 20, 64 << 20}
	for _, budget := range budgets {
		ilpRes := suggestIndexes(t, cat, qs, recommend.StrategyILP, recommend.Options{StorageBudget: budget})
		greedyRes := suggestIndexes(t, cat, qs, recommend.StrategyGreedy, recommend.Options{StorageBudget: budget})
		// Compare achieved workload cost; allow tiny numerical slack.
		if ilpRes.NewCost > greedyRes.NewCost*1.05 {
			t.Errorf("budget %d: ILP cost %v worse than greedy %v",
				budget, ilpRes.NewCost, greedyRes.NewCost)
		}
	}
}

func TestParseWorkloadErrors(t *testing.T) {
	if _, err := recommend.ParseWorkload([]string{"SELECT FROM"}); err == nil {
		t.Error("bad SQL accepted")
	}
	if _, err := recommend.ParseWorkload([]string{"CREATE TABLE t (a int)"}); err == nil {
		t.Error("non-SELECT accepted")
	}
}

func TestMaterializeStatements(t *testing.T) {
	specs := []inum.IndexSpec{
		{Table: "photoobj", Columns: []string{"ra", "dec"}},
		{Table: "specobj", Columns: []string{"z"}},
	}
	stmts := recommend.MaterializeStatements(specs)
	if len(stmts) != 2 {
		t.Fatalf("statements = %v", stmts)
	}
	for _, s := range stmts {
		st, err := sql.Parse(s)
		if err != nil {
			t.Fatalf("unparseable DDL %q: %v", s, err)
		}
		if _, ok := st.(*sql.CreateIndex); !ok {
			t.Errorf("not a CREATE INDEX: %q", s)
		}
	}
	if !strings.Contains(stmts[0], "(ra, dec)") {
		t.Errorf("columns wrong: %q", stmts[0])
	}
}

func TestQueryBenefitSpeedup(t *testing.T) {
	qb := recommend.QueryBenefit{BaseCost: 100, NewCost: 25}
	if qb.Speedup() != 4 {
		t.Errorf("speedup = %v", qb.Speedup())
	}
	qb = recommend.QueryBenefit{BaseCost: 100, NewCost: 0}
	if qb.Speedup() != 1 {
		t.Errorf("degenerate speedup = %v", qb.Speedup())
	}
}

func TestWeightsInfluenceSelection(t *testing.T) {
	cat := smallCatalog(t)
	qs := mustWorkload(t,
		"SELECT objid FROM photoobj WHERE ra BETWEEN 180 AND 180.2",
		"SELECT objid FROM photoobj WHERE dec BETWEEN 0 AND 0.2",
	)
	// Make the dec query dominate; a tight budget should then favour
	// the dec index.
	qs[1].Weight = 1000
	// Find the size of a single-column index to set the budget.
	cache := inum.New(cat)
	oneIx, err := cache.SpecSizeBytes(inum.IndexSpec{Table: "photoobj", Columns: []string{"dec"}})
	if err != nil {
		t.Fatal(err)
	}
	res := suggestIndexes(t, cat, qs, recommend.StrategyILP, recommend.Options{StorageBudget: oneIx + oneIx/4})
	foundDec := false
	for _, ix := range res.Design.Indexes {
		if len(ix.Columns) >= 1 && ix.Columns[0] == "dec" {
			foundDec = true
		}
	}
	if !foundDec {
		t.Errorf("weighted query's index not chosen: %v", res.Design.Indexes)
	}
}

func TestUpdateRatesSuppressIndexesOnHotTables(t *testing.T) {
	cat := smallCatalog(t)
	qs := mustWorkload(t,
		"SELECT objid FROM photoobj WHERE ra BETWEEN 180 AND 180.2",
		"SELECT specid FROM specobj WHERE z BETWEEN 2.98 AND 3.0",
	)
	// Without updates both tables get indexes.
	calm := suggestIndexes(t, cat, qs, recommend.StrategyILP, recommend.Options{})
	hasTable := func(res *recommend.Result, table string) bool {
		for _, ix := range res.Design.Indexes {
			if ix.Table == table {
				return true
			}
		}
		return false
	}
	if !hasTable(calm, "photoobj") || !hasTable(calm, "specobj") {
		t.Skipf("baseline did not index both tables: %v", calm.Design.Indexes)
	}
	if calm.MaintenanceCost != 0 {
		t.Errorf("maintenance without updates = %v", calm.MaintenanceCost)
	}
	// A very hot photoobj makes its index not worth maintaining.
	hot := suggestIndexes(t, cat, qs, recommend.StrategyILP, recommend.Options{
		UpdateRates: map[string]float64{"photoobj": 1e6},
	})
	if hasTable(hot, "photoobj") {
		t.Errorf("index kept on heavily updated table: %v", hot.Design.Indexes)
	}
	if !hasTable(hot, "specobj") {
		t.Errorf("cold table lost its index: %v", hot.Design.Indexes)
	}
	// Greedy honours the same constraint.
	hotGreedy := suggestIndexes(t, cat, qs, recommend.StrategyGreedy, recommend.Options{
		UpdateRates: map[string]float64{"photoobj": 1e6},
	})
	if hasTable(hotGreedy, "photoobj") {
		t.Errorf("greedy kept index on hot table: %v", hotGreedy.Design.Indexes)
	}
	// Moderate updates: index survives but maintenance is reported.
	warm := suggestIndexes(t, cat, qs, recommend.StrategyILP, recommend.Options{
		UpdateRates: map[string]float64{"photoobj": 10},
	})
	if hasTable(warm, "photoobj") && warm.MaintenanceCost <= 0 {
		t.Error("maintenance cost not reported")
	}
}

func TestCompressWorkloadGroupsTemplates(t *testing.T) {
	cat := smallCatalog(t)
	// 3 templates, 9 queries: cone searches (different constants),
	// run lookups, and a join.
	var sqls []string
	for _, bounds := range [][2]float64{{10, 11}, {50, 51}, {200, 201}, {300, 301}} {
		sqls = append(sqls, fmt.Sprintf(
			"SELECT objid FROM photoobj WHERE ra BETWEEN %g AND %g", bounds[0], bounds[1]))
	}
	for _, run := range []int{5, 95, 222} {
		sqls = append(sqls, fmt.Sprintf("SELECT objid FROM photoobj WHERE run = %d", run))
	}
	sqls = append(sqls,
		"SELECT p.objid FROM photoobj p, specobj s WHERE p.objid = s.bestobjid AND s.z > 1",
		"SELECT p.objid FROM photoobj p, specobj s WHERE p.objid = s.bestobjid AND s.z > 2.5",
	)
	qs := mustWorkload(t, sqls...)
	compressed := recommend.CompressWorkload(cat, qs, 5)
	if len(compressed) != 3 {
		t.Fatalf("compressed to %d templates, want 3", len(compressed))
	}
	// Weight is preserved.
	total := 0.0
	for _, q := range compressed {
		total += q.Weight
	}
	if total != 9 {
		t.Errorf("total weight = %v, want 9", total)
	}
	// Representative weights reflect group sizes.
	if compressed[0].Weight != 4 {
		t.Errorf("cone template weight = %v, want 4", compressed[0].Weight)
	}
	// The advisor over the compressed workload still finds the right
	// indexes.
	res := suggestIndexes(t, cat, compressed, recommend.StrategyILP, recommend.Options{})
	found := map[string]bool{}
	for _, ix := range res.Design.Indexes {
		found[ix.Key()] = true
	}
	if !found["photoobj(ra)"] {
		t.Errorf("compressed workload lost the ra index: %v", res.Design.Indexes)
	}
}

func TestCompressWorkloadNoopWhenSmall(t *testing.T) {
	cat := smallCatalog(t)
	qs := mustWorkload(t, "SELECT objid FROM photoobj WHERE ra > 1")
	if got := recommend.CompressWorkload(cat, qs, 10); len(got) != 1 {
		t.Errorf("compressed a small workload: %v", got)
	}
	if got := recommend.CompressWorkload(cat, qs, 0); len(got) != 1 {
		t.Errorf("maxQueries=0 should be a no-op: %v", got)
	}
}

func TestCompressWorkloadHardCap(t *testing.T) {
	cat := smallCatalog(t)
	// 4 distinct templates, cap at 2: keep the heaviest two.
	qs := mustWorkload(t,
		"SELECT objid FROM photoobj WHERE ra > 1",
		"SELECT objid FROM photoobj WHERE dec > 1",
		"SELECT objid FROM photoobj WHERE run = 3",
		"SELECT objid FROM photoobj WHERE camcol = 3",
	)
	qs[1].Weight = 10
	qs[2].Weight = 5
	got := recommend.CompressWorkload(cat, qs, 2)
	if len(got) != 2 {
		t.Fatalf("cap violated: %d", len(got))
	}
	if got[0].Weight != 10 || got[1].Weight != 5 {
		t.Errorf("kept wrong templates: %+v", got)
	}
}

// TestLargeWorkloadViaCompression exercises the paper's "large number
// of queries" regime: 90 template instances compress to a handful of
// templates; the ILP over the compressed workload must match or beat
// greedy over the same input, and both must beat doing nothing.
func TestLargeWorkloadViaCompression(t *testing.T) {
	cat := smallCatalog(t)
	// Generate instances against this test's schema (subset of the
	// full SDSS schema): cone searches and run lookups.
	var sqls []string
	for i := 0; i < 45; i++ {
		ra := float64(i*7%350) + 0.5
		sqls = append(sqls, fmt.Sprintf(
			"SELECT objid FROM photoobj WHERE ra BETWEEN %.1f AND %.1f", ra, ra+0.3))
		run := (i * 13) % 800
		sqls = append(sqls, fmt.Sprintf(
			"SELECT objid FROM photoobj WHERE run = %d AND camcol = %d", run, 1+i%6))
	}
	qs := mustWorkload(t, sqls...)
	compressed := recommend.CompressWorkload(cat, qs, 10)
	if len(compressed) >= len(qs) {
		t.Fatalf("no compression: %d", len(compressed))
	}
	ilpRes := suggestIndexes(t, cat, compressed, recommend.StrategyILP, recommend.Options{})
	greedyRes := suggestIndexes(t, cat, compressed, recommend.StrategyGreedy, recommend.Options{})
	if ilpRes.NewCost > greedyRes.NewCost*1.05 {
		t.Errorf("ILP (%v) worse than greedy (%v) on compressed workload",
			ilpRes.NewCost, greedyRes.NewCost)
	}
	if ilpRes.Speedup() < 2 {
		t.Errorf("large-workload speedup = %.2f", ilpRes.Speedup())
	}
}
