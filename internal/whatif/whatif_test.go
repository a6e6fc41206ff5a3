package whatif

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sql"
)

func testCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	st, err := sql.Parse(`CREATE TABLE photoobj (objid bigint, ra float8, dec float8,
		run int, type int, u float8, g float8, r float8, PRIMARY KEY (objid))`)
	if err != nil {
		t.Fatal(err)
	}
	tab := catalog.NewTable(st.(*sql.CreateTable))
	tab.RowCount = 1000000
	tab.Pages = tab.EstimatePages(tab.RowCount)
	tab.Column("objid").Stats = catalog.SyntheticUniformStats(0, 1e6, tab.RowCount, 1e6)
	tab.Column("ra").Stats = catalog.SyntheticUniformStats(0, 360, tab.RowCount, 800000)
	tab.Column("dec").Stats = catalog.SyntheticUniformStats(-90, 90, tab.RowCount, 800000)
	tab.Column("run").Stats = catalog.SyntheticUniformStats(0, 100, tab.RowCount, 100)
	tab.Column("type").Stats = catalog.SyntheticUniformStats(0, 6, tab.RowCount, 2)
	for _, c := range []string{"u", "g", "r"} {
		tab.Column(c).Stats = catalog.SyntheticUniformStats(12, 26, tab.RowCount, 500000)
	}
	if err := cat.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	return cat
}

func parse(t testing.TB, q string) *sql.Select {
	t.Helper()
	sel, err := sql.ParseSelect(q)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

func TestWhatIfIndexChangesPlanWithoutTouchingCatalog(t *testing.T) {
	cat := testCatalog(t)
	s := NewSession(cat)
	q := parse(t, "SELECT objid FROM photoobj WHERE ra BETWEEN 100 AND 100.5")

	before, err := s.Cost(q)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := s.CreateIndex("photoobj", []string{"ra"})
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Hypothetical {
		t.Error("index not marked hypothetical")
	}
	after, err := s.Cost(q)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("what-if index did not help: %v >= %v", after, before)
	}
	pl, err := s.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Type != optimizer.NodeIndexScan || !strings.HasPrefix(pl.Index.Name, HypoPrefix) {
		t.Fatalf("expected what-if index scan:\n%s", optimizer.Explain(pl))
	}
	// The base catalog must not know the index.
	if len(cat.Indexes()) != 0 {
		t.Error("what-if index leaked into the base catalog")
	}
	// Dropping restores the original cost.
	if err := s.DropIndex(ix.Name); err != nil {
		t.Fatal(err)
	}
	restored, _ := s.Cost(q)
	if restored != before {
		t.Errorf("drop did not restore cost: %v != %v", restored, before)
	}
}

func TestWhatIfIndexSizeMatchesEquation1(t *testing.T) {
	cat := testCatalog(t)
	s := NewSession(cat)
	ix, err := s.CreateIndex("photoobj", []string{"ra", "dec"})
	if err != nil {
		t.Fatal(err)
	}
	want := catalog.IndexPages(cat.Table("photoobj"), []string{"ra", "dec"}, 1000000)
	if ix.Pages != want {
		t.Errorf("pages = %d, want %d", ix.Pages, want)
	}
	sz, err := s.IndexSizeBytes("photoobj", []string{"ra", "dec"})
	if err != nil || sz != want*catalog.PageSize {
		t.Errorf("IndexSizeBytes = %d, %v", sz, err)
	}
}

func TestWhatIfIndexErrors(t *testing.T) {
	s := NewSession(testCatalog(t))
	if _, err := s.CreateIndex("nosuch", []string{"a"}); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := s.CreateIndex("photoobj", nil); err == nil {
		t.Error("empty column list accepted")
	}
	if _, err := s.CreateIndex("photoobj", []string{"nope"}); err == nil {
		t.Error("unknown column accepted")
	}
	if err := s.DropIndex("nosuch"); err == nil {
		t.Error("dropping unknown index accepted")
	}
}

func TestWhatIfTableSimulatesPartition(t *testing.T) {
	cat := testCatalog(t)
	s := NewSession(cat)
	// Narrow partition holding only (objid, ra, dec).
	pt, err := s.CreateTable(TableDef{
		Name: "photoobj_radec", Parent: "photoobj", Columns: []string{"ra", "dec"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Hypothetical || pt.PartitionOf != "photoobj" {
		t.Errorf("partition metadata wrong: %+v", pt)
	}
	if pt.RowCount != 1000000 {
		t.Errorf("rowcount = %d", pt.RowCount)
	}
	// PK must be included even though not requested.
	if pt.ColumnIndex("objid") < 0 {
		t.Error("primary key column missing from partition")
	}
	if pt.Pages >= cat.Table("photoobj").Pages {
		t.Errorf("narrow partition (%d pages) must be smaller than parent (%d)",
			pt.Pages, cat.Table("photoobj").Pages)
	}
	// Stats are inherited.
	if pt.Column("ra").Stats == nil {
		t.Fatal("partition lost parent statistics")
	}

	// The planner can plan against the what-if table, and scanning the
	// narrow partition costs less than scanning the parent.
	full, err := s.Cost(parse(t, "SELECT objid, ra, dec FROM photoobj WHERE ra < 100"))
	if err != nil {
		t.Fatal(err)
	}
	part, err := s.Cost(parse(t, "SELECT objid, ra, dec FROM photoobj_radec WHERE ra < 100"))
	if err != nil {
		t.Fatal(err)
	}
	if part >= full {
		t.Errorf("partition scan (%v) must beat full-table scan (%v)", part, full)
	}
}

func TestWhatIfIndexOnWhatIfTable(t *testing.T) {
	s := NewSession(testCatalog(t))
	if _, err := s.CreateTable(TableDef{Name: "p_ra", Parent: "photoobj", Columns: []string{"ra"}}); err != nil {
		t.Fatal(err)
	}
	ix, err := s.CreateIndex("p_ra", []string{"ra"})
	if err != nil {
		t.Fatal(err)
	}
	q := parse(t, "SELECT objid FROM p_ra WHERE ra BETWEEN 1 AND 1.1")
	pl, err := s.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Type != optimizer.NodeIndexScan || pl.Index.Name != ix.Name {
		t.Fatalf("expected index scan on what-if table:\n%s", optimizer.Explain(pl))
	}
}

func TestWhatIfTableErrors(t *testing.T) {
	s := NewSession(testCatalog(t))
	if _, err := s.CreateTable(TableDef{Name: "x", Parent: "nosuch"}); err == nil {
		t.Error("unknown parent accepted")
	}
	if _, err := s.CreateTable(TableDef{Parent: "photoobj"}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := s.CreateTable(TableDef{Name: "photoobj", Parent: "photoobj"}); err == nil {
		t.Error("name collision with base table accepted")
	}
	if _, err := s.CreateTable(TableDef{Name: "x", Parent: "photoobj", Columns: []string{"nope"}}); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := s.CreateTable(TableDef{Name: "y", Parent: "photoobj", Columns: []string{"ra"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable(TableDef{Name: "y", Parent: "photoobj", Columns: []string{"ra"}}); err == nil {
		t.Error("duplicate what-if table accepted")
	}
	if err := s.DropTable("nosuch"); err == nil {
		t.Error("dropping unknown table accepted")
	}
}

func TestDropTableCascadesToIndexes(t *testing.T) {
	s := NewSession(testCatalog(t))
	if _, err := s.CreateTable(TableDef{Name: "p1", Parent: "photoobj", Columns: []string{"ra"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateIndex("p1", []string{"ra"}); err != nil {
		t.Fatal(err)
	}
	if err := s.DropTable("p1"); err != nil {
		t.Fatal(err)
	}
	if len(s.Indexes()) != 0 {
		t.Error("index on dropped what-if table survived")
	}
}

func TestNestLoopToggle(t *testing.T) {
	s := NewSession(testCatalog(t))
	if !s.NestLoopEnabled() {
		t.Error("nestloop should start enabled")
	}
	s.SetNestLoop(false)
	if s.NestLoopEnabled() {
		t.Error("toggle failed")
	}
	s.Reset()
	if !s.NestLoopEnabled() {
		t.Error("reset did not restore nestloop")
	}
}

func TestResetClearsEverything(t *testing.T) {
	s := NewSession(testCatalog(t))
	if _, err := s.CreateIndex("photoobj", []string{"ra"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable(TableDef{Name: "p1", Parent: "photoobj", Columns: []string{"ra"}}); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if len(s.Indexes()) != 0 || len(s.Tables()) != 0 {
		t.Error("reset left hypothetical features behind")
	}
}

func TestSimulationIsDeterministic(t *testing.T) {
	s := NewSession(testCatalog(t))
	if _, err := s.CreateIndex("photoobj", []string{"run", "type"}); err != nil {
		t.Fatal(err)
	}
	q := parse(t, "SELECT objid FROM photoobj WHERE run = 5 AND type = 3")
	c1, err := s.Cost(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if c, _ := s.Cost(q); c != c1 {
			t.Fatalf("nondeterministic what-if cost")
		}
	}
}

func TestApplyDeltaAtomic(t *testing.T) {
	s := NewSession(testCatalog(t))
	off := false
	created, err := s.ApplyDelta(Delta{
		CreateTables:  []TableDef{{Name: "p1", Parent: "photoobj", Columns: []string{"ra"}}},
		CreateIndexes: []IndexDef{{Table: "p1", Columns: []string{"ra"}}, {Table: "photoobj", Columns: []string{"run"}}},
		NestLoop:      &off,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(created) != 2 || created[0].Table != "p1" || created[1].Table != "photoobj" {
		t.Fatalf("created = %v", created)
	}
	if len(s.Indexes()) != 2 || len(s.Tables()) != 1 || s.NestLoopEnabled() {
		t.Fatalf("delta not fully applied")
	}
	// Drop everything through a second delta.
	on := true
	if _, err := s.ApplyDelta(Delta{
		DropIndexes: []string{created[1].Name},
		DropTables:  []string{"p1"}, // cascades to the p1 index
		NestLoop:    &on,
	}); err != nil {
		t.Fatal(err)
	}
	if len(s.Indexes()) != 0 || len(s.Tables()) != 0 || !s.NestLoopEnabled() {
		t.Fatalf("drop delta incomplete: ix=%d tab=%d", len(s.Indexes()), len(s.Tables()))
	}
}

func TestApplyDeltaRollsBackOnError(t *testing.T) {
	s := NewSession(testCatalog(t))
	base, err := s.CreateIndex("photoobj", []string{"ra"})
	if err != nil {
		t.Fatal(err)
	}
	sigBefore := s.Signature()
	// Second index in the batch is invalid: nothing may land.
	if _, err := s.ApplyDelta(Delta{
		CreateIndexes: []IndexDef{{Table: "photoobj", Columns: []string{"run"}}, {Table: "photoobj", Columns: []string{"nosuch"}}},
	}); err == nil {
		t.Fatal("invalid delta accepted")
	}
	if got := s.Signature(); got != sigBefore {
		t.Errorf("failed delta mutated the session: %q != %q", got, sigBefore)
	}
	if len(s.Indexes()) != 1 || s.Indexes()[0].Name != base.Name {
		t.Errorf("rollback lost the pre-existing index")
	}
	// Generated names must also restore: a fresh create after a failed
	// delta names objects as if the failure never happened.
	ix2, err := s.CreateIndex("photoobj", []string{"run"})
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSession(testCatalog(t))
	if _, err := s2.CreateIndex("photoobj", []string{"ra"}); err != nil {
		t.Fatal(err)
	}
	want, err := s2.CreateIndex("photoobj", []string{"run"})
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Name != want.Name {
		t.Errorf("name counter leaked through rollback: %q vs %q", ix2.Name, want.Name)
	}
}

// TestApplyDeltaDropsBeforeCreates: one delta can repartition — drop a
// table and re-create it under the same name with other columns, its
// index with it — because drops apply first; and a failing create
// after those drops still rolls everything back, name counter
// included.
func TestApplyDeltaDropsBeforeCreates(t *testing.T) {
	s := NewSession(testCatalog(t))
	created, err := s.ApplyDelta(Delta{
		CreateTables:  []TableDef{{Name: "p1", Parent: "photoobj", Columns: []string{"ra"}}, {Name: "p2", Parent: "photoobj", Columns: []string{"u"}}},
		CreateIndexes: []IndexDef{{Table: "p1", Columns: []string{"ra"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	repartition := Delta{
		DropTables:    []string{"p1", "p2"}, // cascades to the p1 index
		CreateTables:  []TableDef{{Name: "p1", Parent: "photoobj", Columns: []string{"ra", "dec"}}, {Name: "p2", Parent: "photoobj", Columns: []string{"u", "g"}}},
		CreateIndexes: []IndexDef{{Table: "p1", Columns: []string{"ra"}}},
	}
	before := s.Signature()
	bad := repartition
	bad.CreateIndexes = append(append([]IndexDef(nil), repartition.CreateIndexes...), IndexDef{Table: "p2", Columns: []string{"ra"}})
	if _, err := s.ApplyDelta(bad); err == nil {
		t.Fatal("index on a column the new fragment lacks accepted")
	}
	if got := s.Signature(); got != before {
		t.Fatalf("failed repartition mutated the session: %q != %q", got, before)
	}
	if ix := s.Indexes(); len(ix) != 1 || ix[0].Name != created[0].Name {
		t.Fatalf("rollback lost the fragment index: %v", ix)
	}

	again, err := s.ApplyDelta(repartition)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Tables()) != 2 || len(s.Indexes()) != 1 {
		t.Fatalf("repartition left %d tables, %d indexes", len(s.Tables()), len(s.Indexes()))
	}
	if want := "ix:p1(ra);tab:p1<photoobj(objid,ra,dec);tab:p2<photoobj(objid,u,g)"; s.Signature() != want {
		t.Errorf("signature after repartition = %q, want %q", s.Signature(), want)
	}
	// The failed delta's create did not consume a name: the re-created
	// index is the session's second, as if the failure never happened.
	if want := HypoPrefix + "ix2_p1_ra"; again[0].Name != want {
		t.Errorf("re-created index named %q, want %q", again[0].Name, want)
	}
}

func TestSignatureIsOrderAndNameIndependent(t *testing.T) {
	a := NewSession(testCatalog(t))
	b := NewSession(testCatalog(t))
	if a.Signature() != "" || a.Signature() != b.Signature() {
		t.Fatalf("empty sessions disagree: %q vs %q", a.Signature(), b.Signature())
	}
	// Same design, built in different orders with different counter
	// histories, must collide.
	if _, err := a.CreateIndex("photoobj", []string{"ra"}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.CreateIndex("photoobj", []string{"run", "type"}); err != nil {
		t.Fatal(err)
	}
	tmp, err := b.CreateIndex("photoobj", []string{"dec"}) // bump b's counter
	if err != nil {
		t.Fatal(err)
	}
	if err := b.DropIndex(tmp.Name); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateIndex("photoobj", []string{"run", "type"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateIndex("photoobj", []string{"ra"}); err != nil {
		t.Fatal(err)
	}
	if a.Signature() != b.Signature() {
		t.Errorf("same design, different signatures:\n%q\n%q", a.Signature(), b.Signature())
	}
	// Different designs must not collide; the nest-loop flag counts.
	b.SetNestLoop(false)
	if a.Signature() == b.Signature() {
		t.Error("nest-loop flag not in signature")
	}
	b.SetNestLoop(true)
	if _, err := b.CreateTable(TableDef{Name: "p1", Parent: "photoobj", Columns: []string{"ra"}}); err != nil {
		t.Fatal(err)
	}
	if a.Signature() == b.Signature() {
		t.Error("what-if table not in signature")
	}
}

// The cached signature must be indistinguishable from a from-scratch
// rebuild across every kind of edit, including failed deltas (whose
// rollback replaces the design maps wholesale) and direct planner-flag
// flips that bypass SetNestLoop.
func TestSignatureCacheAgreesWithRebuild(t *testing.T) {
	cat := testCatalog(t)
	s := NewSession(cat)
	fresh := func() string {
		// A rebuilt session holding the same design is the ground
		// truth: Signature is defined to be name/counter independent.
		r := NewSession(cat)
		for _, ix := range s.Indexes() {
			if _, err := r.CreateIndex(ix.Table, ix.Columns); err != nil {
				t.Fatal(err)
			}
		}
		for _, tab := range s.Tables() {
			cols := make([]string, 0, len(tab.Columns))
			for _, c := range tab.Columns {
				cols = append(cols, c.Name)
			}
			if _, err := r.CreateTable(TableDef{Name: tab.Name, Parent: tab.PartitionOf, Columns: cols}); err != nil {
				t.Fatal(err)
			}
		}
		r.SetNestLoop(s.NestLoopEnabled())
		return r.Signature()
	}
	check := func(step string) {
		t.Helper()
		got, want := s.Signature(), fresh()
		if got != want {
			t.Fatalf("after %s: cached signature %q, rebuild says %q", step, got, want)
		}
		if again := s.Signature(); again != got {
			t.Fatalf("after %s: Signature unstable: %q then %q", step, got, again)
		}
	}

	check("creation")
	ix, err := s.CreateIndex("photoobj", []string{"run", "type"})
	if err != nil {
		t.Fatal(err)
	}
	check("create index")
	s.SetNestLoop(false)
	check("nestloop off")
	s.SetNestLoop(true)
	check("nestloop on")
	if _, err := s.CreateTable(TableDef{Name: "photoobj_p1", Parent: "photoobj", Columns: []string{"ra", "dec"}}); err != nil {
		t.Fatal(err)
	}
	check("create table")
	// Direct flag mutation bypassing SetNestLoop must still be seen.
	s.Planner().Flags.EnableNestLoop = false
	check("direct flag flip")
	s.Planner().Flags.EnableNestLoop = true
	// A failing delta rolls the maps back wholesale; the cache must not
	// serve the pre-delta string for the restored state after partial edits.
	if _, err := s.ApplyDelta(Delta{
		CreateIndexes: []IndexDef{{Table: "photoobj", Columns: []string{"ra"}}},
		DropIndexes:   []string{"no-such-index"},
	}); err == nil {
		t.Fatal("delta with a bad drop should fail")
	}
	check("failed delta rollback")
	if err := s.DropIndex(ix.Name); err != nil {
		t.Fatal(err)
	}
	check("drop index")
	if err := s.DropTable("photoobj_p1"); err != nil {
		t.Fatal(err)
	}
	check("drop table")
	s.Reset()
	check("reset")
}

// TestPlanAfterEditMatchesFreshSession: the hook's per-table index
// lists are cached between structural edits, so after every kind of
// edit — each preceded by a plan that warms the cache — planning must
// match a fresh session built with the same design. Generated names
// differ in their counter only, which the comparison masks.
func TestPlanAfterEditMatchesFreshSession(t *testing.T) {
	cat := testCatalog(t)
	s := NewSession(cat)
	queries := []*sql.Select{
		parse(t, "SELECT objid FROM photoobj WHERE ra BETWEEN 100 AND 100.5"),
		parse(t, "SELECT objid FROM photoobj WHERE run = 5 AND type = 3"),
		parse(t, "SELECT objid, ra FROM p1 WHERE ra BETWEEN 1 AND 1.1"),
	}
	counter := regexp.MustCompile(`ix[0-9]+_`)
	plans := func(ws *Session) []string {
		out := make([]string, len(queries))
		for i, q := range queries {
			pl, err := ws.Plan(q)
			if err != nil {
				out[i] = "error: " + err.Error()
				continue
			}
			out[i] = counter.ReplaceAllString(optimizer.Explain(pl), "ix_")
		}
		return out
	}
	fresh := func() *Session {
		r := NewSession(cat)
		for _, tab := range s.Tables() {
			cols := make([]string, 0, len(tab.Columns))
			for _, c := range tab.Columns {
				cols = append(cols, c.Name)
			}
			if _, err := r.CreateTable(TableDef{Name: tab.Name, Parent: tab.PartitionOf, Columns: cols}); err != nil {
				t.Fatal(err)
			}
		}
		for _, ix := range s.Indexes() {
			if _, err := r.CreateIndex(ix.Table, ix.Columns); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	check := func(step string) {
		t.Helper()
		got, want := plans(s), plans(fresh())
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("after %s, query %d plans\n%s\nbut a fresh session plans\n%s", step, i, got[i], want[i])
			}
		}
	}

	check("creation")
	ra, err := s.CreateIndex("photoobj", []string{"ra"})
	if err != nil {
		t.Fatal(err)
	}
	check("create index")
	if _, err := s.CreateIndex("photoobj", []string{"run", "type"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable(TableDef{Name: "p1", Parent: "photoobj", Columns: []string{"ra", "dec"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateIndex("p1", []string{"ra"}); err != nil {
		t.Fatal(err)
	}
	check("create table and its index")
	if err := s.DropIndex(ra.Name); err != nil {
		t.Fatal(err)
	}
	check("drop index")
	if err := s.DropTable("p1"); err != nil {
		t.Fatal(err)
	}
	check("table drop cascade")
	if _, err := s.ApplyDelta(Delta{
		CreateIndexes: []IndexDef{{Table: "photoobj", Columns: []string{"ra"}}, {Table: "photoobj", Columns: []string{"nosuch"}}},
	}); err == nil {
		t.Fatal("delta with a bad index accepted")
	}
	check("failed delta rollback")
	s.Reset()
	check("reset")
}

// TestIndexNameGolden pins the generated what-if index name format,
// "<what-if>ix<N>_<table>_<cols>": EXPLAIN output and the explains a
// served session answers print these names, so they must stay
// byte-identical.
func TestIndexNameGolden(t *testing.T) {
	s := NewSession(testCatalog(t))
	if _, err := s.CreateTable(TableDef{Name: "p1", Parent: "photoobj", Columns: []string{"ra", "dec"}}); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, def := range []IndexDef{
		{Table: "photoobj", Columns: []string{"ra"}},
		{Table: "photoobj", Columns: []string{"run", "type", "u"}},
		{Table: "p1", Columns: []string{"objid", "dec"}},
	} {
		ix, err := s.CreateIndex(def.Table, def.Columns)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ix.Name)
	}
	for i := 0; i < 7; i++ { // the counter crosses into two digits
		ix, err := s.CreateIndex("photoobj", []string{"g"})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.DropIndex(ix.Name); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := s.CreateIndex("photoobj", []string{"dec", "ra"})
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, ix.Name)
	want := []string{
		"<what-if>ix1_photoobj_ra",
		"<what-if>ix2_photoobj_run_type_u",
		"<what-if>ix3_p1_objid_dec",
		"<what-if>ix11_photoobj_dec_ra",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("names = %q\n want %q", got, want)
	}
}

// TestIndexesInKeyOrder: a session hands its indexes out by (table,
// columns) whatever order — and so whatever generated names — they
// were created in, so two sessions holding one design plan alike.
func TestIndexesInKeyOrder(t *testing.T) {
	specs := []IndexDef{
		{Table: "photoobj", Columns: []string{"ra", "dec"}},
		{Table: "photoobj", Columns: []string{"ra"}},
		{Table: "p1", Columns: []string{"ra"}},
		{Table: "photoobj", Columns: []string{"dec"}},
	}
	order := func(defs []IndexDef) string {
		s := NewSession(testCatalog(t))
		if _, err := s.CreateTable(TableDef{Name: "p1", Parent: "photoobj", Columns: []string{"ra"}}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ApplyDelta(Delta{CreateIndexes: defs}); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, ix := range s.Indexes() {
			keys = append(keys, ix.Table+"("+strings.Join(ix.Columns, ",")+")")
		}
		return strings.Join(keys, " ")
	}
	want := "p1(ra) photoobj(dec) photoobj(ra) photoobj(ra,dec)"
	reversed := []IndexDef{specs[3], specs[2], specs[1], specs[0]}
	for _, defs := range [][]IndexDef{specs, reversed} {
		if got := order(defs); got != want {
			t.Errorf("Indexes() = %s, want %s", got, want)
		}
	}
}
