package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/design"
	"repro/internal/inum"
	"repro/internal/recommend"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/workload"
)

func planningPARINDA(t testing.TB) *PARINDA {
	t.Helper()
	cat, err := workload.BuildCatalog(200000)
	if err != nil {
		t.Fatal(err)
	}
	return New(cat)
}

func TestEvaluateDesignIndexesOnly(t *testing.T) {
	p := planningPARINDA(t)
	wl := []string{
		"SELECT objid FROM photoobj WHERE ra BETWEEN 179.9 AND 180.0",
		"SELECT objid FROM photoobj WHERE run = 93 AND camcol = 3",
	}
	rep, err := p.EvaluateDesign(wl, design.Design{
		Indexes: []inum.IndexSpec{
			{Table: "photoobj", Columns: []string{"ra"}},
			{Table: "photoobj", Columns: []string{"run", "camcol"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AvgBenefit() <= 0 {
		t.Errorf("benefit = %v, want positive", rep.AvgBenefit())
	}
	if len(rep.PerQuery) != 2 {
		t.Fatalf("report incomplete: %+v", rep)
	}
	for i, pq := range rep.PerQuery {
		if pq.NewCost >= pq.BaseCost {
			t.Errorf("query %d saw no benefit: %v >= %v", i, pq.NewCost, pq.BaseCost)
		}
		if len(pq.IndexesUsed) == 0 {
			t.Errorf("query %d used no design index", i)
		}
	}
	// Catalog untouched.
	if len(p.Catalog().Indexes()) != 0 {
		t.Error("what-if evaluation leaked into catalog")
	}
}

func TestEvaluateDesignWithPartitions(t *testing.T) {
	p := planningPARINDA(t)
	wl := []string{"SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 100 AND 150"}
	rep, err := p.EvaluateDesign(wl, design.Design{
		Partitions: []design.Partition{{
			Table: "photoobj",
			Fragments: [][]string{
				{"ra", "dec"},
				photoRestColumns(t, p),
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AvgBenefit() <= 0 {
		t.Errorf("partition benefit = %v", rep.AvgBenefit())
	}
	if !strings.Contains(rep.Rewritten[0], "photoobj_p1") {
		t.Errorf("query not rewritten: %s", rep.Rewritten[0])
	}
}

// photoRestColumns returns every photoobj column except objid/ra/dec.
func photoRestColumns(t testing.TB, p *PARINDA) []string {
	t.Helper()
	var rest []string
	for _, c := range p.Catalog().Table("photoobj").Columns {
		switch c.Name {
		case "objid", "ra", "dec":
		default:
			rest = append(rest, c.Name)
		}
	}
	return rest
}

func TestEvaluateDesignErrors(t *testing.T) {
	p := planningPARINDA(t)
	wl := []string{"SELECT objid FROM photoobj"}
	if _, err := p.EvaluateDesign(wl, design.Design{
		Indexes: []inum.IndexSpec{{Table: "nosuch", Columns: []string{"x"}}},
	}); err == nil {
		t.Error("bad index design accepted")
	}
	if _, err := p.EvaluateDesign(wl, design.Design{
		Partitions: []design.Partition{{Table: "nosuch", Fragments: [][]string{{"x"}}}},
	}); err == nil {
		t.Error("bad partition design accepted")
	}
	if _, err := p.EvaluateDesign([]string{"SELECT nope FROM"}, design.Design{}); err == nil {
		t.Error("bad workload accepted")
	}
}

// TestRecommendViaFacade: the facade's single Recommend parses the
// workload and reaches all three automatic scenarios — ILP and greedy
// index suggestion (§3.4) and AutoPart (§3.3) — by its Options.
func TestRecommendViaFacade(t *testing.T) {
	p := planningPARINDA(t)
	ctx := context.Background()
	wl := []string{
		"SELECT objid FROM photoobj WHERE ra BETWEEN 179.9 AND 180.0",
		"SELECT objid FROM photoobj WHERE run = 93 AND camcol = 3 AND field BETWEEN 100 AND 110",
	}
	res, err := p.Recommend(ctx, wl, recommend.Options{
		Objects: recommend.ObjectsIndexes, Strategy: recommend.StrategyILP,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Design.Indexes) == 0 || res.Speedup() <= 1 {
		t.Errorf("suggestion weak: %d indexes, speedup %.2f", len(res.Design.Indexes), res.Speedup())
	}
	greedy, err := p.Recommend(ctx, wl, recommend.Options{
		Objects: recommend.ObjectsIndexes, Strategy: recommend.StrategyGreedy,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(greedy.Design.Indexes) == 0 {
		t.Error("greedy suggested nothing")
	}

	parts, err := p.Recommend(ctx, []string{
		"SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 100 AND 150",
		"SELECT objid, u, g FROM photoobj WHERE u BETWEEN 14 AND 15",
	}, recommend.Options{
		Objects: recommend.ObjectsPartitions, Strategy: recommend.StrategyGreedy,
		ReplicationBudget: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if parts.Speedup() <= 1 {
		t.Errorf("partition speedup = %.2f", parts.Speedup())
	}

	if _, err := p.Recommend(ctx, []string{"SELECT nope FROM"}, recommend.Options{}); err == nil {
		t.Error("bad workload accepted")
	}
}

func TestMaterializeAndCompare(t *testing.T) {
	db := storage.NewDatabase(8192)
	if err := workload.PopulateDatabase(db, 5000, 3); err != nil {
		t.Fatal(err)
	}
	wl := []string{
		"SELECT objid FROM photoobj WHERE ra BETWEEN 100 AND 101",
		"SELECT objid, ra, dec FROM photoobj WHERE dec BETWEEN 0 AND 1",
	}
	d := design.Design{
		Indexes: []inum.IndexSpec{{Table: "photoobj", Columns: []string{"ra"}}},
		Partitions: []design.Partition{{
			Table:     "photoobj",
			Fragments: [][]string{{"ra", "dec"}, allButPos(db)},
		}},
	}
	rep, err := MaterializeAndCompare(db, wl, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 2 {
		t.Fatalf("entries = %d", len(rep.Entries))
	}
	if len(rep.BuildStatements) != 3 { // 2 fragment tables + 1 index
		t.Errorf("build statements = %v", rep.BuildStatements)
	}
	// The central accuracy claim: simulation and materialization agree
	// on plan shape, and costs are close (fragment stats are measured
	// vs. derived, so allow some slack).
	if !rep.AllShapesMatch() {
		for _, e := range rep.Entries {
			if !e.SamePlanShape {
				t.Errorf("shape mismatch for %q:\nwhat-if:\n%s\nmaterialized:\n%s",
					e.SQL, e.WhatIfExplain, e.MaterialExplain)
			}
		}
	}
	if rel := rep.MaxRelCostError(); rel > 0.25 {
		t.Errorf("what-if cost error too large: %.3f", rel)
	}
	// The fragment data actually round-trips: counts match.
	for _, q := range []string{
		"SELECT COUNT(*) FROM photoobj",
		"SELECT COUNT(*) FROM photoobj_p1",
	} {
		sel, res := mustExec(t, db, q)
		_ = sel
		if res.Rows[0][0].I != 5000 {
			t.Errorf("%s = %d, want 5000", q, res.Rows[0][0].I)
		}
	}
}

func allButPos(db *storage.Database) []string {
	var rest []string
	for _, c := range db.Catalog.Table("photoobj").Columns {
		switch c.Name {
		case "objid", "ra", "dec":
		default:
			rest = append(rest, c.Name)
		}
	}
	return rest
}

func mustExec(t testing.TB, db *storage.Database, q string) (string, *storage.Result) {
	t.Helper()
	res, err := execSQL(db, q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return q, res
}

func execSQL(db *storage.Database, q string) (*storage.Result, error) {
	sel, err := parseSelect(q)
	if err != nil {
		return nil, err
	}
	return db.Execute(sel)
}

func parseSelect(q string) (*sql.Select, error) { return sql.ParseSelect(q) }
