package session_test

import (
	"testing"

	"repro/internal/design"
	"repro/internal/inum"
	"repro/internal/session"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/workload"
)

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
			Fragments: [][]string{{"ra", "dec"}, photoRest(db.Catalog)},
		}},
	}
	rep, err := session.MaterializeAndCompare(db, wl, d)
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
		sel, err := sql.ParseSelect(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Execute(sel)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if res.Rows[0][0].I != 5000 {
			t.Errorf("%s = %d, want 5000", q, res.Rows[0][0].I)
		}
	}
}
