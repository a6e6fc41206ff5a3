// Scenario 1 of the demonstration, on the incremental session engine:
// the DBA assembles a design one edit at a time — an index, a
// two-way vertical partitioning, indexes on the fragments — and after
// every edit PARINDA re-prices only the queries that edit can affect,
// serving the rest from the session memo. The finished design is then
// materialized in the storage engine to verify that the simulated
// plans match the real ones — including how much faster simulating
// was than building.
//
//	go run ./examples/interactive_whatif
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/inum"
	"repro/internal/session"
	"repro/internal/storage"
	"repro/internal/workload"
)

func main() {
	// This scenario executes against real data, so populate a modest
	// database (40k photoobj rows) rather than a statistics-only
	// catalog.
	db := storage.NewDatabase(16384)
	if err := workload.PopulateDatabase(db, 40_000, 2026); err != nil {
		log.Fatal(err)
	}

	queriesSQL := []string{
		"SELECT objid FROM photoobj WHERE ra BETWEEN 100 AND 100.4",
		"SELECT objid, ra, dec FROM photoobj WHERE dec BETWEEN 0 AND 0.5",
		"SELECT objid FROM photoobj WHERE run = 93 AND camcol = 3",
		"SELECT specobjid FROM specobj WHERE zstatus = 7 AND zerr < 0.0001",
	}

	// --- the one-change-at-a-time loop (Figure 1) ---
	t0 := time.Now()
	s, err := session.New(db.Catalog, queriesSQL, session.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== interactive design session ==")

	edit := func(what string, rep *session.InteractiveReport, err error) *session.InteractiveReport {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s benefit %5.1f%%  (%d/%d queries re-planned)\n",
			what, 100*rep.AvgBenefit(), rep.Repriced, len(queriesSQL))
		return rep
	}

	// Each edit re-prices only the queries touching the edited table:
	// the specobj query never re-plans for a photoobj edit.
	rep, e := s.AddPartition(design.Partition{
		Table:     "photoobj",
		Fragments: [][]string{{"ra", "dec"}, restColumns(db)},
	})
	edit("partition photoobj [ra,dec | rest]", rep, e)
	rep, e = s.AddIndex(inum.IndexSpec{Table: "photoobj_p1", Columns: []string{"ra"}})
	edit("index photoobj_p1(ra)", rep, e)
	rep, e = s.AddIndex(inum.IndexSpec{Table: "photoobj_p2", Columns: []string{"run", "camcol"}})
	rep = edit("index photoobj_p2(run,camcol)", rep, e)
	simulated := time.Since(t0)

	st := s.Stats()
	fmt.Printf("session totals: %d optimizer calls for %d edits over %d queries (%d memo hits)\n",
		st.PlanCalls, 3, len(queriesSQL), st.MemoHits)
	fmt.Printf("average workload benefit %.1f%% (speedup %.2fx), simulated in %v\n",
		100*rep.AvgBenefit(), rep.Speedup(), simulated.Round(time.Microsecond))
	for i, pq := range rep.PerQuery {
		fmt.Printf("  Q%d: %8.1f -> %8.1f  uses %v\n", i+1, pq.BaseCost, pq.NewCost, pq.IndexesUsed)
	}

	// Undo/redo is free: the memo already holds both designs.
	if _, err := s.Undo(); err != nil {
		log.Fatal(err)
	}
	rep2, err := s.AddIndex(inum.IndexSpec{Table: "photoobj_p2", Columns: []string{"run", "camcol"}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("undo + redo of the last edit re-planned %d queries (memo served the rest)\n",
		rep2.Repriced)

	// The What-If Join component: disabling nested loops re-prices
	// only join-capable queries.
	rep3, err := s.SetNestLoop(false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nestloop off re-planned %d queries; workload benefit now %.1f%%\n",
		rep3.Repriced, 100*rep3.AvgBenefit())
	if _, err := s.SetNestLoop(true); err != nil {
		log.Fatal(err)
	}

	// --- materialize and compare (the GUI's accuracy check) ---
	t0 = time.Now()
	cmp, err := core.MaterializeAndCompare(db, queriesSQL, s.Design())
	if err != nil {
		log.Fatal(err)
	}
	built := time.Since(t0)

	fmt.Println("\n== materialized comparison ==")
	fmt.Printf("executed %d build statements in %v (simulation was %.0fx faster)\n",
		len(cmp.BuildStatements), built.Round(time.Millisecond),
		float64(built)/float64(simulated))
	for _, e := range cmp.Entries {
		match := "MATCH"
		if !e.SamePlanShape {
			match = "DIFFER"
		}
		fmt.Printf("  plan shapes %s  what-if cost %.1f vs materialized %.1f\n",
			match, e.WhatIfCost, e.MaterializedCost)
	}
	if cmp.AllShapesMatch() {
		fmt.Printf("all plans match; max relative cost error %.1f%%\n",
			100*cmp.MaxRelCostError())
	}
}

// restColumns returns every photoobj column except the positional
// trio, forming the second fragment of the manual partitioning.
func restColumns(db *storage.Database) []string {
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
