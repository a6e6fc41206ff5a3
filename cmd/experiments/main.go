// Command experiments runs the full E1–E9 experiment suite of the
// reproduction and prints a report; EXPERIMENTS.md records its output
// next to the paper's claims. Each experiment is also available as a
// benchmark in bench_test.go; this binary exists so the whole table
// regenerates with one command:
//
//	go run ./cmd/experiments
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/costlab"
	"repro/internal/design"
	"repro/internal/inum"
	"repro/internal/optimizer"
	"repro/internal/recommend"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/whatif"
	"repro/internal/workload"
)

func main() {
	scale := flag.Int64("scale", 300000, "photoobj rows for planner-only experiments")
	dataScale := flag.Int64("data-scale", 40000, "photoobj rows for experiments that build real structures")
	flag.Parse()

	fmt.Println("PARINDA reproduction — experiment suite")
	fmt.Printf("planner catalog scale: %d rows; data scale: %d rows\n\n", *scale, *dataScale)

	runE1(*dataScale)
	runE2(*scale)
	runE3(*scale)
	runE4(*scale)
	runE5(*scale)
	runE6(*dataScale)
	runE7(*dataScale)
	runE8(*scale)
	runE9(*scale)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

func mustCatalog(scale int64) *catalog.Catalog {
	cat, err := workload.BuildCatalog(scale)
	if err != nil {
		fatal(err)
	}
	return cat
}

func mustPopulate(scale int64) *storage.Database {
	db := storage.NewDatabase(16384)
	if err := workload.PopulateDatabase(db, scale, 1); err != nil {
		fatal(err)
	}
	return db
}

func mustSelect(q string) *sql.Select {
	sel, err := sql.ParseSelect(q)
	if err != nil {
		fatal(err)
	}
	return sel
}

// E1: what-if simulation vs. building ("orders of magnitude faster").
func runE1(scale int64) {
	fmt.Println("== E1: what-if simulation vs. physical index build ==")
	db := mustPopulate(scale)
	q := mustSelect("SELECT objid FROM photoobj WHERE ra BETWEEN 100 AND 100.3")

	session := whatif.NewSession(db.Catalog)
	const reps = 200
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		ix, err := session.CreateIndex("photoobj", []string{"ra"})
		if err != nil {
			fatal(err)
		}
		if _, err := session.Cost(q); err != nil {
			fatal(err)
		}
		if err := session.DropIndex(ix.Name); err != nil {
			fatal(err)
		}
	}
	simulate := time.Since(t0) / reps

	t0 = time.Now()
	ci := &sql.CreateIndex{Name: "e1_ra", Table: "photoobj", Columns: []string{"ra"}}
	if _, err := db.BuildIndex(ci); err != nil {
		fatal(err)
	}
	if _, err := optimizer.New(db.Catalog).Cost(q); err != nil {
		fatal(err)
	}
	build := time.Since(t0)
	if err := db.DropIndex("e1_ra"); err != nil {
		fatal(err)
	}

	fmt.Printf("  simulate+cost: %12v per design\n", simulate.Round(time.Microsecond))
	fmt.Printf("  build+cost:    %12v per design\n", build.Round(time.Microsecond))
	fmt.Printf("  simulation is %.0fx faster at %d rows (grows with data size)\n\n",
		float64(build)/float64(simulate), scale)
}

// E2: interactive evaluation of a manual design over the 30 queries.
func runE2(scale int64) {
	fmt.Println("== E2: interactive what-if design evaluation (scenario 1) ==")
	p := core.New(mustCatalog(scale))
	d := design.Design{Indexes: []inum.IndexSpec{
		{Table: "photoobj", Columns: []string{"ra"}},
		{Table: "photoobj", Columns: []string{"run", "camcol", "field"}},
		{Table: "specobj", Columns: []string{"bestobjid"}},
	}}
	t0 := time.Now()
	rep, err := p.EvaluateDesign(workload.Queries(), d)
	if err != nil {
		fatal(err)
	}
	improved := 0
	for _, pq := range rep.PerQuery {
		if pq.NewCost < pq.BaseCost*0.999 {
			improved++
		}
	}
	fmt.Printf("  30 queries evaluated in %v\n", time.Since(t0).Round(time.Millisecond))
	fmt.Printf("  average workload benefit %.1f%% (speedup %.2fx); %d/30 queries improved\n\n",
		100*rep.AvgBenefit(), rep.Speedup(), improved)
}

// E3: AutoPart partition suggestion (claim: 2x-10x on analytical
// queries over the wide table).
func runE3(scale int64) {
	fmt.Println("== E3: automatic partition suggestion, AutoPart (scenario 2) ==")
	cat := mustCatalog(scale)
	all := workload.Queries()
	subset := []string{all[0], all[1], all[3], all[6], all[26], all[27]}
	queries, err := recommend.ParseWorkload(subset)
	if err != nil {
		fatal(err)
	}
	t0 := time.Now()
	res, err := recommend.Recommend(context.Background(), cat, queries, recommend.Options{
		Objects:           recommend.ObjectsPartitions,
		Strategy:          recommend.StrategyGreedy,
		ReplicationBudget: 256 << 20,
	})
	if err != nil {
		fatal(err)
	}
	best, worst := 0.0, 1e18
	for _, pq := range res.PerQuery {
		s := pq.Speedup()
		if s > best {
			best = s
		}
		if s < worst {
			worst = s
		}
	}
	fmt.Printf("  %d analytical queries, %d iterations, %v\n",
		len(queries), res.Rounds, time.Since(t0).Round(time.Millisecond))
	fmt.Printf("  workload speedup %.2fx (benefit %.1f%%); per-query speedups %.2fx..%.2fx\n",
		res.Speedup(), 100*res.AvgBenefit(), worst, best)
	// Every subset query reads photoobj only, so it is the one table.
	fmt.Printf("  %d fragments suggested for photoobj\n\n", len(res.Design.Partitions[0].Fragments))
}

// E4: ILP vs greedy index advisors under a budget sweep.
func runE4(scale int64) {
	fmt.Println("== E4: index suggestion, ILP vs greedy (scenario 3) ==")
	cat := mustCatalog(scale)
	queries, err := workload.ParseQueries()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  %-10s %-22s %-22s\n", "budget", "ILP benefit (speedup)", "greedy benefit (speedup)")
	// Budgets: two constrained points plus unlimited. Mid-size budgets
	// (e.g. 64 MB) make the ILP's knapsack face hardest — minutes of
	// branch and bound — so the default sweep skips them; pass a
	// budget to `parinda indexes` to explore any point.
	for _, budget := range []int64{16 << 20, 32 << 20, 0} {
		ilpRes, err := recommend.Recommend(context.Background(), cat, queries, recommend.Options{
			Objects:       recommend.ObjectsIndexes,
			Strategy:      recommend.StrategyILP,
			StorageBudget: budget,
		})
		if err != nil {
			fatal(err)
		}
		gRes, err := recommend.Recommend(context.Background(), cat, queries, recommend.Options{
			Objects:       recommend.ObjectsIndexes,
			Strategy:      recommend.StrategyGreedy,
			StorageBudget: budget,
		})
		if err != nil {
			fatal(err)
		}
		label := "unlimited"
		if budget > 0 {
			label = fmt.Sprintf("%d MB", budget>>20)
		}
		fmt.Printf("  %-10s %6.1f%% (%.2fx)        %6.1f%% (%.2fx)\n",
			label, 100*ilpRes.AvgBenefit(), ilpRes.Speedup(),
			100*gRes.AvgBenefit(), gRes.Speedup())
	}
	best := 0.0
	res, _ := recommend.Recommend(context.Background(), cat, queries, recommend.Options{
		Objects:  recommend.ObjectsIndexes,
		Strategy: recommend.StrategyILP,
	})
	for _, pq := range res.PerQuery {
		if s := pq.Speedup(); s > best {
			best = s
		}
	}
	fmt.Printf("  best per-query speedup (unlimited): %.1fx\n\n", best)
}

// E5: INUM throughput vs full optimizer invocations, both priced
// through the shared costlab.CostEstimator interface.
func runE5(scale int64) {
	fmt.Println("== E5: INUM cache-based costing vs full optimizer (costlab backends) ==")
	cat := mustCatalog(scale)
	q := mustSelect(`SELECT p.objid FROM photoobj p, specobj s, neighbors n, field f
		WHERE p.objid = s.bestobjid AND p.objid = n.objid
		AND p.run = f.run AND p.camcol = f.camcol AND p.field = f.field
		AND p.ra BETWEEN 10 AND 10.2 AND p.run = 93 AND s.z > 2.9 AND n.distance < 0.01`)
	cfgs := e5Configs()
	const rounds = 40
	inumEst := costlab.NewINUM(cat)
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, cfg := range cfgs {
			if _, err := inumEst.Cost(q, cfg); err != nil {
				fatal(err)
			}
		}
	}
	inumPer := time.Since(t0) / time.Duration(rounds*len(cfgs))
	inumCalls := inumEst.PlanCalls()

	fullEst := costlab.NewFull(cat)
	t0 = time.Now()
	for _, cfg := range cfgs {
		if _, err := fullEst.Cost(q, cfg); err != nil {
			fatal(err)
		}
	}
	fullPer := time.Since(t0) / time.Duration(len(cfgs))

	total := rounds * len(cfgs)
	fmt.Printf("  %d configuration costings on a 4-way join\n", total)
	fmt.Printf("  INUM: %v per config, %d optimizer calls total (%.1fx fewer than one-per-config)\n",
		inumPer.Round(time.Microsecond), inumCalls, float64(total)/float64(inumCalls))
	fmt.Printf("  full optimizer: %v per config\n", fullPer.Round(time.Microsecond))
	fmt.Printf("  per-config speedup %.1fx; at PostgreSQL-scale optimize times the call\n"+
		"  reduction is the 'millions in minutes instead of days' effect\n\n",
		float64(fullPer)/float64(inumPer))
}

// e5Configs enumerates single- and two-column photoobj configurations.
func e5Configs() []costlab.Config {
	cols := []string{"ra", "run", "camcol", "field", "mjd", "htmid", "r", "colc"}
	var cfgs []costlab.Config
	for i := range cols {
		for j := range cols {
			if i == j {
				cfgs = append(cfgs, costlab.Config{{Table: "photoobj", Columns: []string{cols[i]}}})
			} else {
				cfgs = append(cfgs, costlab.Config{{Table: "photoobj", Columns: []string{cols[i], cols[j]}}})
			}
		}
	}
	return cfgs
}

// E6: what-if accuracy against the materialized design.
func runE6(scale int64) {
	fmt.Println("== E6: what-if vs materialized design (scenario 1 verification) ==")
	db := mustPopulate(scale)
	var rest []string
	for _, c := range db.Catalog.Table("photoobj").Columns {
		switch c.Name {
		case "objid", "ra", "dec":
		default:
			rest = append(rest, c.Name)
		}
	}
	wl := []string{
		"SELECT objid FROM photoobj WHERE ra BETWEEN 100 AND 101",
		"SELECT objid, ra, dec FROM photoobj WHERE dec BETWEEN 0 AND 1",
		"SELECT objid FROM photoobj WHERE run = 93 AND camcol = 3",
	}
	d := design.Design{
		Indexes: []inum.IndexSpec{{Table: "photoobj", Columns: []string{"ra"}}},
		Partitions: []design.Partition{{
			Table: "photoobj", Fragments: [][]string{{"ra", "dec"}, rest},
		}},
	}
	rep, err := core.MaterializeAndCompare(db, wl, d)
	if err != nil {
		fatal(err)
	}
	match := 0
	for _, e := range rep.Entries {
		if e.SamePlanShape {
			match++
		}
	}
	fmt.Printf("  %d/%d plan shapes identical; max relative cost error %.1f%%\n\n",
		match, len(rep.Entries), 100*rep.MaxRelCostError())
}

// E7: Equation-1 sizing vs the zero-size assumption.
func runE7(scale int64) {
	fmt.Println("== E7 (ablation): Equation-1 index sizing vs zero-size assumption ==")
	db := mustPopulate(scale)
	ci := &sql.CreateIndex{Name: "e7_ra", Table: "photoobj", Columns: []string{"ra"}}
	built, err := db.BuildIndex(ci)
	if err != nil {
		fatal(err)
	}
	eq1 := catalog.IndexPages(db.Catalog.Table("photoobj"), []string{"ra"},
		db.Catalog.Table("photoobj").RowCount)
	fmt.Printf("  built leaf pages: %d; Equation-1 estimate: %d (%.1f%% error)\n",
		built.Pages, eq1, 100*abs(float64(eq1)-float64(built.Pages))/float64(built.Pages))

	queries, err := workload.ParseQueries()
	if err != nil {
		fatal(err)
	}
	queries = queries[:12]
	const budget = 8 << 20
	sized, err := recommend.Recommend(context.Background(), db.Catalog, queries, recommend.Options{
		Objects:       recommend.ObjectsIndexes,
		Strategy:      recommend.StrategyILP,
		StorageBudget: budget,
	})
	if err != nil {
		fatal(err)
	}
	free, err := recommend.Recommend(context.Background(), db.Catalog, queries, recommend.Options{
		Objects:  recommend.ObjectsIndexes,
		Strategy: recommend.StrategyILP,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  advisor with real sizes: %.1f MB used of %d MB budget\n",
		float64(sized.SizeBytes)/(1<<20), budget>>20)
	fmt.Printf("  zero-size belief would build %.1f MB — %.2fx over budget\n\n",
		float64(free.SizeBytes)/(1<<20), float64(free.SizeBytes)/float64(budget))
}

// E8: multicolumn vs single-column candidates (COLT comparison).
func runE8(scale int64) {
	fmt.Println("== E8 (ablation): multicolumn vs single-column candidates ==")
	cat := mustCatalog(scale)
	queries, err := recommend.ParseWorkload([]string{
		"SELECT objid FROM photoobj WHERE run = 93 AND camcol = 3 AND field BETWEEN 100 AND 120",
		"SELECT objid FROM photoobj WHERE flags > 1000000000 AND mode = 1 AND status = 42",
		"SELECT objid FROM photoobj WHERE ra BETWEEN 10 AND 10.5 AND type = 6",
	})
	if err != nil {
		fatal(err)
	}
	multi, err := recommend.Recommend(context.Background(), cat, queries, recommend.Options{
		Objects:  recommend.ObjectsIndexes,
		Strategy: recommend.StrategyILP,
	})
	if err != nil {
		fatal(err)
	}
	single, err := recommend.Recommend(context.Background(), cat, queries, recommend.Options{
		Objects:          recommend.ObjectsIndexes,
		Strategy:         recommend.StrategyILP,
		SingleColumnOnly: true,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  multicolumn candidates:  benefit %.1f%% (speedup %.2fx)\n",
		100*multi.AvgBenefit(), multi.Speedup())
	fmt.Printf("  single-column only:      benefit %.1f%% (speedup %.2fx)\n",
		100*single.AvgBenefit(), single.Speedup())
	fmt.Printf("  multicolumn advantage: %.2fx additional speedup\n\n",
		multi.Speedup()/single.Speedup())
}

// E9: parallel candidate pricing through costlab's worker pool — the
// ROADMAP's "fast as the hardware allows" axis. The same ILP pricing
// sweep (queries × candidate configurations) runs once on a single
// worker and once fanned out over GOMAXPROCS.
func runE9(scale int64) {
	fmt.Println("== E9: costlab parallel candidate pricing ==")
	cat := mustCatalog(scale)
	queries, err := workload.ParseQueries()
	if err != nil {
		fatal(err)
	}
	cands := recommend.IndexCandidates(cat, queries, recommend.CandidateOptions{})
	var jobs []costlab.Job
	for _, q := range queries {
		for _, spec := range cands {
			jobs = append(jobs, costlab.Job{Stmt: q.Stmt, Config: costlab.Config{spec}})
		}
	}
	const maxJobs = 600
	if len(jobs) > maxJobs {
		jobs = jobs[:maxJobs]
	}
	ctx := context.Background()

	t0 := time.Now()
	seq, err := costlab.EvaluateAll(ctx, costlab.NewFull(cat), jobs, 1)
	if err != nil {
		fatal(err)
	}
	seqTime := time.Since(t0)

	workers := runtime.GOMAXPROCS(0)
	par := costlab.NewFull(cat)
	t0 = time.Now()
	parCosts, err := costlab.EvaluateAll(ctx, par, jobs, workers)
	if err != nil {
		fatal(err)
	}
	parTime := time.Since(t0)
	for i := range seq {
		if seq[i] != parCosts[i] {
			fatal(fmt.Errorf("parallel pricing diverged at job %d: %v vs %v", i, seq[i], parCosts[i]))
		}
	}
	fmt.Printf("  %d pricing jobs (full-optimizer backend), results identical\n", len(jobs))
	fmt.Printf("  sequential: %v    parallel (%d workers, %d pooled sessions): %v\n",
		seqTime.Round(time.Millisecond), workers, par.Sessions(), parTime.Round(time.Millisecond))
	fmt.Printf("  speedup %.2fx (scales with cores; 1.0x expected on a single-core host)\n",
		float64(seqTime)/float64(parTime))

	// The same sweep through the sharded INUM backend, cold and warm,
	// with the cache counters that explain the difference: the cold
	// pass pays one scenario build per (query, scenario) on each
	// shard, the warm pass reconstructs everything from cache.
	inumEst := costlab.NewINUM(cat)
	group := func(i int) int { return i / len(cands) }
	t0 = time.Now()
	if _, err := costlab.EvaluateAllGrouped(ctx, inumEst, jobs, group, workers); err != nil {
		fatal(err)
	}
	coldTime := time.Since(t0)
	hits, misses, scenarios := inumEst.Stats()
	fmt.Printf("  INUM backend cold: %v over %d shards — %d cache hits, %d misses, %d scenarios, %d plan calls\n",
		coldTime.Round(time.Millisecond), inumEst.Shards(), hits, misses, scenarios, inumEst.PlanCalls())
	t0 = time.Now()
	if _, err := costlab.EvaluateAllGrouped(ctx, inumEst, jobs, group, workers); err != nil {
		fatal(err)
	}
	warmTime := time.Since(t0)
	hits2, misses2, _ := inumEst.Stats()
	fmt.Printf("  INUM backend warm: %v — %d hits, %d misses this pass (%.2fx over cold)\n\n",
		warmTime.Round(time.Millisecond), hits2-hits, misses2-misses,
		float64(coldTime)/float64(warmTime))
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}
