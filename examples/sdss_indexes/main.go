// Scenario 3 of the demonstration: automatic index suggestion over the
// 30-query SDSS workload, comparing the ILP advisor against the greedy
// baseline under a storage budget.
//
//	go run ./examples/sdss_indexes
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/recommend"
	"repro/internal/workload"
)

func main() {
	cat, err := workload.BuildCatalog(500_000)
	if err != nil {
		log.Fatal(err)
	}
	p := core.New(cat)
	queries := workload.Queries()

	// A budget tight enough that choosing *which* indexes to build
	// matters — the regime where exhaustive search beats greedy.
	const budget = 48 << 20 // 48 MB

	fmt.Printf("workload: %d queries, index storage budget %d MB\n\n",
		len(queries), budget>>20)

	opts := recommend.Options{Objects: recommend.ObjectsIndexes, StorageBudget: budget}
	opts.Strategy = recommend.StrategyILP
	ilpRes, err := p.Recommend(context.Background(), queries, opts)
	if err != nil {
		log.Fatal(err)
	}
	opts.Strategy = recommend.StrategyGreedy
	greedyRes, err := p.Recommend(context.Background(), queries, opts)
	if err != nil {
		log.Fatal(err)
	}

	show := func(name string, r *recommend.Result) {
		fmt.Printf("== %s ==\n", name)
		fmt.Printf("  candidates considered: %d, solver work: %d, optimizer calls: %d\n",
			r.Candidates, r.SolverWork, r.PlanCalls)
		fmt.Printf("  workload cost %.0f -> %.0f  benefit %.1f%%  speedup %.2fx  size %.1f MB\n",
			r.BaseCost, r.NewCost, 100*r.AvgBenefit(), r.Speedup(), float64(r.SizeBytes)/(1<<20))
		for _, stmt := range recommend.MaterializeStatements(r.Design.Indexes) {
			fmt.Printf("  %s;\n", stmt)
		}
		fmt.Println()
	}
	show("ILP (PARINDA)", ilpRes)
	show("greedy baseline", greedyRes)

	fmt.Printf("ILP achieved %.1f%% of the workload benefit vs greedy's %.1f%%\n",
		100*ilpRes.AvgBenefit(), 100*greedyRes.AvgBenefit())
}
