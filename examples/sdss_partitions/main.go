// Scenario 2 of the demonstration: automatic partition suggestion via
// AutoPart over narrow-projection astronomy queries on the wide
// photoobj table, including the automatically rewritten workload.
//
//	go run ./examples/sdss_partitions
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/recommend"
	"repro/internal/workload"
)

func main() {
	cat, err := workload.BuildCatalog(500_000)
	if err != nil {
		log.Fatal(err)
	}
	p := core.New(cat)

	// The positional / photometric subset of the workload: queries
	// that touch only a few of photoobj's 40 columns, where vertical
	// partitioning pays off.
	all := workload.Queries()
	queries := []string{
		all[0], all[1], all[2], all[3], all[5], // cone/box searches
		all[6], all[7], // colour cuts
		all[25], all[26], all[27], // aggregates & pixel coords
	}

	res, err := p.Recommend(context.Background(), queries, recommend.Options{
		Objects:           recommend.ObjectsPartitions,
		Strategy:          recommend.StrategyGreedy, // partitions-only greedy is AutoPart
		ReplicationBudget: 256 << 20,                // 256 MB of replicated columns
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("AutoPart finished after %d iterations\n", res.Rounds)
	fmt.Printf("workload cost %.0f -> %.0f  benefit %.1f%%  speedup %.2fx\n\n",
		res.BaseCost, res.NewCost, 100*res.AvgBenefit(), res.Speedup())

	for _, part := range res.Design.Partitions {
		fmt.Printf("suggested partitions of %s:\n", part.Table)
		for i, cols := range part.Fragments {
			fmt.Printf("  %-22s (%s)\n", design.FragName(part.Table, i), strings.Join(cols, ", "))
		}
	}

	fmt.Println("\nper-query benefit:")
	for i, pq := range res.PerQuery {
		fmt.Printf("  Q%-2d  %8.0f -> %8.0f  (%.1f%%)\n",
			i+1, pq.BaseCost, pq.NewCost, 100*(1-pq.NewCost/pq.BaseCost))
	}

	fmt.Println("\nfirst three rewritten queries:")
	for i := 0; i < 3 && i < len(res.Rewritten); i++ {
		fmt.Printf("  %s;\n", res.Rewritten[i])
	}
}
