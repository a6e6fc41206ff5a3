package recommend

import (
	"context"
	"fmt"
)

// searchGreedy is the classic run-to-convergence strategy. For index
// and joint searches it is the pipeline's one greedy loop
// (searchAnytime), which with a zero Budget runs to convergence — so
// "greedy" and "anytime" are the same search there. Partitions-only is
// the exception: it runs AutoPart's own refinement loop (§3.3), a
// different algorithm (mandatory atomic start, lowest-cost objective).
func searchGreedy(ctx context.Context, p *Problem) (*Outcome, error) {
	if p.Opts.Objects == ObjectsPartitions {
		return searchAutoPart(ctx, p)
	}
	return searchAnytime(ctx, p)
}

// searchAutoPart is the AutoPart refinement loop (§3.3): start from
// every eligible table split into its atomic fragments, then
// iteratively add the composite fragment (selected ∪ atomic or atomic
// ∪ atomic) that most reduces the workload cost, under the replication
// budget, until no candidate improves it. Unused fragments are pruned
// at the end, keeping column coverage.
func searchAutoPart(ctx context.Context, p *Problem) (*Outcome, error) {
	ev := p.Eval
	opts := p.Opts
	maxIter := opts.MaxIterations
	if maxIter <= 0 {
		maxIter = 10
	}
	replBudget := opts.partitionReplicationBudget()
	basePer, err := ev.BaseCosts(ctx)
	if err != nil {
		return nil, err
	}
	base := ev.WeightedTotal(basePer)

	tables := p.PartitionTables
	selected := map[string][][]string{}
	for _, t := range tables {
		selected[t] = append([][]string(nil), p.Atomic[t]...)
	}
	curPer, err := ev.DesignCosts(ctx, designFromSelection(nil, selected))
	if err != nil {
		return nil, fmt.Errorf("autopart: %w", err)
	}
	currentCost := ev.WeightedTotal(curPer)
	// The trace starts at this strategy's true starting design — the
	// mandatory atomic split — not the unpartitioned base: the split
	// is not guaranteed cheaper than base, and the trace's contract is
	// monotone non-increase across search rounds.
	trace := []float64{currentCost}
	report(p, 0, base, currentCost, "")

	iterations := 0
	for iterations < maxIter {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		iterations++
		type candidate struct {
			table string
			frag  []string
		}
		var best *candidate
		var bestPer []float64
		bestCost := currentCost
		for _, t := range tables {
			for _, cand := range compositeFragments(selected[t], p.Atomic[t]) {
				trial := copySelection(selected)
				trial[t] = append(trial[t], cand)
				if replicationOverhead(p.Cat, trial) > replBudget {
					continue
				}
				per, err := ev.DesignCosts(ctx, designFromSelection(nil, trial))
				if err != nil {
					return nil, fmt.Errorf("autopart: %w", err)
				}
				cost := ev.WeightedTotal(per)
				if cost < bestCost-1e-9 {
					bestCost = cost
					bestPer = per
					best = &candidate{table: t, frag: cand}
				}
			}
		}
		if best == nil {
			// The converging iteration selected nothing but still
			// completed (Rounds counts it), so it still checkpoints.
			report(p, iterations, base, currentCost, "")
			break
		}
		selected[best.table] = append(selected[best.table], best.frag)
		currentCost = bestCost
		curPer = bestPer
		trace = append(trace, currentCost)
		report(p, iterations, base, currentCost,
			fmt.Sprintf("fragment %s(%s)", best.table, fragKey(best.frag)))
	}

	// Prune fragments no rewritten query uses, keeping coverage: every
	// non-PK column must still live in some fragment.
	selected, err = pruneSelection(p.Cat, p.Queries, tables, selected)
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Design:   designFromSelection(nil, selected),
		BaseCost: base,
		Cost:     currentCost,
		PerCosts: curPer,
		Rounds:   iterations,
		Work:     int(ev.Trials()),
		CostTrace: append([]float64(nil),
			trace...),
	}, nil
}
