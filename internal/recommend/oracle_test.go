package recommend

// The exhaustive sweep, kept as the test oracle. Before the lazy scorer
// (lazy.go) every greedy round priced every candidate over the whole
// workload; that sweep is the specification the lazy loop must
// reproduce move for move and bit for bit, so it survives here — and
// only here — as a brute-force SearchFunc. It is registered through
// the RegisterStrategy seam under a test-only name, which makes it
// reachable from the in-package property tests (lazy_test.go,
// zerosize_test.go) by calling searchOracle and from the external seed
// tests (lazyseed_test.go) by Options.Strategy.
//
// The oracle shares no search state with searchAnytime: each round it
// derives the design's index bytes, replication and maintenance from
// scratch, prices every feasible move with DesignCosts over the full
// workload, and takes the first strict maximum of benefit per byte. It
// has no caches, no bounds and no evaluation budget.

import (
	"context"

	"repro/internal/inum"
)

// StrategyOracle is the test-only strategy name of searchOracle.
const StrategyOracle = "test-oracle"

func init() { RegisterStrategy(StrategyOracle, searchOracle) }

func searchOracle(ctx context.Context, p *Problem) (*Outcome, error) {
	ev, opts := p.Eval, p.Opts
	maxIter := maxRounds(p)
	size := map[string]int64{}
	for _, spec := range p.IndexCandidates {
		sz, err := ev.SpecSizeBytes(spec)
		if err != nil {
			return nil, err
		}
		size[spec.Key()] = sz
	}
	// footprint totals a design's index bytes and maintenance.
	footprint := func(ixs []inum.IndexSpec) (bytes int64, maint float64) {
		for _, spec := range ixs {
			bytes += size[spec.Key()]
			maint += MaintenanceCost(spec, size[spec.Key()], opts.UpdateRates)
		}
		return bytes, maint
	}

	curPer, err := ev.BaseCosts(ctx)
	if err != nil {
		return nil, err
	}
	base := ev.WeightedTotal(curPer)
	current := base
	var chosen []inum.IndexSpec
	sel := map[string][][]string{}
	trace := []float64{current}
	report(p, 0, base, current, "")

	for len(trace) <= maxIter {
		ixBytes, _ := footprint(chosen)
		repl := replicationOverhead(p.Cat, sel)

		var (
			bestScore  float64
			bestDesc   string
			bestPer    []float64
			bestChosen []inum.IndexSpec
			bestSel    map[string][][]string
		)
		// try prices the design (ixs, s) reached by one move and keeps
		// it if it strictly beats every earlier move of the round.
		try := func(desc string, ixs []inum.IndexSpec, s map[string][][]string, maint float64, bytes int64) error {
			per, err := ev.DesignCosts(ctx, designFromSelection(ixs, s))
			if err != nil {
				return err
			}
			gain := current - ev.WeightedTotal(per) - maint
			if gain <= 1e-9 {
				return nil
			}
			if bytes < 1 {
				bytes = 1 // free moves score by raw gain
			}
			if score := gain / float64(bytes); score > bestScore {
				bestScore, bestDesc, bestPer, bestChosen, bestSel = score, desc, per, ixs, s
			}
			return nil
		}

		have := map[string]bool{}
		for _, spec := range chosen {
			have[spec.Key()] = true
		}
		for _, spec := range p.IndexCandidates {
			if have[spec.Key()] || sel[spec.Table] != nil {
				continue
			}
			sz := size[spec.Key()]
			if opts.StorageBudget > 0 && ixBytes+repl+sz > opts.StorageBudget {
				continue
			}
			ixs := append(append([]inum.IndexSpec(nil), chosen...), spec)
			if err := try("index "+spec.Key(), ixs, sel, MaintenanceCost(spec, sz, opts.UpdateRates), sz); err != nil {
				return nil, err
			}
		}
		for _, t := range p.PartitionTables {
			cands, descs := partitionMoves(t, sel[t], p.Atomic[t])
			// Indexes on a partitioned table are dead: the move evicts them.
			var kept []inum.IndexSpec
			for _, spec := range chosen {
				if spec.Table != t {
					kept = append(kept, spec)
				}
			}
			keptBytes, _ := footprint(kept)
			for ci, cand := range cands {
				s := copySelection(sel)
				s[t] = cand
				newRepl := replicationOverhead(p.Cat, s)
				if opts.StorageBudget > 0 && keptBytes+newRepl > opts.StorageBudget {
					continue
				}
				if opts.Objects == ObjectsPartitions && newRepl > opts.partitionReplicationBudget() {
					continue
				}
				if err := try(descs[ci], kept, s, 0, newRepl-repl); err != nil {
					return nil, err
				}
			}
		}
		if bestPer == nil {
			break
		}
		chosen, sel, curPer = bestChosen, bestSel, bestPer
		current = ev.WeightedTotal(curPer)
		trace = append(trace, current)
		report(p, len(trace)-1, base, current, bestDesc)
	}

	if len(sel) > 0 {
		tables := make([]string, 0, len(sel))
		for t := range sel {
			tables = append(tables, t)
		}
		if sel, err = pruneSelection(p.Cat, p.Queries, tables, sel); err != nil {
			return nil, err
		}
	}
	ixBytes, maint := footprint(chosen)
	return &Outcome{
		Design:      designFromSelection(chosen, sel),
		BaseCost:    base,
		Cost:        current,
		PerCosts:    curPer,
		SizeBytes:   ixBytes,
		Maintenance: maint,
		Rounds:      len(trace) - 1,
		Work:        int(ev.Trials()),
		CostTrace:   trace,
	}, nil
}
