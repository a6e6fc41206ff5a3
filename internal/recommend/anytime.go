package recommend

import (
	"context"
	"errors"

	"repro/internal/design"
	"repro/internal/inum"
)

// defaultJointIterations bounds the loop when partition moves are in
// play and the caller sets no explicit iteration limit; greedy
// acceptance converges far earlier on real workloads.
const defaultJointIterations = 64

// maxRounds resolves the loop's round cap: Options.MaxIterations, or a
// bound derived from the problem. With index moves only, every round
// consumes a candidate, so the candidate count bounds the search.
func maxRounds(p *Problem) int {
	switch {
	case p.Opts.MaxIterations > 0:
		return p.Opts.MaxIterations
	case len(p.PartitionTables) == 0:
		return len(p.IndexCandidates)
	default:
		return defaultJointIterations
	}
}

// searchAnytime is the pipeline's one greedy loop — the "anytime"
// strategy, and "greedy" for every search space but partitions-only
// (see searchGreedy). Every round may pick an index or a partitioning
// move — splitting a table into its atomic fragments, or adding a
// composite fragment to an existing split — scored by benefit per byte
// against one storage budget shared across index bytes and partition
// replication. Without a partition generator it is the classic greedy
// index advisor PARINDA's ILP is compared against (§1–2): that baseline
// prunes the combination space aggressively, which is exactly the
// behaviour whose lost opportunities the ILP strategy recovers.
//
// The search honours ctx cancellation and the max-evaluations /
// wall-clock budget in Options.Budget, checking between candidate-design
// trials, and always returns the best design found so far: the accepted
// design is best-so-far by construction (only improving moves are
// applied), so the workload cost recorded in CostTrace is monotonically
// non-increasing across rounds.
//
// In the spirit of anytime approximation for decision procedures, the
// quality of the answer degrades gracefully with the budget instead of
// the procedure running to completion or not at all.
func searchAnytime(ctx context.Context, p *Problem) (*Outcome, error) {
	ev := p.Eval
	opts := p.Opts
	if opts.Budget.MaxDuration > 0 {
		// A real deadline lets the budget abort mid-batch, not just
		// between trials.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Budget.MaxDuration)
		defer cancel()
	}
	maxIter := maxRounds(p)

	basePer, err := ev.BaseCosts(ctx)
	if err != nil {
		return nil, err
	}
	base := ev.WeightedTotal(basePer)

	// Index moves are swept through the lazy scorer (lazy.go): gains
	// stay cached across rounds, only footprint-stale queries are
	// re-priced, and the CELF heap ends each sweep as soon as the best
	// candidate is exactly known. Partitioning moves are priced over the
	// full workload (each one re-plans the rewritten queries); the
	// scorer is told about them so its caches stay exact.
	ls, err := newLazyScorer(p)
	if err != nil {
		return nil, err
	}
	ls.setBase(basePer)

	// Search state: the accepted design, which is also the best-so-far
	// design at every point in time.
	var chosen inum.Config
	var ixSize int64
	var maint float64
	// ixMeta remembers each accepted index's size and maintenance so a
	// later partitioning of its table can refund them exactly.
	type ixCost struct {
		size  int64
		maint float64
	}
	ixMeta := map[string]ixCost{}
	sel := map[string][][]string{} // partition selections; absent = unpartitioned
	var repl int64
	curPer := basePer
	current := base
	trace := []float64{current}
	truncated := false
	rounds := 0

	budgetLeft := func() bool {
		if ctx.Err() != nil {
			return false
		}
		if opts.Budget.MaxEvaluations > 0 && ev.Trials() >= opts.Budget.MaxEvaluations {
			return false
		}
		return true
	}
	// budgetStopped classifies a pricing error as "the budget ran out
	// mid-batch" (context cancelled or deadline passed) rather than a
	// real estimation failure.
	budgetStopped := func(err error) bool {
		return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	}

	type move struct {
		desc  string
		apply func()
		per   []float64
		cost  float64
		gain  float64
		bytes int64 // storage delta the score normalizes by
	}

	report(p, 0, base, current, "")

	for rounds < maxIter {
		if !budgetLeft() {
			truncated = true
			break
		}
		var best *move
		bestScore := 0.0
		consider := func(m *move) {
			if m.gain <= gainEps {
				return
			}
			if score := scoreOf(m.gain, m.bytes); score > bestScore {
				bestScore, best = score, m
			}
		}
		// trial prices one candidate design, honouring the budget. A
		// nil result with nil error means the budget stopped the round.
		trial := func(d design.Design) ([]float64, error) {
			if !budgetLeft() {
				return nil, nil
			}
			per, err := ev.DesignCosts(ctx, d)
			if err != nil {
				if budgetStopped(err) {
					return nil, nil
				}
				return nil, err
			}
			return per, nil
		}

		// Index moves. Candidates on currently partitioned tables are
		// skipped: the rewritten workload no longer references the
		// parent, so such an index can never be used.
		res, err := ls.sweep(sweepHooks{
			fits: func(c *lazyCand) bool {
				if sel[c.spec.Table] != nil {
					return false
				}
				return opts.StorageBudget <= 0 || ixSize+repl+c.size <= opts.StorageBudget
			},
			stop: func() bool { return !budgetLeft() },
			price: func(c *lazyCand, sub []int) ([]float64, bool, error) {
				d := designFromSelection(append(append(inum.Config(nil), chosen...), c.spec), sel)
				per, err := ev.DesignCostsAt(ctx, d, sub)
				if err != nil {
					if budgetStopped(err) {
						return nil, true, nil
					}
					return nil, false, err
				}
				return per, false, nil
			},
		})
		if err != nil {
			return nil, err
		}
		stopped := res.stopped // budget ran out mid-sweep
		if c := res.winner; c != nil {
			consider(&move{
				desc: "index " + c.spec.Key(),
				per:  ls.patched(c), cost: res.cost,
				gain:  res.gain,
				bytes: c.size,
				apply: func() {
					chosen = append(chosen, c.spec)
					ixMeta[c.spec.Key()] = ixCost{size: c.size, maint: c.maint}
					ixSize += c.size
					maint += c.maint
					ls.applyIndex(c)
				},
			})
		}

		// Partitioning moves: split an intact table into its atomic
		// fragments, or add one composite fragment to a split table.
		for _, t := range p.PartitionTables {
			if stopped {
				break
			}
			cands, descs := partitionMoves(t, sel[t], p.Atomic[t])
			// Partitioning t evicts its (now dead) chosen indexes, so
			// their bytes count as freed in the shared-budget check, and
			// the trial is priced without them: the design the move
			// reaches, whose projected keys a later trial or design
			// session can hit.
			var freed int64
			var kept []inum.IndexSpec
			for _, spec := range chosen {
				if spec.Table == t {
					freed += ixMeta[spec.Key()].size
					continue
				}
				kept = append(kept, spec)
			}
			for ci, cand := range cands {
				if stopped {
					break
				}
				trialSel := copySelection(sel)
				trialSel[t] = cand
				trialRepl := replicationOverhead(p.Cat, trialSel)
				if opts.StorageBudget > 0 && ixSize-freed+trialRepl > opts.StorageBudget {
					continue
				}
				// A partition-only anytime search honours AutoPart's
				// replication convention, like the greedy loop does.
				if opts.Objects == ObjectsPartitions && trialRepl > opts.partitionReplicationBudget() {
					continue
				}
				per, err := trial(designFromSelection(kept, trialSel))
				if err != nil {
					return nil, err
				}
				if per == nil {
					stopped = true
					break
				}
				cost := ev.WeightedTotal(per)
				consider(&move{
					desc: descs[ci],
					per:  per, cost: cost,
					gain:  current - cost,
					bytes: trialRepl - repl,
					apply: func() {
						sel[t] = cand
						repl = trialRepl
						// Indexes chosen earlier on this table are dead
						// now: the rewritten workload references only
						// fragments, so they can never appear in a plan.
						// Evicting them cannot change the priced cost;
						// it frees their storage and maintenance.
						kept := chosen[:0]
						for _, spec := range chosen {
							if spec.Table == t {
								mc := ixMeta[spec.Key()]
								ixSize -= mc.size
								maint -= mc.maint
								delete(ixMeta, spec.Key())
								continue
							}
							kept = append(kept, spec)
						}
						chosen = kept
						// The scorer absorbs the externally-priced move:
						// candidates on t are dead, cached entries for
						// queries touching t go stale.
						ls.applyExternal(t, per)
					},
				})
			}
		}

		// An improving move found before the budget ran out is still
		// applied — every priced trial contributes to the best-so-far
		// design.
		if best != nil {
			best.apply()
			current = best.cost
			curPer = best.per
			rounds++
			trace = append(trace, current)
			report(p, rounds, base, current, best.desc)
		}
		if stopped {
			truncated = true
			break
		}
		if best == nil {
			break // converged: no move improves the workload
		}
	}

	// Prune unused fragments from the accepted selections (coverage is
	// preserved, so the rewritten workload — and its cost — do not
	// change).
	if len(sel) > 0 && ctx.Err() == nil {
		tables := make([]string, 0, len(sel))
		for t := range sel {
			tables = append(tables, t)
		}
		pruned, err := pruneSelection(p.Cat, p.Queries, tables, sel)
		if err == nil {
			sel = pruned
		}
	}

	return &Outcome{
		Design:      designFromSelection(chosen, sel),
		BaseCost:    base,
		Cost:        current,
		PerCosts:    curPer,
		SizeBytes:   ixSize,
		Maintenance: maint,
		Rounds:      rounds,
		Work:        int(ev.Trials()),
		Truncated:   truncated,
		CostTrace:   trace,
	}, nil
}
