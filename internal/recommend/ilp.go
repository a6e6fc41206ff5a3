package recommend

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/costlab"
	"repro/internal/design"
	"repro/internal/ilp"
	"repro/internal/inum"
)

// searchILP is the exact index-selection strategy (§3.4): it prices the
// candidate benefit matrix through the shared evaluation core, solves
// the integer program of Papadomanolakis & Ailamaki (SMDB 2007)
// exactly, and greedily polishes residual interactions within the
// leftover budget.
//
//	maximize   Σ_q Σ_j w_q · b_qj · y_qj
//	subject to y_qj ≤ x_j                     (use only built indexes)
//	           Σ_{j on table t} y_qj ≤ 1      (one access path per
//	                                           table per query)
//	           Σ_j size_j · x_j ≤ B           (storage budget)
//	           x, y ∈ {0,1}
//
// where b_qj is the backend-estimated benefit of index j for query q.
// It searches indexes only; ValidateSearch rejects other object kinds
// before a Problem is assembled.
func searchILP(ctx context.Context, p *Problem) (*Outcome, error) {
	ev := p.Eval
	queries := p.Queries
	candidates := p.IndexCandidates
	if len(candidates) == 0 {
		return &Outcome{}, nil
	}

	// Base costs and the configuration benefit matrix via the pricing
	// backend. A configuration here is a small set of candidate
	// indexes used together by one query: every single candidate, plus
	// pairs of candidates on the same table (a bitmap-AND plan uses
	// two indexes of one table at once, so single-index pricing would
	// undervalue synergistic pairs). The whole O(queries × (singles +
	// pairs)) sweep is assembled up front and priced as one batch
	// through the memo: jobs [0, len(queries)) are the empty-
	// configuration base costs, the rest carry one priced configuration
	// each. A candidate on a table the query never reads projects to
	// the base key, so it is a hit, not a plan.
	type priced struct {
		q       int
		members []int // candidate indexes of the configuration
	}
	jobs := ev.jobs(ev.est, design.Design{}, ev.all())
	var sweep []priced
	for qi, q := range queries {
		// Candidates sargable for this query: leading column carries
		// one of the query's predicate columns. These are the pair
		// arms — a bitmap-AND of two individually useless indexes can
		// still win, so pairing must not be restricted to singles
		// that helped alone.
		sargable := sargableCandidates(p.Cat, q, candidates)
		for ji, spec := range candidates {
			sweep = append(sweep, priced{qi, []int{ji}})
			jobs = append(jobs, ev.jobs(ev.est, design.Design{Indexes: costlab.Config{spec}}, []int{qi})...)
		}
		for a := 0; a < len(sargable); a++ {
			for b := a + 1; b < len(sargable); b++ {
				ja, jb := sargable[a], sargable[b]
				sa, sb := candidates[ja], candidates[jb]
				if sa.Table != sb.Table || sa.Columns[0] == sb.Columns[0] {
					continue
				}
				sweep = append(sweep, priced{qi, []int{ja, jb}})
				jobs = append(jobs, ev.jobs(ev.est, design.Design{Indexes: costlab.Config{sa, sb}}, []int{qi})...)
			}
		}
	}
	costs, err := ev.evaluateJobs(ctx, ev.est, jobs)
	if err != nil {
		return nil, err
	}
	baseCosts := costs[:len(queries)]
	type benefit struct {
		q       int
		members []int
		val     float64
	}
	var benefits []benefit
	for si, pc := range sweep {
		gain := baseCosts[pc.q] - costs[len(queries)+si]
		if gain > 1e-9 {
			benefits = append(benefits, benefit{pc.q, pc.members, gain * queries[pc.q].Weight})
		}
	}

	// Keep only the strongest configurations per (query, table): the
	// one-access-path constraint means at most one is ever chosen, so
	// weak alternatives only bloat the program. This is *not* greedy
	// pruning of the candidate space — every index remains selectable;
	// only per-query pricing rows are capped.
	const maxConfigsPerQT = 12
	{
		byQT := map[string][]int{}
		for bi, b := range benefits {
			key := fmt.Sprintf("%d|%s", b.q, candidates[b.members[0]].Table)
			byQT[key] = append(byQT[key], bi)
		}
		keep := make([]bool, len(benefits))
		for _, ids := range byQT {
			sort.SliceStable(ids, func(i, j int) bool {
				return benefits[ids[i]].val > benefits[ids[j]].val
			})
			for i, bi := range ids {
				if i < maxConfigsPerQT {
					keep[bi] = true
				}
			}
		}
		pruned := benefits[:0]
		for bi, b := range benefits {
			if keep[bi] {
				pruned = append(pruned, b)
			}
		}
		benefits = pruned
	}

	// Variables: x_j for each candidate, then one y per priced
	// configuration. Branch on the x's first: once a build set is
	// integral, the path constraints make the y-polytope integral.
	nx := len(candidates)
	prob := ilp.NewProblem(nx + len(benefits))
	prob.Priority = make([]int, nx+len(benefits))
	for ji := 0; ji < nx; ji++ {
		prob.Priority[ji] = 1
	}
	sizes := make([]float64, nx)
	for ji, spec := range candidates {
		sz, err := ev.SpecSizeBytes(spec)
		if err != nil {
			return nil, err
		}
		sizes[ji] = float64(sz)
	}
	// y objective + link constraints (y usable only when every member
	// index is built).
	perQT := map[string][]int{} // query|table → y variable ids
	for bi, b := range benefits {
		yv := nx + bi
		prob.Objective[yv] = b.val
		for _, j := range b.members {
			prob.AddConstraint(ilp.Constraint{
				Coeffs: map[int]float64{yv: 1, j: -1},
				Op:     ilp.LE, RHS: 0,
				Name: fmt.Sprintf("link q%d j%d", b.q, j),
			})
		}
		key := fmt.Sprintf("%d|%s", b.q, candidates[b.members[0]].Table)
		perQT[key] = append(perQT[key], yv)
	}
	// One chosen configuration per (query, table): the "only one
	// access path is selected for each table in a query" constraint.
	for key, ys := range perQT {
		coeffs := map[int]float64{}
		for _, y := range ys {
			coeffs[y] = 1
		}
		prob.AddConstraint(ilp.Constraint{Coeffs: coeffs, Op: ilp.LE, RHS: 1, Name: "path " + key})
	}
	// Storage budget.
	if p.Opts.StorageBudget > 0 {
		coeffs := map[int]float64{}
		for ji := range candidates {
			coeffs[ji] = sizes[ji]
		}
		prob.AddConstraint(ilp.Constraint{
			Coeffs: coeffs, Op: ilp.LE, RHS: float64(p.Opts.StorageBudget), Name: "storage",
		})
	}
	// Each x_j carries its maintenance cost under the update profile
	// (plus a tiny build penalty that keeps useless indexes out of
	// the solution without distorting real benefits).
	for ji, spec := range candidates {
		maint := MaintenanceCost(spec, int64(sizes[ji]), p.Opts.UpdateRates)
		prob.Objective[ji] = -maint - 1e-6
	}

	// A 0.5% optimality gap keeps the exact search interactive on the
	// larger programs; the solver still proves near-optimality rather
	// than pruning candidates heuristically.
	sol, err := ilp.Solve(prob, ilp.Options{Gap: 0.005})
	if err != nil {
		return nil, err
	}
	if sol.Status != ilp.Optimal && sol.Status != ilp.NodeLimit {
		return nil, fmt.Errorf("recommend: ILP solve failed: %s", sol.Status)
	}

	var chosen []inum.IndexSpec
	for ji, spec := range candidates {
		if sol.X[ji] > 0.5 {
			chosen = append(chosen, spec)
		}
	}
	// Polish: the ILP optimizes the *priced* configurations; residual
	// interactions (three-way bitmaps, cross-table nested loops) can
	// leave cheap improvements on the table. Augment greedily within
	// the leftover budget using the same backend pricing — the global
	// structure stays the solver's, the polish only mops up.
	chosen, err = polishSelection(ctx, p, chosen)
	if err != nil {
		return nil, err
	}
	inum.SortSpecs(chosen)

	var size int64
	maint := 0.0
	for _, spec := range chosen {
		sz, err := ev.SpecSizeBytes(spec)
		if err != nil {
			return nil, err
		}
		size += sz
		maint += MaintenanceCost(spec, sz, p.Opts.UpdateRates)
	}
	return &Outcome{
		Design:      design.Design{Indexes: chosen},
		SizeBytes:   size,
		Maintenance: maint,
		Work:        sol.Nodes,
	}, nil
}

// polishSelection greedily adds leftover candidates that still fit the
// budget and reduce the backend-priced workload cost of the full set.
func polishSelection(ctx context.Context, p *Problem, chosen []inum.IndexSpec) ([]inum.IndexSpec, error) {
	ev := p.Eval
	have := map[string]bool{}
	var size int64
	for _, s := range chosen {
		have[s.Key()] = true
		sz, err := ev.SpecSizeBytes(s)
		if err != nil {
			return nil, err
		}
		size += sz
	}
	current, err := ev.DesignCost(ctx, design.Design{Indexes: chosen})
	if err != nil {
		return nil, err
	}
	improved := true
	for improved {
		improved = false
		for _, spec := range p.IndexCandidates {
			if have[spec.Key()] {
				continue
			}
			sz, err := ev.SpecSizeBytes(spec)
			if err != nil {
				return nil, err
			}
			if p.Opts.StorageBudget > 0 && size+sz > p.Opts.StorageBudget {
				continue
			}
			trial := append(append([]inum.IndexSpec(nil), chosen...), spec)
			cost, err := ev.DesignCost(ctx, design.Design{Indexes: trial})
			if err != nil {
				return nil, err
			}
			maint := MaintenanceCost(spec, sz, p.Opts.UpdateRates)
			if cost+maint < current-1e-9 {
				chosen = append(chosen, spec)
				have[spec.Key()] = true
				size += sz
				current = cost
				improved = true
			}
		}
	}
	return chosen, nil
}
