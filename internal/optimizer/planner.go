package optimizer

import (
	"fmt"
	"math"

	"repro/internal/catalog"
	"repro/internal/sql"
)

// Planner turns a parsed SELECT into a costed physical plan using only
// catalog statistics. It is safe to reconfigure (hook, flags, params)
// between Plan calls; a single Planner is not safe for concurrent use.
// A statement must not be mutated once planned: the planner keeps its
// design-independent half (see prepared) keyed by the statement.
type Planner struct {
	Catalog *catalog.Catalog
	Params  CostParams
	Flags   Flags
	// RelationInfoHook, when set, intercepts every relation lookup —
	// the splice point for what-if tables and indexes.
	RelationInfoHook RelationInfoHook
	// PlanCalls counts optimizer invocations; INUM's speedup claim is
	// measured against this.
	PlanCalls int64

	prepared preparedStore
	scratch  scratch
}

// scratch is per-call working space, reused from one Plan to the next.
type scratch struct {
	binder  binder
	rels    []baseRel
	relPtrs []*baseRel
	match   matcher
	dp      []*Plan
	dpRows  []float64
}

// New returns a planner over cat with default parameters and flags.
func New(cat *catalog.Catalog) *Planner {
	return &Planner{
		Catalog: cat,
		Params:  DefaultCostParams(),
		Flags:   DefaultFlags(),
	}
}

// relationInfo assembles the planner's view of a table into base and
// applies the hook when installed.
func (p *Planner) relationInfo(name string, base *RelationInfo) (*RelationInfo, error) {
	var info *RelationInfo
	if t := p.Catalog.Table(name); t != nil {
		*base = RelationInfo{Table: t, Indexes: p.Catalog.IndexesOn(name)}
		info = base
	}
	if p.RelationInfoHook != nil {
		info = p.RelationInfoHook(name, info)
	}
	if info == nil || info.Table == nil {
		return nil, fmt.Errorf("optimizer: unknown table %q", name)
	}
	return info, nil
}

// Plan optimizes sel and returns the cheapest physical plan found. The
// statement's design-independent half comes prepared (see prepared);
// each call matches indexes, costs access paths and orders joins.
func (p *Planner) Plan(sel *sql.Select) (*Plan, error) {
	p.PlanCalls++
	b, e, err := p.bindPrepared(sel)
	if err != nil {
		return nil, err
	}
	for _, rel := range b.rels {
		p.makeAccessPaths(rel)
	}

	plan := p.dpJoinOrder(b, e.joins)
	if plan == nil {
		return nil, fmt.Errorf("optimizer: no plan produced")
	}

	// Constant clauses become a top filter; estimate half selectivity
	// each (they are rare in our workloads).
	if constClauses := e.consts; len(constClauses) > 0 {
		filtered := *plan
		filtered.Filter = append(append([]sql.Expr(nil), plan.Filter...), constClauses...)
		filtered.Rows = clampRows(plan.Rows * math.Pow(0.5, float64(len(constClauses))))
		filtered.TotalCost += plan.Rows * float64(len(constClauses)) * p.Params.CPUOperatorCost
		plan = &filtered
	}

	// Aggregation.
	if e.aggs > 0 || len(sel.GroupBy) > 0 {
		groups := e.groupCount(len(sel.GroupBy), plan.Rows)
		total := plan.TotalCost +
			plan.Rows*float64(e.aggs+len(sel.GroupBy))*p.Params.CPUOperatorCost +
			groups*p.CPUTuple()
		rows := groups
		if sel.Having != nil {
			rows = clampRows(rows * 0.5)
		}
		plan = &Plan{
			Type:        NodeAggregate,
			Child:       plan,
			GroupKeys:   sel.GroupBy,
			Rows:        rows,
			StartupCost: total, // hash aggregate delivers at the end
			TotalCost:   total,
		}
	}

	// Ordering.
	if len(sel.OrderBy) > 0 {
		total := p.sortCost(plan)
		plan = &Plan{
			Type:        NodeSort,
			Child:       plan,
			SortKeys:    sel.OrderBy,
			Rows:        plan.Rows,
			StartupCost: total, // sorts deliver after consuming input
			TotalCost:   total,
		}
	}

	// LIMIT prorates the run cost, as PostgreSQL's cost_limit does.
	if sel.Limit >= 0 {
		n := float64(sel.Limit)
		rows := plan.Rows
		if n < rows {
			rows = n
		}
		frac := 1.0
		if plan.Rows > 0 {
			frac = rows / plan.Rows
		}
		total := plan.StartupCost + (plan.TotalCost-plan.StartupCost)*frac
		plan = &Plan{
			Type:        NodeLimit,
			Child:       plan,
			LimitN:      sel.Limit,
			Rows:        clampRows(rows),
			StartupCost: plan.StartupCost,
			TotalCost:   total,
		}
	}
	return plan, nil
}

// Cost plans sel and returns its estimated total cost.
func (p *Planner) Cost(sel *sql.Select) (float64, error) {
	plan, err := p.Plan(sel)
	if err != nil {
		return 0, err
	}
	return plan.TotalCost, nil
}
