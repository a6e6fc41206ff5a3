package optimizer

import (
	"math"

	"repro/internal/catalog"
	"repro/internal/sql"
)

// clauseKind is the sargable shape of a restriction clause.
type clauseKind uint8

const (
	clauseNone  clauseKind = iota // not usable by an index
	clauseEq                      // col = const, or col IN (consts): lets matching continue to the next column
	clauseRange                   // col <op> const or col BETWEEN consts: ends the match
)

// clauseShape is a restriction clause's sargable shape: the column it
// constrains against constants and how.
type clauseShape struct {
	col  string
	kind clauseKind
}

// shapeOf classifies a restriction clause of the relation bound under
// alias, following btree index path matching rules.
func shapeOf(e sql.Expr, alias string) clauseShape {
	col := func(x sql.Expr) (string, bool) {
		c, ok := x.(*sql.ColumnRef)
		if !ok || (c.Table != "" && c.Table != alias) {
			return "", false
		}
		return c.Column, true
	}
	isConst := func(x sql.Expr) bool {
		_, ok := catalog.DatumFromLiteral(x)
		return ok
	}
	switch v := e.(type) {
	case *sql.BinaryExpr:
		if !v.Op.IsComparison() || v.Op == sql.OpNe {
			break
		}
		kind := clauseRange
		if v.Op == sql.OpEq {
			kind = clauseEq
		}
		if c, ok := col(v.Left); ok && isConst(v.Right) {
			return clauseShape{c, kind}
		}
		if c, ok := col(v.Right); ok && isConst(v.Left) {
			return clauseShape{c, kind}
		}
	case *sql.BetweenExpr:
		if c, ok := col(v.Expr); ok && !v.Negated && isConst(v.Lo) && isConst(v.Hi) {
			return clauseShape{c, clauseRange}
		}
	case *sql.InExpr:
		// IN-lists are handled as an "equality-ish" match on the
		// column (scanned as repeated probes).
		c, ok := col(v.Expr)
		if !ok || v.Negated {
			break
		}
		for _, item := range v.List {
			if !isConst(item) {
				return clauseShape{}
			}
		}
		return clauseShape{c, clauseEq}
	}
	return clauseShape{}
}

// matcher holds one relation's index matches while its access paths
// are costed: for index k, pos[ends[k-1]:ends[k]] are the restriction
// positions it satisfies, in match order, and sels[k] their combined
// selectivity. taken is all false between matches.
type matcher struct {
	pos   []int
	ends  []int
	sels  []float64
	taken []bool
}

func (m *matcher) reset(clauses int) {
	m.pos, m.ends, m.sels = m.pos[:0], m.ends[:0], m.sels[:0]
	if cap(m.taken) < clauses {
		m.taken = make([]bool, clauses)
	}
	m.taken = m.taken[:clauses]
}

// run returns index k's matched restriction positions.
func (m *matcher) run(k int) []int {
	start := 0
	if k > 0 {
		start = m.ends[k-1]
	}
	return m.pos[start:m.ends[k]]
}

// match matches the next index against r: equalities on a prefix of the
// index columns, then every range clause on the next column, each
// clause used once. The combined selectivity multiplies the clauses'
// selectivities in match order.
// An index whose leading column has no clause matches nothing, so it is
// inert for the relation; the lazy advisor sweep relies on that
// (TestInertIndexInvariance, internal/integration).
func (m *matcher) match(r *restriction, ix *catalog.Index) int {
	start := len(m.pos)
	for _, col := range ix.Columns {
		eq := -1
		for i, s := range r.shapes {
			if s.kind == clauseEq && s.col == col && !m.taken[i] {
				eq = i
				break
			}
		}
		if eq >= 0 {
			m.taken[eq] = true
			m.pos = append(m.pos, eq)
			continue
		}
		for i, s := range r.shapes {
			if s.kind == clauseRange && s.col == col && !m.taken[i] {
				m.taken[i] = true
				m.pos = append(m.pos, i)
			}
		}
		break
	}
	sel := 1.0
	for _, i := range m.pos[start:] {
		m.taken[i] = false
		sel *= r.sels[i]
	}
	m.ends = append(m.ends, len(m.pos))
	m.sels = append(m.sels, clampSel(sel))
	return len(m.pos) - start
}

// makeAccessPaths computes the cheapest access path for a base
// relation: a sequential scan, one index scan per applicable index and
// a bitmap AND of two. Each index is matched once; paths are costed as
// values and only the winner becomes a plan node. Disabled path types
// survive with DisabledCost added, so a path always exists.
func (p *Planner) makeAccessPaths(rel *baseRel) {
	t, r := rel.info.Table, rel.r
	m := &p.scratch.match
	m.reset(len(r.clauses))

	best, bestCost := -1, p.seqScanCost(t, len(r.clauses)) // -1: sequential scan
	arms := 0
	for k, ix := range rel.info.Indexes {
		n := m.match(r, ix)
		if n == 0 {
			continue
		}
		arms++
		if cost := p.indexScanCost(t, ix, m.sels[k], len(r.clauses)-n); cost < bestCost {
			best, bestCost = k, cost
		}
	}
	if arms >= 2 {
		if a1, a2, cost, ok := p.bitmapAndCost(rel, m); ok && cost < bestCost {
			rel.path = p.bitmapAndPlan(rel, m, a1, a2, cost)
			return
		}
	}
	switch {
	case best < 0:
		rel.path = &Plan{
			Type:      NodeSeqScan,
			Table:     t.Name,
			Alias:     rel.alias,
			Filter:    r.clauses,
			Rows:      r.rows,
			TotalCost: bestCost,
		}
	default:
		matched := m.run(best)
		cond := make([]sql.Expr, len(matched))
		for j, i := range matched {
			cond[j] = r.clauses[i]
			m.taken[i] = true
		}
		rel.path = &Plan{
			Type:      NodeIndexScan,
			Table:     t.Name,
			Alias:     rel.alias,
			Index:     rel.info.Indexes[best],
			IndexCond: cond,
			Filter:    unmarked(r.clauses, m.taken),
			Rows:      r.rows, // the full restriction, not just the indexed part
			TotalCost: bestCost,
		}
	}
}

// unmarked returns the clauses whose position is not marked, in order,
// and clears the marks.
func unmarked(clauses []sql.Expr, marked []bool) []sql.Expr {
	out := make([]sql.Expr, 0, len(clauses))
	for i, c := range clauses {
		if marked[i] {
			marked[i] = false
			continue
		}
		out = append(out, c)
	}
	return out
}

// seqScanCost costs a full heap scan applying n restriction clauses.
func (p *Planner) seqScanCost(t *catalog.Table, n int) float64 {
	ioCost := float64(t.Pages) * p.Params.SeqPageCost
	cpuCost := float64(t.RowCount) * p.CPUTuple()
	cpuCost += float64(t.RowCount) * float64(n) * p.Params.CPUOperatorCost
	total := ioCost + cpuCost
	if !p.Flags.EnableSeqScan {
		total += DisabledCost
	}
	return total
}

// indexScanCost implements the PostgreSQL 8.3-style index scan cost:
// index I/O proportional to the selected fraction of leaf pages, heap
// I/O interpolated between the perfectly-correlated and random cases
// by the square of the column correlation.
func (p *Planner) indexScanCost(t *catalog.Table, ix *catalog.Index, indexSel float64, residual int) float64 {
	tuples := clampRows(float64(t.RowCount) * indexSel)

	// Index I/O: fraction of leaf pages plus the descent.
	indexPages := math.Ceil(indexSel*float64(ix.Pages)) + float64(ix.Height)
	indexIO := indexPages * p.Params.RandomPageCost
	indexCPU := tuples * p.Params.CPUIndexTuple

	// Heap I/O: perfectly correlated lower bound vs. one random page
	// per tuple upper bound (capped at 2x the table), interpolated by
	// correlation² as in cost_index().
	corr := leadingCorrelation(t, ix)
	minPages := math.Ceil(indexSel * float64(t.Pages))
	maxPages := tuples
	if cap2 := 2 * float64(t.Pages); maxPages > cap2 {
		maxPages = cap2
	}
	if maxPages < minPages {
		maxPages = minPages
	}
	minIO := minPages * p.Params.SeqPageCost
	maxIO := maxPages * p.Params.RandomPageCost
	c2 := corr * corr
	heapIO := maxIO + c2*(minIO-maxIO)

	heapCPU := tuples * p.CPUTuple()
	filterCPU := tuples * float64(residual) * p.Params.CPUOperatorCost

	total := indexIO + indexCPU + heapIO + heapCPU + filterCPU
	if !p.Flags.EnableIndexScan {
		total += DisabledCost
	}
	return total
}

// bitmapAndCost considers ANDing two single-index bitmaps, the
// PostgreSQL BitmapAnd plan: each index contributes its own matched
// clauses, the bitmaps intersect, and the heap is read once in
// physical page order. Worth it when two moderately selective
// predicates hit different indexes (the classic ra/dec box search). It
// returns the two indexes' positions and the cost; ok is false when no
// two matching indexes lead with distinct columns.
func (p *Planner) bitmapAndCost(rel *baseRel, m *matcher) (a1, a2 int, total float64, ok bool) {
	// Pick the two most selective arms over distinct leading columns.
	ixs := rel.info.Indexes
	a1, a2 = -1, -1
	bestSel := 1.0
	for i := range ixs {
		if len(m.run(i)) == 0 {
			continue
		}
		for j := i + 1; j < len(ixs); j++ {
			if len(m.run(j)) == 0 || ixs[i].Columns[0] == ixs[j].Columns[0] {
				continue // no match, or same column: one index suffices
			}
			if s := m.sels[i] * m.sels[j]; s < bestSel {
				bestSel, a1, a2 = s, i, j
			}
		}
	}
	if a1 < 0 {
		return 0, 0, 0, false
	}
	t := rel.info.Table
	tuples := clampRows(float64(t.RowCount) * bestSel)

	// Index I/O of both bitmap builds.
	indexIO := 0.0
	indexCPU := 0.0
	for _, a := range [2]int{a1, a2} {
		indexIO += (math.Ceil(m.sels[a]*float64(ixs[a].Pages)) + float64(ixs[a].Height)) * p.Params.RandomPageCost
		indexCPU += clampRows(float64(t.RowCount)*m.sels[a]) * p.Params.CPUIndexTuple
	}
	// Heap pages fetched: Mackert–Lohman-style saturation — tuples
	// spread over T pages hit ~T(1-e^{-n/T}) distinct pages, read in
	// page order (sequential-ish).
	T := float64(t.Pages)
	heapPages := T * (1 - math.Exp(-tuples/T))
	heapIO := heapPages * (p.Params.SeqPageCost + p.Params.RandomPageCost) / 2
	heapCPU := tuples * p.CPUTuple()
	// Residual filter: clauses not matched by either arm.
	residual := len(rel.r.clauses) - markArms(m, a1, a2)
	clear(m.taken)
	filterCPU := tuples * float64(residual) * p.Params.CPUOperatorCost

	total = indexIO + indexCPU + heapIO + heapCPU + filterCPU
	if !p.Flags.EnableBitmapScan {
		total += DisabledCost
	}
	return a1, a2, total, true
}

// markArms marks the clauses either arm matched and returns how many.
func markArms(m *matcher, a1, a2 int) int {
	n := 0
	for _, a := range [2]int{a1, a2} {
		for _, i := range m.run(a) {
			if !m.taken[i] {
				m.taken[i] = true
				n++
			}
		}
	}
	return n
}

// bitmapAndPlan builds the winning bitmap AND of indexes a1 and a2.
func (p *Planner) bitmapAndPlan(rel *baseRel, m *matcher, a1, a2 int, total float64) *Plan {
	r := rel.r
	var cond []sql.Expr
	markArms(m, a1, a2)
	for i, c := range r.clauses {
		if m.taken[i] {
			cond = append(cond, c)
		}
	}
	return &Plan{
		Type:          NodeBitmapHeapScan,
		Table:         rel.info.Table.Name,
		Alias:         rel.alias,
		BitmapIndexes: []*catalog.Index{rel.info.Indexes[a1], rel.info.Indexes[a2]},
		IndexCond:     cond,
		Filter:        unmarked(r.clauses, m.taken),
		Rows:          r.rows,
		TotalCost:     total,
	}
}

// leadingCorrelation returns the physical correlation of the index's
// leading column, defaulting to 0 (uncorrelated) when unknown.
func leadingCorrelation(t *catalog.Table, ix *catalog.Index) float64 {
	if len(ix.Columns) == 0 {
		return 0
	}
	c := t.Column(ix.Columns[0])
	if c == nil || c.Stats == nil {
		return 0
	}
	return c.Stats.Correlation
}

// CPUTuple returns the per-tuple CPU cost.
func (p *Planner) CPUTuple() float64 { return p.Params.CPUTupleCost }
