package optimizer

import (
	"repro/internal/catalog"
	"repro/internal/sql"
)

// clauseSelectivity estimates the fraction of rows satisfying a
// boolean expression, following PostgreSQL's clause_selectivity:
// MCV + histogram estimation for column-vs-constant predicates,
// n-distinct for equijoins, and the standard combinators for
// AND/OR/NOT. Estimation never fails; unresolvable shapes fall back to
// the PostgreSQL default constants.
func (b *binder) clauseSelectivity(e sql.Expr) float64 {
	switch v := e.(type) {
	case *sql.BinaryExpr:
		switch v.Op {
		case sql.OpAnd:
			return clampSel(b.clauseSelectivity(v.Left) * b.clauseSelectivity(v.Right))
		case sql.OpOr:
			s1, s2 := b.clauseSelectivity(v.Left), b.clauseSelectivity(v.Right)
			return clampSel(s1 + s2 - s1*s2)
		}
		if v.Op.IsComparison() {
			return b.comparisonSelectivity(v)
		}
		return 1 // bare arithmetic in boolean position: assume true
	case *sql.NotExpr:
		return clampSel(1 - b.clauseSelectivity(v.Inner))
	case *sql.BetweenExpr:
		s := b.rangeSelectivity(v.Expr, v.Lo, v.Hi)
		if v.Negated {
			s = 1 - s
		}
		return clampSel(s)
	case *sql.InExpr:
		total := 0.0
		for _, item := range v.List {
			total += b.eqSelectivity(v.Expr, item)
		}
		if v.Negated {
			total = 1 - total
		}
		return clampSel(total)
	case *sql.LikeExpr:
		s := b.likeSelectivity(v)
		if v.Negated {
			s = 1 - s
		}
		return clampSel(s)
	case *sql.IsNullExpr:
		col, ok := e.(*sql.IsNullExpr).Expr.(*sql.ColumnRef)
		if !ok {
			return DefaultEqSel
		}
		_, c, err := b.resolveColumn(col)
		if err != nil || c.Stats == nil {
			return DefaultEqSel
		}
		s := c.Stats.NullFrac
		if v.Negated {
			s = 1 - s
		}
		return clampSel(s)
	case *sql.BoolLit:
		if v.Value {
			return 1
		}
		return 0
	}
	return DefaultEqSel
}

// comparisonSelectivity handles col op const, const op col, and
// col op col (join) comparisons.
func (b *binder) comparisonSelectivity(v *sql.BinaryExpr) float64 {
	lcol, lIsCol := v.Left.(*sql.ColumnRef)
	rcol, rIsCol := v.Right.(*sql.ColumnRef)
	lconst, lIsConst := catalog.DatumFromLiteral(v.Left)
	rconst, rIsConst := catalog.DatumFromLiteral(v.Right)

	switch {
	case lIsCol && rIsConst:
		return b.columnVsConst(lcol, v.Op, rconst)
	case rIsCol && lIsConst:
		return b.columnVsConst(rcol, v.Op.Inverse(), lconst)
	case lIsCol && rIsCol:
		return b.joinSelectivity(lcol, v.Op, rcol)
	}
	// Column vs expression, expression vs expression: defaults.
	switch v.Op {
	case sql.OpEq:
		return DefaultEqSel
	case sql.OpNe:
		return 1 - DefaultEqSel
	default:
		return DefaultIneqSel
	}
}

func (b *binder) columnVsConst(col *sql.ColumnRef, op sql.BinaryOp, c catalog.Datum) float64 {
	_, column, err := b.resolveColumn(col)
	if err != nil || column.Stats == nil {
		switch op {
		case sql.OpEq:
			return DefaultEqSel
		case sql.OpNe:
			return 1 - DefaultEqSel
		default:
			return DefaultIneqSel
		}
	}
	st := column.Stats
	switch op {
	case sql.OpEq:
		return clampSel(eqSelWithStats(st, c, 0))
	case sql.OpNe:
		return clampSel(1 - st.NullFrac - eqSelWithStats(st, c, 0))
	}
	// Inequalities: histogram fraction plus qualifying MCVs.
	frac, ok := st.HistogramFractionBelow(c)
	if !ok {
		return DefaultIneqSel
	}
	histShare := 1 - st.NullFrac - st.TotalMCVFreq()
	if histShare < 0 {
		histShare = 0
	}
	mcvBelow := 0.0
	mcvBelowOrEq := 0.0
	for _, m := range st.MCVs {
		cmp := catalog.Compare(m.Value, c)
		if cmp < 0 {
			mcvBelow += m.Freq
		}
		if cmp <= 0 {
			mcvBelowOrEq += m.Freq
		}
	}
	below := frac*histShare + mcvBelow
	belowOrEq := frac*histShare + mcvBelowOrEq
	switch op {
	case sql.OpLt:
		return clampSel(below)
	case sql.OpLe:
		return clampSel(belowOrEq)
	case sql.OpGt:
		return clampSel(1 - st.NullFrac - belowOrEq)
	case sql.OpGe:
		return clampSel(1 - st.NullFrac - below)
	}
	return DefaultIneqSel
}

// eqSelWithStats is PostgreSQL's var_eq_const: exact frequency when
// the constant is an MCV, otherwise the residual mass spread over the
// non-MCV distinct values. rows is only needed to resolve fractional
// n-distinct; 0 means "unknown", treated as a large table.
func eqSelWithStats(st *catalog.ColumnStats, c catalog.Datum, rows int64) float64 {
	if f, ok := st.MCVFreq(c); ok {
		return f
	}
	if rows <= 0 {
		rows = 1 << 30
	}
	nd := st.DistinctCount(rows)
	residualDistinct := nd - float64(len(st.MCVs))
	if residualDistinct < 1 {
		residualDistinct = 1
	}
	residualMass := 1 - st.NullFrac - st.TotalMCVFreq()
	if residualMass < 0 {
		residualMass = 0
	}
	return residualMass / residualDistinct
}

func (b *binder) eqSelectivity(lhs sql.Expr, rhs sql.Expr) float64 {
	col, ok := lhs.(*sql.ColumnRef)
	if !ok {
		return DefaultEqSel
	}
	c, isConst := catalog.DatumFromLiteral(rhs)
	if !isConst {
		return DefaultEqSel
	}
	return b.columnVsConst(col, sql.OpEq, c)
}

func (b *binder) rangeSelectivity(expr, lo, hi sql.Expr) float64 {
	col, ok := expr.(*sql.ColumnRef)
	if !ok {
		return DefaultRangeSel
	}
	loD, okLo := catalog.DatumFromLiteral(lo)
	hiD, okHi := catalog.DatumFromLiteral(hi)
	if !okLo || !okHi {
		return DefaultRangeSel
	}
	// sel(lo <= x <= hi) = sel(x <= hi) - sel(x < lo).
	sHi := b.columnVsConst(col, sql.OpLe, hiD)
	sLo := b.columnVsConst(col, sql.OpLt, loD)
	s := sHi - sLo
	if s < 0 {
		s = 0
	}
	return clampSel(s)
}

func (b *binder) likeSelectivity(v *sql.LikeExpr) float64 {
	col, ok := v.Expr.(*sql.ColumnRef)
	if !ok {
		return DefaultLikeSel
	}
	prefix, pure := sql.LikePrefix(v.Pattern)
	if prefix == "" {
		return DefaultLikeSel
	}
	if pure && prefix == v.Pattern {
		// No wildcard: plain equality.
		return b.columnVsConst(col, sql.OpEq, catalog.StringDatum(prefix))
	}
	// Prefix match: range [prefix, prefix+\xff).
	loSel := b.columnVsConst(col, sql.OpGe, catalog.StringDatum(prefix))
	hiSel := b.columnVsConst(col, sql.OpLt, catalog.StringDatum(prefix+"\xff"))
	s := loSel + hiSel - 1
	if s <= 0 {
		s = DefaultLikeSel
	}
	if !pure {
		s *= 0.5 // residual wildcards halve the estimate
	}
	return clampSel(s)
}

// joinSelectivity is PostgreSQL's eqjoinsel: 1/max(nd1, nd2) for
// equality, defaults for other operators.
func (b *binder) joinSelectivity(l *sql.ColumnRef, op sql.BinaryOp, r *sql.ColumnRef) float64 {
	if op != sql.OpEq {
		if op == sql.OpNe {
			return 1 - DefaultEqSel
		}
		return DefaultIneqSel
	}
	lrel, lcol, lerr := b.resolveColumn(l)
	rrel, rcol, rerr := b.resolveColumn(r)
	if lerr != nil || rerr != nil {
		return DefaultEqSel
	}
	if lrel == rrel {
		// Same-relation equality (e.g. a.x = a.y): treat as eq.
		return DefaultEqSel
	}
	nd1, nd2 := 200.0, 200.0
	if lcol.Stats != nil {
		nd1 = lcol.Stats.DistinctCount(lrel.info.Table.RowCount)
	}
	if rcol.Stats != nil {
		nd2 = rcol.Stats.DistinctCount(rrel.info.Table.RowCount)
	}
	max := nd1
	if nd2 > max {
		max = nd2
	}
	if max < 1 {
		max = 1
	}
	return clampSel(1 / max)
}

// groupProduct is the design-independent part of estimate_num_groups
// (simplified): the product of the grouping keys' distinct counts, 200
// for a key that is not a column with statistics. groupCount clamps it
// by the input cardinality.
func (b *binder) groupProduct(groupBy []sql.Expr) float64 {
	groups := 1.0
	for _, g := range groupBy {
		col, ok := g.(*sql.ColumnRef)
		if !ok {
			groups *= 200
			continue
		}
		rel, c, err := b.resolveColumn(col)
		if err != nil || c.Stats == nil {
			groups *= 200
			continue
		}
		groups *= c.Stats.DistinctCount(rel.info.Table.RowCount)
	}
	return groups
}
