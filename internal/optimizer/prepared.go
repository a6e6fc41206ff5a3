package optimizer

import (
	"math/bits"
	"slices"

	"repro/internal/catalog"
	"repro/internal/sql"
)

// prepared is the design-independent half of planning one statement,
// after INUM's observation that a statement's binding, restrictions and
// selectivities do not depend on the indexes a design offers: conjunct
// classification and validation, the aggregate count, each relation's
// restriction clauses with their selectivities and sargable shapes, the
// restricted row counts and the join clauses' selectivities. Plan
// derives it once per statement and keeps it while the statement binds
// the same tables with the same statistics; the index-dependent half —
// matching, access paths, join order — runs on every call. Entries are
// immutable once built.
type prepared struct {
	tables []*catalog.Table // per relation, FROM-list order
	stamps []*statsStamp    // their statistics when prepared (storable entries only)
	rels   []restriction    // per relation
	joins  []joinClause
	consts []sql.Expr // clauses referencing no relation
	aggs   int        // aggregate calls in the statement
	groups float64    // product of the GROUP BY keys' distinct counts
	// storable is false when a relation is served by the hook rather
	// than the catalog (a what-if fragment table): two partitionings can
	// name different column sets with the same fragment name, so such a
	// statement is bound and prepared on every call.
	storable bool
}

// restriction is one relation's single-relation conjuncts, in
// statement order, with each clause's selectivity and sargable shape.
type restriction struct {
	clauses []sql.Expr
	sels    []float64
	shapes  []clauseShape
	rows    float64 // cardinality after restriction
}

// statsStamp records what the prepared half read of a table's
// statistics: the row count and each column's statistics object.
// ANALYZE installs new ColumnStats rather than editing them, so pointer
// equality detects a re-analyzed table. A planner's entries share one
// stamp per table state.
type statsStamp struct {
	rows  int64
	stats []*catalog.ColumnStats
}

func (s *statsStamp) matches(t *catalog.Table) bool {
	if t.RowCount != s.rows || len(t.Columns) != len(s.stats) {
		return false
	}
	for i := range t.Columns {
		if t.Columns[i].Stats != s.stats[i] {
			return false
		}
	}
	return true
}

// valid reports whether e still describes the statement as b binds it:
// every relation bound to the table it was prepared against, with
// unchanged statistics.
func (e *prepared) valid(b *binder) bool {
	for i, rel := range b.rels {
		if rel.info.Table != e.tables[i] || !e.stamps[i].matches(e.tables[i]) {
			return false
		}
	}
	return true
}

// preparedCap bounds each generation of a planner's prepared
// statements; with two generations a planner keeps at most twice this.
const preparedCap = 256

// preparedStore keeps the prepared halves of the statements a planner
// plans, keyed by statement identity, in two generations: a lookup that
// hits the old generation promotes the entry, and a full current
// generation becomes the old one, dropping what was not used since.
// Holding the statement as key keeps its address from being reused.
// stamps holds the latest stamp of each catalog table an entry was
// prepared against.
type preparedStore struct {
	cur, old map[*sql.Select]*prepared
	stamps   map[*catalog.Table]*statsStamp
}

// stamp returns t's current statistics stamp, shared with the entries
// prepared since t last changed.
func (s *preparedStore) stamp(t *catalog.Table) *statsStamp {
	if st := s.stamps[t]; st != nil && st.matches(t) {
		return st
	}
	st := &statsStamp{rows: t.RowCount, stats: make([]*catalog.ColumnStats, len(t.Columns))}
	for i := range t.Columns {
		st.stats[i] = t.Columns[i].Stats
	}
	if s.stamps == nil {
		s.stamps = map[*catalog.Table]*statsStamp{}
	}
	s.stamps[t] = st
	return st
}

func (s *preparedStore) get(sel *sql.Select) *prepared {
	if e := s.cur[sel]; e != nil {
		return e
	}
	e := s.old[sel]
	if e != nil {
		delete(s.old, sel)
		s.put(sel, e)
	}
	return e
}

func (s *preparedStore) put(sel *sql.Select, e *prepared) {
	if s.cur == nil || len(s.cur) >= preparedCap {
		s.old, s.cur = s.cur, map[*sql.Select]*prepared{}
	}
	s.cur[sel] = e
}

// bindPrepared binds sel and attaches its prepared half to the bound
// relations: the stored entry while it is valid, else a fresh one,
// stored when storable.
func (p *Planner) bindPrepared(sel *sql.Select) (*binder, *prepared, error) {
	b, err := p.bind(sel)
	if err != nil {
		return nil, nil, err
	}
	e := p.prepared.get(sel)
	if e == nil || !e.valid(b) {
		if e, err = prepare(sel, b); err != nil {
			return nil, nil, err
		}
		if e.storable {
			e.stamps = make([]*statsStamp, len(e.tables))
			for i, t := range e.tables {
				e.stamps[i] = p.prepared.stamp(t)
			}
			p.prepared.put(sel, e)
		}
	}
	for i, rel := range b.rels {
		rel.r = &e.rels[i]
	}
	return b, e, nil
}

// prepare derives sel's design-independent half over the relations b
// bound.
func prepare(sel *sql.Select, b *binder) (*prepared, error) {
	n := len(b.rels)
	e := &prepared{
		tables:   make([]*catalog.Table, n),
		rels:     make([]restriction, n),
		storable: true,
	}
	for i, rel := range b.rels {
		t := rel.info.Table
		e.tables[i] = t
		e.storable = e.storable && t == rel.base.Table
		rel.r = &e.rels[i]
	}

	// Gather and classify conjuncts from WHERE and JOIN ... ON.
	conjuncts := sql.ConjunctsOf(sel.Where)
	for _, j := range sel.Joins {
		conjuncts = append(conjuncts, sql.ConjunctsOf(j.Cond)...)
	}
	for _, c := range conjuncts {
		mask, err := b.relsOf(c)
		if err != nil {
			return nil, err
		}
		switch bits.OnesCount64(mask) {
		case 0:
			e.consts = append(e.consts, c)
		case 1:
			r := b.relByMask(mask).r
			r.clauses = append(r.clauses, c)
		default:
			e.joins = append(e.joins, joinClause{expr: c, mask: mask})
		}
	}

	// Validate projection / group / order column references up front
	// so planning errors match execution errors.
	if err := b.validateExprs(sel); err != nil {
		return nil, err
	}

	for _, rel := range b.rels {
		r := rel.r
		r.clauses = slices.Clip(r.clauses) // plans share it as a filter
		r.sels = make([]float64, len(r.clauses))
		r.shapes = make([]clauseShape, len(r.clauses))
		s := 1.0
		for i, c := range r.clauses {
			r.sels[i] = b.clauseSelectivity(c)
			r.shapes[i] = shapeOf(c, rel.alias)
			s *= r.sels[i]
		}
		r.rows = clampRows(float64(rel.info.Table.RowCount) * clampSel(s))
	}
	for i := range e.joins {
		jc := &e.joins[i]
		jc.sel = b.clauseSelectivity(jc.expr)
		jc.equi = simpleEquijoin(jc.expr)
	}
	e.aggs = countAggregates(sel)
	e.groups = b.groupProduct(sel.GroupBy)
	return e, nil
}

// validateExprs checks that every column reference in the projection,
// grouping and ordering clauses resolves (ORDER BY may also reference
// projection aliases).
func (b *binder) validateExprs(sel *sql.Select) error {
	aliases := map[string]bool{}
	for _, it := range sel.Items {
		if it.Alias != "" {
			aliases[it.Alias] = true
		}
	}
	var firstErr error
	check := func(e sql.Expr, allowAlias bool) {
		sql.WalkExprs(e, func(x sql.Expr) {
			ref, ok := x.(*sql.ColumnRef)
			if !ok || ref.Column == "*" || firstErr != nil {
				return
			}
			if allowAlias && ref.Table == "" && aliases[ref.Column] {
				return
			}
			if _, _, err := b.resolveColumn(ref); err != nil {
				firstErr = err
			}
		})
	}
	for _, it := range sel.Items {
		check(it.Expr, false)
	}
	for _, g := range sel.GroupBy {
		check(g, false)
	}
	check(sel.Having, true)
	for _, o := range sel.OrderBy {
		check(o.Expr, true)
	}
	return firstErr
}

func countAggregates(sel *sql.Select) int {
	n := 0
	sql.WalkSelect(sel, func(e sql.Expr) {
		if f, ok := e.(*sql.FuncExpr); ok && f.IsAggregate() {
			n++
		}
	})
	return n
}

// groupCount estimates the groups produced by grouping inputRows rows on
// the statement's keys (PostgreSQL's estimate_num_groups, simplified):
// the keys' distinct-count product, clamped by the input cardinality.
func (e *prepared) groupCount(keys int, inputRows float64) float64 {
	if keys == 0 {
		return 1
	}
	groups := e.groups
	if groups > inputRows {
		groups = inputRows
	}
	return clampRows(groups)
}
