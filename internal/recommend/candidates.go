package recommend

import (
	"sort"

	"repro/internal/catalog"
	"repro/internal/inum"
	"repro/internal/sql"
)

// CandidateOptions configure index-candidate mining.
type CandidateOptions struct {
	// MaxIndexColumns bounds candidate width (default 3).
	MaxIndexColumns int
	// SingleColumnOnly restricts candidates to one column — the COLT
	// comparison ablation from §2 of the paper.
	SingleColumnOnly bool
}

func (o CandidateOptions) maxCols() int {
	if o.SingleColumnOnly {
		return 1
	}
	if o.MaxIndexColumns <= 0 {
		return 3
	}
	return o.MaxIndexColumns
}

// columnUse records how a query touches one column of one table.
type columnUse struct {
	eq    bool // equality or IN predicate
	rng   bool // range predicate (<, <=, >, >=, BETWEEN, LIKE prefix)
	join  bool // equijoin column
	order bool // ORDER BY / GROUP BY column
}

// IndexCandidates mines candidate indexes from the workload — the
// pipeline's index-candidate generator: for every query and table it
// collects equality, range, join and ordering columns, then emits
// single-column candidates and multicolumn candidates with equality
// columns leading and at most one range column trailing — the standard
// sargability-ordered shapes. Candidates are deduplicated across
// queries and returned in deterministic order.
func IndexCandidates(cat *catalog.Catalog, queries []Query, opts CandidateOptions) []inum.IndexSpec {
	maxCols := opts.maxCols()
	seen := map[string]bool{}
	var out []inum.IndexSpec
	add := func(spec inum.IndexSpec) {
		if len(spec.Columns) == 0 || len(spec.Columns) > maxCols {
			return
		}
		k := spec.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, spec)
		}
	}

	for _, q := range queries {
		uses := analyzeQuery(cat, q.Stmt)
		for table, cols := range uses {
			var eqCols, rngCols, otherCols []string
			for col, u := range cols {
				switch {
				case u.eq:
					eqCols = append(eqCols, col)
				case u.rng:
					rngCols = append(rngCols, col)
				case u.join || u.order:
					otherCols = append(otherCols, col)
				}
			}
			sort.Strings(eqCols)
			sort.Strings(rngCols)
			sort.Strings(otherCols)

			// Single-column candidates for every interesting column.
			for _, c := range append(append(append([]string(nil), eqCols...), rngCols...), otherCols...) {
				add(inum.IndexSpec{Table: table, Columns: []string{c}})
			}
			if opts.SingleColumnOnly {
				continue
			}
			// Equality prefix + one range column.
			for _, r := range rngCols {
				add(inum.IndexSpec{Table: table, Columns: append(append([]string(nil), eqCols...), r)})
				for _, e := range eqCols {
					add(inum.IndexSpec{Table: table, Columns: []string{e, r}})
				}
			}
			// All equality columns together (point lookups).
			if len(eqCols) >= 2 {
				add(inum.IndexSpec{Table: table, Columns: append([]string(nil), eqCols...)})
			}
			// Join column + selective predicate column (covering the
			// probe side of indexed nested loops).
			for _, j := range otherCols {
				for _, e := range eqCols {
					add(inum.IndexSpec{Table: table, Columns: []string{j, e}})
				}
				for _, r := range rngCols {
					add(inum.IndexSpec{Table: table, Columns: []string{j, r}})
				}
			}
			// Two-range combinations (common in cone searches:
			// ra/dec boxes).
			for i := 0; i < len(rngCols); i++ {
				for k := i + 1; k < len(rngCols); k++ {
					add(inum.IndexSpec{Table: table, Columns: []string{rngCols[i], rngCols[k]}})
					add(inum.IndexSpec{Table: table, Columns: []string{rngCols[k], rngCols[i]}})
				}
			}
		}
	}
	inum.SortSpecs(out)
	return out
}

// capCandidates trims a sorted candidate list to at most n entries,
// taking them round-robin across tables so the cap never starves a
// table whose name happens to sort late. Within a table the sorted
// (narrowest-first) order is preserved; the result is re-sorted into
// canonical order.
func capCandidates(cands []inum.IndexSpec, n int) []inum.IndexSpec {
	if n <= 0 || len(cands) <= n {
		return cands
	}
	byTable := map[string][]inum.IndexSpec{}
	var tables []string
	for _, spec := range cands {
		if _, ok := byTable[spec.Table]; !ok {
			tables = append(tables, spec.Table)
		}
		byTable[spec.Table] = append(byTable[spec.Table], spec)
	}
	out := make([]inum.IndexSpec, 0, n)
	for round := 0; len(out) < n; round++ {
		took := false
		for _, t := range tables {
			if round < len(byTable[t]) && len(out) < n {
				out = append(out, byTable[t][round])
				took = true
			}
		}
		if !took {
			break
		}
	}
	inum.SortSpecs(out)
	return out
}

// sargableCandidates returns the indices of candidates whose leading
// column carries an equality or range predicate of q — the indexes a
// bitmap-AND could combine for that query. The ILP advisor's pair
// pricing is built on it.
func sargableCandidates(cat *catalog.Catalog, q Query, candidates []inum.IndexSpec) []int {
	uses := analyzeQuery(cat, q.Stmt)
	var out []int
	for ji, spec := range candidates {
		cols := uses[spec.Table]
		if cols == nil {
			continue
		}
		if u := cols[spec.Columns[0]]; u != nil && (u.eq || u.rng) {
			out = append(out, ji)
		}
	}
	return out
}

// analyzeQuery maps table → column → use flags for one query.
func analyzeQuery(cat *catalog.Catalog, sel *sql.Select) map[string]map[string]*columnUse {
	// Alias → table resolution.
	aliasToTable := map[string]string{}
	for _, tr := range sel.From {
		aliasToTable[tr.EffectiveName()] = tr.Table
	}
	for _, j := range sel.Joins {
		aliasToTable[j.Table.EffectiveName()] = j.Table.Table
	}

	uses := map[string]map[string]*columnUse{}
	use := func(ref *sql.ColumnRef) *columnUse {
		table := ""
		if ref.Table != "" {
			table = aliasToTable[ref.Table]
		} else {
			// Unqualified: find the unique table owning the column.
			for _, t := range aliasToTable {
				tab := cat.Table(t)
				if tab != nil && tab.ColumnIndex(ref.Column) >= 0 {
					if table != "" && table != t {
						return nil // ambiguous; skip
					}
					table = t
				}
			}
		}
		tab := cat.Table(table)
		if tab == nil || tab.ColumnIndex(ref.Column) < 0 {
			return nil
		}
		if uses[table] == nil {
			uses[table] = map[string]*columnUse{}
		}
		if uses[table][ref.Column] == nil {
			uses[table][ref.Column] = &columnUse{}
		}
		return uses[table][ref.Column]
	}

	conjuncts := sql.ConjunctsOf(sel.Where)
	for _, j := range sel.Joins {
		conjuncts = append(conjuncts, sql.ConjunctsOf(j.Cond)...)
	}
	for _, c := range conjuncts {
		classifyConjunct(c, use)
	}
	for _, g := range sel.GroupBy {
		if ref, ok := g.(*sql.ColumnRef); ok {
			if u := use(ref); u != nil {
				u.order = true
			}
		}
	}
	for _, o := range sel.OrderBy {
		if ref, ok := o.Expr.(*sql.ColumnRef); ok {
			if u := use(ref); u != nil {
				u.order = true
			}
		}
	}
	return uses
}

func classifyConjunct(e sql.Expr, use func(*sql.ColumnRef) *columnUse) {
	switch v := e.(type) {
	case *sql.BinaryExpr:
		if !v.Op.IsComparison() {
			return
		}
		lref, lok := v.Left.(*sql.ColumnRef)
		rref, rok := v.Right.(*sql.ColumnRef)
		_, lconst := catalog.DatumFromLiteral(v.Left)
		_, rconst := catalog.DatumFromLiteral(v.Right)
		switch {
		case lok && rok:
			if v.Op == sql.OpEq {
				if u := use(lref); u != nil {
					u.join = true
				}
				if u := use(rref); u != nil {
					u.join = true
				}
			}
		case lok && rconst:
			mark(use(lref), v.Op)
		case rok && lconst:
			mark(use(rref), v.Op.Inverse())
		}
	case *sql.BetweenExpr:
		if v.Negated {
			return
		}
		if ref, ok := v.Expr.(*sql.ColumnRef); ok {
			if u := use(ref); u != nil {
				u.rng = true
			}
		}
	case *sql.InExpr:
		if v.Negated {
			return
		}
		if ref, ok := v.Expr.(*sql.ColumnRef); ok {
			if u := use(ref); u != nil {
				u.eq = true
			}
		}
	case *sql.LikeExpr:
		if v.Negated {
			return
		}
		if prefix, _ := sql.LikePrefix(v.Pattern); prefix == "" {
			return
		}
		if ref, ok := v.Expr.(*sql.ColumnRef); ok {
			if u := use(ref); u != nil {
				u.rng = true
			}
		}
	}
}

func mark(u *columnUse, op sql.BinaryOp) {
	if u == nil {
		return
	}
	switch op {
	case sql.OpEq:
		u.eq = true
	case sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
		u.rng = true
	}
}
