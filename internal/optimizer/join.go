package optimizer

import (
	"math"
	"math/bits"

	"repro/internal/sql"
)

// joinClause is a conjunct referencing two or more relations, with its
// selectivity and, when it has the col = col shape hash and merge joins
// require, itself as equi.
type joinClause struct {
	expr sql.Expr
	mask uint64
	sel  float64
	equi *sql.BinaryExpr
}

// simpleEquijoin returns c when it has the shape col = col.
func simpleEquijoin(c sql.Expr) *sql.BinaryExpr {
	if be, ok := c.(*sql.BinaryExpr); ok && be.Op == sql.OpEq {
		_, lok := be.Left.(*sql.ColumnRef)
		_, rok := be.Right.(*sql.ColumnRef)
		if lok && rok {
			return be
		}
	}
	return nil
}

// joinCand is one costed join candidate, kept as a value until its
// subset's winner is known: only the winner becomes a plan node.
type joinCand struct {
	typ            NodeType
	outer, inner   *Plan
	left           uint64 // one side's subset; the crossing clauses follow from it
	startup, total float64
	indexed        bool
}

// dpJoinOrder runs System-R dynamic programming over connected
// subsets, returning the cheapest plan joining every relation. The
// search is exhaustive — PARINDA's pitch is precisely that it does not
// prune the candidate space greedily — and our workloads join at most
// a handful of tables, so exhaustive stays interactive.
func (p *Planner) dpJoinOrder(b *binder, clauses []joinClause) *Plan {
	n := len(b.rels)
	if n == 1 {
		return b.rels[0].path
	}
	all := uint64(1)<<uint(n) - 1
	s := &p.scratch
	if uint64(len(s.dp)) <= all {
		s.dp, s.dpRows = make([]*Plan, all+1), make([]float64, all+1)
	}
	dp, rows := s.dp[:all+1], s.dpRows[:all+1]
	defer clear(dp)
	for _, rel := range b.rels {
		dp[rel.id] = rel.path
		rows[rel.id] = rel.r.rows
	}

	// subsetRows computes the consistent cardinality of a subset:
	// base rows times every internal join clause's selectivity.
	subsetRows := func(set uint64) float64 {
		r := 1.0
		for _, rel := range b.rels {
			if rel.id&set != 0 {
				r *= rel.r.rows
			}
		}
		for _, jc := range clauses {
			if jc.mask&set == jc.mask {
				r *= jc.sel
			}
		}
		return clampRows(r)
	}

	// Enumerate subsets by increasing size.
	for size := 2; size <= n; size++ {
		for set := uint64(1); set <= all; set++ {
			if bits.OnesCount64(set) != size {
				continue
			}
			rows[set] = subsetRows(set)
			var best joinCand
			found := false
			consider := func(c joinCand) {
				if !found || c.total < best.total {
					best, found = c, true
				}
			}
			tryPairs := func(requireClause bool) {
				for sub := (set - 1) & set; sub > 0; sub = (sub - 1) & set {
					other := set ^ sub
					if sub < other {
						continue // each unordered pair once; orientations handled below
					}
					left, right := dp[sub], dp[other]
					if left == nil || right == nil {
						continue
					}
					crossing := 0
					var eq *sql.BinaryExpr // the first col = col crossing clause
					for _, jc := range clauses {
						if jc.mask&set == jc.mask && jc.mask&sub != 0 && jc.mask&other != 0 {
							crossing++
							if eq == nil {
								eq = jc.equi
							}
						}
					}
					if requireClause && crossing == 0 {
						continue
					}
					p.joinPaths(b, left, right, sub, crossing, eq, rows[set], consider)
				}
			}
			tryPairs(true)
			if !found {
				tryPairs(false) // cartesian fallback for disconnected queries
			}
			if found {
				dp[set] = best.plan(clauses, set, rows[set])
			}
		}
	}
	return dp[all]
}

// plan builds the candidate's node, with the clauses crossing its two
// sides as the join condition.
func (c *joinCand) plan(clauses []joinClause, set uint64, rows float64) *Plan {
	var cond []sql.Expr
	other := set ^ c.left
	for _, jc := range clauses {
		if jc.mask&set == jc.mask && jc.mask&c.left != 0 && jc.mask&other != 0 {
			cond = append(cond, jc.expr)
		}
	}
	return &Plan{
		Type:         c.typ,
		Outer:        c.outer,
		Inner:        c.inner,
		JoinCond:     cond,
		Rows:         rows,
		StartupCost:  c.startup,
		TotalCost:    c.total,
		InnerIndexed: c.indexed,
	}
}

// joinPaths costs the candidate joins of left (the relations in sub) ⋈
// right with the given number of crossing clauses, in both
// orientations, handing each to consider: a nested loop, and a hash and
// a merge join when eq is a col = col crossing clause.
func (p *Planner) joinPaths(b *binder, left, right *Plan, sub uint64, crossing int, eq *sql.BinaryExpr, outRows float64, consider func(joinCand)) {
	for _, orient := range [2][2]*Plan{{left, right}, {right, left}} {
		outer, inner := orient[0], orient[1]
		total, indexed := p.nestLoopCost(b, outer, inner, crossing, eq, outRows)
		consider(joinCand{typ: NodeNestLoop, outer: outer, inner: inner, left: sub, total: total, indexed: indexed})
		if eq != nil {
			startup, total := p.hashJoinCost(outer, inner, outRows)
			consider(joinCand{typ: NodeHashJoin, outer: outer, inner: inner, left: sub, startup: startup, total: total})
			consider(joinCand{typ: NodeMergeJoin, outer: outer, inner: inner, left: sub, total: p.mergeJoinCost(outer, inner, outRows)})
		}
	}
}

// nestLoopCost costs a nested loop; when the inner side is a base
// relation scan with an index whose leading column appears in an
// equijoin clause, it re-plans the inner as a parameterized index
// probe (the plan INUM's nested-loop-enabled cache entry captures).
func (p *Planner) nestLoopCost(b *binder, outer, inner *Plan, clauses int, eq *sql.BinaryExpr, outRows float64) (total float64, indexed bool) {
	innerCost := inner.TotalCost // rescan cost of the materialized inner

	if eq != nil && (inner.Type == NodeSeqScan || inner.Type == NodeIndexScan) {
		if rel := b.relByAlias(inner.Alias); rel != nil {
			if probe, ok := p.indexProbeCost(rel, eq, outer, outRows); ok {
				innerCost = probe
				indexed = true
			}
		}
	}

	if indexed {
		total = outer.TotalCost + clampRows(outer.Rows)*innerCost
	} else {
		total = outer.TotalCost + clampRows(outer.Rows)*inner.TotalCost
		// Per-pair qual evaluation.
		total += outer.Rows * inner.Rows * float64(clauses) * p.Params.CPUOperatorCost
	}
	total += outRows * p.CPUTuple()
	if !p.Flags.EnableNestLoop {
		total += DisabledCost
	}
	return total, indexed
}

// indexProbeCost returns the cost of one parameterized index probe
// into rel using the equijoin clause, when rel has a usable index.
func (p *Planner) indexProbeCost(rel *baseRel, eq *sql.BinaryExpr, outer *Plan, outRows float64) (float64, bool) {
	// Which side of the clause belongs to this relation? (The last
	// one that does.)
	innerCol := ""
	for _, side := range [2]sql.Expr{eq.Left, eq.Right} {
		if c, ok := side.(*sql.ColumnRef); ok && (c.Table == "" || c.Table == rel.alias) && rel.info.Table.Column(c.Column) != nil {
			innerCol = c.Column
		}
	}
	if innerCol == "" {
		return 0, false
	}
	for _, ix := range rel.info.Indexes {
		if len(ix.Columns) == 0 || ix.Columns[0] != innerCol {
			continue
		}
		// Rows matched per probe: join output shared across outer rows.
		perProbe := outRows / clampRows(outer.Rows)
		if perProbe < 0 {
			perProbe = 0
		}
		descent := float64(ix.Height+1) * p.Params.RandomPageCost
		fetch := perProbe * (p.Params.CPUIndexTuple + p.CPUTuple() + p.Params.RandomPageCost)
		return descent + fetch, true
	}
	return 0, false
}

// hashJoinCost costs a hash join: build the inner table, probe with
// the outer.
func (p *Planner) hashJoinCost(outer, inner *Plan, outRows float64) (startup, total float64) {
	startup = inner.TotalCost + clampRows(inner.Rows)*p.Params.CPUOperatorCost
	total = startup +
		outer.TotalCost +
		clampRows(outer.Rows)*p.Params.CPUOperatorCost +
		outRows*p.CPUTuple()
	if !p.Flags.EnableHashJoin {
		total += DisabledCost
	}
	return startup, total
}

// mergeJoinCost costs a merge join with explicit sorts on both inputs
// (we do not track interesting orders through scans; the sort is
// always charged, making merge competitive only for large inputs).
func (p *Planner) mergeJoinCost(outer, inner *Plan, outRows float64) float64 {
	sortedOuter := p.sortCost(outer)
	sortedInner := p.sortCost(inner)
	total := sortedOuter + sortedInner +
		(clampRows(outer.Rows)+clampRows(inner.Rows))*p.Params.CPUOperatorCost +
		outRows*p.CPUTuple()
	if !p.Flags.EnableMergeJoin {
		total += DisabledCost
	}
	return total
}

// sortCost is input cost plus n·log₂(n) comparison cost.
func (p *Planner) sortCost(in *Plan) float64 {
	n := clampRows(in.Rows)
	cost := in.TotalCost + 2*n*math.Log2(n+1)*p.Params.CPUOperatorCost
	if !p.Flags.EnableSort {
		cost += DisabledCost
	}
	return cost
}
