package recommend

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/design"
	"repro/internal/sql"
)

// This file is the pipeline's partition-candidate machinery: atomic
// fragments (AutoPart step 1), composite-fragment generation,
// replication sizing, and selection pruning — one
// implementation shared by the AutoPart loop and the joint search.

// fragKey canonicalizes a column set.
func fragKey(cols []string) string {
	s := append([]string(nil), cols...)
	sort.Strings(s)
	return strings.Join(s, ",")
}

// AtomicFragments computes the finest column grouping of table such
// that every query reads a union of groups: start from one fragment
// holding all non-PK columns and split it by each query's referenced
// column set.
func AtomicFragments(tab *catalog.Table, queries []Query) [][]string {
	pk := map[string]bool{}
	for _, c := range tab.PrimaryKey {
		pk[c] = true
	}
	var all []string
	for _, c := range tab.Columns {
		if !pk[c.Name] {
			all = append(all, c.Name)
		}
	}
	fragments := [][]string{all}
	for _, q := range queries {
		refs := QueryColumnsOnTable(tab, q.Stmt)
		var next [][]string
		for _, frag := range fragments {
			var in, out []string
			for _, c := range frag {
				if refs[c] {
					in = append(in, c)
				} else {
					out = append(out, c)
				}
			}
			if len(in) > 0 {
				next = append(next, in)
			}
			if len(out) > 0 {
				next = append(next, out)
			}
		}
		fragments = next
	}
	for _, f := range fragments {
		sort.Strings(f)
	}
	sort.Slice(fragments, func(i, j int) bool {
		return fragKey(fragments[i]) < fragKey(fragments[j])
	})
	return fragments
}

// compositeFragments generates one refinement step's candidates for a
// table (AutoPart step 2): every selected ∪ atomic and atomic ∪ atomic
// union that is not already selected, each column set once, in
// generation order.
func compositeFragments(selected, atomic [][]string) [][]string {
	seen := map[string]bool{}
	for _, f := range selected {
		seen[fragKey(f)] = true
	}
	var out [][]string
	add := func(frag []string) {
		if k := fragKey(frag); !seen[k] {
			seen[k] = true
			out = append(out, frag)
		}
	}
	for _, s := range selected {
		for _, a := range atomic {
			add(unionCols(s, a))
		}
	}
	for i := range atomic {
		for j := i + 1; j < len(atomic); j++ {
			add(unionCols(atomic[i], atomic[j]))
		}
	}
	return out
}

// partitionMoves lists table t's partitioning moves from its current
// selection cur (nil = unpartitioned): splitting the intact table into
// its atomic fragments, or adding one composite fragment to a split
// one. Each move is t's whole new selection, with its progress label.
func partitionMoves(t string, cur, atomic [][]string) (moves [][][]string, descs []string) {
	if cur == nil {
		if len(atomic) >= 2 {
			moves = append(moves, append([][]string(nil), atomic...))
			descs = append(descs, fmt.Sprintf("partition %s into %d atomic fragments", t, len(atomic)))
		}
		return moves, descs
	}
	for _, frag := range compositeFragments(cur, atomic) {
		moves = append(moves, append(append([][]string(nil), cur...), frag))
		descs = append(descs, fmt.Sprintf("fragment %s(%s)", t, fragKey(frag)))
	}
	return moves, descs
}

// QueryColumnsOnTable returns the set of tab's columns referenced by
// sel (via qualified or unambiguous unqualified references, or stars).
func QueryColumnsOnTable(tab *catalog.Table, sel *sql.Select) map[string]bool {
	out := map[string]bool{}
	aliases := map[string]bool{}
	touches := false
	for _, tr := range sel.From {
		if tr.Table == tab.Name {
			aliases[tr.EffectiveName()] = true
			touches = true
		}
	}
	for _, j := range sel.Joins {
		if j.Table.Table == tab.Name {
			aliases[j.Table.EffectiveName()] = true
			touches = true
		}
	}
	if !touches {
		return out
	}
	for _, it := range sel.Items {
		if it.Star && it.Expr == nil {
			for _, c := range tab.Columns {
				out[c.Name] = true
			}
		}
		if it.Star && it.Expr != nil && aliases[it.Expr.(*sql.ColumnRef).Table] {
			for _, c := range tab.Columns {
				out[c.Name] = true
			}
		}
	}
	sql.WalkSelect(sel, func(e sql.Expr) {
		ref, ok := e.(*sql.ColumnRef)
		if !ok || ref.Column == "*" {
			return
		}
		if ref.Table != "" {
			if aliases[ref.Table] {
				out[ref.Column] = true
			}
			return
		}
		if tab.ColumnIndex(ref.Column) >= 0 {
			out[ref.Column] = true
		}
	})
	return out
}

// replicationOverhead estimates the extra bytes a selection needs
// beyond the original tables: Σ fragment heap sizes − original heap
// size, per table, floored at 0 per table.
func replicationOverhead(cat *catalog.Catalog, sel map[string][][]string) int64 {
	var total int64
	for t, frags := range sel {
		tab := cat.Table(t)
		var fragBytes int64
		for _, cols := range frags {
			// Selections hold the table's own columns, so this cannot fail.
			fcols, _ := tab.FragmentColumns(cols)
			ft := &catalog.Table{Columns: fcols}
			fragBytes += ft.EstimatePages(tab.RowCount) * catalog.PageSize
		}
		origBytes := tab.EstimatePages(tab.RowCount) * catalog.PageSize
		if d := fragBytes - origBytes; d > 0 {
			total += d
		}
	}
	return total
}

func unionCols(a, b []string) []string {
	set := map[string]bool{}
	for _, c := range a {
		set[c] = true
	}
	for _, c := range b {
		set[c] = true
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// pruneSelection drops fragments that no rewritten query reads,
// keeping one home fragment for every column so the partitioning
// still reconstructs the parent tables.
func pruneSelection(cat *catalog.Catalog, queries []Query, tables []string, sel map[string][][]string) (map[string][][]string, error) {
	var d design.Design
	used := map[string]map[string]bool{} // table → fragment key → used
	nameToKey := map[string]string{}
	nameToTable := map[string]string{}
	for _, t := range tables {
		d.Partitions = append(d.Partitions, design.Partition{Table: t, Fragments: sel[t]})
		used[t] = map[string]bool{}
		for i, cols := range sel[t] {
			name := design.FragName(t, i)
			nameToKey[name] = fragKey(cols)
			nameToTable[name] = t
		}
	}
	rw := design.Rewriter(cat, d)
	for _, q := range queries {
		rq, err := rw.Rewrite(q.Stmt)
		if err != nil {
			return nil, err
		}
		for _, tr := range rq.From {
			if t, ok := nameToTable[tr.Table]; ok {
				used[t][nameToKey[tr.Table]] = true
			}
		}
	}
	out := map[string][][]string{}
	for _, t := range tables {
		covered := map[string]bool{}
		var kept [][]string
		for _, frag := range sel[t] {
			if used[t][fragKey(frag)] {
				kept = append(kept, frag)
				for _, c := range frag {
					covered[c] = true
				}
			}
		}
		for _, frag := range sel[t] {
			if used[t][fragKey(frag)] {
				continue
			}
			needed := false
			for _, c := range frag {
				if !covered[c] {
					needed = true
				}
			}
			if needed {
				kept = append(kept, frag)
				for _, c := range frag {
					covered[c] = true
				}
			}
		}
		if len(kept) == 0 {
			kept = append([][]string(nil), sel[t]...)
		}
		out[t] = kept
	}
	return out, nil
}

func copySelection(sel map[string][][]string) map[string][][]string {
	out := make(map[string][][]string, len(sel))
	for t, frags := range sel {
		out[t] = append([][]string(nil), frags...)
	}
	return out
}
