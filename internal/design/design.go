// Package design is PARINDA's one physical-design value (§4, Figure
// 1): the what-if indexes and vertical partitionings the DBA edits in
// a design session and the advisors (AutoPart §3.3, index suggestion
// §3.4) recommend. Both sides share its JSON form, fragment naming
// (FragName), validation, rewriter, persisted keys (key.go) and one
// route into a what-if session: Diff turns any transition into one
// atomic whatif.Delta, Held (held.go) keeps a session positioned at a
// design and moves it only by those deltas, and Install is the
// transition from the empty design.
package design

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/catalog"
	"repro/internal/inum"
	"repro/internal/rewrite"
	"repro/internal/whatif"
)

// Partition is one table's vertical partitioning: the column groups of
// each fragment (primary keys are implicit). Fragment order fixes the
// generated fragment-table names (FragName).
type Partition struct {
	Table     string     `json:"table"`
	Fragments [][]string `json:"fragments"`
}

// Design is a physical design: what-if indexes (on base tables or on
// fragment tables) plus vertical partitionings. The JSON form is the
// serve wire format, `design -json`, the edit records of the
// write-ahead log and the recommend-job result; round-tripping it
// through encoding/json is lossless.
type Design struct {
	Indexes    []inum.IndexSpec `json:"indexes,omitempty"`
	Partitions []Partition      `json:"partitions,omitempty"`
}

// Clone deep-copies the design, so the copy never aliases the
// original's slices.
func (d Design) Clone() Design {
	out := Design{Indexes: append([]inum.IndexSpec(nil), d.Indexes...)}
	for i, spec := range out.Indexes {
		out.Indexes[i].Columns = append([]string(nil), spec.Columns...)
	}
	for _, p := range d.Partitions {
		cp := Partition{Table: p.Table}
		for _, cols := range p.Fragments {
			cp.Fragments = append(cp.Fragments, append([]string(nil), cols...))
		}
		out.Partitions = append(out.Partitions, cp)
	}
	return out
}

// FragName names the i-th (0-based) fragment table of table — the one
// naming convention sessions, recommendations and recovered state
// share.
func FragName(table string, i int) string {
	return table + "_p" + strconv.Itoa(i+1)
}

// Validate checks d against the base catalog and returns its fragment
// table → parent table map. It performs every check the what-if layer
// would, so installing a validated design cannot fail halfway. Errors
// carry no package prefix; callers wrap them.
func Validate(cat *catalog.Catalog, d Design) (map[string]string, error) {
	frags := map[string]string{}
	fragCols := map[string]map[string]bool{}
	seenPart := map[string]bool{}
	for _, p := range d.Partitions {
		parent := cat.Table(p.Table)
		if parent == nil {
			return nil, fmt.Errorf("unknown table %q in partition design", p.Table)
		}
		if seenPart[p.Table] {
			return nil, fmt.Errorf("duplicate partitioning of %q", p.Table)
		}
		seenPart[p.Table] = true
		if len(p.Fragments) == 0 {
			return nil, fmt.Errorf("partitioning of %q has no fragments", p.Table)
		}
		for i, cols := range p.Fragments {
			name := FragName(p.Table, i)
			// A generated fragment name must not shadow a real table:
			// the one CreateTable failure a transition's own drops
			// cannot clear.
			if cat.Table(name) != nil {
				return nil, fmt.Errorf("fragment name %q collides with an existing table", name)
			}
			fcols, err := parent.FragmentColumns(cols)
			if err != nil {
				return nil, err
			}
			set := make(map[string]bool, len(fcols))
			for _, c := range fcols {
				set[c.Name] = true
			}
			frags[name] = p.Table
			fragCols[name] = set
		}
	}
	seenIx := map[string]bool{}
	for _, spec := range d.Indexes {
		if len(spec.Columns) == 0 {
			return nil, fmt.Errorf("index on %q needs at least one column", spec.Table)
		}
		if seenIx[spec.Key()] {
			return nil, fmt.Errorf("duplicate index %s in design", spec.Key())
		}
		seenIx[spec.Key()] = true
		if cols, ok := fragCols[spec.Table]; ok {
			for _, c := range spec.Columns {
				if !cols[c] {
					return nil, fmt.Errorf("fragment %q has no column %q", spec.Table, c)
				}
			}
			continue
		}
		t := cat.Table(spec.Table)
		if t == nil {
			return nil, fmt.Errorf("unknown table %q in index design", spec.Table)
		}
		for _, c := range spec.Columns {
			if t.ColumnIndex(c) < 0 {
				return nil, fmt.Errorf("table %q has no column %q", spec.Table, c)
			}
		}
	}
	return frags, nil
}

// Rewriter returns the rewriter that targets d's fragment tables, or
// nil when d has no partitions (queries then plan as written).
func Rewriter(cat *catalog.Catalog, d Design) *rewrite.Rewriter {
	if len(d.Partitions) == 0 {
		return nil
	}
	parts := make(map[string]*rewrite.Partitioning, len(d.Partitions))
	for _, p := range d.Partitions {
		pt := &rewrite.Partitioning{Parent: cat.Table(p.Table)}
		for i, cols := range p.Fragments {
			pt.Fragments = append(pt.Fragments, rewrite.Fragment{
				Name:    FragName(p.Table, i),
				Columns: append([]string(nil), cols...),
			})
		}
		parts[p.Table] = pt
	}
	return rewrite.New(parts)
}

// Diff computes the what-if delta that moves a session holding from to
// to, plus the sorted parent-level tables the transition affects (the
// footprint set a design session invalidates by). liveNames maps each
// of from's index keys to the what-if index name the session generated
// for it. A partitioning whose fragments change is dropped and
// re-created whole — its surviving fragment indexes with it — and
// indexes on dropped fragments go with their table. Creates follow
// to's order, so a fresh session's generated names follow to.Indexes.
// The delta leaves the nested-loop flag alone; callers set
// Delta.NestLoop.
func Diff(from, to Design, liveNames map[string]string) (whatif.Delta, []string) {
	var delta whatif.Delta
	affected := map[string]bool{}
	fromParts := partKeys(from)
	toParts := partKeys(to)
	for _, p := range from.Partitions {
		if k, ok := toParts[p.Table]; ok && k == fromParts[p.Table] {
			continue // unchanged partitioning
		}
		affected[p.Table] = true
		for i := range p.Fragments {
			delta.DropTables = append(delta.DropTables, FragName(p.Table, i))
		}
	}
	for _, p := range to.Partitions {
		if k, ok := fromParts[p.Table]; ok && k == toParts[p.Table] {
			continue
		}
		affected[p.Table] = true
		for i, cols := range p.Fragments {
			delta.CreateTables = append(delta.CreateTables, whatif.TableDef{
				Name:    FragName(p.Table, i),
				Parent:  p.Table,
				Columns: cols,
			})
		}
	}
	sort.Strings(delta.DropTables)
	sort.Slice(delta.CreateTables, func(i, j int) bool { return delta.CreateTables[i].Name < delta.CreateTables[j].Name })

	// An index riding on a dropped or created fragment still affects its
	// parent's queries, so fragments resolve through both designs.
	parents := fragmentParents(from, to)
	parentOf := func(table string) string {
		if p, ok := parents[table]; ok {
			return p
		}
		return table
	}
	fromKeys, fromIx := indexKeys(from)
	toKeys, toIx := indexKeys(to)
	for i, spec := range from.Indexes {
		k := fromKeys[i]
		if toIx[k] || !fromIx[k] {
			continue
		}
		fromIx[k] = false // a key listed twice is dropped once
		affected[parentOf(spec.Table)] = true
		if !slices.Contains(delta.DropTables, spec.Table) {
			delta.DropIndexes = append(delta.DropIndexes, liveNames[k])
		}
	}
	for i, spec := range to.Indexes {
		k := toKeys[i]
		onFreshTable := slices.ContainsFunc(delta.CreateTables, func(td whatif.TableDef) bool { return td.Name == spec.Table })
		if !toIx[k] || fromIx[k] && !onFreshTable {
			continue
		}
		toIx[k] = false // and created once
		affected[parentOf(spec.Table)] = true
		delta.CreateIndexes = append(delta.CreateIndexes, whatif.IndexDef{Table: spec.Table, Columns: spec.Columns})
	}

	tables := make([]string, 0, len(affected))
	for t := range affected {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	return delta, tables
}

// indexKeys returns d's index keys, aligned with d.Indexes, and their set.
func indexKeys(d Design) ([]string, map[string]bool) {
	keys := make([]string, len(d.Indexes))
	set := make(map[string]bool, len(d.Indexes))
	for i, spec := range d.Indexes {
		keys[i] = spec.Key()
		set[keys[i]] = true
	}
	return keys, set
}

// partKeys maps each partitioned table of d to its canonical key (nil
// when d has no partitions).
func partKeys(d Design) map[string]string {
	if len(d.Partitions) == 0 {
		return nil
	}
	out := make(map[string]string, len(d.Partitions))
	for _, p := range d.Partitions {
		out[p.Table] = partKey(p)
	}
	return out
}

// fragmentParents maps every fragment table of the given designs to
// its parent; nil when none is partitioned.
func fragmentParents(ds ...Design) map[string]string {
	var out map[string]string
	for _, d := range ds {
		for _, p := range d.Partitions {
			if out == nil {
				out = map[string]string{}
			}
			for i := range p.Fragments {
				out[FragName(p.Table, i)] = p.Table
			}
		}
	}
	return out
}

// Install puts d, with the given nested-loop flag, into a fresh what-if
// session and returns the created what-if indexes, aligned with
// d.Indexes. Fresh sessions name objects deterministically, so every
// session installed with d holds the same names.
func Install(ws *whatif.Session, d Design, nestLoop bool) ([]*catalog.Index, error) {
	delta, _ := Diff(Design{}, d, nil)
	delta.NestLoop = &nestLoop
	return ws.ApplyDelta(delta)
}
