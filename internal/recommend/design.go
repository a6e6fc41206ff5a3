package recommend

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/costlab"
	"repro/internal/inum"
	"repro/internal/sql"
)

// Partition is one table's vertical partitioning: the column groups of
// each fragment (primary keys are implicit). It has the same shape and
// JSON form as session.PartitionDef, so recommendations apply to
// design sessions verbatim.
type Partition struct {
	Table     string     `json:"table"`
	Fragments [][]string `json:"fragments"`
}

// Design is a joint physical design: candidate indexes plus vertical
// partitionings. It is the unit the evaluation core prices and the
// search strategies mutate.
type Design struct {
	Indexes    []inum.IndexSpec `json:"indexes,omitempty"`
	Partitions []Partition      `json:"partitions,omitempty"`
}

// MaterializeStatements renders a design's indexes as CREATE INDEX
// DDL, for the "physically create the suggested set" GUI action.
func MaterializeStatements(specs []inum.IndexSpec) []string {
	out := make([]string, 0, len(specs))
	for i, s := range specs {
		ci := &sql.CreateIndex{
			Name:    fmt.Sprintf("parinda_ix%d_%s", i+1, s.Table),
			Table:   s.Table,
			Columns: s.Columns,
		}
		out = append(out, sql.Print(ci))
	}
	return out
}

// selection returns the design's partitionings as the table → fragment
// columns map the fragment machinery operates on, plus the sorted
// table list.
func (d Design) selection() (map[string][][]string, []string) {
	sel := map[string][][]string{}
	tables := make([]string, 0, len(d.Partitions))
	for _, p := range d.Partitions {
		sel[p.Table] = p.Fragments
		tables = append(tables, p.Table)
	}
	sort.Strings(tables)
	return sel, tables
}

// designFromSelection builds a Design from chosen indexes and a
// partition selection, with partitions in sorted-table order and
// indexes in canonical order.
func designFromSelection(indexes []inum.IndexSpec, sel map[string][][]string) Design {
	d := Design{Indexes: append([]inum.IndexSpec(nil), indexes...)}
	inum.SortSpecs(d.Indexes)
	tables := make([]string, 0, len(sel))
	for t := range sel {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		p := Partition{Table: t}
		for _, cols := range sel[t] {
			p.Fragments = append(p.Fragments, append([]string(nil), cols...))
		}
		d.Partitions = append(d.Partitions, p)
	}
	return d
}

// DesignKey canonicalizes a joint design for memoization. For a pure
// index design it equals costlab.ConfigKey of the index set, so joint
// pricing shares memo entries with index-only pricing jobs and the
// cross-session SharedMemo cost tier.
func DesignKey(d Design) string {
	key := costlab.ConfigKey(costlab.Config(d.Indexes))
	if len(d.Partitions) == 0 {
		return key
	}
	parts := make([]string, 0, len(d.Partitions))
	for _, p := range d.Partitions {
		var sb strings.Builder
		sb.WriteString(p.Table)
		sb.WriteByte(':')
		for i, cols := range p.Fragments {
			if i > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(strings.Join(cols, ","))
		}
		parts = append(parts, sb.String())
	}
	sort.Strings(parts)
	return key + "//part:" + strings.Join(parts, ";")
}
