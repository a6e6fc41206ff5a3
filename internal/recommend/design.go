package recommend

import (
	"fmt"
	"sort"

	"repro/internal/design"
	"repro/internal/inum"
	"repro/internal/sql"
)

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

// designFromSelection builds a design from chosen indexes and a
// partition selection (table → fragment columns, the search's internal
// state), with partitions in sorted-table order and indexes in
// canonical order.
func designFromSelection(indexes []inum.IndexSpec, sel map[string][][]string) design.Design {
	d := design.Design{Indexes: append([]inum.IndexSpec(nil), indexes...)}
	inum.SortSpecs(d.Indexes)
	tables := make([]string, 0, len(sel))
	for t := range sel {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		p := design.Partition{Table: t}
		for _, cols := range sel[t] {
			p.Fragments = append(p.Fragments, append([]string(nil), cols...))
		}
		d.Partitions = append(d.Partitions, p)
	}
	return d
}
