package session

// MaterializeAndCompare: scenario 1's accuracy check, the what-if
// design built for real and re-planned.

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/design"
	"repro/internal/optimizer"
	"repro/internal/sql"
	"repro/internal/storage"
)

// ComparisonEntry records the what-if vs. materialized check of one
// query.
type ComparisonEntry struct {
	SQL              string
	WhatIfCost       float64
	MaterializedCost float64
	SamePlanShape    bool
	WhatIfExplain    string
	MaterialExplain  string
}

// ComparisonReport is the output of MaterializeAndCompare.
type ComparisonReport struct {
	Entries []ComparisonEntry
	// BuildStatements are the DDL statements that were executed to
	// materialize the design.
	BuildStatements []string
}

// AllShapesMatch reports whether every query planned identically under
// the what-if and the materialized design.
func (r *ComparisonReport) AllShapesMatch() bool {
	for _, e := range r.Entries {
		if !e.SamePlanShape {
			return false
		}
	}
	return true
}

// MaxRelCostError returns the largest relative difference between
// what-if and materialized cost across queries.
func (r *ComparisonReport) MaxRelCostError() float64 {
	worst := 0.0
	for _, e := range r.Entries {
		if e.MaterializedCost <= 0 {
			continue
		}
		rel := (e.WhatIfCost - e.MaterializedCost) / e.MaterializedCost
		if rel < 0 {
			rel = -rel
		}
		if rel > worst {
			worst = rel
		}
	}
	return worst
}

// MaterializeAndCompare builds the design's indexes and partition
// tables for real inside db (copying data for fragments), re-plans the
// workload against the materialized catalog, and compares plan shape
// and cost with the what-if simulation — scenario 1's accuracy check.
// The database is modified; callers own cleanup.
func MaterializeAndCompare(db *storage.Database, workloadSQL []string, d design.Design) (*ComparisonReport, error) {
	// The what-if evaluation validates d against the catalog first. The
	// session stays open: its explains are read before anything is built.
	s, err := New(db.Catalog, workloadSQL, Options{})
	if err != nil {
		return nil, err
	}
	whatIf, err := s.ApplyDesign(d)
	if err != nil {
		return nil, err
	}
	whatIfExplains := make([]string, len(whatIf.PerQuery))
	for i := range whatIfExplains {
		if whatIfExplains[i], err = s.Explain(i); err != nil {
			return nil, err
		}
	}
	rw := design.Rewriter(db.Catalog, d)

	report := &ComparisonReport{}

	// Materialize partitions: create fragment tables, copy projected
	// rows, analyze.
	for _, def := range d.Partitions {
		parent := db.Catalog.Table(def.Table)
		for i, cols := range def.Fragments {
			name := design.FragName(def.Table, i)
			// The what-if evaluation validated cols against parent.
			fcols, _ := parent.FragmentColumns(cols)
			ddl := &sql.CreateTable{Name: name, PrimaryKey: append([]string(nil), parent.PrimaryKey...)}
			for _, c := range fcols {
				ddl.Columns = append(ddl.Columns, sql.ColumnDef{Name: c.Name, Type: c.Type})
			}
			report.BuildStatements = append(report.BuildStatements, sql.Print(ddl))
			if _, err := db.CreateTable(ddl); err != nil {
				return nil, err
			}
			if err := copyFragment(db, parent, ddl); err != nil {
				return nil, err
			}
			if err := db.AnalyzeTable(name); err != nil {
				return nil, err
			}
		}
	}

	// Materialize indexes.
	for i, spec := range d.Indexes {
		ci := &sql.CreateIndex{
			Name:    fmt.Sprintf("parinda_mat_ix%d_%s", i+1, spec.Table),
			Table:   spec.Table,
			Columns: spec.Columns,
		}
		report.BuildStatements = append(report.BuildStatements, sql.Print(ci))
		if _, err := db.BuildIndex(ci); err != nil {
			return nil, err
		}
	}

	planner := optimizer.New(db.Catalog)
	for i, q := range s.Queries() {
		target := q.Stmt
		if rw != nil {
			target, err = rw.Rewrite(q.Stmt)
			if err != nil {
				return nil, err
			}
		}
		matPlan, err := planner.Plan(target)
		if err != nil {
			return nil, fmt.Errorf("session: materialized plan of %q: %w", q.SQL, err)
		}
		entry := ComparisonEntry{
			SQL:              q.SQL,
			WhatIfCost:       whatIf.PerQuery[i].NewCost,
			MaterializedCost: matPlan.TotalCost,
			MaterialExplain:  optimizer.Explain(matPlan),
			WhatIfExplain:    whatIfExplains[i],
		}
		entry.SamePlanShape = shapeSignature(entry.WhatIfExplain) == shapeSignature(entry.MaterialExplain)
		report.Entries = append(report.Entries, entry)
	}
	return report, nil
}

// shapeSignature extracts the operator skeleton from an EXPLAIN text:
// node types with tables, ignoring costs, rows and index names (the
// what-if and materialized index names differ by construction).
func shapeSignature(explain string) string {
	var sig []string
	for _, line := range strings.Split(explain, "\n") {
		trimmed := strings.TrimLeft(line, " ->")
		if trimmed == "" {
			continue
		}
		if strings.HasPrefix(trimmed, "Index Cond:") || strings.HasPrefix(trimmed, "Filter:") ||
			strings.HasPrefix(trimmed, "Join Cond:") || strings.HasPrefix(trimmed, "Sort Key:") ||
			strings.HasPrefix(trimmed, "Group Key:") {
			continue
		}
		if i := strings.Index(trimmed, "  (cost="); i >= 0 {
			trimmed = trimmed[:i]
		}
		// Normalize "Index Scan using <name> on t": the what-if and
		// materialized index names differ even for the same design.
		if strings.HasPrefix(trimmed, "Index Scan using ") {
			if i := strings.Index(trimmed, " on "); i >= 0 {
				trimmed = "Index Scan" + trimmed[i:]
			}
		}
		indent := len(line) - len(strings.TrimLeft(line, " "))
		sig = append(sig, fmt.Sprintf("%d:%s", indent, trimmed))
	}
	return strings.Join(sig, "|")
}

// copyFragment projects the parent's rows into the fragment table.
func copyFragment(db *storage.Database, parent *catalog.Table, frag *sql.CreateTable) error {
	ordinals := make([]int, len(frag.Columns))
	for i, cd := range frag.Columns {
		ordinals[i] = parent.ColumnIndex(cd.Name)
	}
	it := db.Heap(parent.Name).Scan()
	for {
		row, ok := it.Next()
		if !ok {
			break
		}
		out := make([]catalog.Datum, len(ordinals))
		for i, ord := range ordinals {
			out[i] = row[ord]
		}
		if err := db.Insert(frag.Name, out); err != nil {
			return err
		}
	}
	return it.Err()
}
