package recommend

import (
	"fmt"

	"repro/internal/sql"
)

// Query is one weighted workload statement.
type Query struct {
	SQL    string
	Stmt   *sql.Select
	Weight float64 // relative frequency; default 1
}

// ParseWorkload parses a list of SQL strings into queries with unit
// weights.
func ParseWorkload(sqls []string) ([]Query, error) {
	out := make([]Query, 0, len(sqls))
	for _, s := range sqls {
		stmt, err := sql.ParseSelect(s)
		if err != nil {
			return nil, fmt.Errorf("advisor: workload query %q: %w", s, err)
		}
		out = append(out, Query{SQL: s, Stmt: stmt, Weight: 1})
	}
	return out, nil
}

// QueryBenefit reports one query's costs under a recommendation. The
// JSON form is part of the serve/session wire format.
type QueryBenefit struct {
	SQL         string   `json:"sql"`
	BaseCost    float64  `json:"baseCost"`
	NewCost     float64  `json:"newCost"`
	IndexesUsed []string `json:"indexesUsed,omitempty"` // keys of suggested indexes this query uses
}

// Speedup returns BaseCost / NewCost (1 = unchanged, including the
// degenerate zero-cost cases).
func (q QueryBenefit) Speedup() float64 {
	if q.NewCost <= 0 || q.BaseCost <= 0 {
		return 1
	}
	return q.BaseCost / q.NewCost
}
