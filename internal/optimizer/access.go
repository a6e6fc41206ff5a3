package optimizer

import (
	"fmt"

	"repro/internal/sql"
)

// AccessPath summarizes the cheapest access path for one relation of a
// query: what INUM recomputes per configuration without re-running
// join optimization.
type AccessPath struct {
	Table string
	Alias string
	// Index is the chosen index name, empty for a sequential scan.
	Index string
	Cost  float64
	Rows  float64
}

// AccessPathCost computes the cheapest access path for the relation
// bound to alias in sel, considering only that relation's restriction
// clauses. It binds and classifies exactly as Plan does, and costs
// O(indexes on the table) — no join enumeration — which is what makes
// INUM's cache reconstruction fast.
func (p *Planner) AccessPathCost(sel *sql.Select, alias string) (AccessPath, error) {
	b, _, err := p.bindPrepared(sel)
	if err != nil {
		return AccessPath{}, err
	}
	rel := b.relByAlias(alias)
	if rel == nil {
		return AccessPath{}, fmt.Errorf("optimizer: query has no relation %q", alias)
	}
	p.makeAccessPaths(rel)
	ap := AccessPath{
		Table: rel.info.Table.Name,
		Alias: alias,
		Cost:  rel.path.TotalCost,
		Rows:  rel.path.Rows,
	}
	if rel.path.Type == NodeIndexScan {
		ap.Index = rel.path.Index.Name
	}
	return ap, nil
}

// RelationAliases returns the effective alias of every relation in
// sel, in FROM-list order.
func RelationAliases(sel *sql.Select) []string {
	var out []string
	for _, tr := range sel.From {
		out = append(out, tr.EffectiveName())
	}
	for _, j := range sel.Joins {
		out = append(out, j.Table.EffectiveName())
	}
	return out
}
