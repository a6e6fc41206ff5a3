// Package inum implements the INUM cache-based cost model
// (Papadomanolakis, Dash & Ailamaki, VLDB 2007) that PARINDA's index
// advisor uses to estimate the cost of millions of candidate physical
// designs without invoking the full optimizer each time (§3.4).
//
// The decomposition: an optimal plan's cost splits into the "internal"
// cost (joins, sorts, aggregation) and the access cost of each base
// relation. Within a *scenario* — the pattern of which relations have
// an applicable index — the internal structure of the optimal plan is
// stable, so INUM caches it once and reconstructs the cost of any
// concrete configuration as
//
//	cost(q, C) = min over cached join modes of
//	             internal(q, scenario(C), mode) + Σ_t access(q, t, C)
//
// Per the paper, two plans are cached per scenario: one with the
// nested-loop join method enabled and one with it disabled (the
// What-If Join component toggles the flag).
package inum

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sql"
	"repro/internal/whatif"
)

// IndexSpec names a candidate index: a table and its key columns.
// The JSON form is the serve/session wire format for design indexes.
type IndexSpec struct {
	Table   string   `json:"table"`
	Columns []string `json:"columns"`
}

// Key returns a canonical string identity for the spec.
func (s IndexSpec) Key() string {
	return s.Table + "(" + strings.Join(s.Columns, ",") + ")"
}

// Config is a candidate physical design: a set of indexes.
type Config []IndexSpec

// Cache is an INUM cost cache bound to one workload's queries over a
// shared what-if session.
type Cache struct {
	session *whatif.Session
	held    map[string]string // installed index key → what-if name

	entries map[string]*entry // query key + scenario → cached plans

	// Statistics for the E5 experiment.
	Hits        int64 // cost calls served from cache
	Misses      int64 // cost calls that ran the optimizer
	PlanerCalls int64 // full optimizer invocations performed
}

// entry caches the internal costs of one (query, scenario) pair for
// the two join modes.
type entry struct {
	internalNLOn  float64
	internalNLOff float64
}

// New returns a cache planning against cat.
func New(cat *catalog.Catalog) *Cache {
	return &Cache{
		session: whatif.NewSession(cat),
		held:    make(map[string]string),
		entries: make(map[string]*entry),
	}
}

// Session exposes the underlying what-if session (used by advisors to
// size candidate indexes).
func (c *Cache) Session() *whatif.Session { return c.session }

// Cost estimates the cost of query sel under configuration cfg. The
// first call for a (query, scenario) pair runs the optimizer twice
// (nested loop on / off); later calls re-cost only the access paths.
func (c *Cache) Cost(sel *sql.Select, cfg Config) (float64, error) {
	if err := c.install(cfg); err != nil {
		return 0, fmt.Errorf("inum: %w", err)
	}

	aliases := optimizer.RelationAliases(sel)
	joinCols := sql.EquiJoinColumnsByAlias(sel)
	aliasTable := sql.TableByAlias(sel)
	accessTotal := 0.0
	var scenarioBits []string
	for _, alias := range aliases {
		ap, err := c.session.Planner().AccessPathCost(sel, alias)
		if err != nil {
			return 0, err
		}
		accessTotal += ap.Cost
		bit := alias
		if ap.Index != "" {
			bit += "+ix"
		}
		// Interesting-order bit: an index whose leading column is one
		// of this relation's equijoin columns enables a parameterized
		// nested-loop inner — a distinct INUM scenario.
		for _, ix := range c.session.Indexes() {
			if ix.Table != aliasTable[alias] || len(ix.Columns) == 0 {
				continue
			}
			if joinCols[alias][ix.Columns[0]] {
				bit += "+jo:" + ix.Columns[0]
				break
			}
		}
		scenarioBits = append(scenarioBits, bit)
	}
	key := queryKey(sel) + "|" + strings.Join(scenarioBits, ",")

	e := c.entries[key]
	if e == nil {
		c.Misses++
		var err error
		e, err = c.buildEntry(sel, accessTotal)
		if err != nil {
			return 0, err
		}
		c.entries[key] = e
	} else {
		c.Hits++
	}

	cost := math.Min(e.internalNLOn, e.internalNLOff) + accessTotal
	if cost < 0 {
		cost = accessTotal
	}
	return cost, nil
}

// buildEntry runs the full optimizer twice under the current session
// design (nested loops enabled and disabled, via the What-If Join
// component) and extracts the internal costs.
func (c *Cache) buildEntry(sel *sql.Select, accessTotal float64) (*entry, error) {
	e := &entry{}
	for _, nl := range []bool{true, false} {
		c.session.SetNestLoop(nl)
		plan, err := c.session.Plan(sel)
		c.PlanerCalls++
		if err != nil {
			c.session.SetNestLoop(true)
			return nil, err
		}
		internal := plan.TotalCost - accessTotal
		if internal < 0 {
			internal = 0
		}
		if nl {
			e.internalNLOn = internal
		} else {
			e.internalNLOff = internal
		}
	}
	c.session.SetNestLoop(true)
	return e, nil
}

// FullOptimizerCost plans sel under cfg with the real optimizer (no
// caching) — the accuracy baseline INUM is compared against.
func (c *Cache) FullOptimizerCost(sel *sql.Select, cfg Config) (float64, error) {
	if err := c.install(cfg); err != nil {
		return 0, err
	}
	c.PlanerCalls++
	return c.session.Cost(sel)
}

// install moves the session to exactly cfg's what-if indexes with one
// delta against the configuration it holds: indexes cfg no longer
// lists are dropped, new ones created, the rest kept. The session hands
// indexes out in key order — to the planner and to Cost's
// interesting-order scenario bit alike — so permutations of one
// configuration, which every memo keys alike, price alike.
func (c *Cache) install(cfg Config) error {
	want := make(map[string]bool, len(cfg))
	var delta whatif.Delta
	for _, spec := range cfg {
		k := spec.Key()
		if !want[k] && c.held[k] == "" {
			delta.CreateIndexes = append(delta.CreateIndexes, whatif.IndexDef{Table: spec.Table, Columns: spec.Columns})
		}
		want[k] = true
	}
	for k, name := range c.held {
		if !want[k] {
			delta.DropIndexes = append(delta.DropIndexes, name)
		}
	}
	created, err := c.session.ApplyDelta(delta)
	if err != nil {
		return err
	}
	for k := range c.held {
		if !want[k] {
			delete(c.held, k)
		}
	}
	for _, ix := range created {
		c.held[IndexSpec{Table: ix.Table, Columns: ix.Columns}.Key()] = ix.Name
	}
	return nil
}

// CachedScenarios returns the number of (query, scenario) entries.
func (c *Cache) CachedScenarios() int { return len(c.entries) }

// ResetStats zeroes the hit/miss counters.
func (c *Cache) ResetStats() {
	c.Hits, c.Misses, c.PlanerCalls = 0, 0, 0
}

// queryKey canonicalizes a query for cache identity.
func queryKey(sel *sql.Select) string { return sql.PrintSelect(sel) }

// SpecSizeBytes returns the Equation-1 size of a candidate index.
func (c *Cache) SpecSizeBytes(spec IndexSpec) (int64, error) {
	return c.session.IndexSizeBytes(spec.Table, spec.Columns)
}

// SortSpecs orders specs deterministically (by key), for reproducible
// advisor runs.
func SortSpecs(specs []IndexSpec) {
	sort.Slice(specs, func(i, j int) bool { return specs[i].Key() < specs[j].Key() })
}
