// Package costlab is the unified cost-estimation layer behind
// PARINDA's front-ends (§3.4 of the paper): the advisor, AutoPart and
// the interactive what-if component all price candidate physical
// designs through one CostEstimator interface instead of wiring up
// what-if sessions by hand.
//
// Two interchangeable backends implement the interface:
//
//   - Full invokes the complete cost-based optimizer for every call: the
//     one design-positioned pricer, whose pooled what-if sessions hold
//     the design they last priced and move to the next by diff.
//   - INUM reconstructs costs from the INUM scenario cache
//     (Papadomanolakis, Dash & Ailamaki, VLDB 2007), sharded per
//     worker so warm-cache costing scales across cores.
//
// Both backends are safe for concurrent use. EvaluateDelta is the one
// memoised batch entry: its jobs carry whole designs (indexes and
// partitions), it serves repeats from a Memo and fans the rest out over
// a worker pool with deterministic result ordering and first-error
// cancellation. Because the backends satisfy one
// interface, their agreement can be tested directly — the
// comparative-specification style of checking two implementations of
// the same contract against each other.
//
// Every memoized price has one identity: (statement, projected design,
// backend). The projected design is design.ProjectedKey — the objects
// on the tables the statement reads — so the Memo serves a design that
// differs from a priced one only elsewhere, and the backend tag keeps
// INUM's and the optimizer's costs apart in one memo. A Memo built by a
// session.SharedMemo reads the sessions' states through on a full-
// optimizer miss, under the same (statement, projected design). Keys
// are interned to two uint32s; see Memo for why.
package costlab

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/inum"
	"repro/internal/sql"
)

// Config is a candidate physical design: a set of candidate indexes.
// It aliases inum.Config so specs flow between the layers unchanged.
type Config = inum.Config

// CostEstimator prices one statement under one candidate index
// configuration. Implementations must be safe for concurrent use.
type CostEstimator interface {
	Cost(stmt *sql.Select, cfg Config) (float64, error)
}

// Backend is a CostEstimator that can also size candidate indexes
// (Equation 1) and report how many full optimizer invocations it has
// consumed — everything an advisor needs from a pricing engine.
type Backend interface {
	CostEstimator
	// SpecSizeBytes returns the Equation-1 size of a candidate index.
	SpecSizeBytes(spec inum.IndexSpec) (int64, error)
	// PlanCalls reports full optimizer invocations performed so far.
	PlanCalls() int64
}

// Backend kind names accepted by NewBackend.
const (
	BackendINUM = "inum"
	BackendFull = "full"
)

// NewBackend builds a pricing backend over cat by kind: "inum" (the
// default for an empty kind) or "full".
func NewBackend(cat *catalog.Catalog, kind string) (Backend, error) {
	switch kind {
	case "", BackendINUM:
		return NewINUM(cat), nil
	case BackendFull:
		return NewFull(cat), nil
	}
	return nil, fmt.Errorf("costlab: unknown backend %q (want %q or %q)", kind, BackendINUM, BackendFull)
}
