package ingest

import (
	"context"
	"fmt"
	"math"

	"repro/internal/catalog"
	"repro/internal/design"
	"repro/internal/recommend"
	"repro/internal/sql"
)

// DefaultDriftThreshold is TunerOptions.DriftThreshold's zero value.
const DefaultDriftThreshold = 0.25

// TunerOptions configure a continuous tuner.
type TunerOptions struct {
	// Catalog is the catalog searches plan against.
	Catalog *catalog.Catalog
	// Baseline is the workload the current design was tuned for —
	// drift is measured against it, and it advances to the checked
	// queries after every retune.
	Baseline []recommend.Query
	// DriftThreshold triggers a retune when Distance(queries, baseline)
	// reaches it. 0 means DefaultDriftThreshold; negative retunes on
	// every check (useful in tests).
	DriftThreshold float64
	// Recommend is the re-search, run as given: its backend, memo
	// (warm-starting every retune, and pricing the stale design),
	// objects, strategy, budget and workers are the caller's.
	Recommend recommend.Options
}

// Retune is one tuning outcome.
type Retune struct {
	Drift         float64           // drift that triggered the retune
	WindowQueries int               // pricable queries the re-search ran over
	StaleCost     float64           // previous design priced on the new queries
	Result        *recommend.Result // the re-search's outcome
}

// Speedup returns stale/new on the retune's window (1 for degenerate
// costs — never NaN/Inf).
func (r *Retune) Speedup() float64 {
	if r.Result == nil || r.StaleCost <= 0 || r.Result.NewCost <= 0 ||
		math.IsNaN(r.StaleCost) || math.IsInf(r.StaleCost, 0) {
		return 1
	}
	return r.StaleCost / r.Result.NewCost
}

// Tuner is one drift-gated retune step: Check compares the queries it
// is given against the baseline, and when the workload drifted past
// the threshold it re-runs the search over them. The caller owns the
// loop (serve's continuous recommend job ticks it over the session's
// window); one goroutine calls Check at a time.
type Tuner struct {
	opts  TunerOptions
	stale design.Design // the design the baseline was tuned to (zero: none yet)
}

// NewTuner builds a tuner.
func NewTuner(opts TunerOptions) *Tuner {
	if opts.DriftThreshold == 0 {
		opts.DriftThreshold = DefaultDriftThreshold
	}
	return &Tuner{opts: opts}
}

// Check measures the drift of queries (typically a Window's Queries())
// from the baseline and, past the threshold, re-tunes: it re-runs the
// search over the pricable queries and prices the stale design on
// them, then advances the baseline and the stale design. It returns
// the retune — nil when the drift stayed below the threshold or no
// query is pricable — and the drift it measured.
func (t *Tuner) Check(ctx context.Context, queries []recommend.Query) (*Retune, float64, error) {
	queries = pricableQueries(t.opts.Catalog, queries)
	if len(queries) == 0 {
		return nil, 0, nil
	}
	drift := Distance(queries, t.opts.Baseline)
	if drift < t.opts.DriftThreshold {
		return nil, drift, nil
	}
	res, err := recommend.Recommend(ctx, t.opts.Catalog, queries, t.opts.Recommend)
	if err != nil {
		return nil, drift, fmt.Errorf("ingest: retune: %w", err)
	}
	staleCost, err := t.staleCostOn(ctx, queries, res)
	if err != nil {
		return nil, drift, fmt.Errorf("ingest: price stale design on window: %w", err)
	}
	t.opts.Baseline = queries
	t.stale = res.Design
	return &Retune{Drift: drift, WindowQueries: len(queries), StaleCost: staleCost, Result: res}, drift, nil
}

// staleCostOn prices the stale design over the new window. An empty
// stale design costs exactly the search's base cost — no extra
// optimizer calls.
func (t *Tuner) staleCostOn(ctx context.Context, queries []recommend.Query, res *recommend.Result) (float64, error) {
	if len(t.stale.Indexes) == 0 && len(t.stale.Partitions) == 0 {
		return res.BaseCost, nil
	}
	o := t.opts.Recommend
	ev, err := recommend.NewEvaluator(t.opts.Catalog, queries, o.Backend, o.Workers, o.Memo)
	if err != nil {
		return 0, err
	}
	return ev.DesignCost(ctx, t.stale)
}

// pricableQueries filters a workload to the statements the catalog can
// possibly price: every referenced table exists, and every referenced
// column exists on at least one referenced table. Streamed traffic is
// untrusted — one query against a foreign schema must not poison every
// retune.
func pricableQueries(cat *catalog.Catalog, queries []recommend.Query) []recommend.Query {
	if cat == nil {
		return queries
	}
	out := make([]recommend.Query, 0, len(queries))
	for _, q := range queries {
		if pricable(cat, q.Stmt) {
			out = append(out, q)
		}
	}
	return out
}

func pricable(cat *catalog.Catalog, stmt *sql.Select) bool {
	if stmt == nil {
		return false
	}
	fp := sql.FootprintOf(stmt)
	for table := range fp.Tables {
		if cat.Table(table) == nil {
			return false
		}
	}
	for _, cols := range fp.Columns {
		for col := range cols {
			found := false
			for table := range fp.Tables {
				if t := cat.Table(table); t != nil && t.ColumnIndex(col) >= 0 {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
	}
	return true
}
