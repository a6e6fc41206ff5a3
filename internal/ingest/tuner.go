package ingest

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/costlab"
	"repro/internal/design"
	"repro/internal/recommend"
	"repro/internal/sql"
)

// Defaults for TunerOptions zero values.
const (
	DefaultDriftThreshold = 0.25
	DefaultInterval       = 2 * time.Second
)

// TunerOptions configure a continuous tuner.
type TunerOptions struct {
	// Catalog is the catalog searches plan against.
	Catalog *catalog.Catalog
	// Baseline is the workload the current design was tuned for —
	// drift is measured against it, and it advances to the window
	// snapshot after every retune.
	Baseline []recommend.Query
	// StaleDesign is the currently-deployed design (may be zero: no
	// design yet). After every retune it advances to the new best.
	StaleDesign design.Design
	// DriftThreshold triggers a retune when Distance(window, baseline)
	// reaches it. 0 means DefaultDriftThreshold; negative retunes on
	// every check (useful in tests).
	DriftThreshold float64
	// Interval is Run's check cadence. 0 means DefaultInterval.
	Interval time.Duration
	// MinQueries skips checks until the window holds at least this
	// many distinct queries. 0 means 1.
	MinQueries int
	// Recommend templates the re-search (objects, strategy, budget,
	// workers…). The backend is forced to the full optimizer and the
	// memo to Memo; an empty strategy defaults to the budgeted anytime
	// search.
	Recommend recommend.Options
	// Memo warm-starts every re-search — typically a serve manager's
	// shared cost memo, so configurations any tenant priced are never
	// re-priced. nil means a private memo that still carries warmth
	// across this tuner's own retunes.
	Memo *costlab.Memo
	// OnRetune, when set, observes every published retune (called
	// after the publication).
	OnRetune func(*Retune)
}

// Retune is one published tuning outcome. Values are immutable after
// publication.
type Retune struct {
	Seq           int64             `json:"seq"`   // 1-based publication ordinal
	Drift         float64           `json:"drift"` // drift that triggered the retune
	WindowQueries int               `json:"windowQueries"`
	StaleCost     float64           `json:"staleCost"` // previous design priced on the new window
	Result        *recommend.Result `json:"result"`    // the re-search's outcome
}

// Improvement returns 1 - new/stale on the retune's window (0 for
// degenerate costs — never NaN).
func (r *Retune) Improvement() float64 {
	if r.Result == nil || r.StaleCost <= 0 || math.IsNaN(r.StaleCost) || math.IsInf(r.StaleCost, 0) {
		return 0
	}
	return 1 - r.Result.NewCost/r.StaleCost
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

// TunerStats are a tuner's lifetime counters.
type TunerStats struct {
	Checks    int64   `json:"checks"`
	Retunes   int64   `json:"retunes"`
	Skipped   int64   `json:"skipped"` // checks below the drift threshold (or window too small)
	Errors    int64   `json:"errors"`  // re-searches that failed
	LastDrift float64 `json:"lastDrift"`
}

// Tuner is the continuous-tuning loop: it watches a Window, and when
// the workload drifts past the threshold it re-runs the budgeted
// anytime joint search and atomically publishes the new best design.
// Check calls serialize on an internal lock; Published may be read
// from any goroutine at any time.
type Tuner struct {
	win  *Window
	opts TunerOptions

	mu       sync.Mutex // serializes Check (one re-search at a time)
	baseline []recommend.Query
	stale    design.Design
	seq      int64

	published atomic.Pointer[Retune]

	checks    atomic.Int64
	retunes   atomic.Int64
	skipped   atomic.Int64
	errors    atomic.Int64
	lastDrift atomic.Uint64 // float64 bits
}

// NewTuner builds a tuner over win.
func NewTuner(win *Window, opts TunerOptions) *Tuner {
	if opts.DriftThreshold == 0 {
		opts.DriftThreshold = DefaultDriftThreshold
	}
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	if opts.MinQueries <= 0 {
		opts.MinQueries = 1
	}
	if opts.Memo == nil {
		opts.Memo = costlab.NewMemo()
	}
	return &Tuner{
		win:      win,
		opts:     opts,
		baseline: append([]recommend.Query(nil), opts.Baseline...),
		stale:    opts.StaleDesign,
	}
}

// Published returns the most recently published retune (nil before the
// first). The pointer target is immutable.
func (t *Tuner) Published() *Retune { return t.published.Load() }

// Window returns the window the tuner currently watches.
func (t *Tuner) Window() *Window {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.win
}

// Retarget points the tuner at a different window — the serving layer
// uses this when a session (and with it the window object) is dropped
// and re-created under the same name, so a long-lived continuous tuner
// never keeps watching a detached window. Baseline, published design
// and counters are preserved.
func (t *Tuner) Retarget(win *Window) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.win = win
}

// Stats returns the tuner's counters.
func (t *Tuner) Stats() TunerStats {
	return TunerStats{
		Checks:    t.checks.Load(),
		Retunes:   t.retunes.Load(),
		Skipped:   t.skipped.Load(),
		Errors:    t.errors.Load(),
		LastDrift: math.Float64frombits(t.lastDrift.Load()),
	}
}

// Check measures drift and, past the threshold, re-tunes: it prices
// the stale design on the current window, re-runs the search over the
// window warm-started from the memo, and publishes the outcome. It
// returns the published retune, or (nil, nil) when the drift stayed
// below the threshold (or the window is too small to tune).
func (t *Tuner) Check(ctx context.Context) (*Retune, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.checks.Add(1)

	queries := pricableQueries(t.opts.Catalog, t.win.Queries())
	if len(queries) < t.opts.MinQueries {
		t.skipped.Add(1)
		return nil, nil
	}
	drift := Distance(queries, t.baseline)
	t.lastDrift.Store(math.Float64bits(drift))
	if drift < t.opts.DriftThreshold {
		t.skipped.Add(1)
		return nil, nil
	}

	opts := t.opts.Recommend
	opts.Backend = costlab.BackendFull
	opts.Memo = t.opts.Memo
	if opts.Objects == "" {
		opts.Objects = recommend.ObjectsJoint
	}
	if opts.Strategy == "" {
		opts.Strategy = recommend.StrategyAnytime
	}
	res, err := recommend.Recommend(ctx, t.opts.Catalog, queries, opts)
	if err != nil {
		t.errors.Add(1)
		return nil, fmt.Errorf("ingest: retune: %w", err)
	}
	staleCost, err := t.staleCostOn(ctx, queries, res)
	if err != nil {
		t.errors.Add(1)
		return nil, fmt.Errorf("ingest: price stale design on window: %w", err)
	}

	t.seq++
	ret := &Retune{
		Seq:           t.seq,
		Drift:         drift,
		WindowQueries: len(queries),
		StaleCost:     staleCost,
		Result:        res,
	}
	t.published.Store(ret)
	t.baseline = queries
	t.stale = res.Design
	t.retunes.Add(1)
	if t.opts.OnRetune != nil {
		t.opts.OnRetune(ret)
	}
	return ret, nil
}

// staleCostOn prices the stale design over the new window. An empty
// stale design costs exactly the search's base cost — no extra
// optimizer calls.
func (t *Tuner) staleCostOn(ctx context.Context, queries []recommend.Query, res *recommend.Result) (float64, error) {
	if len(t.stale.Indexes) == 0 && len(t.stale.Partitions) == 0 {
		return res.BaseCost, nil
	}
	ev, err := recommend.NewEvaluator(t.opts.Catalog, queries, costlab.BackendFull,
		t.opts.Recommend.Workers, t.opts.Memo)
	if err != nil {
		return 0, err
	}
	return ev.DesignCost(ctx, t.stale)
}

// Run checks on the configured interval until ctx is cancelled,
// returning ctx.Err(). Check errors are counted (see Stats) and the
// loop keeps going — a transient pricing failure must not kill a
// background tuner.
func (t *Tuner) Run(ctx context.Context) error {
	tick := time.NewTicker(t.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			_, _ = t.Check(ctx)
		}
	}
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
	out := queries[:0]
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
