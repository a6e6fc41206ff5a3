package costlab

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/design"
	"repro/internal/inum"
	"repro/internal/optimizer"
	"repro/internal/sql"
	"repro/internal/whatif"
)

// Full prices statements with the complete cost-based optimizer — the
// accuracy baseline the INUM backend is compared against, and the
// engine behind the interactive what-if component. It is the one
// design-positioned pricer: each pooled what-if session holds the
// design it last priced under, moves to a job's design by one
// design.Diff delta and leaves it installed, so a batch served one
// design at a time installs it once per session, not once per plan.
// Safe for concurrent use: no two goroutines share a session.
type Full struct {
	pool  sessionPool
	calls atomic.Int64 // optimizer invocations, readable mid-flight

	// sizing uses a dedicated session (never planned against) so
	// Equation-1 sizing can run while pricing is in flight.
	sizeMu  sync.Mutex
	sizeSes *whatif.Session
}

// Target is a design to price under, with its nested-loop flag and its
// identity Key — design.Key(Design), what a session's held design is
// compared against ("" means compute it). A session may keep Design
// after the call, so callers must not mutate it.
type Target struct {
	Design   design.Design
	NestLoop bool
	Key      string
}

// configTarget is an index configuration's Target, nested loops on.
func configTarget(cfg Config) *Target {
	d := design.Design{Indexes: cfg}
	return &Target{Design: d, NestLoop: true, Key: design.Key(d)}
}

// NewFull returns a full-optimizer estimator over cat.
func NewFull(cat *catalog.Catalog) *Full {
	return &Full{pool: sessionPool{cat: cat}, sizeSes: whatif.NewSession(cat)}
}

// Cost prices stmt under cfg with one full optimizer invocation.
func (f *Full) Cost(stmt *sql.Select, cfg Config) (float64, error) {
	return f.cost(stmt, configTarget(cfg))
}

func (f *Full) cost(stmt *sql.Select, t *Target) (cost float64, err error) {
	err = f.planAt(stmt, t, func(plan *optimizer.Plan, _ *held) { cost = plan.TotalCost })
	return cost, err
}

// Plan optimizes stmt under cfg and returns the winning plan with the
// planning session's live names of the cfg indexes, aligned with cfg,
// through which callers map plan.IndexesUsed() back to specs.
func (f *Full) Plan(stmt *sql.Select, cfg Config) (plan *optimizer.Plan, names []string, err error) {
	err = f.planAt(stmt, configTarget(cfg), func(p *optimizer.Plan, h *held) {
		plan = p
		for _, spec := range cfg {
			names = append(names, h.Name(spec.Key()))
		}
	})
	return plan, names, err
}

// PriceAll plans every statement under t on up to workers pooled
// sessions (<= 0 means GOMAXPROCS) and returns, in statement order, the
// costs and the sorted design keys of the what-if indexes each plan
// uses — the batch behind partition trials, advisor reports and a
// design session's parallel re-pricing. A failure is a JobError naming
// the statement.
func (f *Full) PriceAll(ctx context.Context, t Target, stmts []*sql.Select, workers int) ([]float64, [][]string, error) {
	if t.Key == "" {
		t.Key = design.Key(t.Design)
	}
	costs, used := make([]float64, len(stmts)), make([][]string, len(stmts))
	err := forEach(ctx, len(stmts), workers, func(i int) error {
		err := f.planAt(stmts[i], &t, func(plan *optimizer.Plan, h *held) {
			costs[i], used[i] = plan.TotalCost, h.UsedKeys(plan)
		})
		if err != nil {
			return &JobError{Index: i, Err: err}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return costs, used, nil
}

// planAt plans stmt on a pooled session moved to t (unless it holds t)
// and hands plan and session to read before the session is returned.
// The pricing histogram times the whole job, move and plan.
func (f *Full) planAt(stmt *sql.Select, t *Target, read func(*optimizer.Plan, *held)) error {
	start := time.Now()
	h := f.pool.get(t.Key, t.NestLoop)
	defer f.pool.put(h)
	if h.key != t.Key || h.NestLoop() != t.NestLoop {
		if _, _, err := h.Move(t.Design, t.NestLoop); err != nil {
			return fmt.Errorf("costlab: %w", err)
		}
		h.key = t.Key
	}
	f.calls.Add(1)
	plan, err := h.Session().Plan(stmt)
	observeFull(start)
	if err != nil {
		return err
	}
	read(plan, h)
	return nil
}

// SpecSizeBytes returns the Equation-1 size of a candidate index.
func (f *Full) SpecSizeBytes(spec inum.IndexSpec) (int64, error) {
	f.sizeMu.Lock()
	defer f.sizeMu.Unlock()
	return f.sizeSes.IndexSizeBytes(spec.Table, spec.Columns)
}

// PlanCalls reports full optimizer invocations so far. Safe to read
// while pricing is in flight.
func (f *Full) PlanCalls() int64 { return f.calls.Load() }

// Sessions reports how many pooled sessions have been created — the
// high-water mark of concurrent pricing.
func (f *Full) Sessions() int { return f.pool.sessions() }
