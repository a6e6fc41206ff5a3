package costlab

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/inum"
	"repro/internal/optimizer"
	"repro/internal/sql"
	"repro/internal/whatif"
)

// Full prices statements with the complete cost-based optimizer — the
// accuracy baseline the INUM backend is compared against, and the
// engine behind the interactive what-if component. Sessions come from
// a pool, so Cost and Plan may be called from any number of
// goroutines concurrently.
type Full struct {
	pool  *sessionPool
	calls atomic.Int64 // optimizer invocations, readable mid-flight

	// sizing uses a dedicated session (never planned against) so
	// Equation-1 sizing can run while pricing is in flight.
	sizeMu  sync.Mutex
	sizeSes *whatif.Session
}

// NewFull returns a full-optimizer estimator over cat.
func NewFull(cat *catalog.Catalog) *Full {
	return NewFullWithSetup(cat, nil)
}

// NewFullWithSetup returns a full-optimizer estimator whose pooled
// sessions each run setup once after creation — the hook installs a
// fixed hypothetical design (design.Setup) that every subsequent
// Cost/Plan call prices under. Setup must be deterministic: each
// pooled session replays it independently.
func NewFullWithSetup(cat *catalog.Catalog, setup func(*whatif.Session) error) *Full {
	return &Full{
		pool:    newSessionPool(cat, setup),
		sizeSes: whatif.NewSession(cat),
	}
}

// Cost prices stmt under cfg with one full optimizer invocation.
func (f *Full) Cost(stmt *sql.Select, cfg Config) (float64, error) {
	plan, _, err := f.Plan(stmt, cfg)
	if err != nil {
		return 0, err
	}
	return plan.TotalCost, nil
}

// Plan optimizes stmt under cfg and returns the winning plan together
// with the session-generated names of the cfg indexes, aligned with
// cfg — callers map plan.IndexesUsed() back to candidate specs
// through them. The configuration indexes are created before planning
// and dropped afterwards, leaving any setup-installed design intact.
func (f *Full) Plan(stmt *sql.Select, cfg Config) (*optimizer.Plan, []string, error) {
	s, err := f.pool.get()
	if err != nil {
		return nil, nil, err
	}
	defer f.pool.put(s)

	names := make([]string, 0, len(cfg))
	drop := func() {
		for _, name := range names {
			// Removal of an index this call created cannot fail.
			_ = s.DropIndex(name)
		}
	}
	for _, spec := range cfg {
		ix, err := s.CreateIndex(spec.Table, spec.Columns)
		if err != nil {
			drop()
			return nil, nil, fmt.Errorf("costlab: %w", err)
		}
		names = append(names, ix.Name)
	}
	f.calls.Add(1)
	start := time.Now()
	plan, err := s.Plan(stmt)
	observeFull(start)
	drop()
	if err != nil {
		return nil, nil, err
	}
	return plan, names, nil
}

// PlanAll optimizes every statement under the setup-installed design
// (no per-call configuration) on the worker pool and returns the
// winning plans in statement order — the batch behind per-query
// advisor reports and interactive explains.
func (f *Full) PlanAll(ctx context.Context, stmts []*sql.Select, workers int) ([]*optimizer.Plan, error) {
	plans := make([]*optimizer.Plan, len(stmts))
	err := forEach(ctx, len(stmts), workers, func(i int) error {
		plan, _, err := f.Plan(stmts[i], nil)
		if err != nil {
			return &JobError{Index: i, Err: err}
		}
		plans[i] = plan
		return nil
	})
	if err != nil {
		return nil, err
	}
	return plans, nil
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
