package costlab

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sql"
)

// Job is one pricing unit of work: a statement under a configuration.
//
// StmtID and CfgID, when nonzero, carry the memo-interned identities
// of Stmt and Config (see Memo.InternStmt / Memo.InternConfig):
// EvaluateDelta then probes and fills the memo — and keys Full's held
// designs — without re-printing the SQL or re-canonicalizing the
// configuration. Interned ids are memo-specific — never stamp a job
// with ids from a different memo.
type Job struct {
	Stmt   *sql.Select
	Config Config
	StmtID uint32
	CfgID  uint32
}

// JobError reports which batch element failed. Callers unwrap it with
// errors.As to attribute a batch failure to a specific statement
// (Index is in the caller's job/statement order, even under grouped
// scheduling).
type JobError struct {
	Index int
	Err   error
}

func (e *JobError) Error() string { return fmt.Sprintf("costlab: job %d: %v", e.Index, e.Err) }
func (e *JobError) Unwrap() error { return e.Err }

// forEach fans fn(0..n-1) out over a worker pool. workers <= 0 means
// GOMAXPROCS. The first error (or a ctx cancellation) stops the
// fleet; remaining indices are abandoned.
func forEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	next.Store(-1)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				if err := fn(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// EvaluateAll prices every job through est on a worker pool and
// returns the costs in job order — results[i] always belongs to
// jobs[i], regardless of scheduling. workers <= 0 means GOMAXPROCS.
// The first estimation error (or a ctx cancellation) stops the fleet
// and is returned; remaining jobs are abandoned.
//
// Batch layout matters for the INUM backend: it shards its cache by
// statement, so statement-major runs of one query serialize on one
// shard mutex. Batches with that shape should go through
// EvaluateAllGrouped instead.
func EvaluateAll(ctx context.Context, est CostEstimator, jobs []Job, workers int) ([]float64, error) {
	return evaluateOrdered(ctx, est, jobs, nil, workers)
}

// EvaluateAllGrouped is EvaluateAll with shard-aware scheduling:
// group(i) identifies the statement of jobs[i], and workers claim
// jobs round-robin across groups, so adjacent claims carry different
// statements and the INUM backend's shard mutexes don't serialize the
// pool. Results (and error job indices) stay in the caller's order.
func EvaluateAllGrouped(ctx context.Context, est CostEstimator, jobs []Job, group func(i int) int, workers int) ([]float64, error) {
	return evaluateOrdered(ctx, est, jobs, InterleaveByStmt(len(jobs), group), workers)
}

func evaluateOrdered(ctx context.Context, est CostEstimator, jobs []Job, order []int, workers int) ([]float64, error) {
	results := make([]float64, len(jobs))
	err := forEach(ctx, len(jobs), workers, func(p int) error {
		i := p
		if order != nil {
			i = order[p]
		}
		cost, err := est.Cost(jobs[i].Stmt, jobs[i].Config)
		if err != nil {
			return &JobError{Index: i, Err: err}
		}
		results[i] = cost
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// InterleaveByStmt returns the schedule EvaluateAllGrouped runs:
// a permutation of 0..n-1 visiting job groups round-robin, where
// order[p] is the job index claimed at position p and group(i)
// identifies the statement of job i.
func InterleaveByStmt(n int, group func(i int) int) []int {
	byGroup := map[int][]int{}
	var groups []int
	for i := 0; i < n; i++ {
		g := group(i)
		if _, ok := byGroup[g]; !ok {
			groups = append(groups, g)
		}
		byGroup[g] = append(byGroup[g], i)
	}
	order := make([]int, 0, n)
	for k := 0; len(order) < n; k++ {
		for _, g := range groups {
			if k < len(byGroup[g]) {
				order = append(order, byGroup[g][k])
			}
		}
	}
	return order
}
