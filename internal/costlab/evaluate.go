package costlab

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/design"
	"repro/internal/sql"
)

// Job is one pricing unit of work: a statement under a design, whose
// indexes are Config and whose vertical partitionings are Partitions.
// A partitioned job plans its statement rewritten onto the fragments,
// which only the full optimizer can price.
//
// StmtID and DesignID, when nonzero, carry the memo-interned
// identities of Stmt and of the design as Stmt sees it (see
// Memo.InternStmt / Memo.InternDesign): EvaluateDelta then probes and
// fills the memo without re-printing the SQL or re-projecting the
// design. Interned ids are memo-specific — never stamp a job with ids
// from a different memo.
type Job struct {
	Stmt       *sql.Select
	Config     Config
	Partitions []design.Partition
	StmtID     uint32
	DesignID   uint32
}

// design is the job's whole design.
func (j Job) design() design.Design {
	return design.Design{Indexes: j.Config, Partitions: j.Partitions}
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

// minPerWorker is the least number of items that pays for one more
// worker. Each worker past the first costs a goroutine, the wake of an
// idle processor and, under the Full pricer, one more pooled session
// moved to the batch's design, while a plan costs a few microseconds:
// on a 2-vCPU host the joint advisor's 65-statement batches ran faster
// on one worker than split over two, and their wall varied about half
// as much from run to run.
const minPerWorker = 128

// forEach fans fn(0..n-1) out over up to workers workers, one per
// minPerWorker items, the calling goroutine being the first of them.
// workers <= 0 means GOMAXPROCS. The first error (or a ctx
// cancellation) stops the fleet; remaining indices are abandoned.
func forEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if most := (n + minPerWorker - 1) / minPerWorker; workers > most {
		workers = most
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
	work := func() {
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
	}
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
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
// shard mutex. EvaluateDelta schedules around that; a caller of
// EvaluateAll lays its batch out with InterleaveByStmt.
func EvaluateAll(ctx context.Context, est CostEstimator, jobs []Job, workers int) ([]float64, error) {
	results := make([]float64, len(jobs))
	err := forEach(ctx, len(jobs), workers, func(i int) error {
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

// InterleaveByStmt returns a shard-friendly schedule: a permutation of
// 0..n-1 visiting job groups round-robin, where order[p] is the job
// index claimed at position p and group(i) identifies the statement of
// job i, so adjacent claims carry different statements.
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
