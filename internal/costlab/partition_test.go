package costlab_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/costlab"
	"repro/internal/design"
	"repro/internal/inum"
	"repro/internal/recommend"
	"repro/internal/sql"
)

// TestEvaluateDeltaPartitionedJobs: jobs carry whole designs. Under the
// atomic photoobj split, alone and together with off-photoobj indexes,
// EvaluateDelta on Full prices every job as PriceAll prices the
// statement rewritten onto the fragments; jobs without ids hit the keys
// a recommend.Evaluator stamped for the same design; a repeated batch
// is all hits and plans nothing; and INUM refuses a partitioned job.
func TestEvaluateDeltaPartitionedJobs(t *testing.T) {
	cat := seedCatalog(t, 50000)
	queries := seedQueries(t)
	ctx := context.Background()
	var offPhoto []inum.IndexSpec
	for _, spec := range recommend.IndexCandidates(cat, queries, recommend.CandidateOptions{}) {
		if spec.Table != "photoobj" {
			offPhoto = append(offPhoto, spec)
		}
	}
	split := []design.Partition{{Table: "photoobj", Fragments: recommend.AtomicFragments(cat.Table("photoobj"), queries)}}
	// The last two designs share one Config slice and differ only in
	// their partitions: they must not share a pooled session's design.
	designs := []design.Design{
		{Partitions: split},
		{Indexes: offPhoto[:4], Partitions: split},
		{Indexes: offPhoto[:4]},
	}

	var jobs []costlab.Job
	var want []float64
	for _, d := range designs {
		rw := design.Rewriter(cat, d)
		stmts := make([]*sql.Select, len(queries))
		for qi, q := range queries {
			stmts[qi] = q.Stmt
			if rw != nil {
				var err error
				if stmts[qi], err = rw.Rewrite(q.Stmt); err != nil {
					t.Fatal(err)
				}
			}
			jobs = append(jobs, costlab.Job{Stmt: q.Stmt, Config: d.Indexes, Partitions: d.Partitions})
		}
		costs, _, err := costlab.NewFull(cat).PriceAll(ctx, costlab.Target{Design: d, NestLoop: true}, stmts, 1)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, costs...)
	}

	full := costlab.NewFull(cat)
	memo := costlab.NewMemo()
	got, st, err := costlab.EvaluateDelta(ctx, full, jobs, memo, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("EvaluateDelta costs %v,\nPriceAll over rewritten statements %v", got, want)
	}
	if st.Misses == 0 || st.Misses+st.Hits+st.Coalesced != len(jobs) {
		t.Errorf("cold batch stats = %+v over %d jobs", st, len(jobs))
	}

	calls := full.PlanCalls()
	again, st, err := costlab.EvaluateDelta(ctx, full, jobs, memo, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != len(jobs) || st.Misses != 0 || full.PlanCalls() != calls {
		t.Errorf("repeated batch: %+v, %d plan calls, want %d hits and none", st, full.PlanCalls()-calls, len(jobs))
	}
	if !slices.Equal(again, want) {
		t.Errorf("repeated batch costs %v, want %v", again, want)
	}

	// An evaluator stamps ids on its jobs; a caller without them must
	// reach the same keys.
	stamped := costlab.NewMemo()
	ev, err := recommend.NewEvaluator(cat, queries, costlab.BackendFull, 1, stamped)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range designs[:2] {
		if _, err := ev.DesignCosts(ctx, d); err != nil {
			t.Fatal(err)
		}
		fresh := costlab.NewFull(cat)
		part := jobs[i*len(queries) : (i+1)*len(queries)]
		got, st, err := costlab.EvaluateDelta(ctx, fresh, part, stamped, 1)
		if err != nil {
			t.Fatal(err)
		}
		if st.Hits != len(part) || fresh.PlanCalls() != 0 {
			t.Errorf("design %d: jobs without ids: %+v, %d plan calls; want every evaluator key hit", i, st, fresh.PlanCalls())
		}
		if !slices.Equal(got, want[i*len(queries):(i+1)*len(queries)]) {
			t.Errorf("design %d: served costs differ from the priced ones", i)
		}
	}

	var je *costlab.JobError
	_, _, err = costlab.EvaluateDelta(ctx, costlab.NewINUM(cat), jobs[:1], costlab.NewMemo(), 1)
	if !errors.As(err, &je) || je.Index != 0 {
		t.Errorf("INUM on a partitioned job: err = %v, want a JobError at index 0", err)
	}
}

// TestEvaluateDeltaRewriteFailureNamesJob: a partitioning that leaves a
// column the statement reads uncovered fails the batch with a JobError
// naming the job that could not be rewritten.
func TestEvaluateDeltaRewriteFailureNamesJob(t *testing.T) {
	cat := seedCatalog(t, 50000)
	covered, err := sql.ParseSelect("SELECT objid FROM photoobj WHERE ra BETWEEN 10 AND 10.2")
	if err != nil {
		t.Fatal(err)
	}
	uncovered, err := sql.ParseSelect("SELECT objid FROM photoobj WHERE dec > 0")
	if err != nil {
		t.Fatal(err)
	}
	parts := []design.Partition{{Table: "photoobj", Fragments: [][]string{{"objid", "ra"}}}}
	jobs := []costlab.Job{
		{Stmt: covered, Partitions: parts},
		{Stmt: uncovered, Partitions: parts},
	}
	var je *costlab.JobError
	_, _, err = costlab.EvaluateDelta(context.Background(), costlab.NewFull(cat), jobs, costlab.NewMemo(), 1)
	if !errors.As(err, &je) || je.Index != 1 {
		t.Fatalf("err = %v, want a JobError at index 1", err)
	}
}
