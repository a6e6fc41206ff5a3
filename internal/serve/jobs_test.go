package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/design"
	"repro/internal/inum"
	"repro/internal/recommend"
	"repro/internal/session"
	"repro/internal/workload"
)

// pollJob polls a job until it leaves the running state (or the
// deadline passes) and returns its final status.
func pollJob(t *testing.T, ts *httptest.Server, session, id string) *RecommendJobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st RecommendJobStatus
		call(t, ts, "GET", "/sessions/"+session+"/recommend/"+id, nil, http.StatusOK, &st)
		if st.State != JobRunning {
			return &st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s still running after 30s", id)
	return nil
}

// TestRecommendJobLifecycle drives the async job API end to end:
// start returns 202 with an id immediately, polling reports anytime
// progress fields, the terminal state is non-error, and the result is
// a budget-capped best-so-far design with a monotone cost trace.
func TestRecommendJobLifecycle(t *testing.T) {
	ts, m := testServer(t, Options{})
	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "a"}, http.StatusCreated, nil)

	var started RecommendJobStatus
	call(t, ts, "POST", "/sessions/a/recommend",
		RecommendJobRequest{MaxEvaluations: 8}, http.StatusAccepted, &started)
	if started.ID == "" || started.Session != "a" {
		t.Fatalf("start response = %+v", started)
	}
	if started.Objects != "joint" || started.Strategy != "anytime" {
		t.Errorf("defaults = %s/%s, want joint/anytime", started.Objects, started.Strategy)
	}

	st := pollJob(t, ts, "a", started.ID)
	if st.State != JobDone {
		t.Fatalf("terminal state = %q (%s), want done", st.State, st.Error)
	}
	if st.Result == nil {
		t.Fatal("done job has no result")
	}
	if !st.Result.Truncated {
		t.Error("8-evaluation budget did not truncate the search")
	}
	if st.Evaluations > 8 {
		t.Errorf("evaluations %d exceed the budget", st.Evaluations)
	}
	if st.BaseCost <= 0 || st.BestCost <= 0 || st.BestCost > st.BaseCost {
		t.Errorf("progress costs: base %v best %v", st.BaseCost, st.BestCost)
	}
	trace := st.Result.CostTrace
	if len(trace) == 0 {
		t.Fatal("no cost trace")
	}
	for i := 1; i < len(trace); i++ {
		if trace[i] > trace[i-1]+1e-9 {
			t.Fatalf("cost trace not monotone: %v", trace)
		}
	}

	// The job shows up in the session's list and the manager stats.
	var list RecommendJobList
	call(t, ts, "GET", "/sessions/a/recommend", nil, http.StatusOK, &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != started.ID {
		t.Errorf("job list = %+v", list.Jobs)
	}
	if got := m.Stats().RecommendJobs; got != 1 {
		t.Errorf("stats report %d jobs, want 1", got)
	}

	// DELETE removes a finished job; a second DELETE is a 404.
	call(t, ts, "DELETE", "/sessions/a/recommend/"+started.ID, nil, http.StatusNoContent, nil)
	call(t, ts, "DELETE", "/sessions/a/recommend/"+started.ID, nil, http.StatusNotFound, nil)
	call(t, ts, "GET", "/sessions/a/recommend/"+started.ID, nil, http.StatusNotFound, nil)
}

// TestRecommendJobCancel: DELETE on a running job cancels its search
// context mid-flight (202 with the in-flight status) and the job lands
// in the cancelled state. The search is pinned in a blocking test
// strategy — registered through the pipeline's pluggable registry — so
// the cancel can never race a fast convergence.
func TestRecommendJobCancel(t *testing.T) {
	running := make(chan struct{})
	recommend.RegisterStrategy("serve-test-block", func(ctx context.Context, p *recommend.Problem) (*recommend.Outcome, error) {
		close(running)
		<-ctx.Done() // hold the search until the DELETE cancels it
		return nil, ctx.Err()
	})

	ts, _ := testServer(t, Options{})
	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "a"}, http.StatusCreated, nil)
	var started RecommendJobStatus
	call(t, ts, "POST", "/sessions/a/recommend",
		RecommendJobRequest{Strategy: "serve-test-block"}, http.StatusAccepted, &started)
	<-running

	var cancelled RecommendJobStatus
	call(t, ts, "DELETE", "/sessions/a/recommend/"+started.ID, nil, http.StatusAccepted, &cancelled)
	st := pollJob(t, ts, "a", started.ID)
	if st.State != JobCancelled {
		t.Fatalf("state after cancel = %q (%s), want cancelled", st.State, st.Error)
	}
	// A terminal job deletes cleanly.
	call(t, ts, "DELETE", "/sessions/a/recommend/"+started.ID, nil, http.StatusNoContent, nil)
}

// TestRecommendJobCancelAnytimeKeepsBest: cancelling a real anytime
// search returns its best-so-far design rather than discarding the
// work — the cancel is requested from the first progress checkpoint,
// so the outcome is deterministic regardless of machine speed.
func TestRecommendJobCancelAnytimeKeepsBest(t *testing.T) {
	ts, m := testServer(t, Options{})
	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "a"}, http.StatusCreated, nil)
	var started RecommendJobStatus
	call(t, ts, "POST", "/sessions/a/recommend",
		RecommendJobRequest{MaxEvaluations: 1 << 30}, http.StatusAccepted, &started)

	// Cancel as soon as the search reports its first completed round.
	// The search may converge before the cancel lands; both outcomes
	// are asserted below.
	deadline := time.Now().Add(30 * time.Second)
	var st *RecommendJobStatus
	for {
		var err error
		st, err = m.RecommendJob("a", started.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != JobRunning || st.Rounds >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("search never completed a round")
		}
	}
	if st.State == JobRunning {
		_, removed, err := m.DeleteRecommendJob("a", started.ID)
		if err != nil {
			t.Fatal(err)
		}
		if removed {
			// The search finished in the instant before the delete and
			// the terminal job was removed; nothing left to observe.
			return
		}
		st = pollJob(t, ts, "a", started.ID)
	}
	switch st.State {
	case JobCancelled:
		if st.Result == nil {
			t.Fatalf("cancelled anytime search lost its best-so-far design (%s)", st.Error)
		}
		if !st.Result.Truncated {
			t.Error("cancelled result not marked truncated")
		}
	case JobDone:
		// The search converged before the cancel landed — legal, and
		// the result must still be present.
		if st.Result == nil {
			t.Fatal("done job has no result")
		}
	default:
		t.Fatalf("state = %q (%s)", st.State, st.Error)
	}
}

// TestRecommendJobDegenerateWorkload: the satellite regression — a
// workload with no indexable predicates and no partitionable access
// pattern must come back as an empty recommendation (done, no error)
// through the job API.
func TestRecommendJobDegenerateWorkload(t *testing.T) {
	ts, _ := testServer(t, Options{})
	call(t, ts, "POST", "/sessions", CreateSessionRequest{
		Name:     "degen",
		Workload: []string{"SELECT * FROM photoobj"},
	}, http.StatusCreated, nil)

	var started RecommendJobStatus
	call(t, ts, "POST", "/sessions/degen/recommend", RecommendJobRequest{}, http.StatusAccepted, &started)
	st := pollJob(t, ts, "degen", started.ID)
	if st.State != JobDone {
		t.Fatalf("degenerate workload job state = %q (%s), want done", st.State, st.Error)
	}
	if len(st.Result.Indexes) != 0 || len(st.Result.Partitions) != 0 {
		t.Errorf("degenerate workload got a non-empty recommendation: %+v", st.Result)
	}
	if st.Result.Speedup != 1 {
		t.Errorf("degenerate speedup = %v, want 1", st.Result.Speedup)
	}
}

// TestRecommendJobErrors: the 404 surface.
func TestRecommendJobErrors(t *testing.T) {
	ts, _ := testServer(t, Options{})
	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "a"}, http.StatusCreated, nil)

	call(t, ts, "POST", "/sessions/nosuch/recommend", RecommendJobRequest{}, http.StatusNotFound, nil)
	call(t, ts, "GET", "/sessions/nosuch/recommend", nil, http.StatusNotFound, nil)
	call(t, ts, "GET", "/sessions/a/recommend/job-99", nil, http.StatusNotFound, nil)
	call(t, ts, "DELETE", "/sessions/a/recommend/job-99", nil, http.StatusNotFound, nil)
	// A malformed body is a 400, and so are bad search parameters —
	// rejected synchronously, not as a doomed "running" job.
	call(t, ts, "POST", "/sessions/a/recommend", map[string]any{"nosuchfield": 1}, http.StatusBadRequest, nil)
	call(t, ts, "POST", "/sessions/a/recommend",
		RecommendJobRequest{Objects: "bogus"}, http.StatusBadRequest, nil)
	call(t, ts, "POST", "/sessions/a/recommend",
		RecommendJobRequest{Strategy: "bogus"}, http.StatusBadRequest, nil)
	call(t, ts, "POST", "/sessions/a/recommend",
		RecommendJobRequest{Strategy: "ilp"}, http.StatusBadRequest, nil) // ilp is index-only; default objects is joint

	// A job belongs to its session: another session cannot see it.
	var started RecommendJobStatus
	call(t, ts, "POST", "/sessions/a/recommend",
		RecommendJobRequest{MaxEvaluations: 4}, http.StatusAccepted, &started)
	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "b"}, http.StatusCreated, nil)
	call(t, ts, "GET", "/sessions/b/recommend/"+started.ID, nil, http.StatusNotFound, nil)
	pollJob(t, ts, "a", started.ID)
}

// TestRecommendJobSurvivesSessionDrop: jobs snapshot the workload at
// start, so dropping (or evicting) the session does not disturb a
// running search.
func TestRecommendJobSurvivesSessionDrop(t *testing.T) {
	ts, _ := testServer(t, Options{})
	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "a"}, http.StatusCreated, nil)
	var started RecommendJobStatus
	call(t, ts, "POST", "/sessions/a/recommend",
		RecommendJobRequest{MaxEvaluations: 6}, http.StatusAccepted, &started)
	call(t, ts, "DELETE", "/sessions/a", nil, http.StatusNoContent, nil)

	st := pollJob(t, ts, "a", started.ID)
	if st.State != JobDone && st.State != JobCancelled {
		t.Fatalf("job state after session drop = %q (%s)", st.State, st.Error)
	}
	if st.State == JobDone && st.Result == nil {
		t.Error("done job lost its result")
	}
	// The list endpoint stays reachable too — it is the only way to
	// rediscover a job id after the session is gone.
	var list RecommendJobList
	call(t, ts, "GET", "/sessions/a/recommend", nil, http.StatusOK, &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != started.ID {
		t.Errorf("job list after session drop = %+v", list.Jobs)
	}
}

// TestRecommendJobSkipCounters: the lazy-sweep savings surface end to
// end — the job status and its result report evalsSkipped/jobsPruned
// moving from zero to positive over the job's life, /stats totals them
// manager-wide, and /metrics exports the matching counter families.
func TestRecommendJobSkipCounters(t *testing.T) {
	ts, m := testServer(t, Options{})
	// A multi-table workload: footprint pruning only has something to
	// skip when some candidates live on tables a round's winner does
	// not touch (the all-photoobj default would stale everything).
	all := workload.Queries()
	mix := append(append([]string{}, all[:6]...), all[15], all[17], all[18], all[21])
	call(t, ts, "POST", "/sessions",
		CreateSessionRequest{Name: "a", Workload: mix}, http.StatusCreated, nil)

	var started RecommendJobStatus
	raw := call(t, ts, "POST", "/sessions/a/recommend",
		RecommendJobRequest{Objects: "indexes", Strategy: "greedy"}, http.StatusAccepted, &started)
	// The fields are on the wire from the first status, before any
	// sweep has run.
	for _, key := range []string{`"evalsSkipped"`, `"jobsPruned"`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("start status lacks %s: %s", key, raw)
		}
	}
	if started.EvalsSkipped != 0 || started.JobsPruned != 0 {
		t.Errorf("fresh job already reports savings: skipped %d, pruned %d",
			started.EvalsSkipped, started.JobsPruned)
	}

	st := pollJob(t, ts, "a", started.ID)
	if st.State != JobDone {
		t.Fatalf("job state = %q (%s), want done", st.State, st.Error)
	}
	// ...and they moved: the greedy search's later rounds reuse cached
	// gains (evals skipped) and patch only footprint-intersecting
	// queries (jobs pruned).
	if st.EvalsSkipped <= 0 || st.JobsPruned <= 0 {
		t.Errorf("terminal status shows no savings: skipped %d, pruned %d",
			st.EvalsSkipped, st.JobsPruned)
	}
	if st.Result.EvalsSkipped != st.EvalsSkipped || st.Result.JobsPruned != st.JobsPruned {
		t.Errorf("result (%d/%d) and status (%d/%d) disagree",
			st.Result.EvalsSkipped, st.Result.JobsPruned, st.EvalsSkipped, st.JobsPruned)
	}

	// Manager-wide: /stats totals the savings across jobs...
	var ms ManagerStats
	raw = call(t, ts, "GET", "/stats", nil, http.StatusOK, &ms)
	for _, key := range []string{`"recommendEvalsSkipped"`, `"recommendJobsPruned"`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("GET /stats response lacks %s: %s", key, raw)
		}
	}
	if ms.RecommendEvalsSkipped != st.EvalsSkipped || ms.RecommendJobsPruned != st.JobsPruned {
		t.Errorf("/stats totals (%d/%d) != the only job's savings (%d/%d)",
			ms.RecommendEvalsSkipped, ms.RecommendJobsPruned, st.EvalsSkipped, st.JobsPruned)
	}

	// ...and /metrics exports the same totals as counters.
	samples := scrape(t, ts)
	if got := samples["parinda_recommend_evals_skipped_total"]; got != float64(st.EvalsSkipped) {
		t.Errorf("parinda_recommend_evals_skipped_total = %v, want %d", got, st.EvalsSkipped)
	}
	if got := samples["parinda_recommend_jobs_pruned_total"]; got != float64(st.JobsPruned) {
		t.Errorf("parinda_recommend_jobs_pruned_total = %v, want %d", got, st.JobsPruned)
	}

	// A second job accumulates on top rather than resetting.
	var second RecommendJobStatus
	call(t, ts, "POST", "/sessions/a/recommend",
		RecommendJobRequest{Objects: "indexes", Strategy: "greedy"}, http.StatusAccepted, &second)
	st2 := pollJob(t, ts, "a", second.ID)
	if st2.State != JobDone {
		t.Fatalf("second job state = %q (%s)", st2.State, st2.Error)
	}
	if got := m.Stats().RecommendEvalsSkipped; got != st.EvalsSkipped+st2.EvalsSkipped {
		t.Errorf("manager total %d after two jobs, want %d+%d",
			got, st.EvalsSkipped, st2.EvalsSkipped)
	}
}

// TestRecommendJobWarmStart: a second job over the same workload is
// served largely from the shared memo the first job (and the
// sessions) filled — the cross-tenant pooling the serve layer exists
// for, now extended to background searches.
func TestRecommendJobWarmStart(t *testing.T) {
	ts, _ := testServer(t, Options{})
	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "a"}, http.StatusCreated, nil)

	run := func() *RecommendJobStatus {
		var started RecommendJobStatus
		call(t, ts, "POST", "/sessions/a/recommend",
			RecommendJobRequest{Objects: "indexes", Strategy: "greedy"}, http.StatusAccepted, &started)
		return pollJob(t, ts, "a", started.ID)
	}
	first := run()
	if first.State != JobDone {
		t.Fatalf("first job: %q (%s)", first.State, first.Error)
	}
	second := run()
	if second.State != JobDone {
		t.Fatalf("second job: %q (%s)", second.State, second.Error)
	}
	if second.Result.MemoHits == 0 {
		t.Error("second job saw no shared-memo warm start")
	}
	if fmt.Sprint(second.Result.Indexes) != fmt.Sprint(first.Result.Indexes) {
		t.Errorf("warm-started job diverged:\n first  %v\n second %v",
			first.Result.Indexes, second.Result.Indexes)
	}
}

// TestRecommendJobWarmStartsFromSessionStates: a recommend job on a
// tenant reads every state the tenant priced interactively through the
// cost tier — a partitioning, an index, and a design with nested loops
// off — so it plans only what nobody priced yet. The count is exact; a
// cost tier fed only by index-only, nested-loops-on designs, whose
// partition trials also kept the dead indexes of the table they split,
// paid 330 plan calls for the same script. The same job on a fresh
// tenant of a fresh server, with no edits to read, pays more.
func TestRecommendJobWarmStartsFromSessionStates(t *testing.T) {
	ts, m := testServer(t, Options{})
	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "dba"}, http.StatusCreated, nil)
	queries, err := recommend.ParseWorkload(testWorkload())
	if err != nil {
		t.Fatal(err)
	}
	split := design.Partition{Table: "photoobj", Fragments: recommend.AtomicFragments(m.cat.Table("photoobj"), queries)}
	if err := m.Do("dba", func(s *session.DesignSession) error {
		for _, edit := range []func() (*session.InteractiveReport, error){
			func() (*session.InteractiveReport, error) { return s.AddPartition(split) },
			func() (*session.InteractiveReport, error) { return s.DropPartition("photoobj") },
			func() (*session.InteractiveReport, error) {
				return s.AddIndex(inum.IndexSpec{Table: "photoobj", Columns: []string{"ra"}})
			},
			func() (*session.InteractiveReport, error) { return s.SetNestLoop(false) },
			func() (*session.InteractiveReport, error) {
				return s.AddIndex(inum.IndexSpec{Table: "photoobj", Columns: []string{"dec"}})
			},
		} {
			if _, err := edit(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	job := func(ts *httptest.Server, name string) int64 {
		t.Helper()
		var started RecommendJobStatus
		call(t, ts, "POST", "/sessions/"+name+"/recommend",
			RecommendJobRequest{Objects: "joint", Strategy: "greedy"}, http.StatusAccepted, &started)
		done := pollJob(t, ts, name, started.ID)
		if done.State != JobDone {
			t.Fatalf("job: %q (%s)", done.State, done.Error)
		}
		return done.Result.PlanCalls
	}
	warm := job(ts, "dba")
	if want := int64(99); warm != want {
		t.Errorf("warm-started job paid %d plan calls, want %d", warm, want)
	}

	cold, _ := testServer(t, Options{})
	call(t, cold, "POST", "/sessions", CreateSessionRequest{Name: "fresh"}, http.StatusCreated, nil)
	if got, want := job(cold, "fresh"), int64(117); got != want || got <= warm {
		t.Errorf("the job on a fresh tenant paid %d plan calls, want %d (more than the warm-started %d)", got, want, warm)
	}
}
