package serve

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/costlab"
	"repro/internal/recommend"
	"repro/internal/workload"
)

// TestSessionNameValidation: names that don't round-trip through a URL
// path segment must be rejected at create time with 400 — otherwise
// the per-session routes (ingest, window, jobs) would silently
// mis-route, or a crafted name could impersonate another session's
// path.
func TestSessionNameValidation(t *testing.T) {
	ts, _ := testServer(t, Options{})
	bad := []string{
		"a/b",       // extra path segment: routes to a different session
		"a%2Fb",     // percent-encoding: decodes into a different name
		"100%",      // bare percent
		"a b",       // whitespace needs escaping
		"q?x=1",     // query-string injection
		"frag#ment", // fragment
		"new\nline", // control characters
		".",         // collapsed by URL path cleaning onto the parent route
		"..",        // ditto, one level further up
		"",          // empty
	}
	for _, name := range bad {
		var er ErrorResponse
		call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: name}, http.StatusBadRequest, &er)
		if er.Error == "" {
			t.Errorf("name %q: empty error body", name)
		}
	}
	// Names that ARE clean path segments still work, including the
	// RFC 3986 unreserved punctuation.
	for _, name := range []string{"tenant-1", "a.b_c~d", "UPPER", "s1"} {
		call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: name}, http.StatusCreated, nil)
	}
}

func TestIngestAndWindowHandlers(t *testing.T) {
	ts, _ := testServer(t, Options{})
	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "s"}, http.StatusCreated, nil)

	// Unknown session and empty requests.
	call(t, ts, "POST", "/sessions/nosuch/ingest", IngestRequest{SQL: testWorkload()[0]}, http.StatusNotFound, nil)
	call(t, ts, "GET", "/sessions/nosuch/window", nil, http.StatusNotFound, nil)
	call(t, ts, "POST", "/sessions/s/ingest", IngestRequest{}, http.StatusBadRequest, nil)
	// An all-malformed batch is a 400, not a silent no-op.
	call(t, ts, "POST", "/sessions/s/ingest", IngestRequest{SQL: "DROP TABLE photoobj"}, http.StatusBadRequest, nil)

	// Single + batch ingest; malformed statements in a mixed batch are
	// counted, not fatal.
	var ir IngestResponse
	call(t, ts, "POST", "/sessions/s/ingest", IngestRequest{SQL: testWorkload()[0]}, http.StatusOK, &ir)
	if ir.Accepted != 1 || ir.Window.Distinct != 1 {
		t.Fatalf("single ingest = %+v", ir)
	}
	call(t, ts, "POST", "/sessions/s/ingest", IngestRequest{
		Queries: []string{testWorkload()[0], testWorkload()[1], "garbage"},
	}, http.StatusOK, &ir)
	if ir.Accepted != 2 || ir.Rejected != 1 {
		t.Fatalf("batch ingest = %+v", ir)
	}
	if ir.Window.Submissions != 3 || ir.Window.Distinct != 2 {
		t.Fatalf("window stats = %+v", ir.Window)
	}

	// The window endpoint: entries heaviest-first, drift ~0 while the
	// stream matches the session's tuned workload.
	var wr WindowResponse
	call(t, ts, "GET", "/sessions/s/window", nil, http.StatusOK, &wr)
	if len(wr.Entries) != 2 {
		t.Fatalf("entries = %+v", wr.Entries)
	}
	if wr.Entries[0].Count != 2 {
		t.Fatalf("heaviest entry first: %+v", wr.Entries)
	}
	if wr.Drift >= 0.5 {
		t.Fatalf("stream matches the workload but drift = %v", wr.Drift)
	}

	// Drift the stream onto tables the session was not tuned for.
	all := workload.Queries()
	call(t, ts, "POST", "/sessions/s/ingest", IngestRequest{
		Queries: []string{all[15], all[17], all[15], all[17], all[15], all[17]},
	}, http.StatusOK, &ir)
	var drifted WindowResponse
	call(t, ts, "GET", "/sessions/s/window", nil, http.StatusOK, &drifted)
	if drifted.Drift <= wr.Drift {
		t.Fatalf("drift did not grow: %v -> %v", wr.Drift, drifted.Drift)
	}
}

// TestContinuousTuningEndToEnd is the acceptance test: ingest a
// drifting query stream over HTTP, observe the drift detector fire,
// and verify the re-tuned design prices lower on the new window than
// the stale design — with fewer optimizer calls than a cold recommend
// run, thanks to the shared memo.
func TestContinuousTuningEndToEnd(t *testing.T) {
	ts, m := testServer(t, Options{})
	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "live"}, http.StatusCreated, nil)

	// Start the continuous tuner: check every 10ms, finish after the
	// first retune so the test has a terminal state to wait for.
	var st RecommendJobStatus
	call(t, ts, "POST", "/sessions/live/recommend", RecommendJobRequest{
		Continuous:     true,
		Objects:        recommend.ObjectsIndexes,
		IntervalMillis: 10,
		MaxRetunes:     1,
	}, http.StatusAccepted, &st)
	if !st.Continuous || st.State != JobRunning {
		t.Fatalf("job = %+v", st)
	}

	// Stream drifting traffic: mostly specobj queries the session was
	// never tuned for, plus one original query (whose pricing the
	// shared memo already holds — the warm start the cold run lacks).
	all := workload.Queries()
	stream := []string{all[15], all[17], all[15], all[17], all[15], all[17], testWorkload()[0]}
	call(t, ts, "POST", "/sessions/live/ingest", IngestRequest{Queries: stream}, http.StatusOK, nil)

	fin := pollJob(t, ts, "live", st.ID)
	if fin.State != JobDone {
		t.Fatalf("job state = %q (error %q), want done", fin.State, fin.Error)
	}
	if fin.Retunes != 1 || fin.Result == nil {
		t.Fatalf("job = %+v", fin)
	}
	// The drift detector fired past the default threshold.
	if fin.Result.Drift < 0.25 {
		t.Fatalf("retune drift = %v, want >= default threshold", fin.Result.Drift)
	}
	// The re-tuned design prices lower on the new window than the
	// stale design (here: the untuned base).
	if fin.BaseCost != fin.Result.StaleCost {
		t.Fatalf("status base %v != stale cost %v", fin.BaseCost, fin.Result.StaleCost)
	}
	if fin.BestCost >= fin.Result.StaleCost {
		t.Fatalf("retuned design does not price lower: best %v vs stale %v",
			fin.BestCost, fin.Result.StaleCost)
	}
	if len(fin.Result.Indexes) == 0 {
		t.Fatalf("retune recommended nothing: %+v", fin.Result)
	}

	// Cold run over the same window (weights from the live window are
	// a uniform decay-scale of the retune snapshot's, and the search is
	// scale-invariant): without the shared memo it must consume MORE
	// optimizer calls than the warm retune did.
	var wr WindowResponse
	call(t, ts, "GET", "/sessions/live/window", nil, http.StatusOK, &wr)
	if wr.Drift < 0.25 {
		t.Fatalf("window drift = %v, want the drift the retune fired on", wr.Drift)
	}
	var queries []recommend.Query
	for _, e := range wr.Entries {
		qs, err := recommend.ParseWorkload([]string{e.SQL})
		if err != nil {
			t.Fatal(err)
		}
		qs[0].Weight = e.Weight
		queries = append(queries, qs[0])
	}
	cold, err := recommend.Recommend(context.Background(), testCatalog(t), queries, recommend.Options{
		Objects:  recommend.ObjectsIndexes,
		Strategy: recommend.StrategyAnytime,
		Backend:  costlab.BackendFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fin.PlanCalls >= cold.PlanCalls {
		t.Fatalf("warm retune consumed %d optimizer calls, cold run %d — the shared memo saved nothing",
			fin.PlanCalls, cold.PlanCalls)
	}
	_ = m
}

// TestContinuousJobCancel: a continuous job with no retune cap runs
// until DELETE cancels it; the registry then removes it like any other
// terminal job.
func TestContinuousJobCancel(t *testing.T) {
	ts, _ := testServer(t, Options{})
	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "c"}, http.StatusCreated, nil)
	var st RecommendJobStatus
	call(t, ts, "POST", "/sessions/c/recommend", RecommendJobRequest{
		Continuous:     true,
		Objects:        recommend.ObjectsIndexes,
		IntervalMillis: 5,
	}, http.StatusAccepted, &st)

	// Give the loop a few ticks (no drift, so it just watches).
	time.Sleep(30 * time.Millisecond)
	var cur RecommendJobStatus
	call(t, ts, "GET", "/sessions/c/recommend/"+st.ID, nil, http.StatusOK, &cur)
	if cur.State != JobRunning {
		t.Fatalf("undriven continuous job state = %q, want running", cur.State)
	}

	call(t, ts, "DELETE", "/sessions/c/recommend/"+st.ID, nil, http.StatusAccepted, nil)
	fin := pollJob(t, ts, "c", st.ID)
	if fin.State != JobCancelled {
		t.Fatalf("state after cancel = %q", fin.State)
	}
	call(t, ts, "DELETE", "/sessions/c/recommend/"+st.ID, nil, http.StatusNoContent, nil)
}

// TestWindowAcquireBlocksEviction: an in-flight ingest batch holds the
// tenant's inflight handshake, so capacity-pressure LRU eviction can
// never detach the window mid-batch and silently swallow acknowledged
// queries; releasing makes the tenant evictable again.
func TestWindowAcquireBlocksEviction(t *testing.T) {
	m := NewManager(testCatalog(t), testWorkload(), Options{MaxSessions: 1})
	if err := m.Create("a", nil, 0); err != nil {
		t.Fatal(err)
	}
	win, release, err := m.WindowAcquire("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Create("b", nil, 0); !strings.Contains(fmt.Sprint(err), "capacity") {
		t.Fatalf("create over an acquired tenant = %v, want ErrCapacity", err)
	}
	if err := win.Ingest(testWorkload()[0]); err != nil {
		t.Fatal(err)
	}
	release()
	if err := m.Create("b", nil, 0); err != nil {
		t.Fatalf("create after release: %v (tenant should be evictable again)", err)
	}
}

// TestContinuousJobFollowsRecreatedSession: the tuner re-resolves the
// session's window every tick, so a drop + re-create under the same
// name retargets the job onto the fresh window instead of leaving it
// watching a detached one forever; a session that stays gone ends the
// job.
func TestContinuousJobFollowsRecreatedSession(t *testing.T) {
	ts, _ := testServer(t, Options{})
	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "r"}, http.StatusCreated, nil)
	var st RecommendJobStatus
	call(t, ts, "POST", "/sessions/r/recommend", RecommendJobRequest{
		Continuous:     true,
		Objects:        recommend.ObjectsIndexes,
		IntervalMillis: 100, // first tick lands well after the drop+recreate below
		MaxRetunes:     1,
	}, http.StatusAccepted, &st)

	// Drop and immediately re-create: the job must follow the NEW
	// window, so traffic ingested into it still triggers the retune.
	call(t, ts, "DELETE", "/sessions/r", nil, http.StatusNoContent, nil)
	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "r"}, http.StatusCreated, nil)
	all := workload.Queries()
	call(t, ts, "POST", "/sessions/r/ingest", IngestRequest{
		Queries: []string{all[15], all[17], all[15], all[17]},
	}, http.StatusOK, nil)

	fin := pollJob(t, ts, "r", st.ID)
	if fin.State != JobDone || fin.Retunes != 1 {
		t.Fatalf("job after recreate = state %q, retunes %d (error %q), want done/1",
			fin.State, fin.Retunes, fin.Error)
	}

	// A session that stays gone ends its continuous job.
	var st2 RecommendJobStatus
	call(t, ts, "POST", "/sessions/r/recommend", RecommendJobRequest{
		Continuous:     true,
		Objects:        recommend.ObjectsIndexes,
		IntervalMillis: 5,
	}, http.StatusAccepted, &st2)
	call(t, ts, "DELETE", "/sessions/r", nil, http.StatusNoContent, nil)
	fin2 := pollJob(t, ts, "r", st2.ID)
	if fin2.State != JobCancelled || !strings.Contains(fin2.Error, "dropped or evicted") {
		t.Fatalf("job after permanent drop = state %q, error %q", fin2.State, fin2.Error)
	}
}

// TestContinuousJobRequiresSession: starting a continuous tuner on a
// missing session 404s before a job slot is consumed.
func TestContinuousJobRequiresSession(t *testing.T) {
	ts, m := testServer(t, Options{})
	call(t, ts, "POST", "/sessions/nosuch/recommend", RecommendJobRequest{Continuous: true},
		http.StatusNotFound, nil)
	if n := m.Stats().RecommendJobs; n != 0 {
		t.Fatalf("job registry holds %d jobs after a failed start", n)
	}
}
