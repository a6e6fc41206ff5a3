package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/design"
	"repro/internal/intern"
	"repro/internal/inum"
	"repro/internal/session"
	"repro/internal/workload"
)

func testServer(t *testing.T, opts Options) (*httptest.Server, *Manager) {
	t.Helper()
	if opts.MaxSessions == 0 {
		opts.MaxSessions = 8
	}
	m := NewManager(testCatalog(t), testWorkload(), opts)
	ts := httptest.NewServer(m.Handler())
	t.Cleanup(ts.Close)
	return ts, m
}

// call issues one JSON request and decodes the response into out
// (skipped when out is nil), asserting the status code.
func call(t *testing.T, ts *httptest.Server, method, path string, body any, wantStatus int, out any) []byte {
	t.Helper()
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s = %d, want %d (body: %s)", method, path, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		// Zero the destination first: tests reuse response structs, and
		// omitempty fields absent from this response must not leak the
		// previous call's values through Unmarshal's merge semantics.
		rv := reflect.ValueOf(out).Elem()
		rv.Set(reflect.Zero(rv.Type()))
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, path, raw, err)
		}
	}
	return raw
}

// photoFragments splits photoobj into [ra,dec | every other column],
// a partitioning that covers any projection the workload needs.
func photoFragments(t *testing.T) [][]string {
	t.Helper()
	var rest []string
	for _, c := range testCatalog(t).Table("photoobj").Columns {
		switch c.Name {
		case "objid", "ra", "dec":
		default:
			rest = append(rest, c.Name)
		}
	}
	return [][]string{{"ra", "dec"}, rest}
}

func TestAPISessionLifecycle(t *testing.T) {
	ts, _ := testServer(t, Options{})

	var health HealthResponse
	call(t, ts, "GET", "/healthz", nil, http.StatusOK, &health)
	if !health.OK || health.Sessions != 0 {
		t.Errorf("health = %+v", health)
	}

	var info SessionInfo
	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "dba1"}, http.StatusCreated, &info)
	if info.Name != "dba1" || info.Queries != 6 || info.CanUndo || info.CanRedo {
		t.Errorf("created session info = %+v", info)
	}
	// Duplicate name → 409; capacity and not-found paths too.
	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "dba1"}, http.StatusConflict, nil)
	call(t, ts, "GET", "/sessions/nope", nil, http.StatusNotFound, nil)
	call(t, ts, "POST", "/sessions", map[string]any{"bogus": 1}, http.StatusBadRequest, nil)
	// Strict decoding: trailing data after the JSON value is a 400.
	if resp, err := ts.Client().Post(ts.URL+"/sessions", "application/json",
		strings.NewReader(`{"name":"x"}{"name":"y"}`)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("trailing-garbage body = %d, want 400", resp.StatusCode)
		}
	}

	// Edit: add an index, check the deterministic envelope.
	var edit EditResponse
	call(t, ts, "POST", "/sessions/dba1/indexes",
		inum.IndexSpec{Table: "photoobj", Columns: []string{"ra"}}, http.StatusOK, &edit)
	if len(edit.Design.Indexes) != 1 || edit.Design.Indexes[0].Key() != "photoobj(ra)" {
		t.Errorf("edit design = %+v", edit.Design)
	}
	if edit.NewCost >= edit.BaseCost || edit.Invalidated == 0 || !edit.CanUndo || edit.CanRedo {
		t.Errorf("edit envelope = %+v", edit)
	}
	// Duplicate edit → 409.
	call(t, ts, "POST", "/sessions/dba1/indexes",
		inum.IndexSpec{Table: "photoobj", Columns: []string{"ra"}}, http.StatusConflict, nil)
	// Unknown column → 400.
	call(t, ts, "POST", "/sessions/dba1/indexes",
		inum.IndexSpec{Table: "photoobj", Columns: []string{"no_such"}}, http.StatusBadRequest, nil)
	// An unknown table is a 400 whatever its name says.
	call(t, ts, "POST", "/sessions/dba1/indexes",
		inum.IndexSpec{Table: "nothing to undo", Columns: []string{"ra"}}, http.StatusBadRequest, nil)

	// Costs panel.
	var costs CostsResponse
	call(t, ts, "GET", "/sessions/dba1/costs", nil, http.StatusOK, &costs)
	if len(costs.Queries) != 6 || costs.NewCost != edit.NewCost || costs.Signature != edit.Signature {
		t.Errorf("costs = %+v vs edit %+v", costs, edit)
	}

	// Explain is plain text; out-of-range is 404.
	raw := call(t, ts, "GET", "/sessions/dba1/explain/1", nil, http.StatusOK, nil)
	if !strings.Contains(string(raw), "photoobj") {
		t.Errorf("explain body %q", raw)
	}
	call(t, ts, "GET", "/sessions/dba1/explain/99", nil, http.StatusNotFound, nil)
	call(t, ts, "GET", "/sessions/dba1/explain/xx", nil, http.StatusBadRequest, nil)

	// Partition round trip. The fragment set must cover every column
	// the workload touches, so split photoobj into [ra,dec | rest].
	call(t, ts, "POST", "/sessions/dba1/partitions",
		design.Partition{Table: "photoobj", Fragments: photoFragments(t)}, http.StatusOK, &edit)
	if len(edit.Design.Partitions) != 1 {
		t.Errorf("partition edit design = %+v", edit.Design)
	}
	call(t, ts, "DELETE", "/sessions/dba1/partitions/photoobj", nil, http.StatusOK, &edit)
	if len(edit.Design.Partitions) != 0 {
		t.Errorf("partition not dropped: %+v", edit.Design)
	}
	// Dropping what is not there is a state conflict, like undo/redo
	// on an empty stack.
	call(t, ts, "DELETE", "/sessions/dba1/partitions/photoobj", nil, http.StatusConflict, nil)
	call(t, ts, "DELETE", "/sessions/dba1/indexes?key=field(run)", nil, http.StatusConflict, nil)

	// Undo/redo walk: drop the index via ?key=, undo, redo.
	call(t, ts, "DELETE", "/sessions/dba1/indexes?key=photoobj(ra)", nil, http.StatusOK, &edit)
	if len(edit.Design.Indexes) != 0 {
		t.Errorf("index not dropped: %+v", edit.Design)
	}
	call(t, ts, "POST", "/sessions/dba1/undo", nil, http.StatusOK, &edit)
	if len(edit.Design.Indexes) != 1 || !edit.CanRedo {
		t.Errorf("undo envelope = %+v", edit)
	}
	call(t, ts, "POST", "/sessions/dba1/redo", nil, http.StatusOK, &edit)
	if len(edit.Design.Indexes) != 0 || edit.CanRedo {
		t.Errorf("redo envelope = %+v", edit)
	}
	// Redo stack exhausted → 409.
	call(t, ts, "POST", "/sessions/dba1/redo", nil, http.StatusConflict, nil)

	// Apply a whole design as JSON (the design.Design wire form).
	call(t, ts, "POST", "/sessions/dba1/design",
		design.Design{Partitions: []design.Partition{{Table: "photoobj", Fragments: photoFragments(t)}}},
		http.StatusOK, &edit)
	var d design.Design
	call(t, ts, "GET", "/sessions/dba1/design", nil, http.StatusOK, &d)
	if len(d.Partitions) != 1 || d.Partitions[0].Table != "photoobj" {
		t.Errorf("design round trip = %+v", d)
	}

	// Listing and teardown.
	var list ListResponse
	call(t, ts, "GET", "/sessions", nil, http.StatusOK, &list)
	if len(list.Sessions) != 1 || list.Sessions[0].Name != "dba1" {
		t.Errorf("list = %+v", list)
	}
	call(t, ts, "DELETE", "/sessions/dba1", nil, http.StatusNoContent, nil)
	call(t, ts, "DELETE", "/sessions/dba1", nil, http.StatusNotFound, nil)
}

// TestAPIExplainNamesLiveIndexesAfterRedo: a redo re-creates the index
// under a fresh what-if name while every cost comes from the memo; the
// explain must name the index the session holds now, and cost exactly
// one plan call.
func TestAPIExplainNamesLiveIndexesAfterRedo(t *testing.T) {
	ts, _ := testServer(t, Options{})
	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "dba1"}, http.StatusCreated, nil)
	call(t, ts, "POST", "/sessions/dba1/indexes", inum.IndexSpec{Table: "photoobj", Columns: []string{"ra"}}, http.StatusOK, nil)
	call(t, ts, "POST", "/sessions/dba1/undo", nil, http.StatusOK, nil)
	var edit EditResponse
	call(t, ts, "POST", "/sessions/dba1/redo", nil, http.StatusOK, &edit)
	if edit.Repriced != 0 {
		t.Fatalf("redo repriced %d queries, want 0 (memo)", edit.Repriced)
	}

	resp, err := ts.Client().Get(ts.URL + "/sessions/dba1/explain/1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain = %d: %s", resp.StatusCode, raw)
	}
	const live, stale = "<what-if>ix2_photoobj_ra", "<what-if>ix1_photoobj_ra"
	if !strings.Contains(string(raw), live) || strings.Contains(string(raw), stale) {
		t.Errorf("explain after redo does not name the live index %s:\n%s", live, raw)
	}
	if got := resp.Header.Get("X-Plan-Calls"); got != "1" {
		t.Errorf("explain X-Plan-Calls = %q, want 1", got)
	}
}

// TestAPISharedMemoAcrossTenants drives the shared-memo effect
// through the HTTP surface: tenant B repeats tenant A's edit and the
// stats endpoint must show zero optimizer calls; the costs responses
// must be byte-identical.
func TestAPISharedMemoAcrossTenants(t *testing.T) {
	ts, _ := testServer(t, Options{})
	ix := inum.IndexSpec{Table: "photoobj", Columns: []string{"ra"}}

	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "a"}, http.StatusCreated, nil)
	call(t, ts, "POST", "/sessions/a/indexes", ix, http.StatusOK, nil)
	costsA := call(t, ts, "GET", "/sessions/a/costs", nil, http.StatusOK, nil)

	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "b"}, http.StatusCreated, nil)
	call(t, ts, "POST", "/sessions/b/indexes", ix, http.StatusOK, nil)
	costsB := call(t, ts, "GET", "/sessions/b/costs", nil, http.StatusOK, nil)

	if !bytes.Equal(costsA, costsB) {
		t.Errorf("costs responses differ:\n a: %s\n b: %s", costsA, costsB)
	}
	var st session.Stats
	call(t, ts, "GET", "/sessions/b/stats", nil, http.StatusOK, &st)
	if st.PlanCalls != 0 {
		t.Errorf("tenant b consumed %d optimizer calls, want 0", st.PlanCalls)
	}
	if st.SharedHits == 0 {
		t.Error("tenant b reports no shared-memo hits")
	}
	var ms ManagerStats
	call(t, ts, "GET", "/stats", nil, http.StatusOK, &ms)
	if ms.Sessions != 2 || ms.Shared.Hits == 0 {
		t.Errorf("manager stats = %+v", ms)
	}
}

// TestAPIStatsConcurrencyCounters drives the singleflight and
// eviction counters through the HTTP surface: concurrent tenants
// repeating the same cold edit must record in-flight waits and
// coalesced plan calls, a capped memo under design churn must record
// evictions with every shard held at its cap, and all of it must be
// visible — and moving — in GET /stats.
func TestAPIStatsConcurrencyCounters(t *testing.T) {
	// One entry per state-tier shard: any two states hashing to the
	// same shard force an eviction.
	const memoCap = intern.DefaultShards
	ts, m := testServer(t, Options{MemoCap: memoCap})

	// The racing tenants get the full 30-query workload: a reprice
	// that prices 30 states is a wide enough window for the barrier
	// below to land the tenants inside each other's pricing.
	const tenants = 4
	for i := 0; i < tenants; i++ {
		call(t, ts, "POST", "/sessions", CreateSessionRequest{
			Name:     fmt.Sprintf("t%d", i),
			Workload: workload.Queries(),
		}, http.StatusCreated, nil)
	}

	var ms ManagerStats
	raw := call(t, ts, "GET", "/stats", nil, http.StatusOK, &ms)
	for _, key := range []string{"inflightWaits", "coalescedPlanCalls", "handovers", "evictions", "shardSizes", "dupStores", "sharedCostEvictions"} {
		if !bytes.Contains(raw, []byte(`"`+key+`"`)) {
			t.Errorf("GET /stats response lacks %q: %s", key, raw)
		}
	}
	base := ms.Shared

	// Every distinct one-, two-, and three-column index over the
	// gauntlet's columns: each round burns one, never repeating, so no
	// state is in the shared memo yet — all four tenants must go to it
	// for the same cold states.
	cols := []string{"ra", "dec", "run", "camcol", "field", "htmid"}
	var specs [][]string
	for _, a := range cols {
		specs = append(specs, []string{a})
		for _, b := range cols {
			if b == a {
				continue
			}
			specs = append(specs, []string{a, b})
			for _, c := range cols {
				if c != a && c != b {
					specs = append(specs, []string{a, b, c})
				}
			}
		}
	}

	// Each round releases all tenants from a barrier into the same
	// never-seen edit, so their reprices race on the µs scale and one
	// tenant's pricing is waited on by the rest. A round can still
	// lose the race, so retry with a fresh spec until every counter
	// has moved. (The HTTP surface is too coarse to line the races up
	// — request latency dwarfs the pricing window — hence m.Do here;
	// the endpoint's job is exposing the counters, asserted above and
	// below.)
	moved := func() bool {
		sh := m.Shared().Stats()
		return sh.InflightWaits > base.InflightWaits &&
			sh.CoalescedPlanCalls > base.CoalescedPlanCalls &&
			sh.Evictions > 0
	}
	for round := 0; round < len(specs) && !moved(); round++ {
		spec := inum.IndexSpec{Table: "photoobj", Columns: specs[round]}
		var ready atomic.Int32
		var wg sync.WaitGroup
		for i := 0; i < tenants; i++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				// Spin barrier: channel wake-up skew alone is wider than
				// the pricing window, so busy-wait until every racer is
				// on a CPU before diving in.
				for ready.Add(1); ready.Load() < tenants; {
				}
				if err := m.Do(name, func(s *session.DesignSession) error {
					_, err := s.AddIndex(spec)
					return err
				}); err != nil {
					t.Errorf("%s: add %v: %v", name, spec.Columns, err)
				}
			}(fmt.Sprintf("t%d", i))
		}
		wg.Wait()
	}

	call(t, ts, "GET", "/stats", nil, http.StatusOK, &ms)
	sh := ms.Shared
	if sh.InflightWaits <= base.InflightWaits || sh.CoalescedPlanCalls <= base.CoalescedPlanCalls {
		t.Errorf("singleflight counters never moved: before %+v, after %+v", base, sh)
	}
	if sh.Evictions == 0 {
		t.Errorf("capped memo churned %d stores without evicting: %+v", sh.Stores, sh)
	}
	capPerShard := (memoCap + intern.DefaultShards - 1) / intern.DefaultShards
	total := 0
	for i, n := range sh.ShardSizes {
		total += n
		if n > capPerShard {
			t.Errorf("shard %d holds %d states, cap is %d", i, n, capPerShard)
		}
	}
	if total != sh.States {
		t.Errorf("shard sizes sum to %d but States = %d", total, sh.States)
	}
}

func TestAPISuggestWarmStart(t *testing.T) {
	ts, _ := testServer(t, Options{})
	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "a"}, http.StatusCreated, nil)
	var sug SuggestResponse
	call(t, ts, "POST", "/sessions/a/suggest", SuggestRequest{BudgetMB: 64}, http.StatusOK, &sug)
	if len(sug.Indexes) == 0 || sug.Candidates == 0 {
		t.Errorf("suggestion = %+v", sug)
	}
	for _, ix := range sug.Indexes {
		if !strings.HasPrefix(ix.SQL, "CREATE INDEX") {
			t.Errorf("suggested SQL %q", ix.SQL)
		}
	}
	// The base pricing the session already did must warm-start the
	// advisor: at least one priced job reused.
	if sug.MemoHits == 0 {
		t.Error("suggest saw no memo warm start")
	}
	// Empty body is fine too (all defaults).
	call(t, ts, "POST", "/sessions/a/suggest", nil, http.StatusOK, &sug)
}

// TestAPISuggestBytesPinned: a scripted /suggest on the 30-query seed
// workload answers exactly the recorded bytes — a budgeted call after
// one index edit, then a default one.
func TestAPISuggestBytesPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/suggest_seed.golden")
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := testServer(t, Options{})
	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "seed", Workload: workload.Queries()}, http.StatusCreated, nil)
	call(t, ts, "POST", "/sessions/seed/indexes", inum.IndexSpec{Table: "photoobj", Columns: []string{"ra"}}, http.StatusOK, nil)
	got := call(t, ts, "POST", "/sessions/seed/suggest", SuggestRequest{BudgetMB: 16}, http.StatusOK, nil)
	got = append(got, call(t, ts, "POST", "/sessions/seed/suggest", nil, http.StatusOK, nil)...)
	if !bytes.Equal(got, want) {
		t.Errorf("suggest responses changed:\n got %s\nwant %s", got, want)
	}
}

func TestAPICapacityResponse(t *testing.T) {
	ts, m := testServer(t, Options{MaxSessions: 1})
	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "pinned"}, http.StatusCreated, nil)
	// Pin the only session so the next create cannot evict it.
	hold := make(chan struct{})
	entered := make(chan struct{})
	go m.Do("pinned", func(*session.DesignSession) error {
		close(entered)
		<-hold
		return nil
	})
	<-entered
	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "overflow"}, http.StatusServiceUnavailable, nil)
	close(hold)
}

func TestAPICustomWorkload(t *testing.T) {
	ts, _ := testServer(t, Options{})
	var info SessionInfo
	call(t, ts, "POST", "/sessions", CreateSessionRequest{
		Name:     "tiny",
		Workload: []string{"SELECT objid FROM photoobj WHERE ra BETWEEN 1 AND 2"},
	}, http.StatusCreated, &info)
	if info.Queries != 1 {
		t.Errorf("custom workload session has %d queries, want 1", info.Queries)
	}
	// A workload that fails to parse must 400 and leave nothing behind.
	call(t, ts, "POST", "/sessions", CreateSessionRequest{
		Name:     "broken",
		Workload: []string{"NOT SQL AT ALL"},
	}, http.StatusBadRequest, nil)
	call(t, ts, "GET", "/sessions/broken", nil, http.StatusNotFound, nil)
	var list ListResponse
	call(t, ts, "GET", "/sessions", nil, http.StatusOK, &list)
	if fmt.Sprint(len(list.Sessions)) != "1" {
		t.Errorf("list after failed create = %+v", list)
	}
}

// The pprof surface is opt-in: mounted only when Options.Pprof is
// set, so a default server exposes no profiling endpoints.
func TestAPIPprofGatedByOption(t *testing.T) {
	off, _ := testServer(t, Options{})
	resp, err := off.Client().Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof off: GET /debug/pprof/ = %d, want 404", resp.StatusCode)
	}

	on, _ := testServer(t, Options{Pprof: true})
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := on.Client().Get(on.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pprof on: GET %s = %d, want 200", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Fatalf("pprof on: GET %s returned empty body", path)
		}
	}
}
