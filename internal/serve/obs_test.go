package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/inum"
	"repro/internal/obs"
)

// scrape fetches /metrics and parses the Prometheus text exposition,
// validating its shape as it goes: every sample belongs to a family
// declared by # TYPE, values parse as floats, and histogram bucket
// series are cumulative. Samples come back keyed by the full series
// line prefix, e.g. `parinda_sessions` or
// `parinda_flight_leads_total{tier="states"}`.
func scrape(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("content type = %q, want %q", ct, obs.ContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseProm(t, string(raw))
}

func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	types := map[string]string{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch fields[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln+1, fields[3])
			}
			types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value: %q", ln+1, line)
		}
		series, valText := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valText, 64)
		if err != nil && valText != "+Inf" {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valText, err)
		}
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := types[family]; !ok {
			// _sum/_count only strip for histograms; counters may
			// legitimately end in _total with their own TYPE line.
			if _, ok := types[name]; !ok {
				t.Fatalf("line %d: sample %q precedes its # TYPE", ln+1, series)
			}
		}
		if _, dup := samples[series]; dup {
			t.Fatalf("line %d: duplicate series %q", ln+1, series)
		}
		samples[series] = val
	}
	// Histogram buckets must be cumulative and end at the _count.
	for fam, kind := range types {
		if kind != "histogram" {
			continue
		}
		var buckets []string
		for series := range samples {
			if strings.HasPrefix(series, fam+"_bucket{") {
				buckets = append(buckets, series)
			}
		}
		sort.Slice(buckets, func(i, k int) bool { return samples[buckets[i]] < samples[buckets[k]] })
		prev := 0.0
		for _, b := range buckets {
			if samples[b] < prev {
				t.Fatalf("histogram %s bucket %q not cumulative", fam, b)
			}
			prev = samples[b]
		}
		if count, ok := samples[fam+"_count"]; ok && len(buckets) > 0 && prev != count {
			t.Fatalf("histogram %s: largest bucket %v != count %v", fam, prev, count)
		}
	}
	return samples
}

// sumSeries adds up every sample of one family (all label combos).
func sumSeries(samples map[string]float64, family string) float64 {
	total := 0.0
	for series, v := range samples {
		if series == family || strings.HasPrefix(series, family+"{") {
			total += v
		}
	}
	return total
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := testServer(t, Options{})
	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "m1"}, http.StatusCreated, nil)
	call(t, ts, "POST", "/sessions/m1/indexes",
		inum.IndexSpec{Table: "photoobj", Columns: []string{"ra"}}, http.StatusOK, nil)
	call(t, ts, "POST", "/sessions/m1/ingest", IngestRequest{SQL: testWorkload()[0]}, http.StatusOK, nil)

	samples := scrape(t, ts)

	// One family per subsystem: HTTP, sessions, shared memo, flight,
	// ingest, costlab. Presence plus a sane value each.
	if got := sumSeries(samples, "parinda_http_requests_total"); got < 3 {
		t.Errorf("http requests total = %v, want >= 3", got)
	}
	if got := samples["parinda_sessions"]; got != 1 {
		t.Errorf("parinda_sessions = %v, want 1", got)
	}
	if got := samples["parinda_shared_memo_misses_total"]; got <= 0 {
		t.Errorf("shared memo misses = %v, want > 0", got)
	}
	if _, ok := samples[`parinda_flight_leads_total{tier="states"}`]; !ok {
		t.Errorf("missing flight leads series (states tier)")
	}
	if got := samples["parinda_ingest_accepted_total"]; got != 1 {
		t.Errorf("ingest accepted = %v, want 1", got)
	}
	if got := samples[`parinda_costlab_pricing_calls_total{backend="full"}`]; got <= 0 {
		t.Errorf("costlab full pricing calls = %v, want > 0", got)
	}
	// Per-tenant attribution: m1's create + edit issued plan calls.
	if got := samples[`parinda_tenant_plan_calls_total{tenant="m1"}`]; got <= 0 {
		t.Errorf("tenant plan calls = %v, want > 0", got)
	}
	// POST /sessions is not addressed to a session, so only the index
	// edit and the ingest count toward m1.
	if got := samples[`parinda_tenant_requests_total{tenant="m1"}`]; got != 2 {
		t.Errorf("tenant requests = %v, want 2", got)
	}
	// Latency histogram saw every request.
	if got := samples["parinda_http_request_seconds_count"]; got < 3 {
		t.Errorf("http latency count = %v, want >= 3", got)
	}
	// The scrape itself is the one request in flight while rendering.
	if got := samples["parinda_http_inflight_requests"]; got != 1 {
		t.Errorf("inflight during scrape = %v, want 1", got)
	}
}

func TestMetricsAgreesWithStats(t *testing.T) {
	ts, m := testServer(t, Options{})
	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "a"}, http.StatusCreated, nil)
	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "b"}, http.StatusCreated, nil)
	call(t, ts, "POST", "/sessions/a/indexes",
		inum.IndexSpec{Table: "photoobj", Columns: []string{"ra"}}, http.StatusOK, nil)
	call(t, ts, "POST", "/sessions/b/indexes",
		inum.IndexSpec{Table: "photoobj", Columns: []string{"ra"}}, http.StatusOK, nil)

	// No requests in flight: both renderings read the same counters.
	samples := scrape(t, ts)
	st := m.Stats()

	want := map[string]float64{
		"parinda_sessions":                              float64(st.Sessions),
		"parinda_sessions_created_total":                float64(st.Created),
		"parinda_shared_memo_hits_total":                float64(st.Shared.Hits),
		"parinda_shared_memo_misses_total":              float64(st.Shared.Misses),
		"parinda_shared_memo_stores_total":              float64(st.Shared.Stores),
		"parinda_shared_memo_dup_stores_total":          float64(st.Shared.DupStores),
		"parinda_shared_memo_states":                    float64(st.Shared.States),
		"parinda_shared_cost_entries":                   float64(st.SharedCostEntries),
		"parinda_recommend_jobs":                        float64(st.RecommendJobs),
		`parinda_flight_waits_total{tier="states"}`:     float64(st.Shared.InflightWaits),
		`parinda_flight_coalesced_total{tier="states"}`: float64(st.Shared.CoalescedPlanCalls),
		`parinda_flight_handovers_total{tier="states"}`: float64(st.Shared.Handovers),
	}
	for series, v := range want {
		if got, ok := samples[series]; !ok || got != v {
			t.Errorf("%s = %v (present=%v), /stats says %v", series, got, ok, v)
		}
	}
	// Cross-check a tenant shared hit actually happened (b's identical
	// edit rode a's published states), so the agreement above is not
	// vacuously zero-equals-zero.
	if st.Shared.Hits == 0 {
		t.Errorf("expected shared-memo hits after identical edits on two tenants")
	}
}

func TestMetricsConcurrentTenants(t *testing.T) {
	ts, _ := testServer(t, Options{})
	const tenants = 4
	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("t%d", i)
			do := func(method, path string, body any) error {
				var rd io.Reader
				if body != nil {
					blob, err := json.Marshal(body)
					if err != nil {
						return err
					}
					rd = bytes.NewReader(blob)
				}
				req, err := http.NewRequest(method, ts.URL+path, rd)
				if err != nil {
					return err
				}
				resp, err := ts.Client().Do(req)
				if err != nil {
					return err
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode >= 400 {
					return fmt.Errorf("%s %s = %d", method, path, resp.StatusCode)
				}
				if resp.Header.Get("X-Request-ID") == "" {
					return fmt.Errorf("%s %s: missing X-Request-ID", method, path)
				}
				return nil
			}
			if err := do("POST", "/sessions", CreateSessionRequest{Name: name}); err != nil {
				errs <- err
				return
			}
			if err := do("POST", "/sessions/"+name+"/indexes",
				inum.IndexSpec{Table: "photoobj", Columns: []string{"ra", "dec"}}); err != nil {
				errs <- err
				return
			}
			if err := do("POST", "/sessions/"+name+"/undo", nil); err != nil {
				errs <- err
				return
			}
			if err := do("POST", "/sessions/"+name+"/ingest",
				IngestRequest{SQL: testWorkload()[1]}); err != nil {
				errs <- err
				return
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	samples := scrape(t, ts)
	if got := sumSeries(samples, "parinda_http_requests_total"); got < 4*tenants {
		t.Errorf("requests total = %v, want >= %d", got, 4*tenants)
	}
	// Every tenant's requests are attributed by name; plan calls may
	// land on any subset of them (concurrent identical edits coalesce
	// onto whichever tenant led), so assert per-tenant requests and an
	// aggregate plan-call total instead.
	for i := 0; i < tenants; i++ {
		series := fmt.Sprintf(`parinda_tenant_requests_total{tenant="t%d"}`, i)
		if got := samples[series]; got != 3 {
			t.Errorf("%s = %v, want 3", series, got)
		}
	}
	if got := sumSeries(samples, "parinda_tenant_plan_calls_total"); got <= 0 {
		t.Errorf("aggregate tenant plan calls = %v, want > 0", got)
	}
	if got := samples["parinda_ingest_accepted_total"]; got != tenants {
		t.Errorf("ingest accepted = %v, want %d", got, tenants)
	}
	// The scrape itself is the one request in flight while rendering.
	if got := samples["parinda_http_inflight_requests"]; got != 1 {
		t.Errorf("inflight during scrape = %v, want 1", got)
	}
	// The race gauntlet's point: concurrent identical edits coalesce,
	// never duplicate.
	if got := samples["parinda_shared_memo_dup_stores_total"]; got != 0 {
		t.Errorf("dup stores = %v, want 0", got)
	}
}

func TestRequestHeaders(t *testing.T) {
	ts, _ := testServer(t, Options{})
	post := func(path string, body []byte) *http.Response {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	r1 := post("/sessions", []byte(`{"name":"h1"}`))
	if r1.StatusCode != http.StatusCreated {
		t.Fatalf("create = %d", r1.StatusCode)
	}
	id1 := r1.Header.Get("X-Request-ID")
	if id1 == "" {
		t.Fatal("missing X-Request-ID")
	}
	// Creation pricing is attributed to the creating request.
	pc, err := strconv.ParseInt(r1.Header.Get("X-Plan-Calls"), 10, 64)
	if err != nil || pc <= 0 {
		t.Errorf("X-Plan-Calls = %q, want a positive integer", r1.Header.Get("X-Plan-Calls"))
	}
	if _, err := strconv.ParseInt(r1.Header.Get("X-Wall-Micros"), 10, 64); err != nil {
		t.Errorf("X-Wall-Micros = %q: %v", r1.Header.Get("X-Wall-Micros"), err)
	}
	r2 := post("/sessions/h1/indexes", []byte(`{"table":"photoobj","columns":["ra"]}`))
	if id2 := r2.Header.Get("X-Request-ID"); id2 == "" || id2 == id1 {
		t.Errorf("second request id %q should differ from first %q", id2, id1)
	}
}

func TestJobRequestIDCorrelation(t *testing.T) {
	ts, _ := testServer(t, Options{})
	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "a"}, http.StatusCreated, nil)
	resp, err := ts.Client().Post(ts.URL+"/sessions/a/recommend", "application/json",
		strings.NewReader(`{"maxEvaluations":8}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("start = %d (%s)", resp.StatusCode, raw)
	}
	reqID := resp.Header.Get("X-Request-ID")
	var started RecommendJobStatus
	if err := json.Unmarshal(raw, &started); err != nil {
		t.Fatal(err)
	}
	if started.RequestID == "" || started.RequestID != reqID {
		t.Errorf("job requestId = %q, want starting request's %q", started.RequestID, reqID)
	}
	st := pollJob(t, ts, "a", started.ID)
	if st.RequestID != reqID {
		t.Errorf("terminal job requestId = %q, want %q", st.RequestID, reqID)
	}
}

func TestSlowRequestLog(t *testing.T) {
	var buf syncBuffer
	logger, err := obs.NewLogger(&buf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := testServer(t, Options{Logger: logger, SlowRequest: time.Nanosecond})
	call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "slow"}, http.StatusCreated, nil)

	out := buf.String()
	if !strings.Contains(out, `"msg":"slow request"`) {
		t.Fatalf("no slow-request log in:\n%s", out)
	}
	for _, key := range []string{`"requestId"`, `"route":"/sessions"`, `"planCalls"`, `"elapsedMs"`} {
		if !strings.Contains(out, key) {
			t.Errorf("slow log missing %s in:\n%s", key, out)
		}
	}
	if !strings.Contains(out, `"msg":"session created"`) {
		t.Errorf("no session-created lifecycle log in:\n%s", out)
	}

	samples := scrape(t, ts)
	if got := samples["parinda_http_slow_requests_total"]; got <= 0 {
		t.Errorf("slow request counter = %v, want > 0", got)
	}
}

func TestMetricsDisabled(t *testing.T) {
	ts, _ := testServer(t, Options{DisableMetrics: true})
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /metrics with -metrics=false = %d, want 404", resp.StatusCode)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer: the manager's logger is
// shared with background job goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
