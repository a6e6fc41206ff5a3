package obs

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "events", "kind", "a")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Get-or-create: the same (name, labels) returns the same cell.
	if again := r.Counter("test_events_total", "events", "kind", "a"); again != c {
		t.Fatalf("re-registration returned a different counter")
	}
	other := r.Counter("test_events_total", "events", "kind", "b")
	if other == c {
		t.Fatalf("distinct labels shared a counter")
	}
	other.Inc()

	g := r.Gauge("test_depth", "depth")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}

	v := int64(40)
	r.CounterFunc("test_view_total", "view", func() float64 { return float64(v) })
	v += 2
	text := r.Text()
	for _, want := range []string{
		"# TYPE test_events_total counter",
		`test_events_total{kind="a"} 5`,
		`test_events_total{kind="b"} 1`,
		"# TYPE test_depth gauge",
		"test_depth 1.5",
		"test_view_total 42",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("export missing %q:\n%s", want, text)
		}
	}
}

func TestNilRegistryAndHandlesNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "x")
	g := r.Gauge("x", "x")
	h := r.Histogram("x_seconds", "x")
	r.CounterFunc("y_total", "y", func() float64 { return 1 })
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(time.Millisecond)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatalf("nil handles recorded values")
	}
	if err := r.WriteText(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteText: %v", err)
	}
	var sp *Span
	sp.AddPlanCalls(3)
	if sp.PlanCalls() != 0 {
		t.Fatalf("nil span recorded")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "t")
	defer func() {
		if recover() == nil {
			t.Fatalf("gauge re-registration of a counter did not panic")
		}
	}()
	r.Gauge("test_total", "t")
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := newHistogram()
	// Bucket edges: 1µs lands in bucket 0, 1µs+1ns in bucket 1, 2µs in
	// bucket 1, 2µs+1ns in bucket 2.
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{2*time.Microsecond + 1, 2},
		{time.Millisecond, 10},
		{time.Hour, histBuckets}, // far past the last finite bound
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Fatalf("bucketOf(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	for i := 0; i < 90; i++ {
		h.Observe(time.Microsecond) // bucket 0
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if want := 90*time.Microsecond + time.Second; s.Sum != want {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
	if p50 := s.P50(); p50 > time.Microsecond {
		t.Fatalf("p50 = %v, want ≤ 1µs", p50)
	}
	// p95 and p99 must land inside the 100ms observation's bucket:
	// (64ms, 128ms].
	for _, q := range []time.Duration{s.P95(), s.P99()} {
		if q <= 64*time.Millisecond || q > 128*time.Millisecond {
			t.Fatalf("tail quantile %v outside (64ms, 128ms]", q)
		}
	}
	if s.Quantile(0) == 0 && s.Count > 0 {
		// q=0 with observations should still return a value in the
		// first occupied bucket (interpolated ≥ 0 is fine).
		_ = s
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram()
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != goroutines*per {
		t.Fatalf("count = %d, want %d", got, goroutines*per)
	}
}

func TestPrometheusTextShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_req_total", "requests", "route", `/x "quoted" \path`).Add(7)
	h := r.Histogram("test_lat_seconds", "latency", "backend", "full")
	h.Observe(3 * time.Microsecond)
	h.Observe(5 * time.Minute) // +Inf bucket
	text := r.Text()

	if !strings.Contains(text, `route="/x \"quoted\" \\path"`) {
		t.Fatalf("label value not escaped:\n%s", text)
	}
	if !strings.Contains(text, "# TYPE test_lat_seconds histogram") {
		t.Fatalf("missing histogram TYPE line:\n%s", text)
	}
	if !strings.Contains(text, `test_lat_seconds_bucket{backend="full",le="+Inf"} 2`) {
		t.Fatalf("missing +Inf bucket:\n%s", text)
	}
	if !strings.Contains(text, `test_lat_seconds_count{backend="full"} 2`) {
		t.Fatalf("missing _count:\n%s", text)
	}
	// The 3µs observation is cumulative in every bucket from 4e-06 up.
	if !strings.Contains(text, `test_lat_seconds_bucket{backend="full",le="4e-06"} 1`) {
		t.Fatalf("missing 4µs bucket:\n%s", text)
	}
	// Families are sorted by name: test_lat_seconds before
	// test_req_total.
	if strings.Index(text, "test_lat_seconds") > strings.Index(text, "test_req_total") {
		t.Fatalf("families not sorted:\n%s", text)
	}
}

func TestSpanContextRoundTrip(t *testing.T) {
	sp := NewSpan(NewRequestID(), "tenant-a", "POST /sessions/{name}/indexes")
	ctx := ContextWithSpan(context.Background(), sp)
	if got := SpanFromContext(ctx); got != sp {
		t.Fatalf("span did not round-trip through context")
	}
	if SpanFromContext(context.Background()) != nil {
		t.Fatalf("empty context produced a span")
	}
	sp.AddPlanCalls(2)
	sp.AddSharedHits(4)
	sp.AddLed(5)
	sp.AddCoalesced(6)
	if sp.PlanCalls() != 2 || sp.SharedHits() != 4 || sp.Led() != 5 || sp.Coalesced() != 6 {
		t.Fatalf("span counters lost values: %+v", sp)
	}
}

func TestRequestIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if seen[id] {
			t.Fatalf("duplicate request id %q", id)
		}
		seen[id] = true
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "warn", "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hidden")
	lg.Warn("shown", "requestId", "abc-1")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Fatalf("info leaked through warn level: %s", out)
	}
	if !strings.Contains(out, `"requestId":"abc-1"`) {
		t.Fatalf("json attrs missing: %s", out)
	}
	if _, err := NewLogger(&buf, "loud", "text"); err == nil {
		t.Fatalf("bad level accepted")
	}
	if _, err := NewLogger(&buf, "info", "xml"); err == nil {
		t.Fatalf("bad format accepted")
	}
	nop := NopLogger()
	if nop.Enabled(context.Background(), slog.LevelError) {
		t.Fatalf("nop logger claims to be enabled")
	}
	nop.Error("goes nowhere")
}
