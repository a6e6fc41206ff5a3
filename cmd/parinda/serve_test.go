package main

// End-to-end test of `parinda serve`: boot on an ephemeral port,
// drive the HTTP API (create a session, add an index, read costs),
// then deliver SIGINT and assert the graceful shutdown exits 0.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer lets the test read the serve goroutine's stdout safely.
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

func TestServeEndToEnd(t *testing.T) {
	var stdout, stderr syncBuffer
	exit := make(chan int, 1)
	// Restore the runtime profile rates the -pprof-* flags set.
	prevMutex := runtime.SetMutexProfileFraction(-1)
	defer runtime.SetMutexProfileFraction(prevMutex)
	defer runtime.SetBlockProfileRate(0)
	go func() {
		exit <- run([]string{"serve", "-addr", "127.0.0.1:0", "-scale", "50000", "-max-sessions", "4",
			"-log-level", "debug", "-log-format", "json", "-pprof-mutex-frac", "2", "-pprof-block-rate", "1000"},
			strings.NewReader(""), &stdout, &stderr)
	}()

	// The only way to learn the ephemeral port is the listening line.
	addrRE := regexp.MustCompile(`listening on (http://[0-9.:]+)`)
	var base string
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		if m := addrRE.FindStringSubmatch(stdout.String()); m != nil {
			base = m[1]
			break
		}
		select {
		case code := <-exit:
			t.Fatalf("serve exited %d before listening, stderr: %s", code, stderr.String())
		case <-time.After(20 * time.Millisecond):
		}
	}
	if base == "" {
		t.Fatalf("no listening line in %q", stdout.String())
	}

	post := func(path, body string, wantStatus int) []byte {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantStatus {
			t.Fatalf("POST %s = %d, want %d (%s)", path, resp.StatusCode, wantStatus, raw)
		}
		return raw
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// The -pprof-* flags reached the runtime before serving started.
	if got := runtime.SetMutexProfileFraction(-1); got != 2 {
		t.Errorf("mutex profile fraction = %d, want 2 (from -pprof-mutex-frac)", got)
	}

	post("/sessions", `{"name":"smoke"}`, http.StatusCreated)
	post("/sessions/smoke/indexes", `{"table":"photoobj","columns":["ra"]}`, http.StatusOK)

	// /metrics speaks Prometheus text and attributes smoke's plan calls.
	metResp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metRaw, _ := io.ReadAll(metResp.Body)
	metResp.Body.Close()
	if metResp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", metResp.StatusCode)
	}
	reqID := metResp.Header.Get("X-Request-ID")
	if reqID == "" {
		t.Error("GET /metrics response lacks X-Request-ID")
	}
	metrics := string(metRaw)
	for _, want := range []string{
		"# TYPE parinda_http_requests_total counter",
		"# TYPE parinda_http_request_seconds histogram",
		`parinda_tenant_plan_calls_total{tenant="smoke"}`,
		"parinda_sessions 1",
		`parinda_costlab_pricing_calls_total{backend="full"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	// The request counter moved, and smoke's plan calls are attributed.
	requests := 0.0
	for _, m := range regexp.MustCompile(`(?m)^parinda_http_requests_total\{.*\} (\S+)$`).FindAllStringSubmatch(metrics, -1) {
		n, _ := strconv.ParseFloat(m[1], 64)
		requests += n
	}
	if requests <= 0 {
		t.Errorf("parinda_http_requests_total sums to %v after the session work", requests)
	}
	if m := regexp.MustCompile(`(?m)^parinda_tenant_plan_calls_total\{tenant="smoke"\} (\S+)$`).FindStringSubmatch(metrics); m == nil || m[1] == "0" {
		t.Errorf("no plan calls attributed to smoke: %v", m)
	}
	// The debug access log (json) carries the request ids.
	if !strings.Contains(stderr.String(), `"requestId"`) {
		t.Errorf("no structured access log on stderr: %s", stderr.String())
	}

	costsResp, err := http.Get(base + "/sessions/smoke/costs")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(costsResp.Body)
	costsResp.Body.Close()
	if costsResp.StatusCode != http.StatusOK {
		t.Fatalf("costs = %d (%s)", costsResp.StatusCode, raw)
	}
	var costs struct {
		BaseCost float64 `json:"baseCost"`
		NewCost  float64 `json:"newCost"`
		Queries  []struct {
			IndexesUsed []string `json:"indexesUsed"`
		} `json:"queries"`
	}
	if err := json.Unmarshal(raw, &costs); err != nil {
		t.Fatalf("costs decode %q: %v", raw, err)
	}
	if costs.NewCost >= costs.BaseCost {
		t.Errorf("index brought no benefit: base %v, new %v", costs.BaseCost, costs.NewCost)
	}
	used := false
	for _, q := range costs.Queries {
		for _, k := range q.IndexesUsed {
			if k == "photoobj(ra)" {
				used = true
			}
		}
	}
	if !used {
		t.Errorf("no query uses photoobj(ra): %s", raw)
	}

	// Graceful shutdown: SIGINT (what ^C and the CI step deliver) must
	// drain and exit 0. signal.NotifyContext registered the handler,
	// so the test process survives the self-signal.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Errorf("serve exited %d after SIGINT, want 0 (stderr: %s)", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not exit after SIGINT")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still serving after shutdown")
	}
}
