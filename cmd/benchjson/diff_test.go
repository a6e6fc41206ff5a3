package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func report(benches map[string]Metrics) *Report { return &Report{Benchmarks: benches} }

func line(res *DiffResult, bench, metric string) (DiffLine, bool) {
	for _, l := range res.Lines {
		if l.Bench == bench && l.Metric == metric {
			return l, true
		}
	}
	return DiffLine{}, false
}

func TestParseBenchmemColumns(t *testing.T) {
	const out = "BenchmarkX-8 \t 100 \t 2000 ns/op \t 512 B/op \t 7 allocs/op \t 3.000 plancalls\n"
	rep, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Benchmarks["BenchmarkX-8"]
	if m.NsPerOp != 2000 || m.BytesPerOp != 512 || m.AllocsPerOp != 7 || m.Metrics["plancalls"] != 3 {
		t.Fatalf("parsed metrics = %+v", m)
	}
	blob, _ := json.Marshal(m)
	for _, want := range []string{`"bytes_per_op":512`, `"allocs_per_op":7`} {
		if !strings.Contains(string(blob), want) {
			t.Errorf("JSON missing %s: %s", want, blob)
		}
	}
}

func TestDiffWithinTolerancePasses(t *testing.T) {
	old := report(map[string]Metrics{"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 10}})
	cur := report(map[string]Metrics{"BenchmarkA": {NsPerOp: 1090, AllocsPerOp: 11}})
	res := Diff(old, cur, Tolerances{Default: 0.10, Alloc: -1})
	if n := res.Regressions(); n != 0 {
		t.Fatalf("regressions = %d, want 0: %+v", n, res.Lines)
	}
	l, _ := line(res, "BenchmarkA", "ns/op")
	if math.Abs(l.Delta-0.09) > 1e-9 {
		t.Fatalf("ns/op delta = %v, want 0.09", l.Delta)
	}
}

func TestDiffBeyondToleranceFails(t *testing.T) {
	old := report(map[string]Metrics{"BenchmarkA": {NsPerOp: 1000, Metrics: map[string]float64{"plancalls": 100}}})
	cur := report(map[string]Metrics{"BenchmarkA": {NsPerOp: 1000, Metrics: map[string]float64{"plancalls": 111}}})
	res := Diff(old, cur, Tolerances{Default: 0.10, Alloc: -1})
	if n := res.Regressions(); n != 1 {
		t.Fatalf("regressions = %d, want 1", n)
	}
	if l, ok := line(res, "BenchmarkA", "plancalls"); !ok || !l.Regressed {
		t.Fatalf("plancalls line = %+v, want regressed", l)
	}
}

// TestDiffPlanCallDropIsStaleBaseline: plan-call counters are gated
// both ways — a drop beyond tolerance fails and is named a stale
// baseline — while B/op and allocs/op may fall freely.
func TestDiffPlanCallDropIsStaleBaseline(t *testing.T) {
	old := report(map[string]Metrics{"BenchmarkA": {NsPerOp: 1000, BytesPerOp: 1000, AllocsPerOp: 100,
		Metrics: map[string]float64{"plancalls": 100, "plancalls_cold": 100}}})
	cur := report(map[string]Metrics{"BenchmarkA": {NsPerOp: 1000, BytesPerOp: 10, AllocsPerOp: 1,
		Metrics: map[string]float64{"plancalls": 89, "plancalls_cold": 91}}})
	res := Diff(old, cur, Tolerances{Default: 0.10, Alloc: -1})
	if n := res.Regressions(); n != 1 {
		t.Fatalf("regressions = %d, want 1: %+v", n, res.Lines)
	}
	if l, _ := line(res, "BenchmarkA", "plancalls"); !l.Regressed || !l.Stale {
		t.Fatalf("plancalls line = %+v, want a stale-baseline failure", l)
	}
	if l, _ := line(res, "BenchmarkA", "plancalls_cold"); l.Regressed || l.Stale {
		t.Fatalf("plancalls_cold line = %+v, want within tolerance", l)
	}
	for _, metric := range []string{"B/op", "allocs/op"} {
		if l, _ := line(res, "BenchmarkA", metric); l.Regressed {
			t.Fatalf("%s fell and failed the gate: %+v", metric, l)
		}
	}
	var buf bytes.Buffer
	res.WriteTable(&buf)
	if want := "FAIL (stale baseline: counter fell, re-record it)"; !strings.Contains(buf.String(), want) {
		t.Errorf("table does not name the stale baseline:\n%s", buf.String())
	}
}

func TestDiffPerAxisToleranceOverrides(t *testing.T) {
	old := report(map[string]Metrics{"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 10, Metrics: map[string]float64{"plancalls": 5}}})
	cur := report(map[string]Metrics{"BenchmarkA": {NsPerOp: 1400, AllocsPerOp: 14, Metrics: map[string]float64{"plancalls": 5}}})

	// Default tolerance alone: allocs regress.
	if n := Diff(old, cur, Tolerances{Default: 0.10, Alloc: -1}).Regressions(); n != 1 {
		t.Fatalf("tight: regressions = %d, want 1", n)
	}
	// A loosened alloc axis passes while plancalls stays gated tight.
	res := Diff(old, cur, Tolerances{Default: 0.10, Alloc: 0.50})
	if n := res.Regressions(); n != 0 {
		t.Fatalf("loose allocs: regressions = %d, want 0: %+v", n, res.Lines)
	}
	cur.Benchmarks["BenchmarkA"] = Metrics{NsPerOp: 1400, AllocsPerOp: 14, Metrics: map[string]float64{"plancalls": 6}}
	if n := Diff(old, cur, Tolerances{Default: 0.10, Alloc: 0.50}).Regressions(); n != 1 {
		t.Fatalf("plancalls growth must still fail under a loose alloc axis")
	}
}

func TestDiffRemovedBenchmarkIsRegression(t *testing.T) {
	old := report(map[string]Metrics{"BenchmarkA": {NsPerOp: 1}, "BenchmarkGone": {NsPerOp: 1}})
	cur := report(map[string]Metrics{"BenchmarkA": {NsPerOp: 1}})
	res := Diff(old, cur, Tolerances{Default: 0.10, Alloc: -1})
	if len(res.Removed) != 1 || res.Removed[0] != "BenchmarkGone" {
		t.Fatalf("Removed = %v", res.Removed)
	}
	if res.Regressions() != 1 {
		t.Fatalf("regressions = %d, want 1 (removed benchmark)", res.Regressions())
	}
}

func TestDiffNewBenchmarkIsInformational(t *testing.T) {
	old := report(map[string]Metrics{"BenchmarkA": {NsPerOp: 1}})
	cur := report(map[string]Metrics{"BenchmarkA": {NsPerOp: 1}, "BenchmarkNew": {NsPerOp: 1e9}})
	res := Diff(old, cur, Tolerances{Default: 0.10, Alloc: -1})
	if len(res.Added) != 1 || res.Added[0] != "BenchmarkNew" {
		t.Fatalf("Added = %v", res.Added)
	}
	if res.Regressions() != 0 {
		t.Fatalf("new benchmark must not regress the gate: %d", res.Regressions())
	}
}

func TestDiffZeroCounterGoingNonzeroFails(t *testing.T) {
	old := report(map[string]Metrics{"BenchmarkA": {NsPerOp: 1, Metrics: map[string]float64{"plancalls_total": 0}}})
	cur := report(map[string]Metrics{"BenchmarkA": {NsPerOp: 1, Metrics: map[string]float64{"plancalls_total": 1}}})
	res := Diff(old, cur, Tolerances{Default: 10.0, Alloc: -1}) // even a huge tolerance
	l, ok := line(res, "BenchmarkA", "plancalls_total")
	if !ok || !l.Regressed || !math.IsInf(l.Delta, 1) {
		t.Fatalf("zero→nonzero counter line = %+v, want regressed with +inf delta", l)
	}
}

func TestDiffUngatedMetricsNeverFail(t *testing.T) {
	old := report(map[string]Metrics{"BenchmarkA": {NsPerOp: 1, Metrics: map[string]float64{"queries/sec": 10000, "drift": 0.1}}})
	cur := report(map[string]Metrics{"BenchmarkA": {NsPerOp: 1, Metrics: map[string]float64{"queries/sec": 1, "drift": 99}}})
	if n := Diff(old, cur, Tolerances{Default: 0.10, Alloc: -1}).Regressions(); n != 0 {
		t.Fatalf("ungated metrics regressed the gate: %d", n)
	}
}

func TestParsePercentileMetrics(t *testing.T) {
	const out = "BenchmarkCreate/tenants=8-8 \t 1 \t 52000 ns/op \t 41000 p50-ns \t 98000 p99-ns\n"
	rep, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Benchmarks["BenchmarkCreate/tenants=8-8"]
	if m.Metrics["p50-ns"] != 41000 || m.Metrics["p99-ns"] != 98000 {
		t.Fatalf("percentile metrics not parsed: %+v", m)
	}
}

// TestDiffTimingsAreInformational: wall-clock numbers — ns/op and
// latency percentiles — are single -benchtime=1x samples, so even a
// tenfold growth is reported, never gated.
func TestDiffTimingsAreInformational(t *testing.T) {
	old := report(map[string]Metrics{"BenchmarkA": {NsPerOp: 1000, Metrics: map[string]float64{"p50-ns": 100, "p99-ns": 1000}}})
	cur := report(map[string]Metrics{"BenchmarkA": {NsPerOp: 10000, Metrics: map[string]float64{"p50-ns": 1000, "p99-ns": 10000}}})
	res := Diff(old, cur, Tolerances{Default: 0.10, Alloc: -1})
	if n := res.Regressions(); n != 0 {
		t.Fatalf("timings regressed the gate: %+v", res.Lines)
	}
	if l, ok := line(res, "BenchmarkA", "ns/op"); !ok || math.Abs(l.Delta-9) > 1e-9 {
		t.Fatalf("ns/op line = %+v, want reported with delta 9", l)
	}
}

// TestWriteMarkdownSummary pins the $GITHUB_STEP_SUMMARY rendering:
// a GFM table with one row per metric, bold FAIL verdicts on
// regressed and removed lines, informational rows for added
// benchmarks, and the overall verdict line.
func TestWriteMarkdownSummary(t *testing.T) {
	old := report(map[string]Metrics{
		"BenchmarkA":    {NsPerOp: 1000, Metrics: map[string]float64{"plancalls": 10, "speedup": 2}},
		"BenchmarkGone": {NsPerOp: 1},
	})
	cur := report(map[string]Metrics{
		"BenchmarkA":   {NsPerOp: 1000, Metrics: map[string]float64{"plancalls": 20, "speedup": 3}},
		"BenchmarkNew": {NsPerOp: 1},
	})
	var buf bytes.Buffer
	Diff(old, cur, Tolerances{Default: 0.10, Alloc: -1}).WriteMarkdown(&buf)
	out := buf.String()
	for _, want := range []string{
		"### Benchmark diff",
		"| benchmark | metric | old | new | delta | verdict |",
		"| BenchmarkA | plancalls | 10 | 20 | +100.0% | **FAIL** |",
		"| BenchmarkA | ns/op | 1000 | 1000 | +0.0% | – |",
		"**FAIL** (benchmark removed)",
		"new benchmark",
		"**FAIL: 2 regression(s) beyond tolerance**",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
	// Ungated metrics render without a verdict.
	if !strings.Contains(out, "| BenchmarkA | speedup | 2 | 3 | +50.0% | – |") {
		t.Errorf("ungated metric row wrong:\n%s", out)
	}

	// A clean diff ends on the ok line instead.
	buf.Reset()
	Diff(old, old, Tolerances{Default: 0.10, Alloc: -1}).WriteMarkdown(&buf)
	if !strings.Contains(buf.String(), "ok: no regressions beyond tolerance") {
		t.Errorf("clean diff missing ok line:\n%s", buf.String())
	}
}

// TestRunDiffSummaryFile: the -summary flag appends (not truncates)
// the markdown rendering, matching GITHUB_STEP_SUMMARY semantics.
func TestRunDiffSummaryFile(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep *Report) string {
		blob, _ := json.Marshal(rep)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldP := write("old.json", report(map[string]Metrics{"BenchmarkA": {NsPerOp: 1000}}))
	newP := write("new.json", report(map[string]Metrics{"BenchmarkA": {NsPerOp: 1000}}))
	sumP := filepath.Join(dir, "summary.md")
	if err := os.WriteFile(sumP, []byte("## Existing step output\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	code, err := runDiff(oldP, newP, Tolerances{Default: 0.10, Alloc: -1}, &buf, sumP)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	got, err := os.ReadFile(sumP)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(got), "## Existing step output\n") {
		t.Errorf("summary file truncated prior content:\n%s", got)
	}
	if !strings.Contains(string(got), "### Benchmark diff") {
		t.Errorf("summary file missing markdown table:\n%s", got)
	}
}

func TestRunDiffExitCodesAndTable(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep *Report) string {
		blob, _ := json.Marshal(rep)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldP := write("old.json", report(map[string]Metrics{"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 5}}))
	sameP := write("same.json", report(map[string]Metrics{"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 5}}))
	badP := write("bad.json", report(map[string]Metrics{"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 10}}))

	var buf bytes.Buffer
	code, err := runDiff(oldP, sameP, Tolerances{Default: 0.10, Alloc: -1}, &buf, "")
	if err != nil || code != 0 {
		t.Fatalf("identical artifacts: code=%d err=%v\n%s", code, err, buf.String())
	}
	buf.Reset()
	code, err = runDiff(oldP, badP, Tolerances{Default: 0.10, Alloc: -1}, &buf, "")
	if err != nil || code != 1 {
		t.Fatalf("2x regression: code=%d err=%v", code, err)
	}
	out := buf.String()
	for _, want := range []string{"BenchmarkA allocs/op", "FAIL", "+100.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if _, err := runDiff(oldP, filepath.Join(dir, "missing.json"), Tolerances{}, &buf, ""); err == nil {
		t.Fatal("missing artifact accepted")
	}
}
