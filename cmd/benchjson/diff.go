package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Tolerances configures how much a gated metric may grow before the
// diff counts it as a regression. Alloc defaults to Default when
// negative, so CI can loosen it alone: allocs/op at -benchtime=1x
// include GOMAXPROCS-dependent pool warm-up, while plan-call counters
// are deterministic and deserve the tight default.
type Tolerances struct {
	Default float64 // custom metrics (plancalls etc.)
	Alloc   float64 // B/op and allocs/op; negative → Default
}

func (t Tolerances) forMetric(metric string) float64 {
	if (metric == "B/op" || metric == "allocs/op") && t.Alloc >= 0 {
		return t.Alloc
	}
	return t.Default
}

// gated reports whether a metric is one where growth fails the gate:
// allocations and the optimizer-call counters, the deterministic
// numbers. Wall-clock numbers (ns/op, latency percentiles) are single
// -benchtime=1x samples, and the rest (queries/sec, speedup, drift, …)
// have no uniform direction; both are reported informationally.
func gated(metric string) bool {
	return metric == "B/op" || metric == "allocs/op" || strings.Contains(metric, "plancalls")
}

// DiffLine is one (benchmark, metric) comparison.
type DiffLine struct {
	Bench, Metric string
	Old, New      float64
	// Delta is the relative change (new-old)/old; +Inf when old is
	// zero and new is not (a counter that was zero going nonzero is
	// always a regression, no tolerance applies).
	Delta     float64
	Regressed bool
}

// DiffResult is the full comparison of two reports.
type DiffResult struct {
	Lines []DiffLine
	// Removed benchmarks count as regressions: a perf gate that can
	// be passed by deleting the benchmark gates nothing.
	Removed []string
	Added   []string // new benchmarks, informational
}

// Regressions counts failing lines plus removed benchmarks.
func (d *DiffResult) Regressions() int {
	n := len(d.Removed)
	for _, l := range d.Lines {
		if l.Regressed {
			n++
		}
	}
	return n
}

// Diff compares two reports, gating every benchmark of old against
// its counterpart in new.
func Diff(oldRep, newRep *Report, tol Tolerances) *DiffResult {
	res := &DiffResult{}
	for _, name := range oldRep.Names() {
		o := oldRep.Benchmarks[name]
		n, ok := newRep.Benchmarks[name]
		if !ok {
			res.Removed = append(res.Removed, name)
			continue
		}
		for _, metric := range metricNames(o, n) {
			ov, ook := metricValue(o, metric)
			nv, nok := metricValue(n, metric)
			if !ook || !nok {
				continue // metric appears on only one side: no baseline to gate
			}
			res.Lines = append(res.Lines, diffLine(name, metric, ov, nv, tol))
		}
	}
	for _, name := range newRep.Names() {
		if _, ok := oldRep.Benchmarks[name]; !ok {
			res.Added = append(res.Added, name)
		}
	}
	return res
}

func diffLine(bench, metric string, ov, nv float64, tol Tolerances) DiffLine {
	l := DiffLine{Bench: bench, Metric: metric, Old: ov, New: nv}
	switch {
	case ov == 0 && nv == 0:
		l.Delta = 0
	case ov == 0:
		l.Delta = math.Inf(1)
	default:
		l.Delta = (nv - ov) / ov
	}
	if gated(metric) {
		if ov == 0 {
			l.Regressed = nv > 0
		} else {
			l.Regressed = nv > ov*(1+tol.forMetric(metric))
		}
	}
	return l
}

// metricNames returns the union of the two results' metric names,
// ns/op first, then the fixed -benchmem pair, then customs sorted.
func metricNames(a, b Metrics) []string {
	names := []string{"ns/op"}
	if a.BytesPerOp != 0 || b.BytesPerOp != 0 {
		names = append(names, "B/op")
	}
	if a.AllocsPerOp != 0 || b.AllocsPerOp != 0 {
		names = append(names, "allocs/op")
	}
	custom := map[string]bool{}
	for k := range a.Metrics {
		custom[k] = true
	}
	for k := range b.Metrics {
		custom[k] = true
	}
	keys := make([]string, 0, len(custom))
	for k := range custom {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return append(names, keys...)
}

func metricValue(m Metrics, metric string) (float64, bool) {
	switch metric {
	case "ns/op":
		return m.NsPerOp, true
	case "B/op":
		return m.BytesPerOp, true
	case "allocs/op":
		return m.AllocsPerOp, true
	}
	v, ok := m.Metrics[metric]
	return v, ok
}

// WriteTable renders the per-benchmark comparison. Gated metrics get
// ok/FAIL verdicts; informational ones a dash.
func (d *DiffResult) WriteTable(w io.Writer) {
	tw := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	tw("%-52s %14s %14s %9s  %s\n", "benchmark/metric", "old", "new", "delta", "verdict")
	for _, l := range d.Lines {
		verdict := "-"
		if gated(l.Metric) {
			verdict = "ok"
			if l.Regressed {
				verdict = "FAIL"
			}
		}
		delta := "-"
		if !math.IsInf(l.Delta, 1) {
			delta = fmt.Sprintf("%+.1f%%", l.Delta*100)
		} else {
			delta = "+inf"
		}
		tw("%-52s %14s %14s %9s  %s\n",
			l.Bench+" "+l.Metric, trimNum(l.Old), trimNum(l.New), delta, verdict)
	}
	for _, name := range d.Removed {
		tw("%-52s %14s %14s %9s  FAIL (benchmark removed)\n", name, "-", "-", "-")
	}
	for _, name := range d.Added {
		tw("%-52s %14s %14s %9s  new benchmark\n", name, "-", "-", "-")
	}
}

// WriteMarkdown renders the same comparison as a GitHub-flavored
// markdown table — the shape CI appends to $GITHUB_STEP_SUMMARY so the
// perf trajectory is readable on the run page without downloading the
// artifact. Regressed lines are bolded; the trailing line states the
// overall verdict.
func (d *DiffResult) WriteMarkdown(w io.Writer) {
	fmt.Fprintf(w, "### Benchmark diff\n\n")
	fmt.Fprintf(w, "| benchmark | metric | old | new | delta | verdict |\n")
	fmt.Fprintf(w, "|---|---|---:|---:|---:|---|\n")
	for _, l := range d.Lines {
		verdict := "–"
		if gated(l.Metric) {
			verdict = "ok"
			if l.Regressed {
				verdict = "**FAIL**"
			}
		}
		delta := "+inf"
		if !math.IsInf(l.Delta, 1) {
			delta = fmt.Sprintf("%+.1f%%", l.Delta*100)
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %s |\n",
			l.Bench, l.Metric, trimNum(l.Old), trimNum(l.New), delta, verdict)
	}
	for _, name := range d.Removed {
		fmt.Fprintf(w, "| %s | – | – | – | – | **FAIL** (benchmark removed) |\n", name)
	}
	for _, name := range d.Added {
		fmt.Fprintf(w, "| %s | – | – | – | – | new benchmark |\n", name)
	}
	if n := d.Regressions(); n > 0 {
		fmt.Fprintf(w, "\n**FAIL: %d regression(s) beyond tolerance**\n", n)
	} else {
		fmt.Fprintf(w, "\nok: no regressions beyond tolerance\n")
	}
}

func trimNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}
