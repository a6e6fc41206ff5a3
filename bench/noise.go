package main

// The --repeat report: the whole set is run more than once on one
// build and, per workload and end-to-end metric, the sets are compared
// against the metric's bound.

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// bounds are the regression bounds of the end-to-end metrics, as
// BENCHMARK.json states them: the share of the median by which a
// metric may worsen before it counts.
var bounds = map[string]float64{
	"setup_s":   0.25,
	"ops_per_s": 0.25,
	"op_p50_ms": 0.25,
	"heap_mb":   0.25,
}

// diagnostics are the detail-line numbers the report lists beside the
// gated metrics, with their spread but without a verdict. The tail is
// here by the noise rule: it would be gated only if two sets agreed
// within a tenth, and they do not.
var diagnostics = []string{"op_tail_ms", "rss_mb", "max_rate_ok", "recover_s"}

// noiseReport prints, for every workload and metric, each set's value
// and the relative disagreement between the sets — (max − min) over
// the median — beside the metric's bound. It returns false if a gated
// metric disagrees by more than its bound. Ungated metrics (those
// without a bound) are listed with their spread as diagnostics.
func noiseReport(w io.Writer, names []string, sets []map[string]*result) bool {
	fmt.Fprintf(w, "\nnoise report: %d sets, nproc %d, %s, kernel %s\n", len(sets), runtime.GOMAXPROCS(0), runtime.Version(), kernelRelease())
	fmt.Fprintf(w, "%-16s %-12s %-24s %10s %8s  %s\n", "workload", "metric", "values", "spread", "bound", "verdict")
	ok := true
	for _, name := range names {
		var metrics []string
		for m := range sets[0][name].Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range append(metrics, diagnostics...) {
			var vals []float64
			var shown []string
			for _, set := range sets {
				v, found := set[name].Metrics[m].Value, true
				if _, gated := set[name].Metrics[m]; !gated {
					v, found = set[name].Detail[m].(float64)
				}
				if found {
					vals = append(vals, v)
					shown = append(shown, fmt.Sprintf("%.4g", v))
				}
			}
			s := sortedCopy(vals)
			if len(s) < 2 || median(s) == 0 {
				continue // a diagnostic this workload does not have
			}
			spread := (s[len(s)-1] - s[0]) / median(s)
			bound, gated := bounds[m]
			verdict := "diagnostic"
			if gated {
				verdict = "ok"
				if spread > bound {
					verdict, ok = "DISAGREES", false
				}
			}
			fmt.Fprintf(w, "%-16s %-12s %-24s %9.2f%% %7.0f%%  %s\n", name, m, strings.Join(shown, " / "), 100*spread, 100*bound, verdict)
		}
	}
	return ok
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
