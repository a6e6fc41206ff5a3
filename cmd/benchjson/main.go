// Command benchjson converts `go test -bench` text output into a JSON
// perf artifact: benchmark name → iterations, ns/op, -benchmem's B/op
// and allocs/op, and every custom metric the benchmark reported
// (plancalls, speedup, queries/sec, …). CI diffs every run against the
// one committed counter baseline (BENCH_pr10.json), so a change that
// moves a counter does so deliberately, re-baselining it.
//
//	go test -run=NONE -bench=. -benchtime=1x -benchmem ./... | benchjson -out BENCH.json
//
// The -diff mode compares two artifacts and exits non-zero when the
// new one regresses the old beyond tolerance, which is the CI gate:
//
//	benchjson -diff BENCH_pr10.json bench_ci.json -tolerance 0.10
//
// Only deterministic numbers gate: the optimizer-call counters and
// allocations (whose tolerance -alloc-tolerance loosens alone).
// Wall-clock numbers are single samples and are reported, not gated.
// A benchmark present in old but missing from new is a regression (a
// gate that can be passed by deleting the benchmark gates nothing);
// a benchmark new to the artifact is informational.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Metrics is one benchmark's parsed result line.
type Metrics struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the artifact schema.
type Report struct {
	Benchmarks map[string]Metrics `json:"benchmarks"`
}

func main() {
	fs := flag.NewFlagSet("benchjson", flag.ExitOnError)
	in := fs.String("in", "", "bench output file (default: stdin)")
	out := fs.String("out", "", "JSON artifact path (default: stdout)")
	diff := fs.Bool("diff", false, "compare two artifacts: benchjson -diff old.json new.json")
	tol := fs.Float64("tolerance", 0.10, "max relative growth for gated metrics before failing")
	allocTol := fs.Float64("alloc-tolerance", -1, "B/op and allocs/op tolerance override (negative: use -tolerance)")
	summary := fs.String("summary", "", "with -diff: append the comparison as a markdown table to this file (e.g. $GITHUB_STEP_SUMMARY)")

	// Re-parse after each positional so flags may interleave with the
	// two artifact paths: `-diff old.json new.json -tolerance 0.10`.
	args, pos := os.Args[1:], []string(nil)
	for {
		if err := fs.Parse(args); err != nil {
			os.Exit(2)
		}
		if fs.NArg() == 0 {
			break
		}
		pos = append(pos, fs.Arg(0))
		args = fs.Args()[1:]
	}

	if *diff {
		if len(pos) != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff needs exactly two artifacts: old.json new.json")
			os.Exit(2)
		}
		code, err := runDiff(pos[0], pos[1], Tolerances{Default: *tol, Alloc: *allocTol}, os.Stdout, *summary)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		os.Exit(code)
	}
	if len(pos) != 0 {
		fmt.Fprintf(os.Stderr, "benchjson: unexpected arguments %v (use -in/-out, or -diff old.json new.json)\n", pos)
		os.Exit(2)
	}
	if err := run(*in, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(inPath, outPath string) error {
	var r io.Reader = os.Stdin
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	rep, err := parse(r)
	if err != nil {
		return err
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if outPath == "" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	return os.WriteFile(outPath, blob, 0o644)
}

// runDiff loads two artifacts, prints the comparison table (and, when
// summaryPath is set, appends the markdown rendering there), and
// returns the process exit code (1 when anything regressed).
func runDiff(oldPath, newPath string, tol Tolerances, w io.Writer, summaryPath string) (int, error) {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return 0, err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return 0, err
	}
	res := Diff(oldRep, newRep, tol)
	res.WriteTable(w)
	if summaryPath != "" {
		f, err := os.OpenFile(summaryPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return 0, err
		}
		res.WriteMarkdown(f)
		if err := f.Close(); err != nil {
			return 0, err
		}
	}
	if n := res.Regressions(); n > 0 {
		fmt.Fprintf(w, "\nFAIL: %d regression(s) beyond tolerance (default %.0f%%)\n", n, tol.Default*100)
		return 1, nil
	}
	fmt.Fprintln(w, "\nok: no regressions beyond tolerance")
	return 0, nil
}

func loadReport(path string) (*Report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	if err := json.Unmarshal(blob, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in artifact", path)
	}
	return rep, nil
}

// parse reads `go test -bench` output: each result line is the
// benchmark name, the iteration count, then (value, unit) pairs.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: map[string]Metrics{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // "Benchmark..." prose, not a result line
		}
		m := Metrics{Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad metric value %q", sc.Text(), fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp = val
			case "B/op":
				m.BytesPerOp = val
			case "allocs/op":
				m.AllocsPerOp = val
			default:
				m.Metrics[fields[i+1]] = val
			}
		}
		if len(m.Metrics) == 0 {
			m.Metrics = nil
		}
		rep.Benchmarks[fields[0]] = m
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	return rep, nil
}

// Names returns the parsed benchmark names, sorted (test hook).
func (r *Report) Names() []string {
	out := make([]string, 0, len(r.Benchmarks))
	for k := range r.Benchmarks {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
