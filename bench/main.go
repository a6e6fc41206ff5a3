// Command bench is the repository's end-to-end benchmark: it builds
// the real parinda binary, boots `parinda serve` as a child process
// and drives it over HTTP with four seeded workloads. See README.md
// for the metric and workload catalogue.
//
//	cd bench && go run . --workload edit.hot --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload all --repeat 2        (from the repo root)
//
// The last line printed for a workload is one JSON object with the
// keys correct, attempted, failed and metrics; the line before it
// carries the full detail.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

var workloadNames = []string{"edit.hot", "edit.cold", "recommend.joint", "mix.durable"}

const (
	defaultSeconds = 20
	// The builder contract: 4 + 22 × workloads runs, with their set-up
	// and two builds, must end within capSeconds.
	capSeconds     = 3420
	capRuns        = 4 + 22*4
	capBuildsS     = 2 * 60
	perRunOverhead = 11 // set-up repeats, correctness checks, recovery
	// workloadDeadline kills the children and exits if one workload
	// run outlives it (the contract allows a run 180 s).
	workloadDeadline = 170 * time.Second
)

func main() {
	var (
		workload = flag.String("workload", "all", "edit.hot, edit.cold, recommend.joint, mix.durable or all")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", defaultSeconds, "length of the measured section of one run")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics, span files and the layer ladder")
		repeat   = flag.Int("repeat", 1, "run the set this many times and report the spread between the sets")
		root     = flag.String("root", "", "checkout root (default: the parent of the bench directory)")
		outDir   = flag.String("out", "", "directory for op dumps and traces (default: bench/out)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	if total := capRuns*(*seconds+perRunOverhead) + capBuildsS; total > capSeconds {
		fatalf("--seconds %d would make the contract's %d runs take about %d s, over its cap of %d s; use at most %d",
			*seconds, capRuns, total, capSeconds, (capSeconds-capBuildsS)/capRuns-perRunOverhead)
	}
	names := workloadNames
	if *workload != "all" {
		names = nil
		for _, n := range workloadNames {
			if n == *workload {
				names = []string{n}
			}
		}
		if names == nil {
			fatalf("unknown workload %q (want one of %v or all)", *workload, workloadNames)
		}
	}

	e, err := newEnv(*root, *outDir)
	if err != nil {
		fatalf("%v", err)
	}
	installCleanup(e, time.Duration(len(names)**repeat)*workloadDeadline)
	code := run(e, names, *seed, *seconds, *trace == 1, *repeat)
	killAll()
	_ = os.RemoveAll(e.tmpDir()) // temp data dirs; best effort
	os.Exit(code)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// newEnv resolves the checkout root and prepares the build and output
// directories inside it.
func newEnv(root, outDir string) (*env, error) {
	if root == "" {
		wd, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		root = wd
		if filepath.Base(wd) == "bench" {
			root = filepath.Dir(wd)
		}
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "parinda")); err != nil {
		return nil, fmt.Errorf("%s is not a checkout of the repository: %v", root, err)
	}
	e := &env{root: root, build: filepath.Join(root, ".bench_build"), outDir: outDir}
	if e.outDir == "" {
		e.outDir = filepath.Join(root, "bench", "out")
	}
	e.bin = filepath.Join(e.build, "parinda")
	e.ladder = filepath.Join(e.build, "ladder")
	for _, d := range []string{e.build, e.tmpDir(), e.outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// run builds the binaries, runs every named workload repeat times and
// prints the results. It returns the process exit code.
func run(e *env, names []string, seed int64, seconds int, traced bool, repeat int) int {
	buildTime, err := e.buildBinary(e.root, "./cmd/parinda", e.bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if traced {
		if _, err := e.buildBinary(filepath.Join(e.root, "bench"), "./ladder", e.ladder); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	code := 0
	sets := make([]map[string]*result, repeat)
	for s := range sets {
		sets[s] = map[string]*result{}
		for _, name := range names {
			var res *result
			var err error
			if traced {
				res, err = runTraced(e, name, seed, seconds)
			} else {
				res, err = runTimed(e, name, seed, runOpts{seconds: seconds})
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				return 2
			}
			res.Detail["build_s"] = buildTime.Seconds()
			res.Detail["nproc"] = runtime.GOMAXPROCS(0)
			sets[s][name] = res
			if !res.Correct {
				code = 1
			}
			printResult(res)
		}
	}
	if repeat > 1 {
		if !noiseReport(os.Stdout, names, sets) {
			code = 1
		}
	}
	return code
}

// runOpts shape one measured run of a workload.
type runOpts struct {
	seconds int
	// tr is nil for the end-to-end numbers.
	tr *tracer
	// setups is how many times to set up (0 = setupRepeats); the traced
	// run's short sections set up once.
	setups int
	// serverArgs are extra flags for every server the run boots.
	serverArgs []string
}

func runTimed(e *env, name string, seed int64, o runOpts) (*result, error) {
	if o.setups == 0 {
		o.setups = setupRepeats
	}
	switch name {
	case "edit.hot":
		return runEdit(e, true, seed, o)
	case "edit.cold":
		return runEdit(e, false, seed, o)
	case "recommend.joint":
		return runRecommend(e, seed, o)
	case "mix.durable":
		return runMix(e, seed, o)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// printResult prints the detail line and then, last, the contract
// line: exactly correct, attempted, failed and metrics.
func printResult(res *result) {
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(res); err != nil {
		fatalf("encode result: %v", err)
	}
	if err := enc.Encode(map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   res.Metrics,
	}); err != nil {
		fatalf("encode result: %v", err)
	}
}
