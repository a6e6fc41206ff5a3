// Command ladder is the traced run's in-process half. It replays the
// op stream the harness generated through successively lower public
// entry points of the program — the serve handler, the design session,
// costlab's memoised batch pricing, the what-if session and the
// optimizer — and times each rung for the same steps, so that a
// layer's self time is its rung minus the rung below. Around the
// ladder sit single-layer probes: sql, inum, ingest, durable.
//
// It is a separate binary from the harness on purpose: it imports the
// program's packages, so a later API change can break it, and it must
// not take the end-to-end numbers down with it. Each rung and probe
// lives in its own file for the same reason.
//
// Every rung runs single-threaded (one pricing worker): the point is
// that times add up. What parallel pricing buys is the end-to-end
// run's business.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/workload"
)

// input is what the harness hands over: the catalog scale, every
// tenant's workload, the op stream (the dump format of the harness's
// Op), queries to ingest and a scratch directory.
type input struct {
	Scale     int64            `json:"scale"`
	Workloads map[int][]string `json:"workloads"`
	Ops       []op             `json:"ops"`
	Ingest    []string         `json:"ingest"`
	Dir       string           `json:"dir"`
}

type op struct {
	Tenant  int      `json:"tenant"`
	Kind    string   `json:"kind"`
	Table   string   `json:"table"`
	Columns []string `json:"columns"`
}

// output maps metric name to value; units are fixed by the harness's
// catalogue.
type output map[string]float64

// tenantWorkload is one tenant's parsed workload.
type tenantWorkload struct {
	sqls  []string
	stmts []*sql.Select
	foot  []*sql.Footprint
}

type replay struct {
	cat       *catalog.Catalog
	workloads map[int]*tenantWorkload
	steps     []step
	in        *input
}

func main() {
	inPath := flag.String("in", "", "input JSON written by the harness")
	flag.Parse()
	out, err := run(*inPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ladder:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "ladder:", err)
		os.Exit(1)
	}
}

func run(inPath string) (output, error) {
	data, err := os.ReadFile(inPath)
	if err != nil {
		return nil, err
	}
	var in input
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("decode %s: %w", inPath, err)
	}
	cat, err := workload.BuildCatalog(in.Scale)
	if err != nil {
		return nil, err
	}
	cx := &replay{cat: cat, workloads: map[int]*tenantWorkload{}, in: &in}
	for t, sqls := range in.Workloads {
		tw := &tenantWorkload{sqls: sqls}
		for _, q := range sqls {
			sel, err := sql.ParseSelect(q)
			if err != nil {
				return nil, fmt.Errorf("tenant %d: %w", t, err)
			}
			tw.stmts = append(tw.stmts, sel)
			tw.foot = append(tw.foot, sql.FootprintOf(sel))
		}
		cx.workloads[t] = tw
	}
	cx.steps = deriveSteps(in.Ops, cx.workloads)
	if len(cx.steps) == 0 {
		return nil, fmt.Errorf("no replayable step among %d ops", len(in.Ops))
	}

	out := output{}
	serve, err := rungServe(cx, out)
	if err != nil {
		return nil, fmt.Errorf("serve rung: %w", err)
	}
	sess, err := rungSession(cx, out)
	if err != nil {
		return nil, fmt.Errorf("session rung: %w", err)
	}
	lab, missed, err := rungCostlab(cx, out)
	if err != nil {
		return nil, fmt.Errorf("costlab rung: %w", err)
	}
	wi, err := rungWhatif(cx, missed, out)
	if err != nil {
		return nil, fmt.Errorf("whatif rung: %w", err)
	}
	ladderTotals(cx, out, serve, sess, lab, wi)

	probes := []struct {
		name string
		run  func(*replay, output) error
	}{{"sql", probeSQL}, {"inum", probeINUM}, {"ingest", probeIngest}, {"durable", probeDurable}}
	for _, p := range probes {
		if err := p.run(cx, out); err != nil {
			return nil, fmt.Errorf("%s probe: %w", p.name, err)
		}
	}
	return out, nil
}

// ladderTotals turns the four rungs' per-step times into self times.
// Only edit steps enter: they are the steps every rung replays.
func ladderTotals(cx *replay, out output, serve, sess, lab, wi []time.Duration) {
	var sum [4]time.Duration
	edits := 0
	for i, st := range cx.steps {
		if !st.edit() {
			continue
		}
		edits++
		sum[0] += serve[i]
		sum[1] += sess[i]
		sum[2] += lab[i]
		sum[3] += wi[i]
	}
	perEdit := func(d time.Duration) float64 { return float64(d) / 1e3 / float64(max(edits, 1)) }
	out["ladder.steps"] = float64(len(cx.steps))
	out["ladder.edits"] = float64(edits)
	out["ladder.serve_us"] = perEdit(sum[0])
	out["ladder.session_us"] = perEdit(sum[1])
	out["ladder.costlab_us"] = perEdit(sum[2])
	out["ladder.whatif_us"] = perEdit(sum[3])
	self := []float64{perEdit(sum[0] - sum[1]), perEdit(sum[1] - sum[2]), perEdit(sum[2] - sum[3]), perEdit(sum[3])}
	out["serve.handler_self_us"] = self[0]
	out["session.edit_self_us"] = self[1]
	out["costlab.self_us"] = self[2]
	out["whatif_optimizer.self_us"] = self[3]
	total := 0.0
	for _, s := range self {
		total += max(s, 0)
	}
	if sum[0] > 0 {
		out["ladder.self_sum_pct"] = 100 * total / perEdit(sum[0])
	}
}

// meanUS is the mean of ds in microseconds, 0 for none.
func meanUS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / 1e3 / float64(len(ds))
}

// medianUS is the median of ds in microseconds, 0 for none.
func medianUS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[len(s)/2]) / 1e3
}
