package main

// The traced run: per-layer numbers for one workload. It is separate
// from the timed runs and its own numbers are never the end-to-end
// ones. Three short sections run the workload — traced with default
// server flags, untraced with default flags, untraced with the
// server's observability off — and then the ladder binary replays the
// same seeded op stream in-process. Exact counts come from the
// server's /stats and /metrics, scraped around the traced section.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// layerMetric is one entry of the per-layer catalogue: every traced
// run reports exactly these names, 0 where a workload does not reach
// the layer.
type layerMetric struct{ name, unit string }

var layerMetrics = []layerMetric{
	// sql (ladder probe)
	{"sql.parse_us", "us"}, {"sql.footprint_us", "us"},
	// whatif and optimizer (ladder rung 4)
	{"whatif.apply_delta_us", "us"}, {"whatif.signature_us", "us"},
	{"optimizer.plan_us.1table", "us"}, {"optimizer.plan_us.2way", "us"}, {"optimizer.plan_us.3way", "us"},
	{"optimizer.plan_calls", "count"}, // server-side, exact, traced section
	// inum (ladder probe)
	{"inum.probe_hit_us", "us"}, {"inum.probe_miss_us", "us"}, {"inum.hit_ratio", "ratio"},
	// costlab and flight (ladder rung 3; server counters)
	{"costlab.batch_hit_us", "us"}, {"costlab.batch_miss_us", "us"}, {"costlab.self_us", "us"},
	{"memo.hit_ratio", "ratio"}, {"memo.evictions", "count"},
	{"flight.coalesced", "count"}, {"flight.waits", "count"},
	// session (ladder rung 2)
	{"session.edit_self_us", "us"}, {"session.undo_us", "us"},
	{"session.invalidated_per_edit", "count"}, {"session.replanned_per_edit", "count"},
	// recommend (job status)
	{"recommend.search_self_s", "s"}, {"recommend.plan_calls", "count"}, {"recommend.evals_skipped", "count"},
	{"recommend.jobs_pruned", "count"}, {"recommend.rounds", "count"},
	// ingest (ladder probe; server counters)
	{"ingest.window_us", "us"}, {"ingest.accepted", "count"}, {"ingest.rejected", "count"},
	// serve (ladder rung 1; client spans; server counters)
	{"serve.handler_self_us", "us"}, {"serve.costs_json_us", "us"}, {"serve.http_self_us", "us"},
	{"serve.costs_cache_hit_ratio", "ratio"},
	// durable (ladder probe; server counters; the crash section)
	{"durable.append_us.always", "us"}, {"durable.append_us.interval", "us"}, {"durable.append_us.off", "us"},
	{"durable.fsync_p50_ms", "ms"}, {"durable.wal_bytes_per_edit", "count"}, {"durable.snapshots", "count"},
	{"durable.recover_ms", "ms"}, {"durable.recover_plan_calls", "count"},
	// obs and the tracing itself
	{"obs.overhead_pct", "%"}, {"trace_overhead_pct", "%"},
	// the ladder's own bookkeeping
	{"ladder.serve_us", "us"}, {"ladder.session_us", "us"}, {"ladder.costlab_us", "us"}, {"ladder.whatif_us", "us"},
	{"ladder.self_sum_pct", "%"},
	// diagnostics: printed by every timed run, not gated (see README)
	{"op_tail_ms", "ms"}, {"max_rate_ok", "1/s"}, {"recover_s", "s"}, {"rss_mb", "MiB"},
}

// ladderOps is how many ops of the stream the ladder replays. The
// cold streams plan some 80 queries per edit on every rung, so they
// get fewer.
var ladderOps = map[string]int{"edit.hot": 2000, "edit.cold": 600, "recommend.joint": 600, "mix.durable": 2000}

func runTraced(e *env, name string, seed int64, seconds int) (*result, error) {
	section := max(2, seconds/3)
	tr := newTracer()
	traced, err := runTimed(e, name, seed, runOpts{seconds: section, tr: tr, setups: 1})
	if err != nil {
		return nil, fmt.Errorf("traced section: %w", err)
	}
	plain, err := runTimed(e, name, seed, runOpts{seconds: section, setups: 1})
	if err != nil {
		return nil, fmt.Errorf("untraced section: %w", err)
	}
	quiet, err := runTimed(e, name, seed, runOpts{seconds: section, setups: 1,
		serverArgs: []string{"-metrics=false", "-log-level", "error"}})
	if err != nil {
		return nil, fmt.Errorf("observability-off section: %w", err)
	}
	if err := tr.write(filepath.Join(e.outDir, "trace-"+name+".jsonl")); err != nil {
		return nil, err
	}

	in, ops, err := ladderInput(e, name, seed)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(e.outDir, "ops-"+name+".jsonl"), dumpOps(ops), 0o644); err != nil {
		return nil, err
	}
	ladder, err := runLadder(e, name, in)
	if err != nil {
		return nil, err
	}

	before, _ := traced.Detail["scrape_before"].(counters)
	after, _ := traced.Detail["scrape_after"].(counters)
	delete(traced.Detail, "scrape_before")
	delete(traced.Detail, "scrape_after")
	d := func(key string) float64 { return delta(before, after, key) }
	num := func(res *result, key string) float64 {
		switch v := res.Detail[key].(type) {
		case float64:
			return v
		case int:
			return float64(v)
		case int64:
			return float64(v)
		}
		return 0
	}
	pct := func(base, other float64) float64 {
		if base == 0 {
			return 0
		}
		return 100 * (base - other) / base
	}

	m := map[string]float64{}
	for k, v := range ladder {
		m[k] = v
	}
	m["optimizer.plan_calls"] = num(traced, "timed_plan_calls") + num(traced, "plan_calls")
	m["memo.hit_ratio"] = ratio(d("stats.shared.hits"), d("stats.shared.misses"))
	m["memo.evictions"] = d("stats.shared.evictions") + d("stats.sharedCostEvictions")
	for _, tier := range []string{"states", "costs"} {
		m["flight.coalesced"] += d(`parinda_flight_coalesced_total{tier="` + tier + `"}`)
		m["flight.waits"] += d(`parinda_flight_waits_total{tier="` + tier + `"}`)
	}
	m["recommend.plan_calls"] = num(traced, "plan_calls")
	m["recommend.evals_skipped"] = num(traced, "evals_skipped")
	m["recommend.jobs_pruned"] = num(traced, "jobs_pruned")
	m["recommend.rounds"] = num(traced, "rounds")
	if wall := num(traced, "recommend_s"); wall > 0 {
		// Pricing fans out over the server's workers, so the optimizer's
		// share of the wall is its total time divided among them.
		planUS := (m["optimizer.plan_us.1table"] + m["optimizer.plan_us.2way"]) / 2
		m["recommend.search_self_s"] = max(0, wall-num(traced, "plan_calls")*planUS/1e6/workers)
	}
	m["ingest.accepted"] = d("parinda_ingest_accepted_total")
	m["ingest.rejected"] = d("parinda_ingest_rejected_total")
	m["serve.http_self_us"] = tr.httpSelfUS()
	if n := num(traced, "costs_reads"); n > 0 {
		m["serve.costs_cache_hit_ratio"] = d("stats.costsCacheHits") / n
	}
	if n := num(traced, "journaled_ops"); n > 0 {
		m["durable.wal_bytes_per_edit"] = d("stats.durability.store.appendedBytes") / n
	}
	m["durable.snapshots"] = after["stats.durability.store.snapshots"]
	m["durable.recover_ms"] = 1e3 * num(traced, "recover_s")
	m["durable.recover_plan_calls"] = num(traced, "recover_plan_calls")
	m["obs.overhead_pct"] = pct(quiet.Metrics["ops_per_s"].Value, plain.Metrics["ops_per_s"].Value)
	m["trace_overhead_pct"] = pct(plain.Metrics["ops_per_s"].Value, traced.Metrics["ops_per_s"].Value)
	m["op_tail_ms"] = num(plain, "op_tail_ms")
	m["max_rate_ok"] = num(plain, "max_rate_ok")
	m["recover_s"] = num(plain, "recover_s")
	m["rss_mb"] = num(plain, "rss_mb")

	res := &result{Workload: name, Seed: seed, Seconds: seconds, Traced: true}
	res.Attempted = traced.Attempted + plain.Attempted + quiet.Attempted
	res.Failed = traced.Failed + plain.Failed + quiet.Failed
	res.Correct = res.Failed == 0
	res.Errors = append(append(traced.Errors, plain.Errors...), quiet.Errors...)
	res.Metrics = map[string]metric{}
	for _, lm := range layerMetrics {
		res.Metrics[lm.name] = metric{m[lm.name], lm.unit}
		delete(m, lm.name)
	}
	res.Detail = map[string]any{
		"section_seconds":       section,
		"traced_section":        traced.Detail,
		"ops_per_s_traced":      traced.Metrics["ops_per_s"].Value,
		"ops_per_s_untraced":    plain.Metrics["ops_per_s"].Value,
		"ops_per_s_obs_off":     quiet.Metrics["ops_per_s"].Value,
		"ladder_other":          m,
		"trace_file":            filepath.Join(e.outDir, "trace-"+name+".jsonl"),
		"ops_file":              filepath.Join(e.outDir, "ops-"+name+".jsonl"),
		"ladder_ops_replayed":   len(in.Ops),
		"ladder_steps_replayed": ladder["ladder.steps"],
	}
	return res, nil
}

// ladderIn mirrors the ladder binary's input.
type ladderIn struct {
	Scale     int64            `json:"scale"`
	Workloads map[int][]string `json:"workloads"`
	Ops       []Op             `json:"ops"`
	Ingest    []string         `json:"ingest"`
	Dir       string           `json:"dir"`
}

// ladderInput regenerates the workload's op streams from the seed and
// returns the ladder's input plus the ops to dump. It boots a server
// only to read the built-in workload.
func ladderInput(e *env, name string, seed int64) (*ladderIn, []Op, error) {
	srv, err := startServer(e)
	if err != nil {
		return nil, nil, err
	}
	c := newClient(srv.base)
	seedQ, err := seedQueries(c)
	c.close()
	srv.kill()
	if err != nil {
		return nil, nil, err
	}
	in := &ladderIn{Scale: 1000000, Workloads: map[int][]string{}, Dir: e.tmpDir()}
	var dump []Op
	n := ladderOps[name]
	switch name {
	case "edit.hot":
		for t := 0; t < workers; t++ {
			pass := genHotPass(seed, t)
			in.Workloads[t] = seedQ
			for i := 0; i < n/workers; i++ {
				in.Ops = append(in.Ops, pass[i%len(pass)])
			}
			dump = append(dump, pass...)
		}
	case "edit.cold", "recommend.joint":
		for t := 0; t < workers; t++ {
			wl := coldWorkload(seed, t, seedQ)
			if name == "recommend.joint" {
				wl = append(append([]string(nil), seedQ...), genQueries(newRand(seed, "recommend.workload"), recommendQueries)...)
			}
			g := newColdGen(seed, t, wl)
			var ops []Op
			for len(ops) < dumpLimit {
				ops = append(ops, g.pass()...)
			}
			dump = append(dump, ops[:dumpLimit]...)
			if t == 0 {
				in.Workloads[0] = wl
				in.Ops = ops[:n]
			}
		}
	case "mix.durable":
		for t := 0; t < mixTenants; t++ {
			in.Workloads[t] = seedQ
		}
		for w := 0; w < workers; w++ {
			pass := genMixPass(seed, w, workers, len(seedQ))
			dump = append(dump, pass[:min(dumpLimit, len(pass))]...)
			if w == 0 {
				in.Ops = pass[:min(n, len(pass))]
			}
		}
		in.Ingest = genQueries(newRand(seed, "mix.ingest"), mixIngest)
	}
	return in, dump, nil
}

// runLadder writes the input, runs the ladder binary and decodes its
// metric map.
func runLadder(e *env, name string, in *ladderIn) (map[string]float64, error) {
	data, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(e.tmpDir(), "ladder-"+name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	defer os.Remove(path)
	cmd := exec.Command(e.ladder, "-in", path)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	var out map[string]float64
	if err := json.Unmarshal(outBytes, &out); err != nil {
		return nil, fmt.Errorf("ladder: decode output: %w", err)
	}
	return out, nil
}
