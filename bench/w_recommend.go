package main

// recommend.joint: the DBA asks for a design. Each repetition boots a
// fresh server (a cold memo, which is what a user pays on every
// advisor run), opens one session over the seed queries plus 150
// generated ones, starts a joint greedy recommend job and polls it
// until done. The search loop and bulk pricing do the work; HTTP is
// off the hot path. Repetitions continue until the measured walls add
// up to --seconds.

import (
	"encoding/json"
	"fmt"
	"time"
)

const (
	// recommendQueries generated queries join the seed ones: enough
	// that pricing dominates, few enough that a run fits ten or so
	// repetitions.
	recommendQueries = 60
	recommendPoll    = 20 * time.Millisecond
	recommendMinReps = 3
	recommendLimit   = 90 * time.Second // one job; far above the seconds a healthy run takes
)

// jobStatus is the part of the server's job status the client reads.
type jobStatus struct {
	ID           string  `json:"id"`
	State        string  `json:"state"`
	Rounds       int     `json:"rounds"`
	PlanCalls    int64   `json:"planCalls"`
	EvalsSkipped int64   `json:"evalsSkipped"`
	JobsPruned   int64   `json:"jobsPruned"`
	BestCost     float64 `json:"bestCost"`
	Error        string  `json:"error"`
	Result       *struct {
		Indexes []struct {
			Table   string   `json:"table"`
			Columns []string `json:"columns"`
		} `json:"indexes"`
		Partitions []struct {
			Table     string     `json:"table"`
			Fragments [][]string `json:"fragments"`
		} `json:"partitions"`
		Truncated bool `json:"truncated"`
	} `json:"result"`
}

func (j *jobStatus) design() []object {
	var d []object
	for _, ix := range j.Result.Indexes {
		d = append(d, object{table: ix.Table, cols: ix.Columns})
	}
	for _, p := range j.Result.Partitions {
		d = append(d, object{partition: true, table: p.Table, frags: p.Fragments})
	}
	return d
}

// recommendRep is one repetition's outcome.
type recommendRep struct {
	setupS, wallS, rss, heap float64
	job                      jobStatus
	before, after            counters
}

func runRecommend(e *env, seed int64, o runOpts) (*result, error) {
	seconds, tr := o.seconds, o.tr
	var tl tally
	var reps []recommendRep
	measured := 0.0
	for len(reps) < recommendMinReps || measured < float64(seconds) {
		rep, err := recommendOnce(e, seed, &tl, tr, o.serverArgs)
		if err != nil {
			return nil, err
		}
		reps = append(reps, *rep)
		measured += rep.wallS
	}

	first := reps[0].job
	ref := string(designBody(first.design()))
	var walls, setups, rsss, heaps latencies
	for i, r := range reps {
		walls = append(walls, r.wallS*1e3)
		setups = append(setups, r.setupS)
		rsss = append(rsss, r.rss)
		heaps = append(heaps, r.heap)
		if got := string(designBody(r.job.design())); got != ref {
			tl.fail("recommend.joint: repetition %d returned a different design from repetition 0", i)
		}
		if r.job.PlanCalls != first.PlanCalls || r.job.EvalsSkipped != first.EvalsSkipped {
			tl.fail("recommend.joint: repetition %d made %d plan calls and skipped %d evaluations, repetition 0 made %d and skipped %d",
				i, r.job.PlanCalls, r.job.EvalsSkipped, first.PlanCalls, first.EvalsSkipped)
		}
	}
	sorted := sortedCopy(walls)
	tailP := tailPercentile(len(sorted), 99)
	last := reps[len(reps)-1]
	res := &result{Workload: "recommend.joint", Seed: seed, Seconds: seconds, Traced: tr != nil}
	res.Metrics = map[string]metric{
		"setup_s":   {median(setups), "s"},
		"ops_per_s": {float64(len(reps)) / measured, "1/s"},
		"op_p50_ms": {median(walls), "ms"},
		"heap_mb":   {median(heaps), "MiB"},
	}
	res.Detail = map[string]any{
		"loop":            "offline batch, one job at a time, each on a fresh server process",
		"samples":         len(reps),
		"tail_percentile": tailP,
		"setup_samples_s": setups,
		"recommend_s":     median(walls) / 1e3,
		"wall_samples_ms": walls,
		"plan_calls":      first.PlanCalls,
		"evals_skipped":   first.EvalsSkipped,
		"jobs_pruned":     first.JobsPruned,
		"rounds":          first.Rounds,
		"design_objects":  len(first.design()),
		"best_cost":       first.BestCost,
		"op_tail_ms":      percentile(sorted, tailP),
		"rss_mb":          median(rsss),
	}
	if tr != nil {
		res.Detail["scrape_before"], res.Detail["scrape_after"] = last.before, last.after
	}
	tl.fill(res)
	return res, nil
}

func recommendOnce(e *env, seed int64, tl *tally, tr *tracer, serverArgs []string) (*recommendRep, error) {
	rep := &recommendRep{}
	start := time.Now()
	srv, err := startServer(e, serverArgs...)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	c := newClient(srv.base)
	defer c.close()
	seedQ, err := seedQueries(c)
	if err != nil {
		return nil, err
	}
	workload := append(seedQ, genQueries(newRand(seed, "recommend.workload"), recommendQueries)...)
	create, err := json.Marshal(map[string]any{"name": "t0", "workload": workload})
	if err != nil {
		return nil, err
	}
	if r := c.do("POST", "/sessions", create); !r.ok() {
		return nil, fmt.Errorf("create session: %s", r.describe())
	}
	rep.setupS = time.Since(start).Seconds()
	if rep.before, err = scrape(c); err != nil {
		return nil, err
	}

	posted := time.Now()
	r := c.do("POST", "/sessions/t0/recommend", []byte(`{"objects":"joint","strategy":"greedy"}`))
	tr.request(0, "recommend_start", &r)
	if !tl.checked("start recommend job", &r) {
		return nil, fmt.Errorf("start recommend job: %s", r.describe())
	}
	if err := json.Unmarshal(r.body, &rep.job); err != nil {
		return nil, fmt.Errorf("decode job: %w", err)
	}
	path := "/sessions/t0/recommend/" + rep.job.ID
	for rep.job.State == "running" {
		if time.Since(posted) > recommendLimit {
			return nil, fmt.Errorf("recommend job still running after %s", recommendLimit)
		}
		time.Sleep(recommendPoll)
		r = c.do("GET", path, nil)
		tr.request(0, "recommend_poll", &r)
		if !tl.checked("poll recommend job", &r) {
			return nil, fmt.Errorf("poll recommend job: %s", r.describe())
		}
		rep.job = jobStatus{}
		if err := json.Unmarshal(r.body, &rep.job); err != nil {
			return nil, fmt.Errorf("decode job: %w", err)
		}
	}
	rep.wallS = time.Since(posted).Seconds()
	if rep.job.State != "done" || rep.job.Result == nil || rep.job.Result.Truncated {
		return nil, fmt.Errorf("recommend job ended in state %q (error %q) without a full result", rep.job.State, rep.job.Error)
	}
	if rep.after, err = scrape(c); err != nil {
		return nil, err
	}
	if rep.heap, err = srv.liveHeapMiB(c); err != nil {
		return nil, err
	}
	if rep.rss, err = srv.peakRSSMiB(); err != nil {
		return nil, err
	}

	// From-scratch check: a fresh session, the whole design at once.
	create, err = json.Marshal(map[string]any{"name": "check", "workload": workload})
	if err != nil {
		return nil, err
	}
	r = c.do("POST", "/sessions", create)
	if tl.checked("check: create session", &r) {
		r = c.do("POST", "/sessions/check/design", designBody(rep.job.design()))
		if tl.checked("check: apply design", &r) {
			var a editAnswer
			if err := json.Unmarshal(r.body, &a); err != nil {
				tl.fail("check: decode: %v", err)
			} else if !relClose(a.NewCost, rep.job.BestCost, 1e-9) {
				tl.fail("recommend.joint: job reported best cost %v, the design prices at %v from scratch", rep.job.BestCost, a.NewCost)
			}
		}
	}
	return rep, nil
}
