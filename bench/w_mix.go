package main

// mix.durable: the shared service under journaling. Sixteen tenants,
// zipf-skewed, receive a mix of costs reads, journaled edits, ingests
// and explains on a Poisson schedule at three frozen rates (open
// loop, timed from each request's due time), then a closed-loop burst
// measures what the server can sustain, then the server is SIGKILLed
// and restarted on the same -data-dir. The serve and session code of
// edit.hot is used here with writes beside reads, WAL appends and
// snapshot cuts in the foreground path, and the parser and the ingest
// window on a fifth of the requests.
//
// Each worker replays one pass of ops (see genMixPass) for as long as
// the run lasts, and the warm-up is one replay of it: the timed steps
// plan nothing and meet a server whose memo, journal tail and
// snapshots have stopped growing.
//
// The flush policy is -fsync interval throughout, so the numbers
// measure the program and not the sandbox's disk. Snapshots are cut
// every 2 s so that each step sees several.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"
)

// mixRates are the three arrival rates in requests per second, all
// workers together. They were frozen at about 10 / 30 / 80 % of the
// closed-loop saturation measured once on the commit that introduced
// the benchmark (see README.md) and are never recomputed per run. The
// gated latency is the mid step's: low enough that queueing does not
// multiply the sandbox's CPU wander into it (at 40 % a run in a slow
// spell read half as much again as one in a fast spell).
var mixRates = [3]float64{750, 2250, 6000}

const (
	midStep = 1
	// mixLimitMS is the latency limit on the tail percentile that a
	// rate step must meet to count toward max_rate_ok.
	mixLimitMS  = 25.0
	mixBacklogS = 1.0
	mixSettle   = 250 * time.Millisecond
	recoverReps = 3
)

// mixShares splits --seconds over the three rate steps and the
// closed-loop burst; the mid step and the burst, whose numbers are
// gated, get most.
var mixShares = [4]float64{0.15, 0.35, 0.15, 0.35}

type mixState struct {
	srv     *server
	dataDir string
	clients []*client
	// passes[w] is worker w's pass, replayed over and over; pos[w] is
	// how many of its ops the worker has sent.
	passes [][]Op
	pos    [workers]int
	// gaps[w] draws worker w's exponential inter-arrival times.
	gaps [workers]*rand.Rand
	// undo and redo are each tenant's history depths as the client has
	// seen them acknowledged; a tenant's entries are written only by
	// the worker that edits it.
	undo, redo [mixTenants]int
}

// next is worker w's next op.
func (st *mixState) next(w int) *Op {
	p := st.passes[w]
	op := &p[st.pos[w]%len(p)]
	st.pos[w]++
	return op
}

// acked moves the client's view of the tenant's history depths.
func (st *mixState) acked(op *Op) {
	t := op.Tenant
	switch op.Kind {
	case opUndo:
		st.undo[t], st.redo[t] = st.undo[t]-1, st.redo[t]+1
	case opRedo:
		st.undo[t], st.redo[t] = st.undo[t]+1, st.redo[t]-1
	default:
		st.undo[t], st.redo[t] = st.undo[t]+1, 0
	}
}

func (st *mixState) close() {
	if st == nil {
		return
	}
	for _, c := range st.clients {
		c.close()
	}
	if st.srv != nil {
		st.srv.kill()
	}
	if st.dataDir != "" {
		_ = os.RemoveAll(st.dataDir) // temp dir under the harness's own tmp; best effort
	}
}

func mixServerArgs(dataDir string, extra []string) []string {
	return append([]string{"-data-dir", dataDir, "-fsync", "interval", "-snapshot-interval", "2s"}, extra...)
}

// stepStats is one rate step's outcome.
type stepStats struct {
	Rate      float64 `json:"rate"`
	Sent      int     `json:"sent"`
	P50MS     float64 `json:"p50_ms"`
	TailMS    float64 `json:"tail_ms"`
	TailP     float64 `json:"tail_percentile"`
	LateP50MS float64 `json:"generator_late_p50_ms"`
	LateMaxMS float64 `json:"generator_late_max_ms"`
	BacklogS  float64 `json:"backlog_s"`
	Failed    int64   `json:"failed"`
	OK        bool    `json:"ok"`
}

func runMix(e *env, seed int64, o runOpts) (*result, error) {
	seconds, tr, serverArgs := o.seconds, o.tr, o.serverArgs
	var tl tally
	setup := func() (*mixState, error) { return setupMix(e, seed, serverArgs) }
	st, setupSecs, err := repeatSetup(o.setups, setup, (*mixState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	before, err := scrape(st.clients[0])
	if err != nil {
		return nil, err
	}

	var journaled, planCalls [workers]int64
	kinds := [workers]map[string]int{}
	for w := range kinds {
		kinds[w] = map[string]int{}
	}
	account := func(w int, op *Op, r *reply) {
		kinds[w][op.Kind]++
		tr.request(w, op.Kind, r)
		if !tl.checked(op.Kind, r) {
			return
		}
		planCalls[w] += max(r.planCalls, 0)
		if op.isEdit() {
			journaled[w]++
			var a editAnswer
			if err := json.Unmarshal(r.body, &a); err != nil {
				tl.fail("%s: decode edit answer: %v", op.Kind, err)
			} else if a.objects() != op.Objects {
				tl.fail("%s on %s: server holds %d design objects, the model %d", op.Kind, tenantName(op.Tenant), a.objects(), op.Objects)
			}
			st.acked(op)
		}
	}

	// Open loop: the three rate steps.
	var steps []stepStats
	for i, rate := range mixRates {
		dur := time.Duration(float64(seconds) * mixShares[i] * float64(time.Second))
		steps = append(steps, runStep(st, rate, dur, &tl, account))
	}

	// Memory is read here, after a number of requests the seed fixes,
	// rather than after the burst, whose count depends on its speed: the
	// journal keeps every edit's record in memory, so the heap grows
	// with the edits done.
	heap, err := st.srv.liveHeapMiB(st.clients[0])
	if err != nil {
		return nil, err
	}

	// Closed loop: what the server sustains with both connections busy.
	var satLat [workers]latencies
	satStart := time.Now()
	satDur := time.Duration(float64(seconds) * mixShares[3] * float64(time.Second))
	closedLoop(st.clients, satStart.Add(satDur),
		st.next,
		func(w int, op *Op, r *reply) { satLat[w].add(r.rtt); account(w, op, r) })
	satElapsed := time.Since(satStart).Seconds()
	satAll := merged(satLat[:])
	if len(satAll) == 0 {
		return nil, fmt.Errorf("mix.durable: no request completed in the closed-loop burst")
	}

	time.Sleep(mixSettle) // let the interval flusher run once more
	after, err := scrape(st.clients[0])
	if err != nil {
		return nil, err
	}
	peak, err := st.srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	rec, err := crashAndRecover(e, st, serverArgs, &tl)
	if err != nil {
		return nil, err
	}

	maxRateOK := 0.0
	for _, s := range steps {
		if !s.OK {
			break
		}
		maxRateOK = s.Rate
	}
	var totalJournaled, totalPlans int64
	mix := map[string]int{}
	for w := 0; w < workers; w++ {
		totalJournaled += journaled[w]
		totalPlans += planCalls[w]
		for k, n := range kinds[w] {
			mix[k] += n
		}
	}
	mid := steps[midStep]
	res := &result{Workload: "mix.durable", Seed: seed, Seconds: seconds, Traced: tr != nil}
	res.Metrics = map[string]metric{
		"setup_s":   {median(setupSecs), "s"},
		"ops_per_s": {float64(len(satAll)) / satElapsed, "1/s"},
		"op_p50_ms": {mid.P50MS, "ms"},
		"heap_mb":   {heap, "MiB"},
	}
	walAppends := delta(before, after, "stats.durability.store.appends")
	res.Detail = map[string]any{
		"loop": fmt.Sprintf("open, Poisson arrivals at %v req/s over %d connections, %d tenants zipf(%.1f); then closed, %d clients",
			mixRates, workers, mixTenants, zipfS, workers),
		"steps":               steps,
		"mix_p50_ms":          mid.P50MS,
		"mix_p99_ms":          mid.TailMS,
		"max_rate_ok":         maxRateOK,
		"latency_limit_ms":    mixLimitMS,
		"saturation_per_s":    float64(len(satAll)) / satElapsed,
		"saturation_samples":  len(satAll),
		"saturation_p50_ms":   percentile(satAll, 50),
		"setup_samples_s":     setupSecs,
		"op_mix":              mix,
		"journaled_ops":       totalJournaled,
		"wal_appends":         walAppends,
		"wal_bytes":           delta(before, after, "stats.durability.store.appendedBytes"),
		"wal_fsyncs":          delta(before, after, "stats.durability.store.fsyncs"),
		"snapshots":           after["stats.durability.store.snapshots"],
		"ingest_accepted":     delta(before, after, "parinda_ingest_accepted_total"),
		"ingest_rejected":     delta(before, after, "parinda_ingest_rejected_total"),
		"recover_s":           median(rec.secs),
		"recover_samples_s":   rec.secs,
		"recover_plan_calls":  rec.planCalls,
		"recover_server_s":    rec.serverSecs,
		"recover_records":     rec.records,
		"tenants_verified":    rec.verified,
		"tail_percentile_mid": mid.TailP,
		"op_tail_ms":          mid.TailMS,
		"rss_mb":              peak,
		"timed_plan_calls":    totalPlans,
		"costs_reads":         mix[opCosts],
	}
	if walAppends < float64(totalJournaled) {
		tl.fail("mix.durable: %d edits acknowledged but only %.0f WAL appends", totalJournaled, walAppends)
	}
	if tr != nil {
		res.Detail["scrape_before"], res.Detail["scrape_after"] = before, after
	}
	tl.fill(res)
	return res, nil
}

// setupMix boots a journaling server on a fresh data dir, opens the
// sixteen sessions and replays each worker's pass once, closed loop.
func setupMix(e *env, seed int64, serverArgs []string) (st *mixState, err error) {
	st = &mixState{}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	if st.dataDir, err = os.MkdirTemp(e.tmpDir(), "data-"); err != nil {
		return nil, err
	}
	if st.srv, err = startServer(e, mixServerArgs(st.dataDir, serverArgs)...); err != nil {
		return nil, err
	}
	for w := 0; w < workers; w++ {
		st.clients = append(st.clients, newClient(st.srv.base))
	}
	queries := 0
	for t := 0; t < mixTenants; t++ {
		op := Op{Tenant: t, Kind: opCreateSession}
		op.render(nil)
		r := st.clients[0].doOp(&op)
		if !r.ok() {
			return nil, fmt.Errorf("create %s: %s", tenantName(t), r.describe())
		}
		var info struct {
			Queries int `json:"queries"`
		}
		if err := json.Unmarshal(r.body, &info); err != nil || info.Queries == 0 {
			return nil, fmt.Errorf("create %s: no query count in %q (%v)", tenantName(t), r.body, err)
		}
		queries = info.Queries
	}
	for w := 0; w < workers; w++ {
		st.passes = append(st.passes, genMixPass(seed, w, workers, queries))
		st.gaps[w] = newRand(seed, fmt.Sprintf("mix.gaps.%d", w))
	}
	// Warm-up: every worker replays its pass once, which plans every
	// design state the run will visit.
	var warmErr [workers]error
	closedLoop(st.clients, time.Now().Add(time.Hour),
		func(w int) *Op {
			if st.pos[w] == len(st.passes[w]) || warmErr[w] != nil {
				return nil
			}
			return st.next(w)
		},
		func(w int, op *Op, r *reply) {
			if !r.ok() {
				warmErr[w] = fmt.Errorf("warm-up %s on %s: %s", op.Kind, tenantName(op.Tenant), r.describe())
			} else if op.isEdit() {
				st.acked(op)
			}
		})
	for _, err := range warmErr {
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

// runStep offers one Poisson rate for dur. Each worker follows its
// own schedule at rate/workers; latency runs from the due time.
func runStep(st *mixState, rate float64, dur time.Duration, tl *tally, account func(int, *Op, *reply)) stepStats {
	var (
		due      [workers]time.Duration
		lat      [workers]latencies
		late     [workers]latencies
		lastDone [workers]time.Time
	)
	failedBefore := tl.failed.Load()
	start := time.Now()
	openLoop(st.clients, start,
		func(w int) *arrival {
			due[w] += time.Duration(st.gaps[w].ExpFloat64() / (rate / workers) * float64(time.Second))
			if due[w] >= dur {
				return nil
			}
			return &arrival{op: st.next(w), due: due[w]}
		},
		func(w int, a *arrival, r *reply, s openSample) {
			lat[w].add(s.latency)
			late[w].add(s.late)
			lastDone[w] = r.start.Add(r.rtt)
			account(w, a.op, r)
		})
	all, lateAll := merged(lat[:]), merged(late[:])
	s := stepStats{Rate: rate, Sent: len(all), Failed: tl.failed.Load() - failedBefore}
	s.TailP = tailPercentile(len(all), 99)
	s.P50MS, s.TailMS = percentile(all, 50), percentile(all, s.TailP)
	s.LateP50MS, s.LateMaxMS = percentile(lateAll, 50), lateAll[len(lateAll)-1]
	for _, t := range lastDone {
		s.BacklogS = max(s.BacklogS, t.Sub(start.Add(dur)).Seconds())
	}
	s.OK = s.TailMS <= mixLimitMS && s.Failed == 0 && s.BacklogS < mixBacklogS
	return s
}

// recovery is the outcome of the crash-and-restart section.
type recovery struct {
	secs       []float64
	planCalls  int64
	serverSecs float64
	records    float64
	verified   int
}

// tenantView is what a client can see of one tenant: the session
// description without its lifetime counters, and the costs panel.
type tenantView struct {
	info  []byte
	costs []byte
	plans int64
}

func viewTenant(c *client, t int) (*tenantView, error) {
	var info struct {
		Design    json.RawMessage `json:"design"`
		Signature string          `json:"signature"`
		UndoDepth int             `json:"undoDepth"`
		RedoDepth int             `json:"redoDepth"`
		Stats     struct {
			PlanCalls int64 `json:"planCalls"`
		} `json:"stats"`
	}
	if err := getJSON(c, "/sessions/"+tenantName(t), &info); err != nil {
		return nil, err
	}
	v := &tenantView{plans: info.Stats.PlanCalls}
	v.info = fmt.Appendf(nil, "%s|%s|undo=%d|redo=%d", info.Design, info.Signature, info.UndoDepth, info.RedoDepth)
	r := c.do("GET", "/sessions/"+tenantName(t)+"/costs", nil)
	if !r.ok() {
		return nil, fmt.Errorf("GET costs of %s: %s", tenantName(t), r.describe())
	}
	v.costs = bytes.Clone(r.body)
	return v, nil
}

// crashAndRecover records what every tenant looked like when its last
// request was acknowledged, checks the history depths against the
// generator's model, then SIGKILLs the server and restarts it on the
// same data dir recoverReps times. Each restart must bring back every
// tenant byte for byte without planning anything.
func crashAndRecover(e *env, st *mixState, serverArgs []string, tl *tally) (*recovery, error) {
	want := make([]*tenantView, mixTenants)
	for t := range want {
		v, err := viewTenant(st.clients[0], t)
		if err != nil {
			return nil, err
		}
		want[t] = v
		model := fmt.Sprintf("|undo=%d|redo=%d", st.undo[t], st.redo[t])
		tl.attempt()
		if !bytes.HasSuffix(v.info, []byte(model)) {
			tl.fail("mix.durable: %s is at %s, the client's model at %s", tenantName(t), v.info, model)
		}
	}
	rec := &recovery{}
	for i := 0; i < recoverReps; i++ {
		for _, c := range st.clients {
			c.close()
		}
		killed := time.Now()
		st.srv.kill()
		srv, err := startServer(e, mixServerArgs(st.dataDir, serverArgs)...)
		if err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		st.srv = srv
		st.clients = st.clients[:0]
		for w := 0; w < workers; w++ {
			st.clients = append(st.clients, newClient(srv.base))
		}
		got := make([]*tenantView, mixTenants)
		for t := range got {
			if got[t], err = viewTenant(st.clients[0], t); err != nil {
				tl.attempt()
				tl.fail("mix.durable: after restart %d: %v", i, err)
				got[t] = &tenantView{}
			}
		}
		rec.secs = append(rec.secs, time.Since(killed).Seconds())
		rec.planCalls = 0
		for t := range got {
			tl.attempt()
			rec.planCalls += got[t].plans
			switch {
			case !bytes.Equal(got[t].info, want[t].info):
				tl.fail("mix.durable: after restart %d %s came back as %s, acknowledged was %s", i, tenantName(t), got[t].info, want[t].info)
			case !bytes.Equal(got[t].costs, want[t].costs):
				tl.fail("mix.durable: after restart %d %s came back with different costs", i, tenantName(t))
			default:
				rec.verified++
			}
		}
		if rec.planCalls != 0 {
			tl.fail("mix.durable: restart %d planned %d times to rebuild the sessions", i, rec.planCalls)
		}
		sc, err := scrape(st.clients[0])
		if err != nil {
			return nil, err
		}
		rec.serverSecs = sc["stats.durability.recoverSeconds"]
		rec.records = sc["stats.durability.recoverRecords"]
	}
	return rec, nil
}
