package main

// edit.hot and edit.cold: the interactive session, closed loop, two
// clients each driving one tenant.
//
// edit.hot replays a fixed pass over a small shared object pool. The
// warm-up pass plans every design state the pass visits, so the timed
// passes are served wholly from the shared memo: the serve tier, the
// session commit and the memo hit path do all the work and the
// optimizer does none (X-Plan-Calls must be 0 on every timed request,
// and every recurring answer must repeat its warm-up answer).
//
// edit.cold walks each tenant through designs nobody has seen, over a
// workload six times larger and with the shared memo capped well below
// the working set, so nearly every edit re-plans its footprint and the
// memo evicts: planning and pricing do the work and HTTP is noise.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"
)

const coldMemoCap = 4096

// passStream feeds one tenant's ops pass after pass.
type passStream struct {
	ops      []Op
	i        int
	nextPass func() []Op
	passes   int
}

func (p *passStream) next() *Op {
	if p.i == len(p.ops) {
		p.ops, p.i = p.nextPass(), 0
		p.passes++
	}
	op := &p.ops[p.i]
	p.i++
	return op
}

// editState is a set-up edit workload: a warmed server, one client
// and one op stream per tenant.
type editState struct {
	srv     *server
	clients []*client
	streams []*passStream
	// refs[t][pos] is the fingerprint of tenant t's warm-up answer at
	// pass position pos (edit.hot only).
	refs [][]uint64
	// workloads[t] is tenant t's query list (edit.cold only).
	workloads [][]string
}

func (st *editState) close() {
	if st == nil {
		return
	}
	for _, c := range st.clients {
		c.close()
	}
	if st.srv != nil {
		st.srv.kill()
	}
}

// coldSample is a visited design kept for the from-scratch check.
type coldSample struct {
	tenant int
	design []object
	cost   float64
}

func runEdit(e *env, hot bool, seed int64, o runOpts) (*result, error) {
	seconds, tr := o.seconds, o.tr
	name := "edit.cold"
	if hot {
		name = "edit.hot"
	}
	var tl tally
	setup := func() (*editState, error) { return setupEdit(e, hot, seed, o.serverArgs) }
	st, setupSecs, err := repeatSetup(o.setups, setup, (*editState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()

	before, err := scrape(st.clients[0])
	if err != nil {
		return nil, err
	}
	var (
		when       [workers][]timed
		planCalls  [workers]int64
		inval, rep [workers]int64
		edits      [workers]int64
		kinds      [workers]map[string]int
		samples    [workers][]coldSample
	)
	for w := range kinds {
		kinds[w] = map[string]int{}
		when[w] = make([]timed, 0, 1<<16)
	}
	timing := true
	var start time.Time
	done := func(w int, op *Op, r *reply) {
		if timing {
			when[w] = append(when[w], timed{r.start.Add(r.rtt).Sub(start), float64(r.rtt) / 1e6})
			kinds[w][op.Kind]++
			tr.request(w, op.Kind, r)
		}
		if !tl.checked(op.Kind, r) {
			return
		}
		if hot && r.planCalls != 0 {
			tl.fail("edit.hot: %s at pass position %d planned %d times after warm-up", op.Kind, op.Pos, r.planCalls)
		}
		fp, ans, err := fingerprint(op, r)
		if err != nil {
			tl.fail("%s at pass position %d: %v", op.Kind, op.Pos, err)
			return
		}
		if hot && fp != st.refs[w][op.Pos] {
			tl.fail("edit.hot: %s at pass position %d answered differently from its warm-up answer", op.Kind, op.Pos)
		}
		if !timing {
			return
		}
		planCalls[w] += max(r.planCalls, 0)
		if ans != nil {
			edits[w]++
			inval[w] += int64(ans.Invalidated)
			rep[w] += int64(ans.Repriced)
			if !hot && edits[w]%50 == 0 {
				samples[w] = append(samples[w], coldSample{op.Tenant, op.design, ans.NewCost})
			}
		}
	}
	start = time.Now()
	closedLoop(st.clients, start.Add(time.Duration(seconds)*time.Second),
		func(w int) *Op { return st.streams[w].next() }, done)
	elapsed := time.Since(start).Seconds()
	after, err := scrape(st.clients[0])
	if err != nil {
		return nil, err
	}
	// Untimed: run every tenant to the end of its pass, so that memory
	// is read with the sessions freshly re-opened, whatever position
	// the clock stopped the run at.
	timing = false
	closedLoop(st.clients, time.Now().Add(time.Hour),
		func(w int) *Op {
			if s := st.streams[w]; s.i == len(s.ops) {
				return nil
			}
			return st.streams[w].next()
		}, done)
	heap, err := st.srv.liveHeapMiB(st.clients[0])
	if err != nil {
		return nil, err
	}
	peak, err := st.srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}

	checked := 0
	if !hot {
		checked = verifyColdSamples(st, samples[:], &tl)
	}

	var every []timed
	for w := range when {
		every = append(every, when[w]...)
	}
	rates, p50s := slices(every, time.Duration(seconds)*time.Second)
	all := make([]float64, len(every))
	for i, s := range every {
		all[i] = s.ms
	}
	sort.Float64s(all)
	if len(all) == 0 {
		return nil, fmt.Errorf("%s: no request completed in %ds", name, seconds)
	}
	tailP := tailPercentile(len(all), 99)
	res := &result{Workload: name, Seed: seed, Seconds: seconds, Traced: tr != nil}
	res.Metrics = map[string]metric{
		"setup_s":   {median(setupSecs), "s"},
		"ops_per_s": {float64(len(all)) / elapsed, "1/s"},
		"op_p50_ms": {percentile(all, 50), "ms"},
		"heap_mb":   {heap, "MiB"},
	}
	mix := map[string]int{}
	var totalPlans, totalEdits, totalInval, totalRep int64
	passes := 0
	for w := 0; w < workers; w++ {
		for k, n := range kinds[w] {
			mix[k] += n
		}
		totalPlans += planCalls[w]
		totalEdits += edits[w]
		totalInval += inval[w]
		totalRep += rep[w]
		passes += st.streams[w].passes
	}
	res.Detail = map[string]any{
		"loop":                 fmt.Sprintf("closed, %d clients = %d tenants", workers, workers),
		"samples":              len(all),
		"tail_percentile":      tailP,
		"setup_samples_s":      setupSecs,
		"op_mix":               mix,
		"passes":               passes,
		"timed_plan_calls":     totalPlans,
		"invalidated_per_edit": float64(totalInval) / math.Max(float64(totalEdits), 1),
		"replanned_per_edit":   float64(totalPlans) / math.Max(float64(totalEdits), 1),
		"repriced_per_edit":    float64(totalRep) / math.Max(float64(totalEdits), 1),
		"memo_hit_ratio":       ratio(delta(before, after, "stats.shared.hits"), delta(before, after, "stats.shared.misses")),
		"memo_evictions":       delta(before, after, "stats.shared.evictions"),
		"designs_rechecked":    checked,
		"edits_per_s":          float64(len(all)) / elapsed,
		"edit_p50_ms":          percentile(all, 50),
		"edit_p99_ms":          percentile(all, tailP),
		"op_tail_ms":           percentile(all, tailP),
		"costs_reads":          mix[opCosts],
		"rss_mb":               peak,
		"slice_ops_per_s":      rates,
		"slice_p50_ms":         p50s,
	}
	if tr != nil {
		res.Detail["scrape_before"], res.Detail["scrape_after"] = before, after
	}
	tl.fill(res)
	return res, nil
}

// setupEdit boots a server, opens the tenants' sessions and runs the
// warm-up pass. For edit.hot the warm-up's answers become the
// references the timed passes must repeat.
func setupEdit(e *env, hot bool, seed int64, serverArgs []string) (st *editState, err error) {
	st = &editState{}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	args := serverArgs
	if !hot {
		args = append([]string{"-memo-cap", fmt.Sprint(coldMemoCap)}, args...)
	}
	if st.srv, err = startServer(e, args...); err != nil {
		return nil, err
	}
	for w := 0; w < workers; w++ {
		st.clients = append(st.clients, newClient(st.srv.base))
	}
	if hot {
		for t := 0; t < workers; t++ {
			pass := genHotPass(seed, t)
			st.streams = append(st.streams, &passStream{ops: pass, nextPass: func() []Op { return pass }})
			st.refs = append(st.refs, make([]uint64, len(pass)))
		}
	} else {
		seedQ, err := seedQueries(st.clients[0])
		if err != nil {
			return nil, err
		}
		for t := 0; t < workers; t++ {
			wl := coldWorkload(seed, t, seedQ)
			g := newColdGen(seed, t, wl)
			st.workloads = append(st.workloads, wl)
			st.streams = append(st.streams, &passStream{ops: g.pass(), nextPass: g.pass})
		}
	}
	// Open the sessions with each pass's own closing create op.
	for t, s := range st.streams {
		create := &s.ops[len(s.ops)-1]
		if r := st.clients[t].doOp(create); !r.ok() {
			return nil, fmt.Errorf("create %s: %s", tenantName(t), r.describe())
		}
	}
	// Warm-up: exactly one pass per tenant, both tenants at once.
	var warmErr [workers]error
	closedLoop(st.clients, time.Now().Add(time.Hour),
		func(w int) *Op {
			if s := st.streams[w]; s.i == len(s.ops) || warmErr[w] != nil {
				return nil
			}
			return st.streams[w].next()
		},
		func(w int, op *Op, r *reply) {
			if !r.ok() {
				warmErr[w] = fmt.Errorf("warm-up %s at pass position %d: %s", op.Kind, op.Pos, r.describe())
				return
			}
			if hot {
				fp, _, err := fingerprint(op, r)
				if err != nil {
					warmErr[w] = fmt.Errorf("warm-up %s at pass position %d: %v", op.Kind, op.Pos, err)
				}
				st.refs[w][op.Pos] = fp
			}
		})
	for _, err := range warmErr {
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

// fingerprint reduces an answer to what must repeat when the same
// design recurs: the whole body of a costs read, the signature and
// total cost of an edit. It also checks an edit's design size against
// the generator's model, and returns the decoded edit answer.
func fingerprint(op *Op, r *reply) (uint64, *editAnswer, error) {
	h := fnv.New64a()
	switch {
	case op.Kind == opCosts:
		h.Write(r.body)
		return h.Sum64(), nil, nil
	case op.isEdit():
		var a editAnswer
		if err := json.Unmarshal(r.body, &a); err != nil {
			return 0, nil, fmt.Errorf("decode edit answer: %w", err)
		}
		if a.objects() != op.Objects {
			return 0, nil, fmt.Errorf("server holds %d design objects, the model %d", a.objects(), op.Objects)
		}
		h.Write([]byte(a.Signature))
		var bits [8]byte
		binary.LittleEndian.PutUint64(bits[:], math.Float64bits(a.NewCost))
		h.Write(bits[:])
		return h.Sum64(), &a, nil
	}
	return 0, nil, nil
}

// coldChecks bounds how many sampled designs are re-priced.
const coldChecks = 40

// verifyColdSamples re-prices sampled designs from scratch: a fresh
// session over the tenant's workload, the whole design applied in one
// step, must total what the walk's incremental edit reported.
func verifyColdSamples(st *editState, per [][]coldSample, tl *tally) int {
	var all []coldSample
	for _, s := range per {
		all = append(all, s...)
	}
	step := max(1, (len(all)+coldChecks-1)/coldChecks)
	c := st.clients[0]
	n := 0
	for i := 0; i < len(all); i += step {
		s := all[i]
		n++
		create, err := json.Marshal(map[string]any{"name": "check", "workload": st.workloads[s.tenant]})
		if err != nil {
			panic(err) // strings only
		}
		r := c.do("POST", "/sessions", create)
		if !tl.checked("check: create session", &r) {
			continue
		}
		r = c.do("POST", "/sessions/check/design", designBody(s.design))
		if tl.checked("check: apply design", &r) {
			var a editAnswer
			if err := json.Unmarshal(r.body, &a); err != nil {
				tl.fail("check: decode: %v", err)
			} else if !relClose(a.NewCost, s.cost, 1e-9) {
				tl.fail("edit.cold: design of %d objects priced %v incrementally but %v from scratch", len(s.design), s.cost, a.NewCost)
			}
		}
		r = c.do("DELETE", "/sessions/check", nil)
		tl.checked("check: drop session", &r)
	}
	return n
}
