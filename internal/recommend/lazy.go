package recommend

// Lazy, footprint-pruned candidate scoring for the greedy loop.
//
// An exhaustive sweep — the specification, kept as the test oracle in
// oracle_test.go — prices len(candidates) × len(queries) jobs every
// round even though applying a move changes the plans of only the
// queries that touch the moved table. This file is the
// search-side analogue of the design-session invariant ("re-price only
// footprint-intersecting queries"): it keeps, per candidate, an exact
// per-query trial-cost cache over the candidate's own footprint and
// combines two pruning layers on top of it.
//
//  1. Exact gain invariance. A query q that does not reference
//     candidate c's table cannot use c, so cost_q(D ∪ {c}) =
//     cost_q(D). The cache therefore only spans Q(c) — the queries
//     touching c's table — and a cached entry stays exact until a
//     chosen move lands on a table q references. After a move on table
//     t, only the (candidate, query) pairs whose query touches t are
//     marked stale; everything else is served from the cache verbatim.
//
//  2. CELF-style lazy re-evaluation. Candidates enter a max-heap
//     ordered by benefit-per-byte score. Fresh candidates carry their
//     exact score; stale ones carry an optimistic bound (stale entries
//     priced as if the candidate made those queries free — valid for
//     any non-negative cost model, no submodularity assumed). A stale
//     candidate is re-priced — over its stale queries only — when it
//     reaches the top; the sweep ends the moment the top is fresh,
//     because no stale bound below it can beat an exact score above
//     it. Most candidates are never re-priced in most rounds.
//
// Every cached entry is also in the evaluator's memo (the projected key
// of an unchanged query is a hit there), but the cache is what decides
// freshness: the bound and the evaluation budget's trial count depend
// only on this search's own moves, never on what other searches or
// design sessions left in a shared, possibly evicting, memo. Serving the
// fresh entries from the memo instead would cost one key build and
// probe each (34 008 on the benchmark's recommend.joint job).
//
// The sweep reproduces the exhaustive sweep's choices bit for bit:
// exact scores are computed by patching the cached entries into the
// current per-query vector and folding it in workload order — the
// identical floating-point sum a full re-pricing produces — and heap
// ties break by original candidate position, mirroring the exhaustive
// scan's strict "first maximum wins".

import (
	"container/heap"

	"repro/internal/inum"
	"repro/internal/sql"
)

// gainEps is the shared improvement threshold: a move qualifies only
// if it gains strictly more than this (greedy and anytime agree).
const gainEps = 1e-9

// lazyCand is one index candidate with its cached trial costs.
type lazyCand struct {
	pos  int // position in the candidate list — the tie-break order
	spec inum.IndexSpec

	// size and maint are design-independent; computed once at search
	// start.
	size  int64
	maint float64

	qidx   []int     // workload queries touching spec.Table, ascending
	per    []float64 // cached trial costs, aligned with qidx
	stale  []bool    // per entry: true until priced under the current design
	nStale int
	gone   bool // chosen, or dead (its table was partitioned)
}

// lazyScorer owns the candidate caches and the current design's
// per-query cost vector for one search.
type lazyScorer struct {
	ev      *Evaluator
	queries []Query
	foot    []*sql.Footprint // per-query footprints, aligned with queries
	cands   []*lazyCand
	curPer  []float64 // unweighted per-query costs of the accepted design
	current float64   // weighted total of curPer
}

// newLazyScorer sizes every candidate once over the evaluator's
// footprints. The caller seeds the cost state with setBase.
func newLazyScorer(p *Problem) (*lazyScorer, error) {
	ls := &lazyScorer{ev: p.Eval, queries: p.Queries, foot: p.Eval.foot}
	for i, spec := range p.IndexCandidates {
		sz, err := p.Eval.SpecSizeBytes(spec)
		if err != nil {
			return nil, err
		}
		c := &lazyCand{
			pos:   i,
			spec:  spec,
			size:  sz,
			maint: MaintenanceCost(spec, sz, p.Opts.UpdateRates),
		}
		for qi := range p.Queries {
			if ls.foot[qi].TouchesTable(spec.Table) {
				c.qidx = append(c.qidx, qi)
			}
		}
		c.per = make([]float64, len(c.qidx))
		c.stale = make([]bool, len(c.qidx))
		for k := range c.stale {
			c.stale[k] = true
		}
		c.nStale = len(c.qidx)
		ls.cands = append(ls.cands, c)
	}
	return ls, nil
}

// setBase seeds the current-design cost state.
func (ls *lazyScorer) setBase(per []float64) {
	ls.curPer = append([]float64(nil), per...)
	ls.current = ls.ev.WeightedTotal(ls.curPer)
}

// trialCost folds c's trial design into the weighted workload total:
// cached entries over c's footprint, the current costs everywhere
// else. Summed in workload order so the result is bit-identical to the
// exhaustive sweep's fold over a full per-query vector. Exact only when c
// has no stale entries.
func (ls *lazyScorer) trialCost(c *lazyCand) float64 {
	total := 0.0
	k := 0
	for q := range ls.queries {
		v := ls.curPer[q]
		if k < len(c.qidx) && c.qidx[k] == q {
			v = c.per[k]
			k++
		}
		total += v * ls.queries[q].Weight
	}
	return total
}

// boundCost is trialCost with every stale entry priced at zero — a
// lower bound on the trial cost for any non-negative cost model, which
// makes current−boundCost−maint an upper bound on the true gain.
func (ls *lazyScorer) boundCost(c *lazyCand) float64 {
	total := 0.0
	k := 0
	for q := range ls.queries {
		v := ls.curPer[q]
		if k < len(c.qidx) && c.qidx[k] == q {
			if c.stale[k] {
				v = 0
			} else {
				v = c.per[k]
			}
			k++
		}
		total += v * ls.queries[q].Weight
	}
	return total
}

// patched returns the full per-query cost vector of c's trial design —
// the current vector with c's cached entries patched over its
// footprint. Valid when c is fresh.
func (ls *lazyScorer) patched(c *lazyCand) []float64 {
	per := append([]float64(nil), ls.curPer...)
	for k, q := range c.qidx {
		per[q] = c.per[k]
	}
	return per
}

// applyIndex commits candidate c as the round's move: the current cost
// vector absorbs c's cached entries (exact — see the invariance note
// above), c leaves the pool, and every other candidate's cache entries
// for queries touching c's table go stale. Returns the new current
// weighted cost.
func (ls *lazyScorer) applyIndex(c *lazyCand) float64 {
	for k, q := range c.qidx {
		ls.curPer[q] = c.per[k]
	}
	ls.current = ls.ev.WeightedTotal(ls.curPer)
	c.gone = true
	ls.staleTable(c.spec.Table)
	return ls.current
}

// applyExternal commits a move the scorer did not price — an anytime
// partitioning move on table t, priced over the full workload.
// perNew becomes the current vector; candidates on t are dead (the
// rewritten workload never references the parent table), and cache
// entries for queries touching t go stale everywhere else.
func (ls *lazyScorer) applyExternal(t string, perNew []float64) {
	copy(ls.curPer, perNew)
	ls.current = ls.ev.WeightedTotal(ls.curPer)
	for _, c := range ls.cands {
		if !c.gone && c.spec.Table == t {
			c.gone = true
		}
	}
	ls.staleTable(t)
}

// staleTable marks, for every live candidate, the cache entries of
// queries that reference t.
func (ls *lazyScorer) staleTable(t string) {
	for _, c := range ls.cands {
		if c.gone {
			continue
		}
		for k, q := range c.qidx {
			if !c.stale[k] && ls.foot[q].TouchesTable(t) {
				c.stale[k] = true
				c.nStale++
			}
		}
	}
}

// scoreOf is the shared benefit-per-byte objective with the zero-size
// clamp (free moves score by raw gain).
func scoreOf(gain float64, bytes int64) float64 {
	if bytes < 1 {
		bytes = 1
	}
	return gain / float64(bytes)
}

// sweepHooks are the search loop's side of one round's sweep.
type sweepHooks struct {
	// fits filters candidates for this round (storage budget,
	// partitioned-table exclusion).
	fits func(*lazyCand) bool
	// stop reports that the evaluation budget ran out; checked before
	// each re-pricing.
	stop func() bool
	// price returns c's trial costs for the query subset sub (workload
	// positions, ascending), aligned with sub. A true second result
	// means the budget stopped the pricing mid-flight.
	price func(c *lazyCand, sub []int) ([]float64, bool, error)
}

// sweepResult is one round's outcome.
type sweepResult struct {
	winner  *lazyCand
	gain    float64 // exact gain of winner (maintenance subtracted)
	cost    float64 // full-workload weighted cost of winner's trial
	stopped bool    // budget ran out mid-sweep; winner is best-so-far
}

// sweepEntry is one heap element: a candidate with either its exact
// score (fresh) or an optimistic bound (stale).
type sweepEntry struct {
	c     *lazyCand
	gain  float64
	score float64
	cost  float64 // trial cost; meaningful for fresh entries only
	fresh bool
}

// sweepHeap orders by score descending, breaking ties by original
// candidate position — the exhaustive scan's "first strict maximum wins".
type sweepHeap []sweepEntry

func (h sweepHeap) Len() int { return len(h) }
func (h sweepHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return h[i].c.pos < h[j].c.pos
}
func (h sweepHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *sweepHeap) Push(x any)   { *h = append(*h, x.(sweepEntry)) }
func (h *sweepHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h sweepHeap) better(i, j sweepEntry) bool { // is i strictly better than j
	return i.score > j.score || (i.score == j.score && i.c.pos < j.c.pos)
}

// sweep runs one lazy round: find the candidate the exhaustive sweep
// would have chosen, re-pricing as few (candidate, query) pairs as possible.
// A nil winner with stopped=false means the round converged (no
// candidate improves the workload). The skip counters on the Evaluator
// advance by the work an exhaustive round would have done minus the work
// actually done.
func (ls *lazyScorer) sweep(h sweepHooks) (sweepResult, error) {
	var res sweepResult
	var hp sweepHeap
	eligible, priced, jobs := 0, 0, 0
	for _, c := range ls.cands {
		if c.gone || !h.fits(c) {
			continue
		}
		eligible++
		if c.nStale == 0 {
			cost := ls.trialCost(c)
			gain := ls.current - cost - c.maint
			if gain <= gainEps {
				continue // exactly known not to improve — no entry, no pricing
			}
			heap.Push(&hp, sweepEntry{c: c, gain: gain, score: scoreOf(gain, c.size), cost: cost, fresh: true})
			continue
		}
		bound := ls.current - ls.boundCost(c) - c.maint
		if bound <= gainEps {
			continue // even the optimistic bound disqualifies it
		}
		heap.Push(&hp, sweepEntry{c: c, gain: bound, score: scoreOf(bound, c.size), fresh: false})
	}

	// best tracks the best exact entry seen, the winner when the
	// budget stops the sweep mid-round (best-so-far semantics).
	var best *sweepEntry
	note := func(e sweepEntry) {
		if best == nil || hp.better(e, *best) {
			tmp := e
			best = &tmp
		}
	}
	for hp.Len() > 0 {
		e := heap.Pop(&hp).(sweepEntry)
		if e.fresh {
			// Every remaining stale bound is ≤ this exact score: done.
			note(e)
			res.winner, res.gain, res.cost = e.c, e.gain, e.cost
			break
		}
		if h.stop() {
			res.stopped = true
			break
		}
		sub := make([]int, 0, e.c.nStale)
		for k, q := range e.c.qidx {
			if e.c.stale[k] {
				sub = append(sub, q)
			}
		}
		costs, stopped, err := h.price(e.c, sub)
		if err != nil {
			return res, err
		}
		if stopped {
			res.stopped = true
			break
		}
		si := 0
		for k := range e.c.qidx {
			if e.c.stale[k] {
				e.c.per[k] = costs[si]
				e.c.stale[k] = false
				si++
			}
		}
		e.c.nStale = 0
		priced++
		jobs += len(sub)
		cost := ls.trialCost(e.c)
		gain := ls.current - cost - e.c.maint
		if gain <= gainEps {
			continue // priced, and it does not qualify this round
		}
		heap.Push(&hp, sweepEntry{c: e.c, gain: gain, score: scoreOf(gain, e.c.size), cost: cost, fresh: true})
	}
	if res.stopped {
		// Initially-fresh candidates never popped are still exact
		// answers; let the best of them win the truncated round.
		for _, e := range hp {
			if e.fresh {
				note(e)
			}
		}
		if best != nil {
			res.winner, res.gain, res.cost = best.c, best.gain, best.cost
		}
	}
	ls.ev.noteSweep(int64(eligible-priced), int64(eligible*len(ls.queries)-jobs))
	return res, nil
}
