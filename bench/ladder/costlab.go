package main

// Rung 3: costlab. Each edit step becomes the batch of (query,
// configuration) jobs that sql.FootprintOf says it invalidates —
// every query touching a changed table, under the configuration
// projected onto that query's tables — priced through EvaluateDelta
// over one memo, so a recurring design hits the memo here exactly
// where the session above hit its own. What the memo misses is what
// the rung below has to plan; the set is handed down.

import (
	"context"
	"time"

	"repro/internal/costlab"
)

// missKey names one planned (tenant, query) of a step.
type missKey struct{ step, query int }

func rungCostlab(cx *replay, out output) ([]time.Duration, map[missKey]bool, error) {
	est := costlab.NewFull(cx.cat)
	memo := costlab.NewMemo()
	ctx := context.Background()
	// Base costs first, as a session prices its workload at birth.
	for _, tw := range cx.workloads {
		jobs := make([]costlab.Job, len(tw.stmts))
		for qi, sel := range tw.stmts {
			jobs[qi] = costlab.Job{Stmt: sel}
		}
		if _, _, err := costlab.EvaluateDelta(ctx, est, jobs, memo, 1); err != nil {
			return nil, nil, err
		}
	}

	times := make([]time.Duration, len(cx.steps))
	missed := map[missKey]bool{}
	var hitBatches, missBatches []time.Duration
	var hits, misses int
	for i := range cx.steps {
		st := &cx.steps[i]
		if !st.edit() {
			continue
		}
		tw := cx.workloads[st.tenant]
		qis := invalidated(tw, st)
		jobs := make([]costlab.Job, len(qis))
		for j, qi := range qis {
			jobs[j] = costlab.Job{Stmt: tw.stmts[qi], Config: project(st.after, tw.foot[qi].Tables)}
		}
		// Which jobs will miss is read off the memo before the batch;
		// the probe is not part of the timed work.
		for j, qi := range qis {
			if _, ok := memo.Lookup(jobs[j].Stmt, jobs[j].Config); !ok {
				missed[missKey{i, qi}] = true
			}
		}
		start := time.Now()
		_, bs, err := costlab.EvaluateDelta(ctx, est, jobs, memo, 1)
		times[i] = time.Since(start)
		if err != nil {
			return nil, nil, err
		}
		hits += bs.Hits
		misses += bs.Misses
		switch {
		case len(jobs) == 0:
		case bs.Misses == 0:
			hitBatches = append(hitBatches, times[i]/time.Duration(len(jobs)))
		case bs.Hits == 0:
			missBatches = append(missBatches, times[i]/time.Duration(len(jobs)))
		}
	}
	out["costlab.batch_hit_us"] = medianUS(hitBatches)
	out["costlab.batch_miss_us"] = medianUS(missBatches)
	if hits+misses > 0 {
		out["ladder.costlab_memo_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	return times, missed, nil
}
