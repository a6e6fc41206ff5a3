package main

// Rung 4: whatif and optimizer. Each edit step is applied to a
// what-if session as a delta, the design signature is taken, and the
// queries the rung above could not serve from its memo are planned,
// one at a time. The three parts are timed apart, and planning also
// by query class: single-table, 2-way and 3-way join.

import (
	"fmt"
	"time"

	"repro/internal/whatif"
)

func rungWhatif(cx *replay, missed map[missKey]bool, out output) ([]time.Duration, error) {
	type tenantState struct {
		ws    *whatif.Session
		names map[string]string // index key → what-if index name
	}
	states := map[int]*tenantState{}
	for t := range cx.workloads {
		states[t] = &tenantState{ws: whatif.NewSession(cx.cat), names: map[string]string{}}
	}

	times := make([]time.Duration, len(cx.steps))
	var applies, sigs []time.Duration
	plans := map[int][]time.Duration{} // by relation count, 3 = three or more
	planCalls := 0
	for i := range cx.steps {
		st := &cx.steps[i]
		ts := states[st.tenant]
		if st.kind == stepReset {
			states[st.tenant] = &tenantState{ws: whatif.NewSession(cx.cat), names: map[string]string{}}
			continue
		}
		if !st.edit() {
			continue
		}
		var d whatif.Delta
		var createKeys []string
		for _, s := range st.after {
			if !has(st.before, s.Key()) {
				d.CreateIndexes = append(d.CreateIndexes, whatif.IndexDef{Table: s.Table, Columns: s.Columns})
				createKeys = append(createKeys, s.Key())
			}
		}
		for _, s := range st.before {
			if !has(st.after, s.Key()) {
				d.DropIndexes = append(d.DropIndexes, ts.names[s.Key()])
				delete(ts.names, s.Key())
			}
		}
		start := time.Now()
		created, err := ts.ws.ApplyDelta(d)
		applied := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("step %d (%s): %w", i, st.kind, err)
		}
		for j, ix := range created {
			ts.names[createKeys[j]] = ix.Name
		}
		start = time.Now()
		_ = ts.ws.Signature()
		signed := time.Since(start)
		applies, sigs = append(applies, applied), append(sigs, signed)
		times[i] = applied + signed

		tw := cx.workloads[st.tenant]
		for _, qi := range invalidated(tw, st) {
			if !missed[missKey{i, qi}] {
				continue
			}
			start = time.Now()
			if _, err := ts.ws.Plan(tw.stmts[qi]); err != nil {
				return nil, fmt.Errorf("step %d: plan query %d: %w", i, qi, err)
			}
			p := time.Since(start)
			planCalls++
			times[i] += p
			class := min(tw.foot[qi].Relations, 3)
			plans[class] = append(plans[class], p)
		}
	}
	out["whatif.apply_delta_us"] = medianUS(applies)
	out["whatif.signature_us"] = medianUS(sigs)
	out["optimizer.plan_us.1table"] = medianUS(plans[1])
	out["optimizer.plan_us.2way"] = medianUS(plans[2])
	out["optimizer.plan_us.3way"] = medianUS(plans[3])
	out["optimizer.plan_calls"] = float64(planCalls)
	return times, nil
}
