package main

// Rung 2: session. The same steps as direct DesignSession calls over
// one SharedMemo, the way the serve tier wires its tenants: the edit
// engine, footprint invalidation, both memo tiers and the report,
// without HTTP, JSON or the manager.

import (
	"fmt"
	"time"

	"repro/internal/session"
)

func rungSession(cx *replay, out output) ([]time.Duration, error) {
	shared := session.NewSharedMemo()
	open := func(t int) (*session.DesignSession, error) {
		return session.New(cx.cat, cx.workloads[t].sqls, session.Options{Workers: 1, Shared: shared})
	}
	sessions := map[int]*session.DesignSession{}
	for t := range cx.workloads {
		s, err := open(t)
		if err != nil {
			return nil, err
		}
		sessions[t] = s
	}

	times := make([]time.Duration, len(cx.steps))
	var undos []time.Duration
	var edits, invalidatedN, repriced int
	for i := range cx.steps {
		st := &cx.steps[i]
		s := sessions[st.tenant]
		var rep *session.InteractiveReport
		var err error
		start := time.Now()
		switch st.kind {
		case stepAdd:
			rep, err = s.AddIndex(st.spec)
		case stepDrop:
			rep, err = s.DropIndex(st.spec)
		case stepUndo:
			rep, err = s.Undo()
		case stepRedo:
			rep, err = s.Redo()
		case stepCosts:
			rep = s.Report()
		case stepReset:
			sessions[st.tenant], err = open(st.tenant)
		}
		times[i] = time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("step %d (%s): %w", i, st.kind, err)
		}
		if st.edit() {
			edits++
			invalidatedN += rep.Invalidated
			repriced += rep.Repriced
		}
		if st.kind == stepUndo {
			undos = append(undos, times[i])
		}
	}
	out["session.undo_us"] = meanUS(undos)
	if edits > 0 {
		out["session.invalidated_per_edit"] = float64(invalidatedN) / float64(edits)
		out["session.replanned_per_edit"] = float64(repriced) / float64(edits)
	}
	st := shared.Stats()
	if st.Hits+st.Misses > 0 {
		out["ladder.shared_memo_hit_ratio"] = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	return times, nil
}
