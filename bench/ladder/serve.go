package main

// Rung 1: serve. Every step goes through Manager.Handler().ServeHTTP
// on a recorder — routing, middleware, JSON decode and encode, the
// tenant lock, the costs byte-cache — with no socket in the way.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/url"
	"time"

	"repro/internal/serve"
)

func rungServe(cx *replay, out output) ([]time.Duration, error) {
	mgr := serve.NewManager(cx.cat, nil, serve.Options{Workers: 1})
	h := mgr.Handler()
	call := func(method, path string, body any) (time.Duration, error) {
		var rd *bytes.Reader
		if body != nil {
			b, err := json.Marshal(body)
			if err != nil {
				return 0, err
			}
			rd = bytes.NewReader(b)
		} else {
			rd = bytes.NewReader(nil)
		}
		req := httptest.NewRequest(method, path, rd)
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(start)
		if rec.Code < 200 || rec.Code > 299 {
			return 0, fmt.Errorf("%s %s: HTTP %d: %s", method, path, rec.Code, rec.Body.String())
		}
		return d, nil
	}
	name := func(t int) string { return fmt.Sprintf("t%d", t) }
	create := func(t int) (time.Duration, error) {
		return call("POST", "/sessions", map[string]any{"name": name(t), "workload": cx.workloads[t].sqls, "workers": 1})
	}
	for t := range cx.workloads {
		if _, err := create(t); err != nil {
			return nil, err
		}
	}

	times := make([]time.Duration, len(cx.steps))
	var costs []time.Duration
	for i := range cx.steps {
		st := &cx.steps[i]
		base := "/sessions/" + name(st.tenant)
		var d time.Duration
		var err error
		switch st.kind {
		case stepAdd:
			d, err = call("POST", base+"/indexes", map[string]any{"table": st.spec.Table, "columns": st.spec.Columns})
		case stepDrop:
			d, err = call("DELETE", base+"/indexes?key="+url.QueryEscape(st.spec.Key()), nil)
		case stepUndo, stepRedo:
			d, err = call("POST", base+"/"+st.kind, nil)
		case stepCosts:
			d, err = call("GET", base+"/costs", nil)
			costs = append(costs, d)
		case stepReset:
			if d, err = call("DELETE", base, nil); err == nil {
				var d2 time.Duration
				d2, err = create(st.tenant)
				d += d2
			}
		}
		if err != nil {
			return nil, fmt.Errorf("step %d (%s): %w", i, st.kind, err)
		}
		times[i] = d
	}
	out["serve.costs_json_us"] = meanUS(costs)
	if len(costs) > 0 {
		out["serve.costs_cache_hit_ratio"] = float64(mgr.Stats().CostsCacheHits) / float64(len(costs))
	}
	return times, nil
}
