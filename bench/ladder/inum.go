package main

// Probe: inum. Price each edit step's invalidated queries through one
// inum.Cache under the step's projected configuration. The cache tells
// hits from misses itself; a hit re-costs access paths only, a miss
// runs the optimizer twice.

import (
	"time"

	"repro/internal/inum"
)

// inumJobs bounds the probe: it is a sample of the stream's (query,
// configuration) pairs, not a replay of all of them.
const inumJobs = 4000

func probeINUM(cx *replay, out output) error {
	cache := inum.New(cx.cat)
	var hits, misses []time.Duration
	jobs := 0
	for i := range cx.steps {
		st := &cx.steps[i]
		if !st.edit() || jobs >= inumJobs {
			continue
		}
		tw := cx.workloads[st.tenant]
		for _, qi := range invalidated(tw, st) {
			cfg := project(st.after, tw.foot[qi].Tables)
			before := cache.Misses
			start := time.Now()
			if _, err := cache.Cost(tw.stmts[qi], cfg); err != nil {
				return err
			}
			d := time.Since(start)
			jobs++
			if cache.Misses > before {
				misses = append(misses, d)
			} else {
				hits = append(hits, d)
			}
		}
	}
	out["inum.probe_hit_us"] = medianUS(hits)
	out["inum.probe_miss_us"] = medianUS(misses)
	if jobs > 0 {
		out["inum.hit_ratio"] = float64(len(hits)) / float64(jobs)
	}
	return nil
}
