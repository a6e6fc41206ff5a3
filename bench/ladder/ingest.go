package main

// Probe: ingest. Stream the harness's ingest pool into one window,
// twice over, so that both first sightings and repeats are timed.

import (
	"time"

	"repro/internal/ingest"
)

func probeIngest(cx *replay, out output) error {
	pool := cx.in.Ingest
	if len(pool) == 0 {
		for _, tw := range cx.workloads {
			pool = append(pool, tw.sqls...)
		}
	}
	w := ingest.NewWindow(ingest.Options{})
	var times []time.Duration
	rejected := 0
	for round := 0; round < 2; round++ {
		for _, q := range pool {
			start := time.Now()
			err := w.Ingest(q)
			times = append(times, time.Since(start))
			if err != nil {
				rejected++
			}
		}
	}
	out["ingest.window_us"] = medianUS(times)
	out["ingest.accepted"] = float64(len(times) - rejected)
	out["ingest.rejected"] = float64(rejected)
	return nil
}
