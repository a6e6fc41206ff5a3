package main

// Probe: sql. Parse and footprint every distinct workload statement,
// each alone, several times over.

import (
	"time"

	"repro/internal/sql"
)

const sqlRounds = 20

func probeSQL(cx *replay, out output) error {
	seen := map[string]bool{}
	var parses, foots []time.Duration
	for _, tw := range cx.workloads {
		for _, q := range tw.sqls {
			if seen[q] {
				continue
			}
			seen[q] = true
			for r := 0; r < sqlRounds; r++ {
				start := time.Now()
				sel, err := sql.ParseSelect(q)
				parsed := time.Since(start)
				if err != nil {
					return err
				}
				start = time.Now()
				_ = sql.FootprintOf(sel)
				parses, foots = append(parses, parsed), append(foots, time.Since(start))
			}
		}
	}
	out["sql.parse_us"] = medianUS(parses)
	out["sql.footprint_us"] = medianUS(foots)
	out["sql.statements"] = float64(len(seen))
	return nil
}
