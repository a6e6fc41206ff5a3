package main

// The harness's arithmetic: percentiles, the tail percentile a sample
// can support, time slices and span self time.

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100)
// of sorted, which must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailLadder lists the percentiles a report may quote, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest percentile of the ladder, not
// above limit, that still has at least ten of n samples beyond it —
// the most a sample of that size can support.
func tailPercentile(n int, limit float64) float64 {
	for _, p := range tailLadder {
		if p <= limit && float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 50
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// span is one traced interval. Parent is the id of the span that
// caused it (0 for a root); spans of one request share Op.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the run's epoch
	End    int64  `json:"end"`
}

// selfTime is the span's duration minus the part of it that its
// children cover: overlapping children are counted once and the parts
// of a child outside the parent not at all.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, edge := int64(0), parent.Start
	for _, v := range ivs {
		if v.b <= edge {
			continue
		}
		covered += v.b - max(v.a, edge)
		edge = v.b
	}
	return time.Duration(parent.End - parent.Start - covered)
}

// latencies collects one worker's samples in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)/float64(time.Millisecond)) }

// merged returns every worker's samples sorted ascending.
func merged(per []latencies) []float64 {
	var all []float64
	for _, l := range per {
		all = append(all, l...)
	}
	sort.Float64s(all)
	return all
}

// sliceWidth is the length of the time slices a run's samples are
// cut into. The sandbox's CPU speed wanders by a tenth and more over
// seconds (a fixed spin loop shows it), so a run-long mean inherits
// that wander; per-slice statistics let a run report what it measured
// most of the time instead.
const sliceWidth = 500 * time.Millisecond

// timed is one sample with its completion time since the run's start.
type timed struct {
	at time.Duration
	ms float64
}

// slices cuts samples into sliceWidth windows over [0, span) and
// returns each full window's completion rate per second and median
// latency. Windows without samples report a rate of 0 and no latency.
func slices(samples []timed, span time.Duration) (rates, p50s []float64) {
	n := int(span / sliceWidth)
	buckets := make([][]float64, n)
	for _, s := range samples {
		if i := int(s.at / sliceWidth); i >= 0 && i < n {
			buckets[i] = append(buckets[i], s.ms)
		}
	}
	for _, b := range buckets {
		rates = append(rates, float64(len(b))/sliceWidth.Seconds())
		if len(b) > 0 {
			sort.Float64s(b)
			p50s = append(p50s, percentile(b, 50))
		}
	}
	return rates, p50s
}
