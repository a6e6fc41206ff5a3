package main

import (
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
	}{
		{100000, 99.9, 99.9}, {100000, 99, 99}, {10000, 99.9, 99.9}, {9999, 99.9, 99},
		{1000, 99, 99}, {999, 99, 95}, {200, 99, 95}, {199, 99, 90}, {100, 99, 90},
		{99, 99, 75}, {40, 99, 75}, {39, 99, 50}, {7, 99, 50},
	} {
		if got := tailPercentile(c.n, c.limit); got != c.want {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", c.n, c.limit, got, c.want)
		}
	}
	// The chosen percentile always leaves ten samples beyond it, when
	// any percentile of the ladder can.
	for n := 20; n < 3000; n += 7 {
		p := tailPercentile(n, 99.9)
		if beyond := float64(n) * (100 - p) / 100; beyond < 10-1e-9 {
			t.Errorf("n=%d: p%v leaves %.1f samples beyond it", n, p, beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 100: 10, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{{Start: 10, End: 30}, {Start: 20, End: 50}, {Start: 90, End: 120}, {Start: 200, End: 300}}
	// Covered: 10–50 (overlap counted once) and 90–100 (clipped).
	if got, want := selfTime(parent, children), 50*time.Nanosecond; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %v, want 100ns", got)
	}
	if got := selfTime(parent, []span{{Start: -5, End: 500}}); got != 0 {
		t.Errorf("selfTime under a covering child = %v, want 0", got)
	}
}
