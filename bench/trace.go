package main

// Client-side tracing, on only in a traced run. Every request leaves
// a client.rtt span with a server.wall child sized from the server's
// X-Wall-Micros header; the gap between them is the HTTP stack on
// both sides plus the loopback. Spans stay in memory, one slice per
// worker so recording takes no lock, and are written out when the
// run ends.

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

type tracer struct {
	epoch time.Time
	per   [workers][]tracedSpan
	seq   [workers]int64
}

// tracedSpan is a span plus what the trace file adds to it: the op
// kind and the server's plan-call count for the request.
type tracedSpan struct {
	span
	Kind      string `json:"kind,omitempty"`
	PlanCalls int64  `json:"planCalls,omitempty"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// request records one exchange by worker w. A nil tracer records
// nothing, so call sites need no guard.
func (t *tracer) request(w int, kind string, r *reply) {
	if t == nil {
		return
	}
	t.seq[w]++
	op := t.seq[w]*workers + int64(w) // unique across workers
	start := r.start.Sub(t.epoch).Nanoseconds()
	end := start + r.rtt.Nanoseconds()
	root := tracedSpan{span: span{ID: op * 2, Op: op, Name: "client.rtt", Start: start, End: end}, Kind: kind}
	t.per[w] = append(t.per[w], root)
	if r.wallUS >= 0 {
		wall := min(r.wallUS*1000, end-start)
		// The header gives a duration only; centre it in the round trip.
		s := start + (end-start-wall)/2
		t.per[w] = append(t.per[w], tracedSpan{
			span:      span{ID: op*2 + 1, Parent: root.ID, Op: op, Name: "server.wall", Start: s, End: s + wall},
			PlanCalls: max(r.planCalls, 0),
		})
	}
}

// httpSelfUS is the median over requests of the client round trip
// minus the server's own wall time, in microseconds.
func (t *tracer) httpSelfUS() float64 {
	var self []float64
	for w := range t.per {
		spans := t.per[w]
		for i := 0; i+1 < len(spans); i++ {
			if spans[i].Name == "client.rtt" && spans[i+1].Parent == spans[i].ID {
				self = append(self, float64(selfTime(spans[i].span, []span{spans[i+1].span}))/1e3)
			}
		}
	}
	if len(self) == 0 {
		return 0
	}
	return median(self)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for w := range t.per {
		for i := range t.per[w] {
			if err := enc.Encode(&t.per[w][i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
