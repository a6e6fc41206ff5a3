package main

// What a workload run reports, and the bookkeeping shared by the four
// workloads: the attempt/failure tally, repeated set-up, and small
// JSON helpers for the server's own endpoints.

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run. Metrics holds what the benchmark
// contract names for this mode (end-to-end when untraced, per-layer
// when traced); Detail holds everything else worth printing: sample
// counts, the ISSUE's own metric names, realized op mix, counters.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Detail    map[string]any    `json:"detail"`
	Errors    []string          `json:"errors,omitempty"`
}

// tally counts requests attempted and failed (transport errors,
// non-2xx answers and failed correctness checks alike) and keeps the
// first few failure messages.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	errs              []string
}

func (t *tally) attempt() { t.attempted.Add(1) }

func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.errs) < 10 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// checked counts the reply as an attempt and, if it is not a 2xx, as
// a failure; it reports whether the reply is usable.
func (t *tally) checked(what string, r *reply) bool {
	t.attempt()
	if !r.ok() {
		t.fail("%s: %s", what, r.describe())
		return false
	}
	return true
}

func (t *tally) fill(res *result) {
	res.Attempted, res.Failed = t.attempted.Load(), t.failed.Load()
	res.Correct = res.Failed == 0
	t.mu.Lock()
	res.Errors = append([]string(nil), t.errs...)
	t.mu.Unlock()
}

// setupRepeats is how many times a timed run sets itself up; setup_s
// is the median, and the timed section runs on the last one.
const setupRepeats = 3

// repeatSetup runs setup n times, tearing down all but the last, and
// returns the last one's state with every duration.
func repeatSetup[T any](n int, setup func() (T, error), teardown func(T)) (T, []float64, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(last)
		}
		start := time.Now()
		st, err := setup()
		if err != nil {
			var zero T
			return zero, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = st
	}
	return last, secs, nil
}

// getJSON fetches path and decodes the answer into v.
func getJSON(c *client, path string, v any) error {
	r := c.do("GET", path, nil)
	if !r.ok() {
		return fmt.Errorf("GET %s: %s", path, r.describe())
	}
	if err := json.Unmarshal(r.body, v); err != nil {
		return fmt.Errorf("GET %s: decode: %w", path, err)
	}
	return nil
}

// editAnswer is the part of the server's edit response the client
// checks.
type editAnswer struct {
	Design struct {
		Indexes    []json.RawMessage `json:"indexes"`
		Partitions []json.RawMessage `json:"partitions"`
	} `json:"design"`
	Signature   string  `json:"signature"`
	NewCost     float64 `json:"newCost"`
	Invalidated int     `json:"invalidated"`
	Repriced    int     `json:"repriced"`
}

func (a *editAnswer) objects() int { return len(a.Design.Indexes) + len(a.Design.Partitions) }

// designBody renders a model design as the server's session.Design
// JSON, for POST /sessions/{name}/design.
func designBody(d []object) []byte {
	type ix struct {
		Table   string   `json:"table"`
		Columns []string `json:"columns"`
	}
	type part struct {
		Table     string     `json:"table"`
		Fragments [][]string `json:"fragments"`
	}
	var out struct {
		Indexes    []ix   `json:"indexes,omitempty"`
		Partitions []part `json:"partitions,omitempty"`
	}
	for _, o := range d {
		if o.partition {
			out.Partitions = append(out.Partitions, part{o.table, o.frags})
		} else {
			out.Indexes = append(out.Indexes, ix{o.table, o.cols})
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // strings and slices of strings cannot fail
	}
	return b
}

// seedQueries asks the server for its built-in workload: the SQL of a
// scratch session's costs panel.
func seedQueries(c *client) ([]string, error) {
	if r := c.do("POST", "/sessions", []byte(`{"name":"seedq"}`)); !r.ok() {
		return nil, fmt.Errorf("create scratch session: %s", r.describe())
	}
	var costs struct {
		Queries []struct {
			SQL string `json:"sql"`
		} `json:"queries"`
	}
	if err := getJSON(c, "/sessions/seedq/costs", &costs); err != nil {
		return nil, err
	}
	if r := c.do("DELETE", "/sessions/seedq", nil); !r.ok() {
		return nil, fmt.Errorf("drop scratch session: %s", r.describe())
	}
	out := make([]string, len(costs.Queries))
	for i, q := range costs.Queries {
		out[i] = q.SQL
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("server reported an empty built-in workload")
	}
	return out, nil
}

// relClose reports whether a and b agree to within rel of the larger.
func relClose(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*max(math.Abs(a), math.Abs(b))
}
