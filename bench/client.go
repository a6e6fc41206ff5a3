package main

// The load client: one keep-alive connection per driver goroutine,
// a closed-loop driver (the next request leaves when the previous one
// returns) and an open-loop driver (requests leave on a schedule and
// are timed from their due time, so a stall is charged to every
// request it delays, not just the one that hit it).

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// workers is the number of driver goroutines and connections: the
// benchmark's nproc. The server child gets the same GOMAXPROCS.
const workers = 2

// client owns one keep-alive connection to the server.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one exchange's outcome. body aliases the client's buffer
// and is valid until the client's next request.
type reply struct {
	status    int
	body      []byte
	planCalls int64 // X-Plan-Calls, -1 when absent
	wallUS    int64 // X-Wall-Micros, -1 when absent
	start     time.Time
	rtt       time.Duration
	err       error
}

func (r *reply) ok() bool { return r.err == nil && r.status >= 200 && r.status < 300 }

func (c *client) do(method, path string, body []byte) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	r := reply{planCalls: -1, wallUS: -1, start: time.Now()}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		r.err = err
		return r
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		r.err, r.rtt = err, time.Since(r.start)
		return r
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	r.rtt = time.Since(r.start)
	r.status, r.body, r.err = resp.StatusCode, c.buf.Bytes(), err
	if v, err := strconv.ParseInt(resp.Header.Get("X-Plan-Calls"), 10, 64); err == nil {
		r.planCalls = v
	}
	if v, err := strconv.ParseInt(resp.Header.Get("X-Wall-Micros"), 10, 64); err == nil {
		r.wallUS = v
	}
	return r
}

func (c *client) doOp(op *Op) reply { return c.do(op.method, op.path, op.body) }

// describe renders a failed reply for the error log.
func (r *reply) describe() string {
	if r.err != nil {
		return r.err.Error()
	}
	b := r.body
	if len(b) > 200 {
		b = b[:200]
	}
	return fmt.Sprintf("HTTP %d: %s", r.status, bytes.TrimSpace(b))
}

// closedLoop runs one goroutine per client until stop: each takes its
// next op, sends it, waits for the answer and hands both to done.
// next and done are called from the worker's own goroutine only.
func closedLoop(clients []*client, stop time.Time, next func(w int) *Op, done func(w int, op *Op, r *reply)) {
	var wg sync.WaitGroup
	for w, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				op := next(w)
				if op == nil {
					return
				}
				r := c.doOp(op)
				done(w, op, &r)
			}
		}()
	}
	wg.Wait()
}

// arrival is one open-loop request: what to send and when it is due,
// as an offset from the schedule's start.
type arrival struct {
	op  *Op
	due time.Duration
}

// openSample is one open-loop request's timing: latency runs from the
// due time to the answer; late is how far past the due time the
// generator actually sent it (time spent behind earlier requests on
// the same connection, plus timer slack).
type openSample struct {
	latency, late time.Duration
}

// openLoop drives one goroutine per client through its own schedule.
// A request is sent at its due time or, when the connection is still
// busy with an earlier one, as soon as it frees — but it is always
// timed from the due time. next returns nil when the schedule ends.
func openLoop(clients []*client, start time.Time, next func(w int) *arrival, done func(w int, a *arrival, r *reply, s openSample)) {
	var wg sync.WaitGroup
	for w, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				a := next(w)
				if a == nil {
					return
				}
				due := start.Add(a.due)
				sleepUntil(due)
				r := c.doOp(a.op)
				end := r.start.Add(r.rtt)
				done(w, a, &r, openSample{latency: end.Sub(due), late: r.start.Sub(due)})
			}
		}()
	}
	wg.Wait()
}

// sleepUntil blocks the calling thread until t. time.Sleep wakes up to
// a millisecond late when every P is idle (the netpoller waits in
// whole milliseconds), which would put the generator's own lateness
// into every low-rate latency; nanosleep holds to the kernel's timer
// slack of some tens of microseconds, at the cost of one parked
// thread per worker.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}
