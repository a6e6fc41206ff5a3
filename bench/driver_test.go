package main

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func getOp() *Op { return &Op{Kind: opCosts, method: "GET", path: "/x"} }

func TestClosedLoopKeepsTwoInFlight(t *testing.T) {
	var inflight, peak, served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inflight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		served.Add(1)
		inflight.Add(-1)
	}))
	defer srv.Close()
	clients := []*client{newClient(srv.URL), newClient(srv.URL)}
	var done [workers]int
	closedLoop(clients, time.Now().Add(150*time.Millisecond),
		func(w int) *Op { return getOp() },
		func(w int, op *Op, r *reply) {
			if !r.ok() {
				t.Errorf("worker %d: %s", w, r.describe())
			}
			done[w]++
		})
	if peak.Load() > workers {
		t.Errorf("%d requests in flight at once, want at most %d", peak.Load(), workers)
	}
	if done[0] == 0 || done[1] == 0 || int64(done[0]+done[1]) != served.Load() {
		t.Errorf("workers completed %v, server served %d", done, served.Load())
	}
}

// TestOpenLoopTimesFromDueTime is the coordinated-omission test: the
// server stalls once for 200 ms; every request that was due during
// the stall must carry the wait in its latency, even though each is
// served in no time once it is sent, and the generator must report
// how late it ran.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { time.Sleep(stall) })
	}))
	defer srv.Close()
	c := newClient(srv.URL)
	// 60 arrivals, 5 ms apart: the first hits the stall, the next ~39
	// are due while it lasts.
	const n, gap = 60, 5 * time.Millisecond
	i := 0
	var lat, late []time.Duration
	openLoop([]*client{c}, time.Now(),
		func(w int) *arrival {
			if i == n {
				return nil
			}
			i++
			return &arrival{op: getOp(), due: time.Duration(i-1) * gap}
		},
		func(w int, a *arrival, r *reply, s openSample) {
			if !r.ok() {
				t.Errorf("arrival %d: %s", len(lat), r.describe())
			}
			lat, late = append(lat, s.latency), append(late, s.late)
		})
	if len(lat) != n {
		t.Fatalf("%d samples, want %d", len(lat), n)
	}
	for k := 1; k < 20; k++ {
		// Due at k·5 ms, sendable only once the stall ends at ~200 ms.
		if want := stall - time.Duration(k)*gap - 20*time.Millisecond; lat[k] < want {
			t.Errorf("arrival %d, due during the stall: latency %v, want at least %v", k, lat[k], want)
		}
		if late[k] < lat[k]/2 {
			t.Errorf("arrival %d: generator lateness %v does not explain latency %v", k, late[k], lat[k])
		}
	}
	// Once the backlog has drained the schedule is back on time.
	if last := lat[n-1]; last > 50*time.Millisecond {
		t.Errorf("last arrival still %v behind", last)
	}
}
