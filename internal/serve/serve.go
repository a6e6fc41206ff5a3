// Package serve is PARINDA's multi-tenant design-session service: the
// layer that turns the single-process interactive session engine
// (internal/session) into a shared tuning service, the way commercial
// advisors move from a DBA console to a server many DBAs hit at once.
//
// A SessionManager hosts N named DesignSessions over ONE read-only
// catalog and ONE cross-session pricing memo (session.SharedMemo):
// requests to the same session serialize on its lock, requests to
// different sessions run in parallel, and any (query, design) state
// one tenant priced is served to every other tenant — an identical
// edit by a second tenant, or a fresh session over an already-priced
// workload, issues zero optimizer calls. Capacity is bounded: idle
// sessions are evicted by LRU when the cap is hit and by idle TTL on
// a sweep timer, and eviction never touches a session with a request
// in flight.
//
// The HTTP/JSON API (see Manager.Handler) exposes the full session
// surface — create/drop index, partition, nestloop, apply-design,
// costs, explain, undo/redo, greedy suggest — plus health, listing
// and stats. Server wraps it with a listener and graceful shutdown:
// on context cancellation (SIGINT in `parinda serve`) in-flight
// requests drain before the process exits.
package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/catalog"
)

// Connection hygiene for the listener. A client gets readHeaderTimeout
// to deliver a request's headers — a connection that stalls mid-header
// is closed instead of pinning a goroutine and a file descriptor for
// ever — and a keep-alive connection may sit idle between requests for
// idleTimeout before the server reclaims it. Bodies and responses are
// deliberately not deadline-bounded: a /suggest run or a recovery-time
// request legitimately takes longer than any fixed cap.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Server is a Manager bound to an HTTP listener.
type Server struct {
	mgr *Manager
}

// New builds a server: one manager over cat, defaulting sessions to
// defaultWorkload. With Options.DataDir set, the manager recovers its
// persisted state before the server exists — a recovery failure is
// the returned error.
func New(cat *catalog.Catalog, defaultWorkload []string, opts Options) (*Server, error) {
	mgr, err := NewManagerDurable(cat, defaultWorkload, opts)
	if err != nil {
		return nil, err
	}
	return &Server{mgr: mgr}, nil
}

// Manager exposes the underlying session manager.
func (sv *Server) Manager() *Manager { return sv.mgr }

func (sv *Server) drainTimeout() time.Duration {
	if sv.mgr.opts.DrainTimeout <= 0 {
		return DefaultDrainTimeout
	}
	return sv.mgr.opts.DrainTimeout
}

// ListenAndServe serves the API on addr until ctx is cancelled, then
// shuts down gracefully: the listener closes, in-flight requests get
// DrainTimeout to finish, and a clean drain returns nil. ready (may
// be nil) is called with the bound address before serving — with
// ":0" that is the only way to learn the port.
func (sv *Server) ListenAndServe(ctx context.Context, addr string, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(ln.Addr())
	}
	hs := &http.Server{
		Handler:           sv.mgr.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	if ttl := sv.mgr.opts.IdleTTL; ttl > 0 {
		// Idle-TTL janitor: sweep at a quarter of the TTL so a session
		// is reclaimed within 1.25×TTL of its last request.
		interval := ttl / 4
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					sv.mgr.Sweep()
				}
			}
		}()
	}
	if interval := sv.mgr.opts.SnapshotInterval; sv.mgr.dur != nil && interval > 0 {
		// Periodic snapshots bound the WAL replay a crash recovery pays;
		// Manager.Snapshot skips itself when nothing was journaled since
		// the last one.
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					if err := sv.mgr.Snapshot(); err != nil {
						sv.mgr.log.Warn("periodic snapshot failed", "error", err.Error())
					}
				}
			}
		}()
	}
	shutdownErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-ctx.Done():
			sctx, cancel := context.WithTimeout(context.Background(), sv.drainTimeout())
			defer cancel()
			shutdownErr <- hs.Shutdown(sctx)
		case <-done:
			shutdownErr <- nil
		}
	}()

	err = hs.Serve(ln)
	close(done)
	wg.Wait()
	if errors.Is(err, http.ErrServerClosed) {
		// Cancelled via ctx: surface the drain outcome (nil when every
		// in-flight request finished inside DrainTimeout).
		err = <-shutdownErr
	}
	// The listener is down and every worker goroutine has stopped:
	// fold the final snapshot + WAL close into the exit status (no-op
	// without -data-dir).
	if cerr := sv.mgr.Close(); err == nil {
		err = cerr
	}
	return err
}
