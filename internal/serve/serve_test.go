package serve

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/session"
)

// TestServerGracefulShutdown boots a real listener, parks a request
// in flight behind a pinned session, cancels the context, and
// asserts the shutdown drains: the parked request completes with 200
// and ListenAndServe returns nil.
func TestServerGracefulShutdown(t *testing.T) {
	sv, err := New(testCatalog(t), testWorkload(), Options{MaxSessions: 4, DrainTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	addrCh := make(chan net.Addr, 1)
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- sv.ListenAndServe(ctx, "127.0.0.1:0", func(a net.Addr) { addrCh <- a })
	}()
	var addr net.Addr
	select {
	case addr = <-addrCh:
	case err := <-serveErr:
		t.Fatalf("server died before listening: %v", err)
	}
	base := fmt.Sprintf("http://%s", addr)

	resp, err := http.Post(base+"/sessions", "application/json",
		strings.NewReader(`{"name":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create = %d", resp.StatusCode)
	}

	// Pin the session so the next HTTP request queues behind it.
	hold := make(chan struct{})
	entered := make(chan struct{})
	go sv.Manager().Do("x", func(*session.DesignSession) error {
		close(entered)
		<-hold
		return nil
	})
	<-entered

	var wg sync.WaitGroup
	wg.Add(1)
	inFlightStatus := make(chan int, 1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(base + "/sessions/x/costs")
		if err != nil {
			t.Errorf("in-flight request failed across shutdown: %v", err)
			inFlightStatus <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inFlightStatus <- resp.StatusCode
	}()
	// Let the request reach the handler and block on the session lock,
	// then start the shutdown while it is still parked.
	time.Sleep(50 * time.Millisecond)
	cancel()
	time.Sleep(50 * time.Millisecond) // shutdown must now be waiting on the drain
	close(hold)

	if got := <-inFlightStatus; got != http.StatusOK {
		t.Errorf("in-flight request status = %d, want 200", got)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Errorf("graceful shutdown returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
	wg.Wait()

	// The listener is gone: new connections must fail.
	if _, err := net.DialTimeout("tcp", addr.String(), 200*time.Millisecond); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

// TestServerClosesStalledHeaderKeepsIdleClient: a connection that
// stalls mid-header is closed once readHeaderTimeout passes, while a
// keep-alive client that was merely idle for the same stretch (well
// inside idleTimeout) gets its next request served on the same
// connection.
func TestServerClosesStalledHeaderKeepsIdleClient(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the real readHeaderTimeout")
	}
	t.Parallel()
	sv, err := New(testCatalog(t), testWorkload(), Options{MaxSessions: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrCh := make(chan net.Addr, 1)
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- sv.ListenAndServe(ctx, "127.0.0.1:0", func(a net.Addr) { addrCh <- a })
	}()
	var addr net.Addr
	select {
	case addr = <-addrCh:
	case err := <-serveErr:
		t.Fatalf("server died before listening: %v", err)
	}

	// The keep-alive client: one request now, one after the stall.
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	get := func() (reused bool) {
		t.Helper()
		trace := &httptrace.ClientTrace{GotConn: func(ci httptrace.GotConnInfo) { reused = ci.Reused }}
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace),
			"GET", fmt.Sprintf("http://%s/healthz", addr), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("keep-alive client: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz = %d", resp.StatusCode)
		}
		return reused
	}
	get()

	// The staller: a request line and one header, never the blank line.
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: stall\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	// The server may answer the timeout with an error status before it
	// closes; either way the read must end in EOF, not in our deadline.
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("stalled connection still open %v after the stall began: %v", time.Since(start), err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Errorf("stalled connection closed after only %v (readHeaderTimeout %v)", waited, readHeaderTimeout)
	}

	if !get() {
		t.Error("keep-alive client had to reconnect: its idle connection was closed with the stalled one")
	}

	cancel()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Errorf("shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}
