package main

// Child-process hygiene: build the real binary, boot `parinda serve`
// on port 0, find its address from the "listening on" line, wait for
// /healthz, read its peak RSS before it dies, and make sure no child
// outlives the harness — on success, on any error, on a signal, and
// on the per-workload deadline.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env locates the checkout and the harness's scratch space inside it.
type env struct {
	root   string // checkout root (holds cmd/parinda)
	build  string // build outputs, temp data dirs
	outDir string // ops dumps, traces
	bin    string // the built parinda binary
	ladder string // the built ladder binary (traced runs only)
}

// goCmd runs the go tool with caches kept inside the checkout.
func (e *env) goCmd(dir string, args ...string) *exec.Cmd {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(),
		"GOCACHE="+filepath.Join(e.build, "gocache"),
		"GOTMPDIR="+e.tmpDir(),
		"GOFLAGS=-mod=mod",
	)
	return cmd
}

func (e *env) tmpDir() string { return filepath.Join(e.build, "tmp") }

// buildBinary compiles pkg (relative to dir) to out and returns how
// long that took.
func (e *env) buildBinary(dir, pkg, out string) (time.Duration, error) {
	start := time.Now()
	cmd := e.goCmd(dir, "build", "-o", out, pkg)
	if msg, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build %s in %s: %v\n%s", pkg, dir, err, msg)
	}
	return time.Since(start), nil
}

// children tracks every live child so that a fatal path can kill them
// all; see killAll.
var children struct {
	sync.Mutex
	live map[*server]bool
}

func killAll() {
	children.Lock()
	live := make([]*server, 0, len(children.live))
	for s := range children.live {
		live = append(live, s)
	}
	children.Unlock()
	for _, s := range live {
		s.kill()
	}
}

// installCleanup kills every child and removes the temp directory on
// SIGINT/SIGTERM and when deadline passes, then exits non-zero.
func installCleanup(e *env, deadline time.Duration) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		why := ""
		select {
		case s := <-sig:
			why = "signal " + s.String()
		case <-time.After(deadline):
			why = fmt.Sprintf("deadline of %s passed", deadline)
		}
		fmt.Fprintf(os.Stderr, "bench: %s: killing children and exiting\n", why)
		killAll()
		_ = os.RemoveAll(e.tmpDir()) // best effort on the way out
		os.Exit(3)
	}()
}

// server is one running `parinda serve` child.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr *tailBuffer
	exited chan struct{} // closed once Wait has returned
	once   sync.Once
}

var listenRE = regexp.MustCompile(`listening on (http://[0-9.:]+)`)

// startServer boots the binary with extra flags on a free port, with
// the server's GOMAXPROCS pinned to the harness's and the pprof
// endpoints mounted (for liveHeapMiB; they cost nothing until asked),
// and returns once /healthz answers. A recovery from -data-dir happens before the
// listen line, so a returned server has finished replaying.
func startServer(e *env, extra ...string) (*server, error) {
	args := append([]string{"serve", "-addr", "127.0.0.1:0", "-scale", "1000000", "-pprof"}, extra...)
	cmd := exec.Command(e.bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.GOMAXPROCS(0)))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, stderr: &tailBuffer{max: 8 << 10}, exited: make(chan struct{})}
	cmd.Stderr = s.stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", e.bin, err)
	}
	children.Lock()
	if children.live == nil {
		children.live = map[*server]bool{}
	}
	children.live[s] = true
	children.Unlock()

	addr := make(chan string, 1)
	go func() {
		defer close(s.exited)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		_ = cmd.Wait() // the exit status of a child we kill is not news
	}()

	select {
	case s.base = <-addr:
	case <-s.exited:
		s.kill()
		return nil, fmt.Errorf("parinda serve exited before listening:\n%s", s.stderr.String())
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, fmt.Errorf("parinda serve did not print its address within 30s:\n%s", s.stderr.String())
	}
	if err := s.waitHealthy(10 * time.Second); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

func (s *server) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not OK within %s (last error: %v)", s.base, limit, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill SIGKILLs the child and waits until it has ended. Safe to call
// more than once and on an already-dead child.
func (s *server) kill() {
	s.once.Do(func() {
		_ = s.cmd.Process.Kill() // already exited is fine
		<-s.exited
		children.Lock()
		delete(children.live, s)
		children.Unlock()
	})
}

// peakRSSMiB reads the child's high-water resident set (VmHWM). It
// must be called while the child is alive.
func (s *server) peakRSSMiB() (float64, error) { return s.statusMiB("VmHWM:") }

// statusMiB reads one kB field of /proc/<pid>/status.
func (s *server) statusMiB(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no %s line in /proc/%d/status", field, s.cmd.Process.Pid)
}

// liveHeapMiB asks the child to collect garbage and reports the heap
// that survives (runtime.MemStats.HeapAlloc after a forced GC, from
// the pprof heap endpoint the harness boots every server with). This,
// not resident memory, is the gated memory metric: what the program
// keeps — memo tiers, caches, histories — shows in it exactly, while
// RSS also carries whatever the collector has not yet released, which
// on the journaling workload differs by a third between runs of one
// commit.
func (s *server) liveHeapMiB(c *client) (float64, error) {
	// The lowest of a few readings: a snapshot being cut at the moment
	// of one reading holds its whole payload live.
	low := math.Inf(1)
	for i := 0; i < heapReadings; i++ {
		if i > 0 {
			time.Sleep(150 * time.Millisecond)
		}
		mib, err := readLiveHeap(c)
		if err != nil {
			return 0, err
		}
		low = min(low, mib)
	}
	return low, nil
}

const heapReadings = 4

func readLiveHeap(c *client) (float64, error) {
	r := c.do("GET", "/debug/pprof/heap?gc=1&debug=1", nil)
	if !r.ok() {
		return 0, fmt.Errorf("GET /debug/pprof/heap: %s", r.describe())
	}
	for _, line := range strings.Split(string(r.body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HeapAlloc = "); ok {
			n, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				return 0, err
			}
			return n / (1 << 20), nil
		}
	}
	return 0, fmt.Errorf("no HeapAlloc line in the heap profile")
}

// tailBuffer keeps the last max bytes written to it: the child's
// stderr, quoted when it fails to boot.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf bytes.Buffer
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf.Write(p)
	if over := t.buf.Len() - t.max; over > 0 {
		t.buf.Next(over)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buf.String()
}
