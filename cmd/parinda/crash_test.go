package main

// Crash-injection harness for `parinda serve` durability: build the
// real binary, SIGKILL it mid-traffic, restart it on the same
// -data-dir, and compare what recovery rebuilds against a
// never-crashed control process. Three scenarios:
//
//   - idle barrier: every edit acknowledged before the kill — the
//     recovered costs JSON and undo/redo depths must be byte-identical
//     to a control server that ran the same sequence and never died;
//   - mid-edit-storm: the kill lands inside a stream of edits — the
//     recovered history must hold every acknowledged edit, plus at
//     most the single in-flight one (fsync=always journals before the
//     HTTP ack, so an acked edit can never be lost);
//   - mid-snapshot: a tiny snapshot interval makes the kill likely to
//     land inside a snapshot write — the temp-file + rename protocol
//     means recovery still boots from a complete snapshot or the WAL.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

func buildParinda(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "parinda")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// serveProc is one running `parinda serve` child.
type serveProc struct {
	cmd    *exec.Cmd
	base   string
	stdout *syncBuffer
	stderr *syncBuffer
}

var listenRE = regexp.MustCompile(`listening on (http://[0-9.:]+)`)

// startServe boots the binary with the given extra flags and waits for
// the listening line (which recovery precedes, so a returned proc has
// finished replaying its -data-dir).
func startServe(t *testing.T, bin string, extra ...string) *serveProc {
	t.Helper()
	args := append([]string{"serve", "-addr", "127.0.0.1:0", "-scale", "50000", "-max-sessions", "8"}, extra...)
	p := &serveProc{
		cmd:    exec.Command(bin, args...),
		stdout: &syncBuffer{},
		stderr: &syncBuffer{},
	}
	p.cmd.Stdout = p.stdout
	p.cmd.Stderr = p.stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", bin, err)
	}
	t.Cleanup(func() {
		if p.cmd.ProcessState == nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	})
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); {
		if m := listenRE.FindStringSubmatch(p.stdout.String()); m != nil {
			p.base = m[1]
			return p
		}
		if p.cmd.ProcessState != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("serve never listened; stdout=%q stderr=%q", p.stdout.String(), p.stderr.String())
	return nil
}

// kill9 delivers SIGKILL — the crash under test — and reaps the child.
func (p *serveProc) kill9(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	p.cmd.Wait()
}

func (p *serveProc) post(t *testing.T, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(p.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

func (p *serveProc) get(t *testing.T, path string) []byte {
	t.Helper()
	resp, err := http.Get(p.base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d (%s)", path, resp.StatusCode, raw)
	}
	return raw
}

func (p *serveProc) mustPost(t *testing.T, path, body string, want int) []byte {
	t.Helper()
	code, raw := p.post(t, path, body)
	if code != want {
		t.Fatalf("POST %s = %d, want %d (%s)", path, code, want, raw)
	}
	return raw
}

type sessionDepths struct {
	UndoDepth int `json:"undoDepth"`
	RedoDepth int `json:"redoDepth"`
}

func (p *serveProc) depths(t *testing.T, name string) sessionDepths {
	t.Helper()
	var d sessionDepths
	if err := json.Unmarshal(p.get(t, "/sessions/"+name), &d); err != nil {
		t.Fatalf("session info decode: %v", err)
	}
	return d
}

// recoverRecords scrapes parinda_recover_records_total from /metrics.
func (p *serveProc) recoverRecords(t *testing.T) float64 {
	t.Helper()
	for _, line := range strings.Split(string(p.get(t, "/metrics")), "\n") {
		if strings.HasPrefix(line, "parinda_recover_records_total ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, "parinda_recover_records_total ")), 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatal("/metrics has no parinda_recover_records_total")
	return 0
}

// editScript is the deterministic idle-barrier sequence both the
// durable victim and the in-memory control execute.
func editScript(t *testing.T, p *serveProc, name string) {
	t.Helper()
	p.mustPost(t, "/sessions", fmt.Sprintf(`{"name":%q}`, name), http.StatusCreated)
	base := "/sessions/" + name
	p.mustPost(t, base+"/indexes", `{"table":"photoobj","columns":["ra"]}`, http.StatusOK)
	p.mustPost(t, base+"/indexes", `{"table":"photoobj","columns":["dec","ra"]}`, http.StatusOK)
	p.mustPost(t, base+"/undo", ``, http.StatusOK)
	p.mustPost(t, base+"/indexes", `{"table":"photoobj","columns":["htmid"]}`, http.StatusOK)
	// Nest-loop starts enabled, so disabling it is a real edit with an
	// undo frame; the final undo pops it and leaves a live redo stack.
	p.mustPost(t, base+"/nestloop", `{"enabled":false}`, http.StatusOK)
	p.mustPost(t, base+"/undo", ``, http.StatusOK)
}

// TestCrashRecoverEquivalence is the idle-barrier crash: every edit is
// acknowledged before the SIGKILL, so the restarted server must serve
// costs byte-identical to a control that never crashed — same design,
// same signature, same undo/redo depths — plus explains, the recovery
// counter and the /stats durability block.
func TestCrashRecoverEquivalence(t *testing.T) {
	bin := buildParinda(t)
	dir := t.TempDir()

	victim := startServe(t, bin, "-data-dir", dir, "-fsync", "always", "-snapshot-interval", "0")
	editScript(t, victim, "crashy")
	victim.kill9(t)

	control := startServe(t, bin) // in-memory control, same catalog scale
	editScript(t, control, "crashy")
	wantCosts := control.get(t, "/sessions/crashy/costs")
	wantDepths := control.depths(t, "crashy")

	revived := startServe(t, bin, "-data-dir", dir, "-fsync", "always")
	gotCosts := revived.get(t, "/sessions/crashy/costs")
	if string(gotCosts) != string(wantCosts) {
		t.Errorf("recovered costs differ from never-crashed control\n got: %s\nwant: %s", gotCosts, wantCosts)
	}
	if got := revived.depths(t, "crashy"); got != wantDepths {
		t.Errorf("recovered undo/redo = %+v, want %+v", got, wantDepths)
	}
	if n := revived.recoverRecords(t); n <= 0 {
		t.Errorf("parinda_recover_records_total = %v, want > 0", n)
	}
	// Explains are planned on read, never journaled: a recovered session
	// must still answer one (get fails the test on anything but 200).
	revived.get(t, "/sessions/crashy/explain/1")
	if stats := revived.get(t, "/stats"); !strings.Contains(string(stats), `"durability"`) {
		t.Errorf("/stats after recovery lacks the durability block: %s", stats)
	}
}

// TestCrashMidEditStorm kills the server inside a stream of edits.
// With -fsync=always an acknowledged edit is journaled before its HTTP
// response, so recovery must hold every acked edit and at most one
// more (the in-flight edit whose ack the crash swallowed).
func TestCrashMidEditStorm(t *testing.T) {
	bin := buildParinda(t)
	dir := t.TempDir()

	victim := startServe(t, bin, "-data-dir", dir, "-fsync", "always", "-snapshot-interval", "0")
	victim.mustPost(t, "/sessions", `{"name":"storm"}`, http.StatusCreated)

	cols := []string{"ra", "dec", "run", "camcol", "field", "htmid"}
	acked := 0
	stormDone := make(chan struct{})
	go func() {
		defer close(stormDone)
		for i := 0; ; i++ {
			c1, c2 := cols[i%len(cols)], cols[(i/len(cols))%len(cols)]
			body := fmt.Sprintf(`{"table":"photoobj","columns":["%s","%s"]}`, c1, c2)
			if c1 == c2 {
				body = fmt.Sprintf(`{"table":"photoobj","columns":["%s"]}`, c1)
			}
			code, _ := victim.post(t, "/sessions/storm/indexes", body)
			if code != http.StatusOK {
				return // connection died with the process (or ran out of specs)
			}
			acked++
			if acked >= len(cols)*len(cols) {
				return
			}
		}
	}()
	time.Sleep(300 * time.Millisecond) // land the kill mid-storm
	victim.kill9(t)
	<-stormDone
	if acked == 0 {
		t.Skip("kill landed before any edit was acknowledged")
	}

	revived := startServe(t, bin, "-data-dir", dir, "-fsync", "always")
	got := revived.depths(t, "storm")
	if got.UndoDepth < acked || got.UndoDepth > acked+1 {
		t.Errorf("recovered undo depth %d, want %d (acked) or %d (acked + in-flight)",
			got.UndoDepth, acked, acked+1)
	}
	revived.get(t, "/sessions/storm/costs") // and the design must price
}

// TestCrashMidSnapshot runs edits under an aggressive snapshot timer
// and kills the process while snapshots race the traffic: the write-
// temp + fsync + rename protocol must leave either a complete snapshot
// or none, never a half-written one recovery would trip over.
func TestCrashMidSnapshot(t *testing.T) {
	bin := buildParinda(t)
	dir := t.TempDir()

	victim := startServe(t, bin, "-data-dir", dir, "-fsync", "always", "-snapshot-interval", "20ms")
	editScript(t, victim, "snappy")
	time.Sleep(150 * time.Millisecond) // let several snapshot ticks fire
	victim.kill9(t)

	revived := startServe(t, bin, "-data-dir", dir, "-fsync", "always", "-snapshot-interval", "20ms")
	if n := revived.recoverRecords(t); n <= 0 {
		t.Errorf("parinda_recover_records_total = %v, want > 0", n)
	}
	revived.get(t, "/sessions/snappy/costs") // recovered design must price
	if design := revived.get(t, "/sessions/snappy/design"); !strings.Contains(string(design), "htmid") {
		t.Errorf("recovered design lost photoobj(htmid): %s", design)
	}
}
