package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/workload"
)

// TestIngestCommand streams a workload file into a real serve handler
// and checks the summary plus the server-side window state.
func TestIngestCommand(t *testing.T) {
	cat, err := workload.BuildCatalog(50000)
	if err != nil {
		t.Fatal(err)
	}
	mgr := serve.NewManager(cat, workload.Queries()[:4], serve.Options{})
	ts := httptest.NewServer(mgr.Handler())
	defer ts.Close()
	if err := mgr.Create("live", nil, 0); err != nil {
		t.Fatal(err)
	}

	// A query log in workload-file format: three statements, one of
	// them a duplicate and one malformed.
	all := workload.Queries()
	log := workload.FormatWorkloadFile([]string{all[15], all[15], all[17]}) +
		"\nTHIS IS NOT SQL;\n"
	path := filepath.Join(t.TempDir(), "querylog.sql")
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	got := run([]string{"ingest", "-addr", ts.URL, "-session", "live", "-file", path, "-batch", "2",
		"-rate", "100000"}, strings.NewReader(""), &stdout, &stderr)
	if got != 0 {
		t.Fatalf("exit = %d, stderr: %s", got, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"streamed 4 queries", "3 accepted, 1 rejected", "2 distinct"} {
		if !strings.Contains(out, want) {
			t.Errorf("ingest output missing %q\n---\n%s", want, out)
		}
	}
	win, release, err := mgr.WindowAcquire("live")
	if err != nil {
		t.Fatal(err)
	}
	release()
	if st := win.Stats(); st.Submissions != 3 || st.Distinct != 2 || st.Rejected != 1 {
		t.Fatalf("server window stats = %+v", st)
	}

	// stdin is the default log source.
	stdout.Reset()
	if got := run([]string{"ingest", "-addr", ts.URL, "-session", "live"},
		strings.NewReader(all[0]+";"), &stdout, &stderr); got != 0 {
		t.Fatalf("stdin ingest exit = %d, stderr: %s", got, stderr.String())
	}
	if !strings.Contains(stdout.String(), "streamed 1 queries") {
		t.Errorf("stdin ingest output: %s", stdout.String())
	}

	// Usage and runtime failures.
	if got := run([]string{"ingest", "-addr", ts.URL}, strings.NewReader(""), &stdout, &stderr); got != 2 {
		t.Errorf("missing -session exit = %d, want 2", got)
	}
	if got := run([]string{"ingest", "-addr", ts.URL, "-session", "nosuch", "-file", path},
		strings.NewReader(""), &stdout, &stderr); got != 1 {
		t.Errorf("unknown session exit = %d, want 1", got)
	}
}

// TestIngestCommandEmptyLog: a log with no statements is a runtime
// failure, not a silent success.
func TestIngestCommandEmptyLog(t *testing.T) {
	var stdout, stderr bytes.Buffer
	got := run([]string{"ingest", "-addr", "http://127.0.0.1:1", "-session", "s"},
		strings.NewReader("-- just a comment\n"), &stdout, &stderr)
	if got != 1 {
		t.Fatalf("exit = %d, want 1 (stderr %s)", got, stderr.String())
	}
	if !strings.Contains(stderr.String(), "no statements") {
		t.Errorf("stderr: %s", stderr.String())
	}
}
