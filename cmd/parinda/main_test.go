package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseIndexSpec(t *testing.T) {
	spec, err := parseIndexSpec("photoobj(ra, dec)")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Table != "photoobj" || !reflect.DeepEqual(spec.Columns, []string{"ra", "dec"}) {
		t.Errorf("parsed %+v", spec)
	}
	for _, bad := range []string{"", "photoobj", "photoobj()", "(ra)", "photoobj(ra"} {
		if _, err := parseIndexSpec(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestParsePartitionDef(t *testing.T) {
	def, err := parsePartitionDef("photoobj:ra,dec|run,camcol")
	if err != nil {
		t.Fatal(err)
	}
	if def.Table != "photoobj" || len(def.Fragments) != 2 {
		t.Fatalf("parsed %+v", def)
	}
	if !reflect.DeepEqual(def.Fragments[0], []string{"ra", "dec"}) {
		t.Errorf("fragment 0 = %v", def.Fragments[0])
	}
	for _, bad := range []string{"", "photoobj", ":a,b", "photoobj:"} {
		if _, err := parsePartitionDef(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestStringListFlag(t *testing.T) {
	var l stringList
	if err := l.Set("a"); err != nil {
		t.Fatal(err)
	}
	if err := l.Set("b"); err != nil {
		t.Fatal(err)
	}
	if l.String() != "a;b" || len(l) != 2 {
		t.Errorf("list = %v", l)
	}
}

func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no args", nil, 2},
		{"unknown subcommand", []string{"frobnicate"}, 2},
		{"help", []string{"help"}, 0},
		{"bad flag", []string{"indexes", "-nosuchflag"}, 2},
		{"bad flag value", []string{"interactive", "-scale", "notanumber"}, 2},
		{"bad index spec", []string{"explain", "-scale", "1000", "-query", "SELECT objid FROM photoobj", "-index", "garbage"}, 2},
		{"missing required flag", []string{"explain"}, 2},
		{"runtime failure", []string{"explain", "-scale", "1000", "-query", "SELECT nope FROM"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run(tc.args, strings.NewReader(""), &stdout, &stderr)
			if got != tc.want {
				t.Errorf("run(%v) = %d, want %d\nstderr: %s", tc.args, got, tc.want, stderr.String())
			}
			if tc.want != 0 && stderr.Len() == 0 {
				t.Errorf("run(%v) failed silently", tc.args)
			}
		})
	}
}

func TestRunUnknownSubcommandPrintsUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"bogus"}, strings.NewReader(""), &stdout, &stderr); got != 2 {
		t.Fatalf("exit = %d, want 2", got)
	}
	if !strings.Contains(stderr.String(), "unknown command") || !strings.Contains(stderr.String(), "usage: parinda") {
		t.Errorf("missing usage message:\n%s", stderr.String())
	}
}

// TestSessionREPL drives the interactive session subcommand through a
// scripted stdin: the Figure-1 one-change-at-a-time workflow.
func TestSessionREPL(t *testing.T) {
	script := strings.Join([]string{
		"help",
		"create index photoobj(ra)",
		"costs",
		"explain 1",
		"design",
		"stats",
		"undo",
		"redo",
		"undo",
		"redo", // back to the indexed design
		"design -json",
		"create index nosuch(x)", // error, loop must continue
		"nestloop off",
		"nestloop on",
		"suggest -joint -budget 5", // budgeted joint recommender
		"suggest -budget",          // usage error, loop must continue
		"window",                   // empty window hint
		"ingest SELECT plate FROM specobj WHERE sn_median > 25",
		"ingest SELECT plate FROM specobj WHERE sn_median > 25",
		"ingest not sql at all", // error, loop must continue
		"window",                // now shows the entry + drift
		"bogus",                 // unknown command hints at help
		"quit",
	}, "\n") + "\n"
	var stdout, stderr bytes.Buffer
	got := run([]string{"session", "-scale", "50000"}, strings.NewReader(script), &stdout, &stderr)
	if got != 0 {
		t.Fatalf("exit = %d, stderr: %s", got, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"PARINDA design session",
		"benefit",                          // edit summaries
		"re-planned",                       // incremental counters
		"index      photoobj(ra)",          // design listing
		`"columns": [`,                     // design -json dump
		`"table": "photoobj"`,              // design -json dump
		"memo:",                            // stats
		"error:",                           // bad edit reported, not fatal
		"joint index+partition suggestion", // suggest -joint ran
		"usage: suggest",                   // bad suggest flags hint usage
		"window is empty",                  // window before any ingest
		"count 2",                          // deduped ingest shows the count
		"drift vs tuned workload:",         // window drift line
		"try 'help'",                       // unknown command hints at help
		"suggest -joint",                   // help lists the joint recommender
	} {
		if !strings.Contains(out, want) {
			t.Errorf("REPL output missing %q\n---\n%s", want, out)
		}
	}
}

// TestRecommendCommand runs the one-shot joint recommender under a
// tight evaluation budget.
func TestRecommendCommand(t *testing.T) {
	var stdout, stderr bytes.Buffer
	got := run([]string{"recommend", "-scale", "30000", "-max-evals", "20", "-compress", "6", "-quiet"},
		strings.NewReader(""), &stdout, &stderr)
	if got != 0 {
		t.Fatalf("exit = %d, stderr: %s", got, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"Joint design recommendation", "per-query benefits:", "evaluations)"} {
		if !strings.Contains(out, want) {
			t.Errorf("recommend output missing %q\n---\n%s", want, out)
		}
	}
	// Bad objects value is a runtime failure (exit 1), not a crash.
	stdout.Reset()
	stderr.Reset()
	if got := run([]string{"recommend", "-scale", "30000", "-objects", "bogus"},
		strings.NewReader(""), &stdout, &stderr); got != 1 {
		t.Errorf("bad -objects exit = %d, want 1", got)
	}
}

// TestPartitionsOutputDeterministic: with several tables partitioned,
// `parinda partitions` prints byte-identical output on every run, with
// tables in sorted order (the recommended design's order).
func TestPartitionsOutputDeterministic(t *testing.T) {
	wl := filepath.Join(t.TempDir(), "narrow.sql")
	if err := os.WriteFile(wl, []byte(strings.Join([]string{
		"SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 179.5 AND 180.1 AND dec BETWEEN -1.0 AND -0.4;",
		"SELECT objid, g, r FROM photoobj WHERE g - r > 1.4 AND r BETWEEN 18 AND 18.1;",
		"SELECT specobjid, z, zerr FROM specobj WHERE zstatus = 7 AND zerr < 0.0001;",
		"SELECT plate, mjd FROM specobj WHERE sn_median > 29;",
		"SELECT objid, distance FROM neighbors WHERE distance < 0.005;",
		"SELECT fieldid, quality FROM field WHERE nobjects > 100;",
		"SELECT plateid, nexp FROM platex WHERE quality = 1;",
	}, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	tables := []string{"field", "neighbors", "photoobj", "platex", "specobj"}
	var first string
	for i := 0; i < 10; i++ {
		var stdout, stderr bytes.Buffer
		if got := run([]string{"partitions", "-scale", "20000", "-workload", wl},
			strings.NewReader(""), &stdout, &stderr); got != 0 {
			t.Fatalf("exit = %d, stderr: %s", got, stderr.String())
		}
		out := stdout.String()
		if i == 0 {
			first = out
			prev := -1
			for _, table := range tables {
				at := strings.Index(out, "\n  "+table+":\n")
				if at < 0 || at < prev {
					t.Fatalf("table %s missing or out of sorted order:\n%s", table, out)
				}
				prev = at
			}
			continue
		}
		if out != first {
			t.Fatalf("run %d printed different output:\n--- first\n%s--- run %d\n%s", i, first, i, out)
		}
	}
}

// TestSessionREPLEOF: an exhausted stdin ends the session cleanly.
func TestSessionREPLEOF(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"session", "-scale", "50000"}, strings.NewReader(""), &stdout, &stderr); got != 0 {
		t.Fatalf("exit = %d, stderr: %s", got, stderr.String())
	}
}
