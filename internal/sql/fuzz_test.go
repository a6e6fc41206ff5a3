package sql_test

import (
	"testing"

	"repro/internal/sql"
	"repro/internal/workload"
)

// FuzzParseSelect: printing is the statement's identity — the memo
// interns a statement by its printed SQL and the durable tier stores a
// rewrite as printed SQL — so parse → print → parse → print must reach
// a fixed point: whatever parses prints as SQL that parses back to a
// statement printing identically.
//
//	go test -run=NONE -fuzz=FuzzParseSelect -fuzztime=20s ./internal/sql
func FuzzParseSelect(f *testing.F) {
	for _, q := range workload.Queries() {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sel, err := sql.ParseSelect(src)
		if err != nil {
			return
		}
		printed := sql.PrintSelect(sel)
		again, err := sql.ParseSelect(printed)
		if err != nil {
			t.Fatalf("printed form of %q does not parse: %v\n%s", src, err, printed)
		}
		if reprinted := sql.PrintSelect(again); reprinted != printed {
			t.Fatalf("print is not a fixed point for %q:\n%s\n%s", src, printed, reprinted)
		}
	})
}
