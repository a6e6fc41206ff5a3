package session_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/design"
	"repro/internal/inum"
	"repro/internal/session"
	"repro/internal/workload"
)

// TestSessionWalkMatchesFreshSessions is the property test of the
// state path: a seeded random walk of index, partition (add, replace,
// drop), nest-loop, undo, redo and whole-design edits, applied to two
// sessions sharing one SharedMemo — one planning sequentially, one in
// parallel, taking turns at pricing first. After every step each
// session must price every query exactly as a fresh session that
// applies the same design in one step (cost, indexes used, rewritten
// SQL), and each Explain must top out at the reported cost and name
// exactly the live indexes behind IndexesUsed. Every 25 steps a fresh
// session Restored from the walk's history must match it too.
func TestSessionWalkMatchesFreshSessions(t *testing.T) {
	const steps = 200
	cat := seedCatalog(t, 150000)
	all := workload.Queries()
	var wl []string
	for _, q := range []int{1, 3, 7, 11, 13, 15, 16, 19, 20, 21, 23, 24, 25, 29} {
		wl = append(wl, all[q-1])
	}
	rng := rand.New(rand.NewSource(24))
	parts := walkPartitions(cat, rng)
	shared := session.NewSharedMemo()
	seq, err := session.New(cat, wl, session.Options{Workers: 1, Shared: shared})
	if err != nil {
		t.Fatal(err)
	}
	par, err := session.New(cat, wl, session.Options{Workers: 4, Shared: shared})
	if err != nil {
		t.Fatal(err)
	}

	kinds := map[string]int{}
	for step := 0; step < steps; step++ {
		kind, edit := walkEdit(rng, cat, parts, seq)
		kinds[kind]++
		pair := []*session.DesignSession{seq, par}
		if step%2 == 1 {
			pair[0], pair[1] = par, seq
		}
		var errs [2]error
		for i, s := range pair {
			_, errs[i] = edit(s)
		}
		if (errs[0] == nil) != (errs[1] == nil) {
			t.Fatalf("step %d (%s): the sessions disagree on failure: %v vs %v", step, kind, errs[0], errs[1])
		}
		if seq.Signature() != par.Signature() {
			t.Fatalf("step %d (%s): the sessions hold different designs: %q vs %q", step, kind, seq.Signature(), par.Signature())
		}
		want := freshReport(t, cat, wl, seq.Design(), seq.NestLoopEnabled())
		for _, s := range pair {
			checkAgainstFresh(t, fmt.Sprintf("step %d (%s)", step, kind), s, want)
		}
		if step%25 == 24 {
			checkRestored(t, fmt.Sprintf("step %d: restored", step), cat, wl, shared, seq, want)
		}
	}
	for _, kind := range []string{"add index", "drop index", "partition", "drop partition", "nestloop", "undo", "redo", "apply design"} {
		if kinds[kind] == 0 {
			t.Errorf("the walk never made a %q edit", kind)
		}
	}
	if st := shared.Stats(); st.Hits == 0 || st.DupStores != 0 {
		t.Errorf("shared memo stats %+v: want hits and no duplicate stores", st)
	}
}

// checkRestored opens a fresh session, Restores it from s's history and
// checks that it holds s's design and depths and prices like want.
func checkRestored(t *testing.T, at string, cat *catalog.Catalog, wl []string, shared *session.SharedMemo, s *session.DesignSession, want *session.InteractiveReport) {
	t.Helper()
	r, err := session.New(cat, wl, session.Options{Shared: shared})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(s.History()); err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	if !reflect.DeepEqual(r.Design(), s.Design()) || r.NestLoopEnabled() != s.NestLoopEnabled() || r.Signature() != s.Signature() {
		t.Fatalf("%s: holds %+v (nest loop %v), the walked session %+v (nest loop %v)",
			at, r.Design(), r.NestLoopEnabled(), s.Design(), s.NestLoopEnabled())
	}
	if r.UndoDepth() != s.UndoDepth() || r.RedoDepth() != s.RedoDepth() {
		t.Fatalf("%s: depths %d/%d, the walked session's %d/%d", at, r.UndoDepth(), r.RedoDepth(), s.UndoDepth(), s.RedoDepth())
	}
	checkAgainstFresh(t, at, r, want)
}

// walkPartitions draws two fixed fragmentations per partitionable
// table, each covering every column, so no rewrite can fail and the
// walk revisits designs.
func walkPartitions(cat *catalog.Catalog, rng *rand.Rand) []design.Partition {
	var out []design.Partition
	for _, table := range []string{"photoobj", "specobj", "neighbors", "field"} {
		tab := cat.Table(table)
		var cols []string
		for _, c := range tab.Columns {
			if !slices.Contains(tab.PrimaryKey, c.Name) {
				cols = append(cols, c.Name)
			}
		}
		for v := 0; v < 2; v++ {
			perm := rng.Perm(len(cols))
			k := 2 + rng.Intn(2)
			frags := make([][]string, k)
			for i, p := range perm {
				frags[i%k] = append(frags[i%k], cols[p])
			}
			out = append(out, design.Partition{Table: table, Fragments: frags})
		}
	}
	return out
}

// walkIndexes is the walk's index pool on base tables.
var walkIndexes = []inum.IndexSpec{
	{Table: "photoobj", Columns: []string{"ra"}},
	{Table: "photoobj", Columns: []string{"ra", "dec"}},
	{Table: "photoobj", Columns: []string{"type"}},
	{Table: "photoobj", Columns: []string{"run", "camcol"}},
	{Table: "photoobj", Columns: []string{"objid"}},
	{Table: "specobj", Columns: []string{"bestobjid"}},
	{Table: "specobj", Columns: []string{"z"}},
	{Table: "neighbors", Columns: []string{"distance"}},
	{Table: "neighbors", Columns: []string{"objid"}},
	{Table: "field", Columns: []string{"quality"}},
}

// walkSpec draws an index: from the base pool, or on a fragment of a
// partitioning the design holds, over one or two of its columns.
func walkSpec(rng *rand.Rand, d design.Design) inum.IndexSpec {
	if len(d.Partitions) == 0 || rng.Intn(3) > 0 {
		return walkIndexes[rng.Intn(len(walkIndexes))]
	}
	p := d.Partitions[rng.Intn(len(d.Partitions))]
	i := rng.Intn(len(p.Fragments))
	frag := p.Fragments[i]
	cols := []string{frag[rng.Intn(len(frag))]}
	if c := frag[rng.Intn(len(frag))]; c != cols[0] && rng.Intn(2) == 0 {
		cols = append(cols, c)
	}
	return inum.IndexSpec{Table: design.FragName(p.Table, i), Columns: cols}
}

// walkEdit draws the next edit against s's design; the same edit is
// then applied to both sessions.
func walkEdit(rng *rand.Rand, cat *catalog.Catalog, parts []design.Partition, s *session.DesignSession) (string, func(*session.DesignSession) (*session.InteractiveReport, error)) {
	d := s.Design()
	for {
		switch rng.Intn(8) {
		case 0:
			spec := walkSpec(rng, d)
			if slices.ContainsFunc(d.Indexes, func(have inum.IndexSpec) bool { return have.Key() == spec.Key() }) {
				continue
			}
			return "add index", func(s *session.DesignSession) (*session.InteractiveReport, error) { return s.AddIndex(spec) }
		case 1:
			if len(d.Indexes) == 0 {
				continue
			}
			key := d.Indexes[rng.Intn(len(d.Indexes))].Key()
			return "drop index", func(s *session.DesignSession) (*session.InteractiveReport, error) { return s.DropIndexKey(key) }
		case 2:
			p := parts[rng.Intn(len(parts))]
			return "partition", func(s *session.DesignSession) (*session.InteractiveReport, error) { return s.AddPartition(p) }
		case 3:
			if len(d.Partitions) == 0 {
				continue
			}
			table := d.Partitions[rng.Intn(len(d.Partitions))].Table
			return "drop partition", func(s *session.DesignSession) (*session.InteractiveReport, error) { return s.DropPartition(table) }
		case 4:
			on := !s.NestLoopEnabled()
			return "nestloop", func(s *session.DesignSession) (*session.InteractiveReport, error) { return s.SetNestLoop(on) }
		case 5:
			if !s.CanUndo() {
				continue
			}
			return "undo", (*session.DesignSession).Undo
		case 6:
			if !s.CanRedo() {
				continue
			}
			return "redo", (*session.DesignSession).Redo
		case 7:
			var next design.Design
			if rng.Intn(2) == 0 {
				next.Partitions = []design.Partition{parts[rng.Intn(len(parts))]}
			}
			for n := rng.Intn(4); len(next.Indexes) < n; {
				spec := walkSpec(rng, next)
				if !slices.ContainsFunc(next.Indexes, func(have inum.IndexSpec) bool { return have.Key() == spec.Key() }) {
					next.Indexes = append(next.Indexes, spec)
				}
			}
			if _, err := design.Validate(cat, next); err != nil {
				continue
			}
			return "apply design", func(s *session.DesignSession) (*session.InteractiveReport, error) { return s.ApplyDesign(next) }
		}
	}
}

// freshReport prices d from scratch in a private session.
func freshReport(t *testing.T, cat *catalog.Catalog, wl []string, d design.Design, nestLoop bool) *session.InteractiveReport {
	t.Helper()
	s, err := session.New(cat, wl, session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetNestLoop(nestLoop); err != nil {
		t.Fatal(err)
	}
	rep, err := s.ApplyDesign(d)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

var hypoName = regexp.MustCompile(`<what-if>ix[0-9]+_[a-z0-9_]+`)

// checkAgainstFresh compares s's current pricing with want, a fresh
// session's, and checks s's explains against its own report.
func checkAgainstFresh(t *testing.T, at string, s *session.DesignSession, want *session.InteractiveReport) {
	t.Helper()
	rep := s.Report()
	d := s.Design()
	nameOf := map[string]string{}
	for i, spec := range d.Indexes {
		nameOf[spec.Key()] = rep.IndexNames[i]
	}
	for qi, pq := range rep.PerQuery {
		w := want.PerQuery[qi]
		if pq.NewCost != w.NewCost || !slices.Equal(pq.IndexesUsed, w.IndexesUsed) || rep.Rewritten[qi] != want.Rewritten[qi] {
			t.Fatalf("%s, query %d: session prices (%v, %v, %s), a fresh session (%v, %v, %s)\ndesign: %+v",
				at, qi+1, pq.NewCost, pq.IndexesUsed, rep.Rewritten[qi], w.NewCost, w.IndexesUsed, want.Rewritten[qi], d)
		}
		explain, err := s.Explain(qi)
		if err != nil {
			t.Fatalf("%s, query %d: %v", at, qi+1, err)
		}
		top, _, _ := strings.Cut(explain, "\n")
		if !strings.Contains(top, fmt.Sprintf("..%.2f rows=", pq.NewCost)) {
			t.Fatalf("%s, query %d: explain tops out at %q, the report says %.2f", at, qi+1, top, pq.NewCost)
		}
		var wantNames []string
		for _, key := range pq.IndexesUsed {
			wantNames = append(wantNames, nameOf[key])
		}
		gotNames := slices.Compact(slices.Sorted(slices.Values(hypoName.FindAllString(explain, -1))))
		if slices.Sort(wantNames); !slices.Equal(gotNames, wantNames) {
			t.Fatalf("%s, query %d: explain names %v, the report's indexes are %v\n%s", at, qi+1, gotNames, wantNames, explain)
		}
	}
}
