// Tests live in an external package: they drive the session through
// its exported API only, the way the CLI, the serve tier and the demo
// do.
package session_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/costlab"
	"repro/internal/design"
	"repro/internal/inum"
	"repro/internal/obs"
	"repro/internal/recommend"
	"repro/internal/session"
	"repro/internal/sql"
	"repro/internal/workload"
)

func seedCatalog(t testing.TB, scale int64) *catalog.Catalog {
	t.Helper()
	cat, err := workload.BuildCatalog(scale)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// photoRest returns every photoobj column except objid/ra/dec, so
// [ra,dec | rest] fully covers the table.
func photoRest(cat *catalog.Catalog) []string {
	var rest []string
	for _, c := range cat.Table("photoobj").Columns {
		switch c.Name {
		case "objid", "ra", "dec":
		default:
			rest = append(rest, c.Name)
		}
	}
	return rest
}

// touching counts workload queries referencing table.
func touching(t *testing.T, wl []string, table string) int {
	t.Helper()
	n := 0
	for _, q := range wl {
		sel, err := sql.ParseSelect(q)
		if err != nil {
			t.Fatal(err)
		}
		if sql.FootprintOf(sel).TouchesTable(table) {
			n++
		}
	}
	return n
}

func TestSessionEditRepricesOnlyTouchedQueries(t *testing.T) {
	cat := seedCatalog(t, 200000)
	wl := workload.Queries()
	s, err := session.New(cat, wl, session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.PlanCalls(); got != int64(len(wl)) {
		t.Fatalf("base pricing used %d plan calls, want %d", got, len(wl))
	}
	before := s.Report()

	nField := touching(t, wl, "field")
	if nField == 0 || nField == len(wl) {
		t.Fatalf("workload unsuitable: %d/%d queries touch field", nField, len(wl))
	}
	rep, err := s.AddIndex(inum.IndexSpec{Table: "field", Columns: []string{"run", "camcol"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Invalidated != nField || rep.Repriced != nField {
		t.Errorf("edit invalidated %d / repriced %d queries, want %d", rep.Invalidated, rep.Repriced, nField)
	}
	if got, want := s.PlanCalls(), int64(len(wl)+nField); got != want {
		t.Errorf("plan calls after edit = %d, want %d (delta = only touched queries)", got, want)
	}
	// Untouched queries keep their exact state.
	for qi := range wl {
		sel, _ := sql.ParseSelect(wl[qi])
		if sql.FootprintOf(sel).TouchesTable("field") {
			continue
		}
		if rep.PerQuery[qi].NewCost != before.PerQuery[qi].NewCost {
			t.Errorf("untouched query %d cost changed: %v -> %v", qi,
				before.PerQuery[qi].NewCost, rep.PerQuery[qi].NewCost)
		}
		if rep.Rewritten[qi] != before.Rewritten[qi] {
			t.Errorf("untouched query %d rewrite changed", qi)
		}
	}
}

// TestSpanAttributesEveryPlanCall: a request span attached to the
// session for an edit records exactly the optimizer calls the session
// consumed, so per-request and per-tenant plan-call metrics add up to
// the session's own counter.
func TestSpanAttributesEveryPlanCall(t *testing.T) {
	cat := seedCatalog(t, 200000)
	s, err := session.New(cat, workload.Queries(), session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := s.PlanCalls()
	edits := []func() (*session.InteractiveReport, error){
		func() (*session.InteractiveReport, error) {
			return s.AddIndex(inum.IndexSpec{Table: "field", Columns: []string{"run", "camcol"}})
		},
		func() (*session.InteractiveReport, error) {
			return s.AddIndex(inum.IndexSpec{Table: "photoobj", Columns: []string{"ra"}})
		},
		s.Undo,
		s.Redo,
		func() (*session.InteractiveReport, error) { return s.DropIndexKey("field(run,camcol)") },
	}
	var spanCalls int64
	for round := 0; round < 2; round++ {
		for i, edit := range edits {
			sp := obs.NewSpan(obs.NewRequestID(), "t", "edit")
			s.SetSpan(sp)
			_, err := edit()
			s.SetSpan(nil)
			if err != nil {
				t.Fatalf("round %d edit %d: %v", round, i, err)
			}
			spanCalls += sp.PlanCalls()
		}
		if round == 0 {
			// Leave the design empty so round 1 replays the same edits.
			if _, err := s.ApplyDesign(design.Design{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	delta := s.PlanCalls() - base
	if delta == 0 {
		t.Fatal("edits planned nothing; test is vacuous")
	}
	if spanCalls != delta {
		t.Errorf("spans attributed %d plan calls, session consumed %d", spanCalls, delta)
	}
}

func TestSessionUndoIsFreeAndExact(t *testing.T) {
	cat := seedCatalog(t, 200000)
	wl := workload.Queries()[:12]
	s, err := session.New(cat, wl, session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := s.Report()
	if _, err := s.AddIndex(inum.IndexSpec{Table: "photoobj", Columns: []string{"ra"}}); err != nil {
		t.Fatal(err)
	}
	callsAfterEdit := s.PlanCalls()
	rep, err := s.Undo()
	if err != nil {
		t.Fatal(err)
	}
	if s.PlanCalls() != callsAfterEdit {
		t.Errorf("undo planned: %d -> %d calls", callsAfterEdit, s.PlanCalls())
	}
	if rep.Repriced != 0 {
		t.Errorf("undo repriced %d queries, want 0 (memo)", rep.Repriced)
	}
	for qi := range wl {
		if rep.PerQuery[qi].NewCost != base.PerQuery[qi].NewCost {
			t.Errorf("undo cost mismatch on query %d", qi)
		}
	}
	if s.CanUndo() {
		t.Error("undo stack not unwound")
	}
	if _, err := s.Undo(); err == nil {
		t.Error("undo on empty stack accepted")
	}
	// Redoing the same edit is also free: the memo still holds it.
	rep2, err := s.AddIndex(inum.IndexSpec{Table: "photoobj", Columns: []string{"ra"}})
	if err != nil {
		t.Fatal(err)
	}
	if s.PlanCalls() != callsAfterEdit || rep2.Repriced != 0 {
		t.Errorf("re-applying a memoized edit planned again (calls %d -> %d, repriced %d)",
			callsAfterEdit, s.PlanCalls(), rep2.Repriced)
	}
}

func TestSessionPartitionEditAndCascade(t *testing.T) {
	cat := seedCatalog(t, 200000)
	wl := []string{
		"SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 100 AND 150",
		"SELECT specobjid FROM specobj WHERE zstatus = 7",
	}
	s, err := session.New(cat, wl, session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.AddPartition(design.Partition{
		Table:     "photoobj",
		Fragments: [][]string{{"ra", "dec"}, photoRest(cat)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Invalidated != 1 {
		t.Errorf("partition edit invalidated %d queries, want 1", rep.Invalidated)
	}
	if got := rep.Rewritten[0]; !containsFrag(got) {
		t.Errorf("query not rewritten onto fragments: %s", got)
	}
	if rep.AvgBenefit() <= 0 {
		t.Errorf("partition benefit = %v", rep.AvgBenefit())
	}
	// An index on a fragment, then dropping the partition, cascades.
	if _, err := s.AddIndex(inum.IndexSpec{Table: "photoobj_p1", Columns: []string{"ra"}}); err != nil {
		t.Fatal(err)
	}
	rep, err = s.DropPartition("photoobj")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s.Design().Indexes); n != 0 {
		t.Errorf("fragment index survived partition drop: %d left", n)
	}
	if rep.NewCost != rep.BaseCost {
		t.Errorf("empty design cost %v != base %v", rep.NewCost, rep.BaseCost)
	}
}

func containsFrag(s string) bool {
	for i := 0; i+10 <= len(s); i++ {
		if s[i:i+10] == "photoobj_p" {
			return true
		}
	}
	return false
}

func TestSessionErrorsLeaveStateIntact(t *testing.T) {
	cat := seedCatalog(t, 200000)
	wl := workload.Queries()[:4]
	s, err := session.New(cat, wl, session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := session.New(cat, []string{"SELECT nope FROM"}, session.Options{}); err == nil {
		t.Error("unparsable workload accepted")
	}
	sig := s.Signature()
	cases := []func() error{
		func() error { _, e := s.AddIndex(inum.IndexSpec{Table: "nosuch", Columns: []string{"x"}}); return e },
		func() error {
			_, e := s.AddIndex(inum.IndexSpec{Table: "photoobj", Columns: []string{"nosuch"}})
			return e
		},
		func() error { _, e := s.DropIndexKey("photoobj(ra)"); return e },
		func() error { _, e := s.DropPartition("photoobj"); return e },
		func() error {
			_, e := s.AddPartition(design.Partition{Table: "nosuch", Fragments: [][]string{{"x"}}})
			return e
		},
		func() error {
			_, e := s.AddPartition(design.Partition{Table: "photoobj", Fragments: [][]string{{"nosuch"}}})
			return e
		},
	}
	for i, fn := range cases {
		if fn() == nil {
			t.Errorf("case %d: invalid edit accepted", i)
		}
		if s.Signature() != sig || s.CanUndo() {
			t.Fatalf("case %d: failed edit mutated the session", i)
		}
	}
	// Duplicate index.
	if _, err := s.AddIndex(inum.IndexSpec{Table: "photoobj", Columns: []string{"ra"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddIndex(inum.IndexSpec{Table: "photoobj", Columns: []string{"ra"}}); err == nil {
		t.Error("duplicate index accepted")
	}
	// An edit that validates but fails during re-pricing (the
	// partition covers none of the columns the workload reads) must
	// roll back the design AND leave the last-edit counters
	// describing the last successful edit.
	sigAfter, statsAfter, designAfter := s.Signature(), s.Stats(), s.Design()
	if _, err := s.AddPartition(design.Partition{
		Table: "photoobj", Fragments: [][]string{{"htmid"}},
	}); err == nil {
		t.Fatal("uncoverable partition accepted")
	}
	if s.Signature() != sigAfter {
		t.Error("failed re-pricing left the what-if design mutated")
	}
	if got := s.Stats(); got != statsAfter {
		t.Errorf("failed edit mutated counters: %+v -> %+v", statsAfter, got)
	}
	if len(s.Design().Partitions) != len(designAfter.Partitions) {
		t.Error("failed edit left a partition behind")
	}
}

// TestSessionMatchesFromScratchEvaluation is the property-style
// equivalence check: after every edit of a random add/drop sequence,
// the session's incremental costs must equal a from-scratch
// evaluation of the same design — a fresh session.New(…).ApplyDesign —
// exactly.
func TestSessionMatchesFromScratchEvaluation(t *testing.T) {
	cat := seedCatalog(t, 150000)
	all := workload.Queries()
	wl := []string{all[0], all[2], all[6], all[12], all[14], all[18], all[19], all[22], all[25], all[28]}
	s, err := session.New(cat, wl, session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fromScratch := func(d design.Design) (*session.InteractiveReport, error) {
		fresh, err := session.New(cat, wl, session.Options{})
		if err != nil {
			return nil, err
		}
		return fresh.ApplyDesign(d)
	}

	specs := []inum.IndexSpec{
		{Table: "photoobj", Columns: []string{"ra"}},
		{Table: "photoobj", Columns: []string{"run", "camcol"}},
		{Table: "photoobj", Columns: []string{"type"}},
		{Table: "specobj", Columns: []string{"bestobjid"}},
		{Table: "specobj", Columns: []string{"z"}},
		{Table: "neighbors", Columns: []string{"distance"}},
		{Table: "field", Columns: []string{"run", "camcol"}},
	}
	parts := []design.Partition{
		{Table: "photoobj", Fragments: [][]string{{"ra", "dec"}, photoRest(cat)}},
		{Table: "specobj", Fragments: [][]string{
			{"bestobjid", "z", "zerr", "zconf", "zstatus", "specclass"},
			{"plate", "mjd", "fiberid", "sn_median", "velocity"},
		}},
	}

	rng := rand.New(rand.NewSource(7))
	edits := 0
	for step := 0; step < 24; step++ {
		var rep *session.InteractiveReport
		var err error
		switch op := rng.Intn(6); op {
		case 0, 1: // add or (if present) drop a random index
			spec := specs[rng.Intn(len(specs))]
			present := false
			for _, have := range s.Design().Indexes {
				if have.Key() == spec.Key() {
					present = true
				}
			}
			if present {
				rep, err = s.DropIndex(spec)
			} else {
				rep, err = s.AddIndex(spec)
			}
		case 2: // (re)partition a random table
			rep, err = s.AddPartition(parts[rng.Intn(len(parts))])
		case 3: // drop a partition if any
			d := s.Design()
			if len(d.Partitions) == 0 {
				continue
			}
			rep, err = s.DropPartition(d.Partitions[rng.Intn(len(d.Partitions))].Table)
		case 4: // toggle the what-if join flag
			rep, err = s.SetNestLoop(!s.NestLoopEnabled())
		case 5: // undo
			if !s.CanUndo() {
				continue
			}
			rep, err = s.Undo()
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if rep == nil {
			continue
		}
		edits++

		// A design carries no join toggle, so the one-shot evaluation
		// only covers nest-loop-on designs; skip the comparison while
		// the flag is off, but keep editing on top of it.
		if !s.NestLoopEnabled() {
			continue
		}
		want, err := fromScratch(s.Design())
		if err != nil {
			t.Fatalf("step %d: from-scratch evaluation: %v", step, err)
		}
		if math.Abs(want.NewCost-rep.NewCost) > 1e-9 || math.Abs(want.BaseCost-rep.BaseCost) > 1e-9 {
			t.Fatalf("step %d: totals diverged: session (%v, %v) vs scratch (%v, %v)\ndesign: %+v",
				step, rep.BaseCost, rep.NewCost, want.BaseCost, want.NewCost, s.Design())
		}
		for qi := range wl {
			if rep.PerQuery[qi].NewCost != want.PerQuery[qi].NewCost {
				t.Fatalf("step %d query %d: session cost %v != from-scratch %v\ndesign: %+v",
					step, qi, rep.PerQuery[qi].NewCost, want.PerQuery[qi].NewCost, s.Design())
			}
			if rep.Rewritten[qi] != want.Rewritten[qi] {
				t.Fatalf("step %d query %d: rewrite diverged:\n%s\nvs\n%s",
					step, qi, rep.Rewritten[qi], want.Rewritten[qi])
			}
		}
	}
	if edits < 10 {
		t.Fatalf("random walk exercised only %d edits", edits)
	}
	st := s.Stats()
	if st.MemoHits == 0 {
		t.Error("random walk never hit the memo; incremental engine suspect")
	}
	t.Logf("random walk: %d edits, stats %+v", edits, st)

	// The oracle itself: a one-shot evaluation speeds up every query it
	// has an index for, names the index each one uses, and leaves the
	// catalog untouched after all the evaluations above.
	pair, err := session.New(cat, []string{
		"SELECT objid FROM photoobj WHERE ra BETWEEN 179.9 AND 180.0",
		"SELECT objid FROM photoobj WHERE run = 93 AND camcol = 3",
	}, session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pair.ApplyDesign(design.Design{Indexes: specs[:2]})
	if err != nil {
		t.Fatal(err)
	}
	for qi, pq := range rep.PerQuery {
		if pq.NewCost >= pq.BaseCost || len(pq.IndexesUsed) == 0 {
			t.Errorf("query %d: %v -> %v using %v, want a gain through a design index",
				qi, pq.BaseCost, pq.NewCost, pq.IndexesUsed)
		}
	}
	if n := len(cat.Indexes()); n != 0 {
		t.Errorf("what-if evaluation leaked %d indexes into the catalog", n)
	}
}

func TestSessionGreedyWarmStart(t *testing.T) {
	cat := seedCatalog(t, 200000)
	wl := workload.Queries()[:8]
	s, err := session.New(cat, wl, session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The advisor's greedy baseline re-prices the empty configuration
	// first — the session has those costs already.
	res, err := s.Recommend(context.Background(), recommend.Options{
		Objects:  recommend.ObjectsIndexes,
		Strategy: recommend.StrategyGreedy,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemoHits < int64(len(wl)) {
		t.Errorf("warm-started greedy hit the memo %d times, want >= %d (base costs)", res.MemoHits, len(wl))
	}
	// Same result as a cold full-backend run.
	cold, err := recommend.Recommend(context.Background(), cat, s.Queries(), recommend.Options{
		Objects:  recommend.ObjectsIndexes,
		Strategy: recommend.StrategyGreedy,
		Backend:  costlab.BackendFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Design.Indexes) != len(cold.Design.Indexes) {
		t.Fatalf("warm %v vs cold %v", res.Design.Indexes, cold.Design.Indexes)
	}
	for i := range res.Design.Indexes {
		if res.Design.Indexes[i].Key() != cold.Design.Indexes[i].Key() {
			t.Errorf("index %d: warm %s vs cold %s", i, res.Design.Indexes[i].Key(), cold.Design.Indexes[i].Key())
		}
	}
	if res.NewCost != cold.NewCost {
		t.Errorf("warm cost %v != cold cost %v", res.NewCost, cold.NewCost)
	}
}

// TestSessionExplainNamesMatchReport: the live session's what-if name
// counter diverges from the names a state was priced under — the fresh
// pools of the parallel path, or an index re-created while every state
// comes from the memo (undo/redo, drop/re-add). Explains must carry
// exactly the names InteractiveReport.IndexNames declares now.
func TestSessionExplainNamesMatchReport(t *testing.T) {
	cat := seedCatalog(t, 200000)
	ra := inum.IndexSpec{Table: "photoobj", Columns: []string{"ra"}}
	dec := inum.IndexSpec{Table: "photoobj", Columns: []string{"dec"}}
	for name, edits := range map[string][]func(*session.DesignSession) (*session.InteractiveReport, error){
		"after another index": {
			func(s *session.DesignSession) (*session.InteractiveReport, error) { return s.AddIndex(dec) },
			func(s *session.DesignSession) (*session.InteractiveReport, error) { return s.DropIndex(dec) },
			func(s *session.DesignSession) (*session.InteractiveReport, error) { return s.AddIndex(ra) },
		},
		"undo-redo": {
			func(s *session.DesignSession) (*session.InteractiveReport, error) { return s.AddIndex(ra) },
			(*session.DesignSession).Undo,
			(*session.DesignSession).Redo,
		},
		"drop-readd": {
			func(s *session.DesignSession) (*session.InteractiveReport, error) { return s.AddIndex(ra) },
			func(s *session.DesignSession) (*session.InteractiveReport, error) { return s.DropIndex(ra) },
			func(s *session.DesignSession) (*session.InteractiveReport, error) { return s.AddIndex(ra) },
		},
	} {
		t.Run(name, func(t *testing.T) {
			// photoobj edits invalidate more than 4 queries: the parallel path.
			s, err := session.New(cat, workload.Queries(), session.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var rep *session.InteractiveReport
			for _, edit := range edits {
				if rep, err = edit(s); err != nil {
					t.Fatal(err)
				}
			}
			const live, stale = "<what-if>ix2_photoobj_ra", "<what-if>ix1_photoobj_ra"
			if len(rep.IndexNames) != 1 || rep.IndexNames[0] != live {
				t.Fatalf("IndexNames = %v, want [%s]", rep.IndexNames, live)
			}
			users := 0
			for qi, pq := range rep.PerQuery {
				if len(pq.IndexesUsed) == 0 {
					continue
				}
				users++
				explain, err := s.Explain(qi)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(explain, live) || strings.Contains(explain, stale) {
					t.Errorf("query %d uses the index but its explain does not name %s:\n%s", qi+1, live, explain)
				}
			}
			if users == 0 {
				t.Fatal("no query uses the index; test is vacuous")
			}
		})
	}
}

// TestSessionFragmentNameCollision: a partition whose generated
// fragment name shadows a real table must be rejected up front (the
// two-phase apply relies on validation catching every create error).
func TestSessionFragmentNameCollision(t *testing.T) {
	cat := seedCatalog(t, 100000)
	// Graft a real table named like a would-be fragment.
	ddl, err := sql.Parse("CREATE TABLE photoobj_p1 (objid bigint, PRIMARY KEY (objid))")
	if err != nil {
		t.Fatal(err)
	}
	tab := catalog.NewTable(ddl.(*sql.CreateTable))
	tab.RowCount = 1
	if err := cat.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	s, err := session.New(cat, []string{"SELECT objid FROM photoobj WHERE ra BETWEEN 1 AND 2"}, session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sig := s.Signature()
	if _, err := s.AddPartition(design.Partition{
		Table: "photoobj", Fragments: [][]string{{"ra", "dec"}},
	}); err == nil {
		t.Fatal("colliding fragment name accepted")
	}
	if s.Signature() != sig {
		t.Error("rejected partition mutated the session")
	}
}

// TestRecommendReadsStatesThroughUnderConcurrentEdits: advisors read
// the cost tier through while tenants publish states into the same
// SharedMemo. Every search lands on the design and cost a cold search
// finds — a read-through answer is the optimizer's own cost — and the
// race detector sees no unsynchronized access.
func TestRecommendReadsStatesThroughUnderConcurrentEdits(t *testing.T) {
	cat := seedCatalog(t, 50000)
	wl := workload.Queries()[:8]
	queries, err := recommend.ParseWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	opts := recommend.Options{Objects: recommend.ObjectsIndexes, Strategy: recommend.StrategyGreedy, Backend: costlab.BackendFull}
	cold, err := recommend.Recommend(context.Background(), cat, queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	specs := []inum.IndexSpec{
		{Table: "photoobj", Columns: []string{"ra"}},
		{Table: "photoobj", Columns: []string{"dec", "ra"}},
		{Table: "photoobj", Columns: []string{"ra", "dec"}},
		{Table: "photoobj", Columns: []string{"htmid"}},
	}
	shared := session.NewSharedMemo()
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs <- func() error {
				s, err := session.New(cat, wl, session.Options{Shared: shared})
				if err != nil {
					return err
				}
				if g%2 == 0 {
					for _, spec := range specs {
						if _, err := s.AddIndex(spec); err != nil {
							return err
						}
					}
					return nil
				}
				res, err := s.Recommend(context.Background(), opts)
				if err != nil {
					return err
				}
				if design.Key(res.Design) != design.Key(cold.Design) || res.NewCost != cold.NewCost {
					return fmt.Errorf("search %d found %s at %v, a cold search %s at %v",
						g, design.Key(res.Design), res.NewCost, design.Key(cold.Design), cold.NewCost)
				}
				return nil
			}()
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
