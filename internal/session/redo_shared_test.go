// Redo, JSON wire-format, and cross-session SharedMemo tests.
package session_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/design"
	"repro/internal/inum"
	"repro/internal/session"
	"repro/internal/workload"
)

func TestSessionRedoIsFreeAndExact(t *testing.T) {
	cat := seedCatalog(t, 200000)
	wl := workload.Queries()[:12]
	s, err := session.New(cat, wl, session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.CanRedo() {
		t.Error("fresh session claims redo is available")
	}
	if _, err := s.Redo(); err == nil {
		t.Error("redo on empty stack accepted")
	}

	specA := inum.IndexSpec{Table: "photoobj", Columns: []string{"ra"}}
	specB := inum.IndexSpec{Table: "specobj", Columns: []string{"bestobjid"}}
	if _, err := s.AddIndex(specA); err != nil {
		t.Fatal(err)
	}
	repB, err := s.AddIndex(specB)
	if err != nil {
		t.Fatal(err)
	}
	explainsB := explains(t, s)
	calls := s.PlanCalls()

	// Undo twice, redo twice: designs must replay exactly, from the
	// memo, with zero optimizer calls.
	if _, err := s.Undo(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Undo(); err != nil {
		t.Fatal(err)
	}
	if !s.CanRedo() {
		t.Fatal("two undos left nothing to redo")
	}
	rep1, err := s.Redo()
	if err != nil {
		t.Fatal(err)
	}
	if got := rep1.PerQuery; len(got) == 0 {
		t.Fatal("redo report empty")
	}
	if want := (design.Design{Indexes: []inum.IndexSpec{specA}}); !reflect.DeepEqual(s.Design(), want) {
		t.Errorf("first redo design = %+v, want %+v", s.Design(), want)
	}
	rep2, err := s.Redo()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Design().Indexes) != 2 {
		t.Errorf("second redo design has %d indexes, want 2", len(s.Design().Indexes))
	}
	if s.PlanCalls() != calls {
		t.Errorf("redo planned: %d -> %d optimizer calls, want no change", calls, s.PlanCalls())
	}
	if rep1.Repriced != 0 || rep2.Repriced != 0 {
		t.Errorf("redo repriced %d then %d queries, want 0 (memo)", rep1.Repriced, rep2.Repriced)
	}
	for qi := range wl {
		if rep2.PerQuery[qi].NewCost != repB.PerQuery[qi].NewCost {
			t.Errorf("redo cost mismatch on query %d: %v != %v",
				qi, rep2.PerQuery[qi].NewCost, repB.PerQuery[qi].NewCost)
		}
	}
	// Redo re-creates the indexes under fresh what-if names: the explains
	// are the pre-undo ones, naming the indexes the session now holds.
	rename := strings.NewReplacer(repB.IndexNames[0], rep2.IndexNames[0], repB.IndexNames[1], rep2.IndexNames[1])
	for qi, got := range explains(t, s) {
		if want := rename.Replace(explainsB[qi]); got != want {
			t.Errorf("redo explain of query %d:\n%s\nwant\n%s", qi, got, want)
		}
	}
	if s.CanRedo() {
		t.Error("redo stack not exhausted after replaying both edits")
	}

	// Undo after redo reverts the redone edit.
	if _, err := s.Undo(); err != nil {
		t.Fatal(err)
	}
	if want := (design.Design{Indexes: []inum.IndexSpec{specA}}); !reflect.DeepEqual(s.Design(), want) {
		t.Errorf("undo-after-redo design = %+v, want %+v", s.Design(), want)
	}

	// A structural no-op is NOT a fresh edit: re-applying the current
	// design must neither consume the redo stack nor add an undo
	// frame (a GET-design → POST-design round trip would otherwise
	// destroy history).
	undoDepthBefore := undoDepth(s)
	if _, err := s.ApplyDesign(s.Design()); err != nil {
		t.Fatal(err)
	}
	if !s.CanRedo() {
		t.Error("no-op ApplyDesign cleared the redo stack")
	}
	if got := undoDepth(s); got != undoDepthBefore {
		t.Errorf("no-op ApplyDesign changed undo depth: %d -> %d", undoDepthBefore, got)
	}

	// A fresh edit forks history: the parked redo entry is discarded.
	if _, err := s.AddIndex(inum.IndexSpec{Table: "field", Columns: []string{"run"}}); err != nil {
		t.Fatal(err)
	}
	if s.CanRedo() {
		t.Error("fresh edit should clear the redo stack")
	}
}

// explains reads every query's explain under the current design.
func explains(t *testing.T, s *session.DesignSession) []string {
	t.Helper()
	out := make([]string, len(s.Queries()))
	for qi := range out {
		var err error
		if out[qi], err = s.Explain(qi); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// undoDepth measures the undo stack through the public API: undo all
// the way down (counting), then redo back up, leaving the session as
// it was (both directions replay from the memo).
func undoDepth(s *session.DesignSession) int {
	n := 0
	for s.CanUndo() {
		if _, err := s.Undo(); err != nil {
			break
		}
		n++
	}
	for i := 0; i < n; i++ {
		if _, err := s.Redo(); err != nil {
			break
		}
	}
	return n
}

func TestDesignAndReportJSONRoundTrip(t *testing.T) {
	d := design.Design{
		Indexes: []inum.IndexSpec{
			{Table: "photoobj", Columns: []string{"ra", "dec"}},
			{Table: "specobj", Columns: []string{"bestobjid"}},
		},
		Partitions: []design.Partition{
			{Table: "photoobj", Fragments: [][]string{{"ra", "dec"}, {"run", "camcol"}}},
		},
	}
	blob, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	// The wire format is the lowercase one the HTTP API documents.
	for _, want := range []string{`"indexes"`, `"table":"photoobj"`, `"columns":["ra","dec"]`, `"partitions"`, `"fragments"`} {
		if !strings.Contains(string(blob), want) {
			t.Errorf("design JSON %s missing %s", blob, want)
		}
	}
	var back design.Design
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, back) {
		t.Errorf("design round trip: %+v != %+v", back, d)
	}

	var pd design.Partition
	pdBlob, err := json.Marshal(d.Partitions[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(pdBlob, &pd); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Partitions[0], pd) {
		t.Errorf("partition def round trip: %+v != %+v", pd, d.Partitions[0])
	}

	// A live report (the serve layer's payload) must round-trip too.
	cat := seedCatalog(t, 100000)
	s, err := session.New(cat, workload.Queries()[:6], session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.AddIndex(inum.IndexSpec{Table: "photoobj", Columns: []string{"ra"}})
	if err != nil {
		t.Fatal(err)
	}
	repBlob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var repBack session.InteractiveReport
	if err := json.Unmarshal(repBlob, &repBack); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*rep, repBack) {
		t.Errorf("report round trip mismatch:\n got %+v\nwant %+v", repBack, *rep)
	}
}

// TestSharedMemoServesSecondSession is the multi-tenant contract: a
// second session over the same catalog and workload boots AND repeats
// an edit with zero optimizer calls, serving everything from the
// SharedMemo the first session filled — with byte-identical pricing.
func TestSharedMemoServesSecondSession(t *testing.T) {
	cat := seedCatalog(t, 200000)
	wl := workload.Queries()[:12]
	shared := session.NewSharedMemo()

	a, err := session.New(cat, wl, session.Options{Shared: shared})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.PlanCalls(); got != int64(len(wl)) {
		t.Fatalf("first session base pricing used %d calls, want %d", got, len(wl))
	}
	spec := inum.IndexSpec{Table: "photoobj", Columns: []string{"ra"}}
	repA, err := a.AddIndex(spec)
	if err != nil {
		t.Fatal(err)
	}

	b, err := session.New(cat, wl, session.Options{Shared: shared})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.PlanCalls(); got != 0 {
		t.Errorf("second session base pricing used %d optimizer calls, want 0 (shared memo)", got)
	}
	repB, err := b.AddIndex(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.PlanCalls(); got != 0 {
		t.Errorf("second session's repeated edit used %d optimizer calls, want 0", got)
	}
	if st := b.Stats(); st.SharedHits == 0 {
		t.Error("second session reports no shared-memo hits")
	}

	// Identical pricing, explains included (canonical explains are
	// localized back through each session's own index names, which
	// match here because both sessions performed the same edits).
	// Lifetime counters legitimately differ (A planned, B hit the
	// shared memo), so they are zeroed before the byte comparison.
	stripCounters := func(r session.InteractiveReport) string {
		r.Invalidated, r.Repriced, r.MemoHits, r.MemoMisses, r.PlanCalls = 0, 0, 0, 0, 0
		blob, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	if aj, bj := stripCounters(*repA), stripCounters(*repB); aj != bj {
		t.Errorf("shared-memo pricing differs:\n a: %s\n b: %s", aj, bj)
	}

	st := shared.Stats()
	if st.Hits == 0 || st.States == 0 {
		t.Errorf("shared memo saw no traffic: %+v", st)
	}
	if st.DupStores != 0 {
		t.Errorf("sequential sessions duplicated %d stores, want 0", st.DupStores)
	}

	// The cost tier is the advisor warm-start pool for both sessions.
	if a.Memo() != shared.Costs() || b.Memo() != shared.Costs() {
		t.Error("session cost memos are not the shared cost tier")
	}
}
