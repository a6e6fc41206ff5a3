package session_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/design"
	"repro/internal/inum"
	"repro/internal/session"
	"repro/internal/workload"
)

// modelState is a design state as the reference model keeps it: the
// sorted index keys and the nest-loop flag.
type modelState struct {
	indexes  string
	nestLoop bool
}

// historyModel is the two-stack undo/redo the session's History must
// behave like.
type historyModel struct {
	cur        modelState
	undo, redo []modelState
}

// commit records a real edit to next: the current state is undoable
// and the redo stack is gone.
func (m *historyModel) commit(next modelState) {
	m.undo = append(m.undo, m.cur)
	m.redo = nil
	m.cur = next
}

func indexKeys(d design.Design) []string {
	keys := make([]string, 0, len(d.Indexes))
	for _, spec := range d.Indexes {
		keys = append(keys, spec.Key())
	}
	slices.Sort(keys)
	return keys
}

func modelOf(keys []string, nestLoop bool) modelState {
	return modelState{indexes: fmt.Sprint(keys), nestLoop: nestLoop}
}

// TestHistoryMatchesTwoStackModel drives seeded random schedules of
// edits, no-op edits, failing edits, undos and redos — at the stack
// boundaries too — on a live session. After every step the session's
// design, nest-loop flag and depths must equal a two-stack reference
// model's, and folding the records the session journaled through
// History.Apply from the empty History must give the session's own
// History.
func TestHistoryMatchesTwoStackModel(t *testing.T) {
	cat := seedCatalog(t, 50000)
	all := workload.Queries()
	var wl []string
	for _, q := range []int{1, 3, 7, 13, 15} {
		wl = append(wl, all[q-1])
	}
	shared := session.NewSharedMemo()
	pool := []inum.IndexSpec{
		{Table: "photoobj", Columns: []string{"ra"}},
		{Table: "photoobj", Columns: []string{"dec"}},
		{Table: "photoobj", Columns: []string{"objid"}},
		{Table: "specobj", Columns: []string{"bestobjid"}},
		{Table: "specobj", Columns: []string{"z"}},
	}
	kinds := map[string]int{}
	for seed := int64(1); seed <= 6; seed++ {
		s, err := session.New(cat, wl, session.Options{Workers: 1, Shared: shared})
		if err != nil {
			t.Fatal(err)
		}
		var journal []session.EditRecord
		s.SetOnRecord(func(rec session.EditRecord) { journal = append(journal, rec) })
		model := historyModel{cur: modelOf(nil, true)}
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 80; step++ {
			keys := indexKeys(s.Design())
			var kind string
			var err error
			var wantErr error // nil: success; session.ErrConflict; errAny: any non-conflict error
			next := model.cur
			switch rng.Intn(7) {
			case 0, 1:
				kind = "add index"
				spec := pool[rng.Intn(len(pool))]
				_, err = s.AddIndex(spec)
				if slices.Contains(keys, spec.Key()) {
					wantErr = session.ErrConflict
				} else {
					next = modelOf(slices.Sorted(slices.Values(append(keys, spec.Key()))), model.cur.nestLoop)
				}
			case 2:
				kind = "drop index"
				key := pool[rng.Intn(len(pool))].Key()
				_, err = s.DropIndexKey(key)
				if i := slices.Index(keys, key); i < 0 {
					wantErr = session.ErrConflict
				} else {
					next = modelOf(slices.Delete(keys, i, i+1), model.cur.nestLoop)
				}
			case 3:
				switch rng.Intn(3) {
				case 0:
					kind = "nestloop"
					_, err = s.SetNestLoop(!model.cur.nestLoop)
					next.nestLoop = !next.nestLoop
				case 1:
					kind = "no-op edit"
					_, err = s.ApplyDesign(s.Design())
				case 2:
					kind = "failing edit"
					wantErr = errAny
					if rng.Intn(2) == 0 {
						_, err = s.AddIndex(inum.IndexSpec{Table: "photoobj", Columns: []string{"no_such"}})
					} else {
						// Validates, then fails re-pricing: the rollback path.
						_, err = s.AddPartition(design.Partition{Table: "photoobj", Fragments: [][]string{{"htmid"}}})
					}
				}
			case 4, 5:
				kind = "undo"
				_, err = s.Undo()
				if len(model.undo) == 0 {
					wantErr = session.ErrConflict
				}
			case 6:
				kind = "redo"
				_, err = s.Redo()
				if len(model.redo) == 0 {
					wantErr = session.ErrConflict
				}
			}
			kinds[kind]++
			if wantErr == session.ErrConflict {
				kinds[kind+" at the boundary"]++
			}
			at := fmt.Sprintf("seed %d, step %d (%s)", seed, step, kind)
			switch {
			case wantErr == nil && err != nil:
				t.Fatalf("%s: %v", at, err)
			case wantErr != nil && err == nil:
				t.Fatalf("%s: succeeded, want an error", at)
			case wantErr == session.ErrConflict && !errors.Is(err, session.ErrConflict):
				t.Fatalf("%s: error %v is not a conflict", at, err)
			case wantErr == errAny && errors.Is(err, session.ErrConflict):
				t.Fatalf("%s: error %v is a conflict", at, err)
			}
			if wantErr == nil {
				switch kind {
				case "undo":
					model.redo = append(model.redo, model.cur)
					model.cur, model.undo = model.undo[len(model.undo)-1], model.undo[:len(model.undo)-1]
				case "redo":
					model.undo = append(model.undo, model.cur)
					model.cur, model.redo = model.redo[len(model.redo)-1], model.redo[:len(model.redo)-1]
				default:
					if next != model.cur {
						model.commit(next)
					}
				}
			}

			if got := modelOf(indexKeys(s.Design()), s.NestLoopEnabled()); got != model.cur {
				t.Fatalf("%s: session holds %+v, the model %+v", at, got, model.cur)
			}
			if s.UndoDepth() != len(model.undo) || s.RedoDepth() != len(model.redo) {
				t.Fatalf("%s: session depths %d/%d, the model's %d/%d",
					at, s.UndoDepth(), s.RedoDepth(), len(model.undo), len(model.redo))
			}
			var folded session.History
			for i, rec := range journal {
				if folded, err = folded.Apply(rec); err != nil {
					t.Fatalf("%s: journaled record %d does not apply: %v", at, i, err)
				}
			}
			if got, want := mustJSON(t, folded), mustJSON(t, s.History()); got != want {
				t.Fatalf("%s: the folded journal gives\n%s\nthe session holds\n%s", at, got, want)
			}
		}
	}
	for _, kind := range []string{"add index", "drop index", "nestloop", "no-op edit", "failing edit", "undo", "redo", "undo at the boundary", "redo at the boundary"} {
		if kinds[kind] == 0 {
			t.Errorf("the schedules never made a %q step", kind)
		}
	}
}

// errAny stands for any error that is not a conflict.
var errAny = errors.New("any non-conflict error")

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}
