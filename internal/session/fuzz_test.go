package session_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/design"
	"repro/internal/inum"
	"repro/internal/session"
)

// FuzzHistoryJSON: a snapshot restores each tenant's History through
// UnmarshalJSON, so no blob may panic it and every rejection must be an
// error. Whatever it accepts must survive a round trip: the re-marshaled
// bytes decode to the same undo and redo depths and re-marshal
// identically.
//
//	go test -run=NONE -fuzz=FuzzHistoryJSON -fuzztime=10s ./internal/session
func FuzzHistoryJSON(f *testing.F) {
	var h session.History
	for i, cols := range [][]string{{"ra"}, {"dec"}, {"ra", "dec"}} {
		d := design.Design{Indexes: []inum.IndexSpec{{Table: "photoobj", Columns: cols}}}
		var err error
		if h, err = h.Apply(session.EditRecord{Kind: session.RecordEdit, Design: &d, NestLoop: i != 1}); err != nil {
			f.Fatal(err)
		}
	}
	for range 2 {
		h, _ = h.Apply(session.EditRecord{Kind: session.RecordUndo})
	}
	three, err := json.Marshal(h)
	if err != nil {
		f.Fatal(err)
	}
	empty, _ := json.Marshal(session.History{})
	f.Add(empty)
	f.Add([]byte(`{}`))
	f.Add(three) // three states, cursor 1
	for _, cursor := range []string{`"cursor":-1`, `"cursor":4`} {
		bad := bytes.Replace(three, []byte(`"cursor":1`), []byte(cursor), 1)
		if err := new(session.History).UnmarshalJSON(bad); err == nil {
			f.Fatalf("%s decoded: its cursor is outside its states", bad)
		}
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		var got session.History
		if err := got.UnmarshalJSON(blob); err != nil {
			return
		}
		again, err := json.Marshal(got)
		if err != nil {
			t.Fatalf("accepted %q but cannot marshal it: %v", blob, err)
		}
		var back session.History
		if err := back.UnmarshalJSON(again); err != nil {
			t.Fatalf("accepted %q, but its re-marshaled form %s is rejected: %v", blob, again, err)
		}
		if back.UndoDepth() != got.UndoDepth() || back.RedoDepth() != got.RedoDepth() {
			t.Fatalf("%s: depths %d/%d after a round trip, %d/%d before",
				again, back.UndoDepth(), back.RedoDepth(), got.UndoDepth(), got.RedoDepth())
		}
		if third, err := json.Marshal(back); err != nil || !bytes.Equal(third, again) {
			t.Fatalf("re-marshaling %s gave %s (err %v)", again, third, err)
		}
	})
}
