package session

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/design"
)

// EditRecord kinds: a committed user edit, an undo, a redo.
const (
	RecordEdit = "edit"
	RecordUndo = "undo"
	RecordRedo = "redo"
)

// EditRecord is one committed session mutation in serializable form —
// the unit the serve tier journals to its write-ahead log. An edit
// record carries the full target state (design + nest-loop flag), not a
// delta; undo and redo are markers that move through the states the
// edits left. History.Apply is the one interpreter of records: folding
// a session's records through it from the empty History yields the
// session's own History.
type EditRecord struct {
	Kind     string         `json:"kind"`
	Design   *design.Design `json:"design,omitempty"`   // RecordEdit only
	NestLoop bool           `json:"nestLoop,omitempty"` // RecordEdit only
}

// ErrConflict marks an edit that contradicts the session's state rather
// than the catalog: an index already in the design, a design index or
// partitioning that is not there, nothing to undo or redo. The serve
// tier answers it with 409; test with errors.Is.
var ErrConflict = errors.New("session: conflict")

// conflict is an ErrConflict with its own message.
type conflict string

func (c conflict) Error() string      { return string(c) }
func (conflict) Is(target error) bool { return target == ErrConflict }

// state is one (design, nest-loop flag) state a session has been in.
type state struct {
	Design   design.Design `json:"design"`
	NestLoop bool          `json:"nestLoop,omitempty"`
}

// initialState is where every session starts, as design.NewHeld does:
// the empty design with nested loops on.
var initialState = state{NestLoop: true}

// History is a session's undo/redo history: the states it has been in
// after its empty design, on the current branch, and which one it holds.
// Undo steps back, redo forward, and an edit drops the states past the
// held one and appends its target. The zero History is a fresh
// session's.
//
// The states form a chain of nodes, each linked to the one before it
// and never changed once made, so a History is an immutable value: any
// holder may keep, read or marshal one without locks while the session
// edits on. An edit links one new node and an undo steps back one, so
// neither copies a state; a redo walks back from the branch's newest
// state, O(redo depth).
type History struct {
	cur *node // the state held; nil = the empty design
	tip *node // the branch's newest state: cur, or RedoDepth states past it
}

// node is one state on a History's chain.
type node struct {
	state
	prev  *node
	depth int // states from the empty design: 1 for the first edit
}

func depth(n *node) int {
	if n == nil {
		return 0
	}
	return n.depth
}

// UndoDepth reports how many states an undo can step back through.
func (h History) UndoDepth() int { return depth(h.cur) }

// RedoDepth reports how many undone states a redo can step forward to.
func (h History) RedoDepth() int { return depth(h.tip) - depth(h.cur) }

// current returns the state h holds.
func (h History) current() state {
	if h.cur == nil {
		return initialState
	}
	return h.cur.state
}

// Apply returns h advanced by rec. An undo or a redo at h's boundary
// fails with an ErrConflict, and h is returned unchanged with any
// error. An edit keeps rec.Design: the caller must not mutate it
// afterwards.
func (h History) Apply(rec EditRecord) (History, error) {
	switch rec.Kind {
	case RecordEdit:
		if rec.Design == nil {
			return h, errors.New("session: edit record carries no design")
		}
		h.cur = &node{state: state{Design: *rec.Design, NestLoop: rec.NestLoop}, prev: h.cur, depth: depth(h.cur) + 1}
		h.tip = h.cur
	case RecordUndo:
		if h.cur == nil {
			return h, conflict("session: nothing to undo")
		}
		h.cur = h.cur.prev
	case RecordRedo:
		if h.cur == h.tip {
			return h, conflict("session: nothing to redo")
		}
		n := h.tip
		for n.prev != h.cur {
			n = n.prev
		}
		h.cur = n
	default:
		return h, fmt.Errorf("session: unknown edit-record kind %q", rec.Kind)
	}
	return h, nil
}

// historyJSON is History's persisted form.
type historyJSON struct {
	States []state `json:"states,omitempty"`
	Cursor int     `json:"cursor,omitempty"`
}

// MarshalJSON encodes the states, oldest first, and how many of them
// are in effect.
func (h History) MarshalJSON() ([]byte, error) {
	states := make([]state, depth(h.tip))
	for n := h.tip; n != nil; n = n.prev {
		states[n.depth-1] = n.state
	}
	return json.Marshal(historyJSON{States: states, Cursor: depth(h.cur)})
}

// UnmarshalJSON decodes MarshalJSON's form.
func (h *History) UnmarshalJSON(blob []byte) error {
	var v historyJSON
	if err := json.Unmarshal(blob, &v); err != nil {
		return err
	}
	if v.Cursor < 0 || v.Cursor > len(v.States) {
		return fmt.Errorf("session: history cursor %d outside its %d states", v.Cursor, len(v.States))
	}
	*h = History{}
	for i, st := range v.States {
		h.tip = &node{state: st, prev: h.tip, depth: i + 1}
		if i+1 == v.Cursor {
			h.cur = h.tip
		}
	}
	return nil
}
