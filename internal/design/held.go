package design

import (
	"slices"
	"sort"

	"repro/internal/catalog"
	"repro/internal/inum"
	"repro/internal/optimizer"
	"repro/internal/whatif"
)

// Held is a what-if session positioned at a design: it remembers the
// design and nested-loop flag the session holds and each design index's
// live what-if name, and moves only by one ApplyDelta of Diff(held,
// target) — a transition costs its difference, never a rebuild. Not
// safe for concurrent use.
type Held struct {
	ws       *whatif.Session
	design   Design
	nestLoop bool
	names    map[string]string // index key → live what-if name
}

// NewHeld returns a fresh session over cat: empty design, nested loops on.
func NewHeld(cat *catalog.Catalog) *Held {
	return &Held{ws: whatif.NewSession(cat), nestLoop: true, names: map[string]string{}}
}

// Session returns the what-if session to plan on; only Move edits it.
func (h *Held) Session() *whatif.Session { return h.ws }

// Design returns the held design; callers must not mutate it.
func (h *Held) Design() Design { return h.design }

// NestLoop reports the held nested-loop flag.
func (h *Held) NestLoop() bool { return h.nestLoop }

// Name returns the live what-if name of a held index key ("" if none).
func (h *Held) Name(key string) string { return h.names[key] }

// UsedKeys returns the sorted design keys of the what-if indexes a plan
// made on this session uses.
func (h *Held) UsedKeys(plan *optimizer.Plan) []string {
	var used []string
	for _, name := range plan.IndexesUsed() {
		for key, live := range h.names {
			if live == name {
				used = append(used, key)
			}
		}
	}
	sort.Strings(used)
	return used
}

// Move transitions the session to (to, nestLoop) with one ApplyDelta of
// Diff(held, to) and returns that delta — NestLoop nil when the flag
// stays, empty when the design was already held — and the parent
// tables it affects. On error nothing changes. The Held keeps to, so
// callers must not mutate it afterwards.
func (h *Held) Move(to Design, nestLoop bool) (whatif.Delta, []string, error) {
	delta, affected := Diff(h.design, to, h.names)
	if nestLoop != h.nestLoop {
		delta.NestLoop = &nestLoop
	}
	created, err := h.ws.ApplyDelta(delta)
	if err != nil {
		return whatif.Delta{}, nil, err
	}
	for key, live := range h.names {
		if slices.Contains(delta.DropIndexes, live) {
			delete(h.names, key)
		}
	}
	for _, spec := range h.design.Indexes {
		if slices.Contains(delta.DropTables, spec.Table) {
			delete(h.names, spec.Key())
		}
	}
	for _, ix := range created {
		h.names[inum.IndexSpec{Table: ix.Table, Columns: ix.Columns}.Key()] = ix.Name
	}
	h.design, h.nestLoop = to, nestLoop
	return delta, affected, nil
}
