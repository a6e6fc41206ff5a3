package main

// The step sequence every rung replays. The lower rungs price index
// configurations only (costlab's Config is a list of index specs), so
// the ladder follows the op stream's index edits — add, drop, undo,
// redo — plus its costs reads and session resets, and leaves out
// partition edits, ingests and explains. It keeps its own model of
// each tenant's index design and history, with the session's undo and
// redo semantics, so every step carries the configuration before and
// after it and the tables whose queries it invalidates. An undo or
// redo with nothing left to move in this model (the op undid an edit
// the ladder left out) is skipped.

import (
	"repro/internal/inum"
)

const (
	stepAdd   = "add_index"
	stepDrop  = "drop_index"
	stepUndo  = "undo"
	stepRedo  = "redo"
	stepCosts = "costs"
	stepReset = "reset" // drop and re-create the tenant's session
)

type step struct {
	tenant        int
	kind          string
	spec          inum.IndexSpec // add and drop only
	before, after []inum.IndexSpec
	tables        []string // tables whose index set the step changes
}

func (s *step) edit() bool {
	return s.kind == stepAdd || s.kind == stepDrop || s.kind == stepUndo || s.kind == stepRedo
}

type history struct {
	cur        []inum.IndexSpec
	undo, redo [][]inum.IndexSpec
}

func deriveSteps(ops []op, workloads map[int]*tenantWorkload) []step {
	models := map[int]*history{}
	var steps []step
	for _, o := range ops {
		if workloads[o.Tenant] == nil {
			continue
		}
		m := models[o.Tenant]
		if m == nil {
			m = &history{}
			models[o.Tenant] = m
		}
		st := step{tenant: o.Tenant, kind: o.Kind, before: m.cur}
		switch o.Kind {
		case stepAdd:
			st.spec = inum.IndexSpec{Table: o.Table, Columns: o.Columns}
			if has(m.cur, st.spec.Key()) {
				continue
			}
			m.undo, m.redo = append(m.undo, m.cur), nil
			m.cur = append(append([]inum.IndexSpec(nil), m.cur...), st.spec)
		case stepDrop:
			st.spec = inum.IndexSpec{Table: o.Table, Columns: o.Columns}
			if !has(m.cur, st.spec.Key()) {
				continue
			}
			m.undo, m.redo = append(m.undo, m.cur), nil
			next := make([]inum.IndexSpec, 0, len(m.cur))
			for _, s := range m.cur {
				if s.Key() != st.spec.Key() {
					next = append(next, s)
				}
			}
			m.cur = next
		case stepUndo:
			if len(m.undo) == 0 {
				continue
			}
			m.redo = append(m.redo, m.cur)
			m.cur, m.undo = m.undo[len(m.undo)-1], m.undo[:len(m.undo)-1]
		case stepRedo:
			if len(m.redo) == 0 {
				continue
			}
			m.undo = append(m.undo, m.cur)
			m.cur, m.redo = m.redo[len(m.redo)-1], m.redo[:len(m.redo)-1]
		case stepCosts:
		case "create_session":
			// A pass boundary: the drop before it and this create are one
			// reset here.
			st.kind = stepReset
			*m = history{}
		default:
			continue // partition edits, ingests, explains, drop_session
		}
		st.after = m.cur
		st.tables = changedTables(st.before, st.after)
		steps = append(steps, st)
	}
	return steps
}

func has(cfg []inum.IndexSpec, key string) bool {
	for _, s := range cfg {
		if s.Key() == key {
			return true
		}
	}
	return false
}

// changedTables lists the tables on which a and b hold different
// index sets.
func changedTables(a, b []inum.IndexSpec) []string {
	diff := map[string]int{}
	for _, s := range a {
		diff[s.Key()]++
	}
	for _, s := range b {
		diff[s.Key()]--
	}
	seen := map[string]bool{}
	var tables []string
	for _, cfg := range [][]inum.IndexSpec{a, b} {
		for _, s := range cfg {
			if diff[s.Key()] != 0 && !seen[s.Table] {
				seen[s.Table] = true
				tables = append(tables, s.Table)
			}
		}
	}
	return tables
}

// project keeps the specs of cfg on tables the footprint touches: the
// configuration as one query sees it, which is also its memo identity.
func project(cfg []inum.IndexSpec, tables map[string]bool) inum.Config {
	var out inum.Config
	for _, s := range cfg {
		if tables[s.Table] {
			out = append(out, s)
		}
	}
	return out
}

// invalidated lists the queries of tw whose footprint touches one of
// the step's changed tables.
func invalidated(tw *tenantWorkload, st *step) []int {
	var out []int
	for qi, fp := range tw.foot {
		for _, t := range st.tables {
			if fp.TouchesTable(t) {
				out = append(out, qi)
				break
			}
		}
	}
	return out
}
