package optimizer

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/sql"
)

// RelationInfo is the planner's view of one base relation: its table
// statistics and the indexes available on it. The what-if layer
// replaces or extends this through RelationInfoHook.
type RelationInfo struct {
	Table   *catalog.Table
	Indexes []*catalog.Index
}

// RelationInfoHook intercepts relation lookup at plan time — the
// analogue of PostgreSQL's get_relation_info_hook. It receives the
// catalog's view (nil for a table the catalog does not know) and
// returns the view the planner should use. Hooks must not mutate the
// input, and must not keep it past the call: the planner reuses it.
type RelationInfoHook func(name string, info *RelationInfo) *RelationInfo

// baseRel is one bound FROM-list entry during planning.
type baseRel struct {
	id    uint64 // singleton bitmask
	alias string
	base  RelationInfo  // the catalog's view, handed to the hook
	info  *RelationInfo // the view planned against
	r     *restriction  // single-relation conjuncts, from the statement's prepared half
	path  *Plan         // cheapest access path
}

// binder resolves column references to relations.
type binder struct {
	rels []*baseRel
}

// bind resolves every relation of sel, in FROM-list order, through the
// catalog and the hook. The binder and its relations live in the
// planner's scratch space and are valid until the next bind.
func (p *Planner) bind(sel *sql.Select) (*binder, error) {
	n := len(sel.From) + len(sel.Joins)
	if n == 0 {
		return nil, fmt.Errorf("optimizer: query references no tables")
	}
	if n > 63 {
		return nil, fmt.Errorf("optimizer: too many relations (%d)", n)
	}
	s := &p.scratch
	if cap(s.rels) < n {
		s.rels, s.relPtrs = make([]baseRel, n), make([]*baseRel, n)
	}
	rels, ptrs := s.rels[:n], s.relPtrs[:n]
	for i := range rels {
		var ref sql.TableRef
		if i < len(sel.From) {
			ref = sel.From[i]
		} else {
			ref = sel.Joins[i-len(sel.From)].Table
		}
		rel := &rels[i]
		*rel = baseRel{id: 1 << uint(i), alias: ref.EffectiveName()}
		info, err := p.relationInfo(ref.Table, &rel.base)
		if err != nil {
			return nil, err
		}
		rel.info = info
		for _, prev := range ptrs[:i] {
			if prev.alias == rel.alias {
				return nil, fmt.Errorf("optimizer: duplicate table alias %q", rel.alias)
			}
		}
		ptrs[i] = rel
	}
	s.binder.rels = ptrs
	return &s.binder, nil
}

// relByAlias returns the relation bound under alias, or nil.
func (b *binder) relByAlias(alias string) *baseRel {
	for _, rel := range b.rels {
		if rel.alias == alias {
			return rel
		}
	}
	return nil
}

// resolveColumn finds the relation and column a reference denotes.
func (b *binder) resolveColumn(ref *sql.ColumnRef) (*baseRel, *catalog.Column, error) {
	if ref.Table != "" {
		rel := b.relByAlias(ref.Table)
		if rel == nil {
			return nil, nil, fmt.Errorf("optimizer: unknown table alias %q", ref.Table)
		}
		col := rel.info.Table.Column(ref.Column)
		if col == nil {
			return nil, nil, fmt.Errorf("optimizer: unknown column %q", ref.String())
		}
		return rel, col, nil
	}
	var foundRel *baseRel
	var foundCol *catalog.Column
	for _, rel := range b.rels {
		if col := rel.info.Table.Column(ref.Column); col != nil {
			if foundRel != nil {
				return nil, nil, fmt.Errorf("optimizer: ambiguous column %q", ref.Column)
			}
			foundRel, foundCol = rel, col
		}
	}
	if foundRel == nil {
		return nil, nil, fmt.Errorf("optimizer: unknown column %q", ref.Column)
	}
	return foundRel, foundCol, nil
}

// relsOf returns the bitmask of relations an expression references.
// Unresolvable references surface as an error.
func (b *binder) relsOf(e sql.Expr) (uint64, error) {
	var mask uint64
	var firstErr error
	sql.WalkExprs(e, func(x sql.Expr) {
		ref, ok := x.(*sql.ColumnRef)
		if !ok || ref.Column == "*" {
			return
		}
		rel, _, err := b.resolveColumn(ref)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		mask |= rel.id
	})
	return mask, firstErr
}

// relByMask returns the single relation for a singleton bitmask.
func (b *binder) relByMask(mask uint64) *baseRel {
	for _, rel := range b.rels {
		if rel.id == mask {
			return rel
		}
	}
	return nil
}
