// Package designtest draws seeded random designs over a catalog for
// property tests: every design Design and Mutate draw is valid, every
// design Corrupt derives is one design.Validate must reject, and a seed
// replays the same sequence.
package designtest

import (
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/design"
	"repro/internal/inum"
)

// Gen draws random valid designs over a catalog. Rng is the generator's
// source, exposed so a test can draw its own choices (a nested-loop
// flag, say) from the same seeded sequence.
type Gen struct {
	Rng    *rand.Rand
	cat    *catalog.Catalog
	tables []*catalog.Table
}

// New returns a generator over cat seeded with seed.
func New(seed int64, cat *catalog.Catalog) *Gen {
	return &Gen{Rng: rand.New(rand.NewSource(seed)), cat: cat, tables: cat.Tables()}
}

// nonPK lists t's columns outside its primary key.
func nonPK(t *catalog.Table) []string {
	pk := map[string]bool{}
	for _, c := range t.PrimaryKey {
		pk[c] = true
	}
	var out []string
	for _, c := range t.Columns {
		if !pk[c.Name] {
			out = append(out, c.Name)
		}
	}
	return out
}

// pick draws 1..max distinct entries of cols in random order.
func (g *Gen) pick(cols []string, max int) []string {
	n := 1 + g.Rng.Intn(max)
	if n > len(cols) {
		n = len(cols)
	}
	var out []string
	for _, i := range g.Rng.Perm(len(cols))[:n] {
		out = append(out, cols[i])
	}
	return out
}

// partition draws a partitioning of t with k fragments.
func (g *Gen) partition(t *catalog.Table, k int) design.Partition {
	p := design.Partition{Table: t.Name}
	for i := 0; i < k; i++ {
		p.Fragments = append(p.Fragments, g.pick(nonPK(t), 4))
	}
	return p
}

// index draws an index on a base table or on one of d's fragments.
func (g *Gen) index(d design.Design) inum.IndexSpec {
	if len(d.Partitions) > 0 && g.Rng.Intn(2) == 0 {
		p := d.Partitions[g.Rng.Intn(len(d.Partitions))]
		i := g.Rng.Intn(len(p.Fragments))
		cols := append(append([]string(nil), g.cat.Table(p.Table).PrimaryKey...), p.Fragments[i]...)
		return inum.IndexSpec{Table: design.FragName(p.Table, i), Columns: g.pick(cols, 2)}
	}
	t := g.tables[g.Rng.Intn(len(g.tables))]
	var cols []string
	for _, c := range t.Columns {
		cols = append(cols, c.Name)
	}
	return inum.IndexSpec{Table: t.Name, Columns: g.pick(cols, 2)}
}

// addIndexes appends n random indexes whose keys d does not hold yet.
func (g *Gen) addIndexes(d *design.Design, n int) {
	for i := 0; i < n; i++ {
		spec := g.index(*d)
		dup := false
		for _, have := range d.Indexes {
			dup = dup || have.Key() == spec.Key()
		}
		if !dup {
			d.Indexes = append(d.Indexes, spec)
		}
	}
}

// Design draws a design: up to two partitioned tables and up to three
// indexes on base tables or fragments.
func (g *Gen) Design() design.Design {
	var d design.Design
	for _, i := range g.Rng.Perm(len(g.tables))[:g.Rng.Intn(3)] {
		d.Partitions = append(d.Partitions, g.partition(g.tables[i], 1+g.Rng.Intn(3)))
	}
	g.addIndexes(&d, g.Rng.Intn(4))
	return d
}

// Mutate derives a successor of a: repartitions with the same fragment
// count (so fragment names — and indexes riding on them — are
// re-created), dropped partitionings (cascading to their fragment
// indexes), new partitionings, and index churn. Fragment indexes the
// new fragments cannot carry are dropped, so the result stays valid.
func (g *Gen) Mutate(a design.Design) design.Design {
	b := a.Clone()
	partitioned := map[string]bool{}
	kept := b.Partitions[:0]
	for _, p := range b.Partitions {
		switch g.Rng.Intn(4) {
		case 0: // repartition, same fragment count
			p = g.partition(g.cat.Table(p.Table), len(p.Fragments))
		case 1: // drop
			continue
		}
		kept = append(kept, p)
		partitioned[p.Table] = true
	}
	b.Partitions = kept
	if t := g.tables[g.Rng.Intn(len(g.tables))]; !partitioned[t.Name] && g.Rng.Intn(3) == 0 {
		b.Partitions = append(b.Partitions, g.partition(t, 1+g.Rng.Intn(3)))
	}
	_, err := design.Validate(g.cat, design.Design{Partitions: b.Partitions})
	if err != nil {
		panic(err)
	}
	ix := b.Indexes[:0]
	for _, spec := range b.Indexes {
		if g.Rng.Intn(4) == 0 {
			continue
		}
		if _, err := design.Validate(g.cat, design.Design{Indexes: []inum.IndexSpec{spec}, Partitions: b.Partitions}); err == nil {
			ix = append(ix, spec)
		}
	}
	b.Indexes = ix
	g.addIndexes(&b, g.Rng.Intn(3))
	return b
}

// Corrupt derives a design Validate must reject.
func (g *Gen) Corrupt(d design.Design) design.Design {
	bad := d.Clone()
	t := g.tables[g.Rng.Intn(len(g.tables))]
	switch g.Rng.Intn(6) {
	case 0:
		bad.Partitions = append(bad.Partitions, design.Partition{Table: t.Name, Fragments: [][]string{{"no_such_column"}}})
	case 1:
		bad.Partitions = append(bad.Partitions, design.Partition{Table: "no_such_table", Fragments: [][]string{{"a"}}})
	case 2:
		bad.Partitions = append(bad.Partitions, design.Partition{Table: t.Name})
	case 3:
		bad.Indexes = append(bad.Indexes, inum.IndexSpec{Table: t.Name + "_p9", Columns: []string{t.PrimaryKey[0]}})
	case 4:
		bad.Indexes = append(bad.Indexes, inum.IndexSpec{Table: t.Name, Columns: []string{"no_such_column"}})
	default:
		spec := inum.IndexSpec{Table: t.Name, Columns: []string{t.PrimaryKey[0]}}
		bad.Indexes = append(bad.Indexes, spec, spec)
	}
	return bad
}
