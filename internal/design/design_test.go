package design_test

import (
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/design"
	"repro/internal/inum"
	"repro/internal/session"
	"repro/internal/whatif"
)

// gen draws random valid designs over the seed catalog.
type gen struct {
	rng    *rand.Rand
	cat    *catalog.Catalog
	tables []*catalog.Table
}

func newGen(seed int64, cat *catalog.Catalog) *gen {
	return &gen{rng: rand.New(rand.NewSource(seed)), cat: cat, tables: cat.Tables()}
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
func (g *gen) pick(cols []string, max int) []string {
	n := 1 + g.rng.Intn(max)
	if n > len(cols) {
		n = len(cols)
	}
	var out []string
	for _, i := range g.rng.Perm(len(cols))[:n] {
		out = append(out, cols[i])
	}
	return out
}

// partition draws a partitioning of t with k fragments.
func (g *gen) partition(t *catalog.Table, k int) design.Partition {
	p := design.Partition{Table: t.Name}
	for i := 0; i < k; i++ {
		p.Fragments = append(p.Fragments, g.pick(nonPK(t), 4))
	}
	return p
}

// index draws an index on a base table or on one of d's fragments.
func (g *gen) index(d design.Design) inum.IndexSpec {
	if len(d.Partitions) > 0 && g.rng.Intn(2) == 0 {
		p := d.Partitions[g.rng.Intn(len(d.Partitions))]
		i := g.rng.Intn(len(p.Fragments))
		cols := append(append([]string(nil), g.cat.Table(p.Table).PrimaryKey...), p.Fragments[i]...)
		return inum.IndexSpec{Table: design.FragName(p.Table, i), Columns: g.pick(cols, 2)}
	}
	t := g.tables[g.rng.Intn(len(g.tables))]
	var cols []string
	for _, c := range t.Columns {
		cols = append(cols, c.Name)
	}
	return inum.IndexSpec{Table: t.Name, Columns: g.pick(cols, 2)}
}

// addIndexes appends n random indexes whose keys d does not hold yet.
func (g *gen) addIndexes(d *design.Design, n int) {
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

func (g *gen) design() design.Design {
	var d design.Design
	for _, i := range g.rng.Perm(len(g.tables))[:g.rng.Intn(3)] {
		d.Partitions = append(d.Partitions, g.partition(g.tables[i], 1+g.rng.Intn(3)))
	}
	g.addIndexes(&d, g.rng.Intn(4))
	return d
}

// mutate derives a successor of a: repartitions with the same fragment
// count (so fragment names — and indexes riding on them — are
// re-created), dropped partitionings (cascading to their fragment
// indexes), new partitionings, and index churn. Fragment indexes the
// new fragments cannot carry are dropped, so the result stays valid.
func (g *gen) mutate(a design.Design) design.Design {
	b := a.Clone()
	partitioned := map[string]bool{}
	kept := b.Partitions[:0]
	for _, p := range b.Partitions {
		switch g.rng.Intn(4) {
		case 0: // repartition, same fragment count
			p = g.partition(g.cat.Table(p.Table), len(p.Fragments))
		case 1: // drop
			continue
		}
		kept = append(kept, p)
		partitioned[p.Table] = true
	}
	b.Partitions = kept
	if t := g.tables[g.rng.Intn(len(g.tables))]; !partitioned[t.Name] && g.rng.Intn(3) == 0 {
		b.Partitions = append(b.Partitions, g.partition(t, 1+g.rng.Intn(3)))
	}
	_, err := design.Validate(g.cat, design.Design{Partitions: b.Partitions})
	if err != nil {
		panic(err)
	}
	ix := b.Indexes[:0]
	for _, spec := range b.Indexes {
		if g.rng.Intn(4) == 0 {
			continue
		}
		if _, err := design.Validate(g.cat, design.Design{Indexes: []inum.IndexSpec{spec}, Partitions: b.Partitions}); err == nil {
			ix = append(ix, spec)
		}
	}
	b.Indexes = ix
	g.addIndexes(&b, g.rng.Intn(3))
	return b
}

// corrupt derives a design Validate must reject.
func (g *gen) corrupt(d design.Design) design.Design {
	bad := d.Clone()
	t := g.tables[g.rng.Intn(len(g.tables))]
	switch g.rng.Intn(6) {
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

// liveNames maps d's index keys to the names an installation created.
func liveNames(d design.Design, created []*catalog.Index) map[string]string {
	out := map[string]string{}
	for i, spec := range d.Indexes {
		out[spec.Key()] = created[i].Name
	}
	return out
}

func installed(t *testing.T, cat *catalog.Catalog, d design.Design, nl bool) (*whatif.Session, []*catalog.Index) {
	t.Helper()
	ws := whatif.NewSession(cat)
	created, err := design.Install(ws, d, nl)
	if err != nil {
		t.Fatalf("Install(%+v): %v", d, err)
	}
	return ws, created
}

// TestDiffMatchesFreshInstall: over random design pairs, a session
// holding a and moved by one Diff(a, b) delta is indistinguishable from
// a fresh session given b, and Diff(a, a) is empty.
func TestDiffMatchesFreshInstall(t *testing.T) {
	cat := seedCatalog(t)
	g := newGen(1, cat)
	seen := map[string]int{} // transition shapes the pairs covered
	for i := 0; i < 200; i++ {
		a, nlA := g.design(), g.rng.Intn(2) == 0
		b, nlB := g.mutate(a), g.rng.Intn(2) == 0
		classify(a, b, seen)
		if nlA != nlB {
			seen["nest-loop flip"]++
		}
		for _, d := range []design.Design{a, b} {
			if _, err := design.Validate(cat, d); err != nil {
				t.Fatalf("pair %d: generator drew an invalid design %+v: %v", i, d, err)
			}
		}
		ws, created := installed(t, cat, a, nlA)
		live := liveNames(a, created)
		if same, affected := design.Diff(a, a, live); !same.Empty() || len(affected) != 0 {
			t.Fatalf("pair %d: Diff(a, a) = %+v, affected %v", i, same, affected)
		}
		delta, _ := design.Diff(a, b, live)
		delta.NestLoop = &nlB
		if _, err := ws.ApplyDelta(delta); err != nil {
			t.Fatalf("pair %d: ApplyDelta(Diff(a, b)): %v\n a=%+v\n b=%+v", i, err, a, b)
		}
		fresh, _ := installed(t, cat, b, nlB)
		if ws.Signature() != fresh.Signature() {
			t.Fatalf("pair %d: moved session %q\n fresh install %q\n a=%+v\n b=%+v", i, ws.Signature(), fresh.Signature(), a, b)
		}
	}
	for _, shape := range []string{"repartition", "re-created fragment index", "cascaded fragment index", "nest-loop flip"} {
		if seen[shape] < 5 {
			t.Errorf("only %d pairs exercise %s (covered: %v)", seen[shape], shape, seen)
		}
	}
}

// classify counts the transition shapes a → b exercises.
func classify(a, b design.Design, seen map[string]int) {
	bParts := map[string]design.Partition{}
	for _, p := range b.Partitions {
		bParts[p.Table] = p
	}
	bIx := map[string]bool{}
	for _, spec := range b.Indexes {
		bIx[spec.Key()] = true
	}
	for _, p := range a.Partitions {
		q, kept := bParts[p.Table]
		if kept && len(q.Fragments) == len(p.Fragments) && design.Key(design.Design{Partitions: []design.Partition{p}}) != design.Key(design.Design{Partitions: []design.Partition{q}}) {
			seen["repartition"]++
		}
		for i := range p.Fragments {
			for _, spec := range a.Indexes {
				if spec.Table != design.FragName(p.Table, i) {
					continue
				}
				switch {
				case !kept:
					seen["cascaded fragment index"]++
				case bIx[spec.Key()] && design.Key(design.Design{Partitions: []design.Partition{p}}) != design.Key(design.Design{Partitions: []design.Partition{q}}):
					seen["re-created fragment index"]++
				}
			}
		}
	}
}

// TestSessionRejectsInvalidDesignUntouched: a design Validate rejects
// leaves a DesignSession byte-identical — design, costs and undo depth
// — and a valid transition lands on the fresh-install signature.
func TestSessionRejectsInvalidDesignUntouched(t *testing.T) {
	cat := seedCatalog(t)
	// Primary-key-only queries rewrite onto any fragment, so every
	// generated design prices.
	s, err := session.New(cat, []string{
		"SELECT objid FROM photoobj WHERE objid < 500",
		"SELECT specobjid FROM specobj WHERE specobjid > 10",
		"SELECT objid, neighborobjid FROM neighbors WHERE objid < 100",
		"SELECT fieldid FROM field",
		"SELECT plateid FROM platex WHERE plateid = 3",
		"SELECT p.objid FROM photoobj p, specobj s WHERE p.objid = s.specobjid",
	}, session.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	state := func() string {
		blob, err := json.Marshal(struct {
			Design design.Design
			Report *session.InteractiveReport
			Sig    string
			Undo   int
			Redo   int
		}{s.Design(), s.Report(), s.Signature(), s.UndoDepth(), s.RedoDepth()})
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	g := newGen(2, cat)
	for i := 0; i < 200; i++ {
		a, b := g.design(), g.design()
		if _, err := s.ApplyDesign(a); err != nil {
			t.Fatalf("step %d: valid design rejected: %v\n%+v", i, err, a)
		}
		bad := g.corrupt(b)
		if _, err := design.Validate(cat, bad); err == nil {
			t.Fatalf("step %d: Validate accepted %+v", i, bad)
		}
		before := state()
		if _, err := s.ApplyDesign(bad); err == nil {
			t.Fatalf("step %d: session accepted %+v", i, bad)
		}
		if after := state(); after != before {
			t.Fatalf("step %d: rejected design changed the session:\n before %s\n after  %s", i, before, after)
		}
		nl := g.rng.Intn(2) == 0
		if _, err := s.ApplyDesign(b); err != nil {
			t.Fatalf("step %d: valid design rejected: %v\n%+v", i, err, b)
		}
		if _, err := s.SetNestLoop(nl); err != nil {
			t.Fatal(err)
		}
		if fresh, _ := installed(t, cat, b, nl); s.Signature() != fresh.Signature() {
			t.Fatalf("step %d: session signature %q\n fresh install %q", i, s.Signature(), fresh.Signature())
		}
	}
}
