package design_test

import (
	"encoding/json"
	"testing"

	"repro/internal/catalog"
	"repro/internal/design"
	"repro/internal/design/designtest"
	"repro/internal/session"
	"repro/internal/whatif"
)

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
	g := designtest.New(1, cat)
	seen := map[string]int{} // transition shapes the pairs covered
	for i := 0; i < 200; i++ {
		a, nlA := g.Design(), g.Rng.Intn(2) == 0
		b, nlB := g.Mutate(a), g.Rng.Intn(2) == 0
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
	g := designtest.New(2, cat)
	for i := 0; i < 200; i++ {
		a, b := g.Design(), g.Design()
		if _, err := s.ApplyDesign(a); err != nil {
			t.Fatalf("step %d: valid design rejected: %v\n%+v", i, err, a)
		}
		bad := g.Corrupt(b)
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
		nl := g.Rng.Intn(2) == 0
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
