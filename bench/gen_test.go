package main

import (
	"bytes"
	"fmt"
	"testing"
)

// streams renders every generated stream of a seed to bytes.
func streams(seed int64) map[string][]byte {
	seedQ := []string{"SELECT objid FROM photoobj WHERE ra < 1", "SELECT s.z FROM specobj s WHERE s.z > 2"}
	out := map[string][]byte{}
	var hot []Op
	for t := 0; t < workers; t++ {
		hot = append(hot, genHotPass(seed, t)...)
	}
	out["edit.hot"] = dumpOps(hot)
	var cold []Op
	for t := 0; t < workers; t++ {
		g := newColdGen(seed, t, coldWorkload(seed, t, seedQ))
		cold = append(cold, g.pass()...)
		cold = append(cold, g.pass()...)
	}
	out["edit.cold"] = dumpOps(cold)
	var mix []Op
	for w := 0; w < workers; w++ {
		mix = append(mix, genMixPass(seed, w, workers, 30)...)
	}
	out["mix.durable"] = dumpOps(mix)
	var gaps bytes.Buffer
	r := newRand(seed, "mix.gaps.0")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&gaps, "%.9f\n", r.ExpFloat64())
	}
	out["mix.gaps"] = gaps.Bytes()
	return out
}

func TestSameSeedSameBytes(t *testing.T) {
	a, b, c := streams(7), streams(7), streams(8)
	for name := range a {
		if len(a[name]) == 0 {
			t.Errorf("%s: empty stream", name)
		}
		if !bytes.Equal(a[name], b[name]) {
			t.Errorf("%s: the same seed gave different bytes", name)
		}
		if bytes.Equal(a[name], c[name]) {
			t.Errorf("%s: different seeds gave the same bytes", name)
		}
	}
}

// TestStreamsAreValid replays each stream against a fresh model: every
// op must be applicable where it stands, and passes must end reset.
func TestStreamsAreValid(t *testing.T) {
	check := func(name string, ops []Op) {
		t.Helper()
		design := map[string]bool{}
		undo, redo := 0, 0
		for i, op := range ops {
			key := indexKey(op.Table, op.Columns)
			switch op.Kind {
			case opAddIndex:
				if design[key] {
					t.Fatalf("%s op %d: adds %s twice", name, i, key)
				}
				design[key], undo, redo = true, undo+1, 0
			case opDropIndex:
				if !design[key] {
					t.Fatalf("%s op %d: drops absent %s", name, i, key)
				}
				delete(design, key)
				undo, redo = undo+1, 0
			case opAddPartition:
				design["part:"+op.Table], undo, redo = true, undo+1, 0
			case opDropPartition:
				if !design["part:"+op.Table] {
					t.Fatalf("%s op %d: drops absent partitioning of %s", name, i, op.Table)
				}
				delete(design, "part:"+op.Table)
				undo, redo = undo+1, 0
			case opUndo:
				if undo == 0 {
					t.Fatalf("%s op %d: nothing to undo", name, i)
				}
				undo, redo = undo-1, redo+1
				design = nil // contents unknown without replaying designs
			case opRedo:
				if redo == 0 {
					t.Fatalf("%s op %d: nothing to redo", name, i)
				}
				undo, redo = undo+1, redo-1
				design = nil
			case opCreateSession:
				design, undo, redo = map[string]bool{}, 0, 0
			}
			if design == nil { // after undo/redo only depths are tracked
				design = map[string]bool{}
				for _, o := range op.design {
					design[o.key()] = true
				}
			}
			if op.isEdit() && len(design) != op.Objects {
				t.Fatalf("%s op %d (%s): model says %d objects, replay %d", name, i, op.Kind, op.Objects, len(design))
			}
			if op.Objects > maxObjects+2 {
				t.Fatalf("%s op %d: design of %d objects", name, i, op.Objects)
			}
		}
	}
	check("edit.hot", genHotPass(3, 0))
	g := newColdGen(3, 1, nil)
	check("edit.cold", append(g.pass(), g.pass()...))
}

func TestMixPassIsReplayable(t *testing.T) {
	for w := 0; w < workers; w++ {
		pass := genMixPass(5, w, workers, 30)
		objects := map[int]int{}
		for i, op := range pass {
			if op.isEdit() && op.Tenant%workers != w {
				t.Fatalf("worker %d edits tenant %d", w, op.Tenant)
			}
			if op.Tenant < 0 || op.Tenant >= mixTenants {
				t.Fatalf("op %d: tenant %d out of range", i, op.Tenant)
			}
			if op.isEdit() {
				objects[op.Tenant] = op.Objects
			}
		}
		// The pass must end where it started, or it could not be replayed.
		for tenant, n := range objects {
			if n != 0 {
				t.Errorf("worker %d leaves tenant %d with %d design objects", w, tenant, n)
			}
		}
	}
}
