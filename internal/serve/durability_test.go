package serve

// Durability tests: recover-equivalence across restart, the drop-vs-
// evict contract, lazy rehydration on first touch, and frozen job
// recovery. The "crash" here is closing the WAL store without a final
// snapshot, which leaves exactly what a kill -9 leaves (the process-
// level variant lives in cmd/parinda's crash tests).

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/inum"
	"repro/internal/session"
)

func newDurableManager(t *testing.T, dir string, opts Options) *Manager {
	t.Helper()
	opts.DataDir = dir
	m, err := NewManagerDurable(testCatalog(t), testWorkload(), opts)
	if err != nil {
		t.Fatalf("NewManagerDurable: %v", err)
	}
	return m
}

// crash abandons the manager the way kill -9 does: the WAL files stop
// growing with no final snapshot, and nothing graceful runs.
func crash(t *testing.T, m *Manager) {
	t.Helper()
	if err := m.dur.store.Close(); err != nil {
		t.Fatalf("closing WAL store: %v", err)
	}
}

type sessionFingerprint struct {
	costs     []byte
	design    string
	undo, red int
}

func fingerprint(t *testing.T, m *Manager, name string) sessionFingerprint {
	t.Helper()
	costs, err := m.CostsJSON(name)
	if err != nil {
		t.Fatalf("CostsJSON(%s): %v", name, err)
	}
	var fp sessionFingerprint
	fp.costs = costs
	if err := m.Do(name, func(s *session.DesignSession) error {
		fp.design = designKeys(s.Design())
		fp.undo, fp.red = s.UndoDepth(), s.RedoDepth()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestDurableRecoverEquivalence is the tentpole acceptance check:
// edit sessions against a -data-dir manager, crash it (no snapshot),
// recover into a fresh manager over the same dir, and the costs JSON,
// design and undo/redo depths are byte-identical — with zero optimizer
// plan calls, because the journaled shared-memo states serve the whole
// replay.
func TestDurableRecoverEquivalence(t *testing.T) {
	dir := t.TempDir()
	m1 := newDurableManager(t, dir, Options{MaxSessions: 4})

	specs := []inum.IndexSpec{
		{Table: "photoobj", Columns: []string{"ra"}},
		{Table: "photoobj", Columns: []string{"dec", "ra"}},
		{Table: "photoobj", Columns: []string{"htmid"}},
	}
	for _, name := range []string{"alpha", "beta"} {
		if err := m1.Create(name, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := m1.Do("alpha", func(s *session.DesignSession) error {
		for _, spec := range specs {
			if _, err := s.AddIndex(spec); err != nil {
				return err
			}
		}
		if _, err := s.Undo(); err != nil { // leaves redo depth 1
			return err
		}
		// Nest-loop starts enabled: disabling is a real edit whose record
		// must replay (true would be a frame-less no-op).
		_, err := s.SetNestLoop(false)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := m1.Do("beta", func(s *session.DesignSession) error {
		_, err := s.AddIndex(specs[0])
		return err
	}); err != nil {
		t.Fatal(err)
	}
	want := map[string]sessionFingerprint{
		"alpha": fingerprint(t, m1, "alpha"),
		"beta":  fingerprint(t, m1, "beta"),
	}
	crash(t, m1)

	m2 := newDurableManager(t, dir, Options{MaxSessions: 4})
	defer m2.Close()
	for name, w := range want {
		got := fingerprint(t, m2, name)
		if !bytes.Equal(got.costs, w.costs) {
			t.Errorf("%s: recovered costs JSON differs\n got: %s\nwant: %s", name, got.costs, w.costs)
		}
		if got.design != w.design {
			t.Errorf("%s: recovered design %q, want %q", name, got.design, w.design)
		}
		if got.undo != w.undo || got.red != w.red {
			t.Errorf("%s: recovered undo/redo depth %d/%d, want %d/%d",
				name, got.undo, got.red, w.undo, w.red)
		}
		if err := m2.Do(name, func(s *session.DesignSession) error {
			if pc := s.PlanCalls(); pc != 0 {
				t.Errorf("%s: replay consumed %d optimizer plan calls, want 0 (shared-memo-warm)", name, pc)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	ds := m2.durabilityStats()
	if ds == nil || ds.RecoverRecords == 0 {
		t.Errorf("recovery reported no records: %+v", ds)
	}
	if st := m2.Stats(); st.Durability == nil {
		t.Error("ManagerStats.Durability missing on a durable manager")
	}
}

// TestDurableSnapshotRecover is the snapshot-path variant: a graceful
// Close writes a final snapshot, and the next boot restores from it
// (WAL suffix empty) with the same fingerprints — and a redo after the
// boot brings back the state undone before it.
func TestDurableSnapshotRecover(t *testing.T) {
	dir := t.TempDir()
	m1 := newDurableManager(t, dir, Options{MaxSessions: 4})
	if err := m1.Create("a", nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := m1.Do("a", func(s *session.DesignSession) error {
		_, err := s.AddIndex(inum.IndexSpec{Table: "photoobj", Columns: []string{"ra"}})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	undone := fingerprint(t, m1, "a")
	if err := m1.Do("a", func(s *session.DesignSession) error {
		_, err := s.Undo()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, m1, "a")
	if err := m1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := m1.dur.store.Stats(); st.Snapshots == 0 {
		t.Error("graceful Close wrote no snapshot")
	}

	m2 := newDurableManager(t, dir, Options{MaxSessions: 4})
	defer m2.Close()
	got := fingerprint(t, m2, "a")
	if !bytes.Equal(got.costs, want.costs) || got.design != want.design ||
		got.undo != want.undo || got.red != want.red {
		t.Errorf("snapshot recovery fingerprint mismatch: got %+v want %+v", got, want)
	}
	if err := m2.Do("a", func(s *session.DesignSession) error {
		_, err := s.Redo()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, m2, "a"); !bytes.Equal(got.costs, undone.costs) || got.design != undone.design ||
		got.undo != undone.undo || got.red != undone.red {
		t.Errorf("redo after snapshot recovery: design %q depths %d/%d, want %q %d/%d (costs equal: %v)",
			got.design, got.undo, got.red, undone.design, undone.undo, undone.red, bytes.Equal(got.costs, undone.costs))
	}
}

// legacyDataDir edits one session's history against a -data-dir
// manager — a snapshot cut between the edits, so shared states land in
// the snapshot and in the WAL — crashes it, and copies the dir record
// by record with editSnap applied to the decoded snapshot and editRec
// to every decoded WAL record: the way data dirs written by earlier
// versions are reproduced. It returns the copy and the session's
// fingerprint before the crash.
func legacyDataDir(t *testing.T, editSnap, editRec func(map[string]any)) (string, sessionFingerprint) {
	t.Helper()
	src := t.TempDir()
	m1 := newDurableManager(t, src, Options{MaxSessions: 4})
	if err := m1.Create("alpha", nil, 0); err != nil {
		t.Fatal(err)
	}
	edit := func(fn func(s *session.DesignSession) error) {
		t.Helper()
		if err := m1.Do("alpha", fn); err != nil {
			t.Fatal(err)
		}
	}
	edit(func(s *session.DesignSession) error {
		_, err := s.AddIndex(inum.IndexSpec{Table: "photoobj", Columns: []string{"ra"}})
		return err
	})
	if err := m1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// States priced after the cut reach the WAL only.
	edit(func(s *session.DesignSession) error {
		if _, err := s.AddIndex(inum.IndexSpec{Table: "photoobj", Columns: []string{"dec", "ra"}}); err != nil {
			return err
		}
		_, err := s.Undo()
		return err
	})
	want := fingerprint(t, m1, "alpha")
	crash(t, m1)

	in, err := durable.Open(src, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := in.Recover()
	in.Close()
	if err != nil {
		t.Fatal(err)
	}
	decode := func(blob []byte) map[string]any {
		dec := json.NewDecoder(bytes.NewReader(blob))
		dec.UseNumber() // costs and sequences re-encode bit for bit
		var v map[string]any
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	encode := func(v any) []byte {
		blob, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	dst := t.TempDir()
	out, err := durable.Open(dst, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := decode(rec.Snapshot)
	editSnap(snap)
	cut, err := out.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := out.WriteSnapshot(cut, encode(snap)); err != nil {
		t.Fatal(err)
	}
	for _, blob := range rec.Records {
		r := decode(blob)
		editRec(r)
		if err := out.Append(encode(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	return dst, want
}

// assertBootsTo boots a manager on dir and checks that alpha comes
// back with want's costs, design and depths, and zero plan calls.
func assertBootsTo(t *testing.T, dir string, want sessionFingerprint) *Manager {
	t.Helper()
	m := newDurableManager(t, dir, Options{MaxSessions: 4})
	t.Cleanup(func() { m.Close() })
	got := fingerprint(t, m, "alpha")
	if !bytes.Equal(got.costs, want.costs) || got.design != want.design || got.undo != want.undo || got.red != want.red {
		t.Errorf("recovery differs:\n got %+v\nwant %+v", got, want)
	}
	if err := m.Do("alpha", func(s *session.DesignSession) error {
		if pc := s.PlanCalls(); pc != 0 {
			t.Errorf("recovery planned %d times, want 0", pc)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDurableRecoverIgnoresStoredExplains: data dirs written before
// explains stopped being stored carry an "explain" in every shared
// state, in the snapshot and in the WAL. Booting on such a dir must
// bring back the same costs, signatures and depths with zero plan calls.
func TestDurableRecoverIgnoresStoredExplains(t *testing.T) {
	explained, inSnapshot := 0, 0
	withExplain := func(st any) {
		st.(map[string]any)["explain"] = "Seq Scan on photoobj  (cost=0.00..1.00 rows=1)\n"
		explained++
	}
	dir, want := legacyDataDir(t, func(snap map[string]any) {
		states, _ := snap["states"].([]any)
		for _, st := range states {
			withExplain(st)
		}
		inSnapshot = explained
	}, func(r map[string]any) {
		if r["t"] == walState {
			withExplain(r["state"])
		}
	})
	if inSnapshot == 0 || explained == inSnapshot {
		t.Fatalf("explains injected into %d snapshot and %d WAL states; want both > 0", inSnapshot, explained-inSnapshot)
	}
	assertBootsTo(t, dir, want)
}

// TestDurableRecoverIgnoresStoredCosts: snapshots written while the
// cost tier was persisted carry a "costs" section of (statement, whole
// index-configuration key, cost) records. The section is dropped: a
// boot decodes such a snapshot to the same costs and depths with zero
// plan calls, and the cost tier starts empty — it warm-starts from the
// restored states through its read-through instead.
func TestDurableRecoverIgnoresStoredCosts(t *testing.T) {
	var costs []any
	dir, want := legacyDataDir(t, func(snap map[string]any) {
		states, _ := snap["states"].([]any)
		for _, st := range states {
			st := st.(map[string]any)
			costs = append(costs, map[string]any{"stmt": st["stmt"], "cfg": "photoobj(ra)", "cost": st["cost"]})
		}
		snap["costs"] = costs
	}, func(map[string]any) {})
	if len(costs) == 0 {
		t.Fatal("the snapshot carried no states to derive a costs section from")
	}
	m := assertBootsTo(t, dir, want)
	if st := m.shared.Costs().Stats(); st.Entries != 0 || st.InternedDesigns != 0 {
		t.Errorf("the stored costs section reached the cost tier: %+v", st)
	}
}

// TestDurableRecoverVersion1Snapshot: version-1 snapshots stored each
// session's op log ("ops") instead of its history. A boot folds the ops
// through History.Apply, then the WAL on top, to the same costs,
// signatures and depths with zero plan calls.
func TestDurableRecoverVersion1Snapshot(t *testing.T) {
	ops := 0
	dir, want := legacyDataDir(t, func(snap map[string]any) {
		snap["version"] = json.Number("1")
		for _, sr := range snap["sessions"].([]any) {
			sr := sr.(map[string]any)
			hist := sr["history"].(map[string]any)
			delete(sr, "history")
			states, _ := hist["states"].([]any)
			var log []any
			for _, st := range states {
				st := st.(map[string]any)
				log = append(log, map[string]any{"kind": "edit", "design": st["design"], "nestLoop": st["nestLoop"]})
			}
			cursor := len(states)
			if c, ok := hist["cursor"].(json.Number); ok {
				n, err := c.Int64()
				if err != nil {
					t.Fatal(err)
				}
				cursor = int(n)
			}
			for range len(states) - cursor {
				log = append(log, map[string]any{"kind": "undo"})
			}
			sr["ops"] = log
			ops += len(log)
		}
	}, func(map[string]any) {})
	if ops == 0 {
		t.Fatal("the snapshot carried no history to turn into ops")
	}
	assertBootsTo(t, dir, want)
}

// TestDropVsEvictDiverge pins the ISSUE's bugfix: eviction is a
// residency decision (durable state survives, a later touch or
// re-create restores the design), Drop is a data deletion (a later
// create starts empty).
func TestDropVsEvictDiverge(t *testing.T) {
	dir := t.TempDir()
	m := newDurableManager(t, dir, Options{MaxSessions: 4, IdleTTL: time.Minute})
	defer m.Close()
	now := time.Now()
	m.now = func() time.Time { return now }

	spec := inum.IndexSpec{Table: "photoobj", Columns: []string{"ra"}}
	for _, name := range []string{"evicted", "dropped"} {
		if err := m.Create(name, nil, 0); err != nil {
			t.Fatal(err)
		}
		if err := m.Do(name, func(s *session.DesignSession) error {
			_, err := s.AddIndex(spec)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Drop("dropped"); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	if n := m.Sweep(); n != 1 {
		t.Fatalf("sweep evicted %d sessions, want 1", n)
	}
	if m.Stats().Durability.DormantSessions != 1 {
		t.Error("evicted durable session is not dormant")
	}

	// Re-create restores the evicted session's design...
	if err := m.Create("evicted", nil, 0); err != nil {
		t.Fatalf("re-create of evicted session: %v", err)
	}
	if err := m.Do("evicted", func(s *session.DesignSession) error {
		if got := designKeys(s.Design()); got != spec.Key() {
			t.Errorf("evicted-then-recreated design = %q, want %q", got, spec.Key())
		}
		if s.UndoDepth() != 1 {
			t.Errorf("evicted-then-recreated undo depth = %d, want 1", s.UndoDepth())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// ...while the dropped one starts empty.
	if err := m.Create("dropped", nil, 0); err != nil {
		t.Fatalf("re-create of dropped session: %v", err)
	}
	if err := m.Do("dropped", func(s *session.DesignSession) error {
		if got := designKeys(s.Design()); got != "" {
			t.Errorf("dropped-then-recreated design = %q, want empty", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Drop of a dormant session deletes durable state too.
	now = now.Add(2 * time.Minute)
	m.Sweep()
	if !m.dur.hasDormant("evicted") {
		t.Fatal("sweep did not leave the session dormant")
	}
	if err := m.Drop("evicted"); err != nil {
		t.Fatalf("drop of dormant session: %v", err)
	}
	if m.dur.hasDormant("evicted") {
		t.Error("drop left dormant durable state behind")
	}
	if err := m.Drop("evicted"); err == nil {
		t.Error("second drop of a dropped session succeeded")
	}
}

// TestLazyRehydrateOnTouch evicts a durable session and touches it
// with Do: the miss must rehydrate in place — warm, so zero plan
// calls — instead of returning ErrNotFound.
func TestLazyRehydrateOnTouch(t *testing.T) {
	dir := t.TempDir()
	m := newDurableManager(t, dir, Options{MaxSessions: 4, IdleTTL: time.Minute})
	defer m.Close()
	now := time.Now()
	m.now = func() time.Time { return now }

	spec := inum.IndexSpec{Table: "photoobj", Columns: []string{"dec"}}
	if err := m.Create("lazy", nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Do("lazy", func(s *session.DesignSession) error {
		_, err := s.AddIndex(spec)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	if n := m.Sweep(); n != 1 {
		t.Fatalf("sweep evicted %d, want 1", n)
	}
	if err := m.Do("lazy", func(s *session.DesignSession) error {
		if got := designKeys(s.Design()); got != spec.Key() {
			t.Errorf("rehydrated design = %q, want %q", got, spec.Key())
		}
		if pc := s.PlanCalls(); pc != 0 {
			t.Errorf("rehydration consumed %d plan calls, want 0", pc)
		}
		return nil
	}); err != nil {
		t.Fatalf("Do on evicted durable session: %v", err)
	}
}

// TestJobRecovery: a finished job survives restart verbatim; a job
// that was running when the process died comes back as a frozen
// cancelled record with its best-so-far progress, and remains
// deletable.
func TestJobRecovery(t *testing.T) {
	dir := t.TempDir()
	m1 := newDurableManager(t, dir, Options{MaxSessions: 4})
	if err := m1.Create("s", nil, 0); err != nil {
		t.Fatal(err)
	}
	done, err := m1.StartRecommend("s", RecommendJobRequest{MaxEvaluations: 16}, "")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	var final *RecommendJobStatus
	for {
		final, err = m1.RecommendJob("s", done.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recommend job did not finish in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A continuous tuner with an hour-long tick stays "running"
	// forever: it is journaled as running and never as terminal, which
	// is exactly the crash window for a normal job too.
	running, err := m1.StartRecommend("s",
		RecommendJobRequest{Continuous: true, IntervalMillis: 3_600_000}, "")
	if err != nil {
		t.Fatal(err)
	}
	crash(t, m1)
	m1.DeleteRecommendJob("s", running.ID) // unwind the tuner goroutine

	m2 := newDurableManager(t, dir, Options{MaxSessions: 4})
	defer m2.Close()
	got, err := m2.RecommendJob("s", done.ID)
	if err != nil {
		t.Fatalf("finished job lost across restart: %v", err)
	}
	if got.State != final.State || got.BestCost != final.BestCost || got.Evaluations != final.Evaluations {
		t.Errorf("recovered job = state %s best %v evals %d, want state %s best %v evals %d",
			got.State, got.BestCost, got.Evaluations, final.State, final.BestCost, final.Evaluations)
	}
	if final.Result != nil && got.Result == nil {
		t.Error("recovered job lost its result")
	}
	gr, err := m2.RecommendJob("s", running.ID)
	if err != nil {
		t.Fatalf("running job lost across restart: %v", err)
	}
	if gr.State != JobCancelled {
		t.Errorf("interrupted job state = %s, want %s", gr.State, JobCancelled)
	}
	if !strings.Contains(gr.Error, "interrupted by restart") {
		t.Errorf("interrupted job error = %q, want restart marker", gr.Error)
	}
	// Frozen jobs are terminal: DELETE removes them without a cancel
	// func to call.
	if _, removed, err := m2.DeleteRecommendJob("s", running.ID); err != nil || !removed {
		t.Errorf("delete of frozen job: removed=%v err=%v", removed, err)
	}
	// And a fresh job must not collide with recovered ids.
	fresh, err := m2.StartRecommend("s", RecommendJobRequest{MaxEvaluations: 4}, "")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == done.ID || fresh.ID == running.ID {
		t.Errorf("post-recovery job id %q collides with a recovered id", fresh.ID)
	}
}

// TestDurableConcurrentJournal hammers a durable manager with
// concurrent edits, undos, evictions and snapshots — adds and undos
// alternate, so edits after an undo race snapshots — then
// crash-recovers: under -fsync always every acked edit is journaled, so
// each session comes back with the costs, design and depths it had.
// Also a -race exercise for the journaling hooks.
func TestDurableConcurrentJournal(t *testing.T) {
	dir := t.TempDir()
	m := newDurableManager(t, dir, Options{MaxSessions: 3})

	cols := []string{"ra", "dec", "run", "camcol"}
	// Seed all four tenants sequentially so each exists durably before
	// the hammer starts: with 4 tenants over 3 slots, a concurrent
	// Create can lose every capacity race and never register at all.
	for _, name := range []string{"w", "x", "y", "z"} {
		if err := m.Create(name, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	var wg, snapWG sync.WaitGroup
	stop := make(chan struct{})
	snapWG.Add(1)
	go func() { // snapshot hammer
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := m.Snapshot(); err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := []string{"w", "x", "y", "z"}[g]
			spec := inum.IndexSpec{Table: "photoobj", Columns: []string{cols[g]}}
			for i := 0; i < 15; i++ {
				// Create is rehydrate-or-new under eviction pressure; with 4
				// tenants over 3 slots the LRU churns constantly.
				if err := m.Create(name, nil, 0); err != nil &&
					!errors.Is(err, ErrExists) && !errors.Is(err, ErrCapacity) {
					t.Errorf("create %s: %v", name, err)
					return
				}
				err := m.Do(name, func(s *session.DesignSession) error {
					var err error
					if i%2 == 0 {
						_, err = s.AddIndex(spec)
					} else {
						_, err = s.Undo()
					}
					if errors.Is(err, session.ErrConflict) {
						err = nil // already in the design, nothing to undo
					}
					return err
				})
				if err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrCapacity) {
					t.Errorf("do %s: %v", name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	want := map[string]sessionFingerprint{}
	for _, name := range []string{"w", "x", "y", "z"} {
		want[name] = fingerprint(t, m, name)
	}
	crash(t, m)

	m2 := newDurableManager(t, dir, Options{MaxSessions: 8})
	defer m2.Close()
	if got := m2.durabilityStats().DurableSessions; got != 4 {
		t.Errorf("recovered %d durable sessions, want 4", got)
	}
	for name, w := range want {
		if got := fingerprint(t, m2, name); !bytes.Equal(got.costs, w.costs) ||
			got.design != w.design || got.undo != w.undo || got.red != w.red {
			t.Errorf("%s: recovered %+v, want %+v", name, got, w)
		}
	}
}

// TestFailedAppendIsNotAcked: with -fsync always, an edit whose
// journal record cannot be written answers 503 and the node stays
// read-only: the next edit is refused too, reads still answer,
// /healthz reports not ok and the degraded gauge reads 1. Under
// interval, where an ack never promised durability, the failure is
// only counted and edits keep answering 200.
func TestFailedAppendIsNotAcked(t *testing.T) {
	for _, tc := range []struct {
		policy         durable.Policy
		edit, health   int
		degradedMetric string
	}{
		{durable.SyncAlways, http.StatusServiceUnavailable, http.StatusServiceUnavailable, "\nparinda_wal_degraded 1\n"},
		{durable.SyncInterval, http.StatusOK, http.StatusOK, "\nparinda_wal_degraded 0\n"},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			m := newDurableManager(t, t.TempDir(), Options{Fsync: tc.policy})
			ts := httptest.NewServer(m.Handler())
			t.Cleanup(ts.Close)
			call(t, ts, "POST", "/sessions", CreateSessionRequest{Name: "a"}, http.StatusCreated, nil)
			crash(t, m) // the store is closed under a live manager

			call(t, ts, "POST", "/sessions/a/indexes", inum.IndexSpec{Table: "photoobj", Columns: []string{"ra"}}, tc.edit, nil)
			call(t, ts, "POST", "/sessions/a/indexes", inum.IndexSpec{Table: "photoobj", Columns: []string{"dec"}}, tc.edit, nil)
			call(t, ts, "GET", "/sessions/a/costs", nil, http.StatusOK, nil)
			var health HealthResponse
			call(t, ts, "GET", "/healthz", nil, tc.health, &health)
			if health.OK != (tc.health == http.StatusOK) {
				t.Errorf("/healthz ok = %v with status %d", health.OK, tc.health)
			}
			if metrics := string(call(t, ts, "GET", "/metrics", nil, http.StatusOK, nil)); !strings.Contains(metrics, tc.degradedMetric) {
				t.Errorf("metrics lack %q", strings.TrimSpace(tc.degradedMetric))
			}
			if m.dur.walErrors.Load() == 0 {
				t.Error("failed append was not counted")
			}
			// The refused second edit never reached the session.
			wantIndexes := 2
			if tc.edit != http.StatusOK {
				wantIndexes = 1
			}
			if err := m.Do("a", func(s *session.DesignSession) error {
				if n := len(s.Design().Indexes); n != wantIndexes {
					t.Errorf("design holds %d indexes, want %d", n, wantIndexes)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
