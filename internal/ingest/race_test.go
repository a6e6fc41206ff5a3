package ingest

// The -race gauntlet: N goroutines ingest while the continuous tuner
// re-searches over live window snapshots and a reader polls the
// window. Asserts no lost updates — every submission is accounted for
// in the window's counters and entry counts.

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/internal/costlab"
	"repro/internal/recommend"
	"repro/internal/workload"
)

func TestIngestRaceGauntlet(t *testing.T) {
	cat := testCatalog(t)
	win := NewWindow(Options{Capacity: 64})
	pool := workload.Queries()[:8]

	opts := indexOnlyOpts(costlab.NewMemo())
	opts.MaxCandidates = 4
	opts.Budget = recommend.Budget{MaxEvaluations: 8}
	tuner := NewTuner(TunerOptions{
		Catalog:        cat,
		DriftThreshold: -1, // every check retunes
		Recommend:      opts,
	})

	const (
		writers   = 4
		perWriter = 200
		checks    = 4
	)
	ctx := context.Background()
	done := make(chan struct{})
	var work, readers sync.WaitGroup

	// Writers: ingest a rotating mix of queries.
	for wi := 0; wi < writers; wi++ {
		work.Add(1)
		go func(wi int) {
			defer work.Done()
			for i := 0; i < perWriter; i++ {
				if err := win.Ingest(pool[(wi+i)%len(pool)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(wi)
	}

	// Tuner: a fixed number of drift checks, each a real (budgeted)
	// re-search over a live snapshot.
	work.Add(1)
	var tunerErr error
	retunes := 0
	go func() {
		defer work.Done()
		// Keep checking until `checks` retunes landed: early checks can
		// race an as-yet-empty window and skip.
		for attempts := 0; retunes < checks && attempts < 10000; attempts++ {
			ret, _, err := tuner.Check(ctx, win.Queries())
			if err != nil {
				tunerErr = err
				return
			}
			if ret != nil {
				retunes++
			}
			runtime.Gosched()
		}
	}()

	// Reader: poll the window while it is being written.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = win.Snapshot()
			_ = win.Stats()
		}
	}()

	work.Wait()
	close(done)
	readers.Wait()
	if tunerErr != nil {
		t.Fatal(tunerErr)
	}

	// No lost updates: every submission accounted for.
	st := win.Stats()
	if want := int64(writers * perWriter); st.Submissions != want {
		t.Fatalf("submissions = %d, want %d", st.Submissions, want)
	}
	if st.Evicted != 0 {
		t.Fatalf("unexpected evictions: %d (capacity %d > distinct %d)", st.Evicted, 64, len(pool))
	}
	var counted int64
	snap := win.Snapshot()
	for _, e := range snap {
		counted += e.Count
	}
	if counted != st.Submissions {
		t.Fatalf("entry counts sum to %d, want %d — updates lost", counted, st.Submissions)
	}
	if len(snap) != len(pool) {
		t.Fatalf("distinct = %d, want %d", len(snap), len(pool))
	}
	if retunes == 0 {
		t.Fatal("gauntlet never retuned — the race surface was not exercised")
	}
}
