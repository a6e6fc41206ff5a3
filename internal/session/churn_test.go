package session_test

import (
	"slices"
	"testing"

	"repro/internal/intern"
	"repro/internal/inum"
	"repro/internal/session"
	"repro/internal/workload"
)

// Churned sessions must not leak memo state: creating and discarding
// sessions over a known workload and design space leaves every
// interner and both memo tiers exactly as large as after the first
// session. This is the regression test for the old pointer-keyed
// statement map, which grew one entry per (session, query) forever —
// re-parsed ASTs never compared equal — so a serve Manager cycling
// tenants leaked unboundedly.
func TestSharedMemoChurnedSessionsDoNotLeak(t *testing.T) {
	cat := seedCatalog(t, 200000)
	wl := workload.Queries()[:8]
	shared := session.NewSharedMemo()
	spec := inum.IndexSpec{Table: "photoobj", Columns: []string{"ra", "dec"}}

	churn := func() {
		s, err := session.New(cat, wl, session.Options{Shared: shared})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddIndex(spec); err != nil {
			t.Fatal(err)
		}
		if _, err := s.DropIndex(spec); err != nil {
			t.Fatal(err)
		}
	}

	churn()
	base := shared.Stats()
	if base.Costs.InternedStmts == 0 || base.States == 0 {
		t.Fatalf("warm-up left no state to leak-check: %+v", base)
	}

	const rounds = 10
	for i := 0; i < rounds; i++ {
		churn()
	}
	st := shared.Stats()
	if st.Costs.InternedStmts != base.Costs.InternedStmts {
		t.Errorf("statement interner grew %d -> %d over %d churned sessions",
			base.Costs.InternedStmts, st.Costs.InternedStmts, rounds)
	}
	if st.Costs.InternedDesigns != base.Costs.InternedDesigns {
		t.Errorf("design interner grew %d -> %d", base.Costs.InternedDesigns, st.Costs.InternedDesigns)
	}
	if st.States != base.States {
		t.Errorf("state tier grew %d -> %d", base.States, st.States)
	}
	if st.Costs.Entries != base.Costs.Entries {
		t.Errorf("cost tier grew %d -> %d", base.Costs.Entries, st.Costs.Entries)
	}
	// And the churned sessions actually rode the memo: each round
	// after warm-up planned nothing new.
	if st.Costs.Stores != base.Costs.Stores && st.Costs.DupStores == 0 {
		t.Errorf("post-warm-up sessions stored fresh costs: %+v -> %+v", base.Costs, st.Costs)
	}
}

// TestSharedMemoCapBoundsChurn is the capped counterpart: a bounded
// memo churned through far more distinct designs than it can hold
// must evict — every state-tier shard pinned at its per-shard cap the
// whole time — while sessions stay correct: an evicted state simply
// re-prices to the same cost it had before eviction, and the cost
// tier's interners (append-only by contract even in capped mode) never grow
// on a repeat pass over known designs.
func TestSharedMemoCapBoundsChurn(t *testing.T) {
	cat := seedCatalog(t, 200000)
	wl := workload.Queries()[:8]
	const capTotal = 32
	capPerShard := (capTotal + intern.DefaultShards - 1) / intern.DefaultShards
	shared := session.NewSharedMemoBounded(capTotal)

	// 30 two-column designs × 8 queries ≫ 32 states: the memo must
	// cycle constantly.
	cols := []string{"ra", "dec", "run", "camcol", "field", "htmid"}
	var specs []inum.IndexSpec
	for _, a := range cols {
		for _, b := range cols {
			if a != b {
				specs = append(specs, inum.IndexSpec{Table: "photoobj", Columns: []string{a, b}})
			}
		}
	}

	costs := map[string]float64{}
	pass := func(record bool) {
		t.Helper()
		for _, spec := range specs {
			s, err := session.New(cat, wl, session.Options{Shared: shared})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.AddIndex(spec)
			if err != nil {
				t.Fatal(err)
			}
			if record {
				costs[spec.Key()] = rep.NewCost
			} else if rep.NewCost != costs[spec.Key()] {
				t.Errorf("%s repriced after eviction to %v, first pass said %v",
					spec.Key(), rep.NewCost, costs[spec.Key()])
			}
			for i, n := range shared.Stats().ShardSizes {
				if n > capPerShard {
					t.Fatalf("shard %d holds %d states, cap is %d", i, n, capPerShard)
				}
			}
		}
	}

	pass(true)
	mid := shared.Stats()
	if mid.Evictions == 0 {
		t.Fatalf("churn through %d designs never evicted: %+v", len(specs), mid)
	}
	if mid.States > capTotal {
		t.Errorf("state tier holds %d states, cap is %d", mid.States, capTotal)
	}

	pass(false)
	end := shared.Stats()
	if end.Costs.InternedStmts != mid.Costs.InternedStmts || end.Costs.InternedDesigns != mid.Costs.InternedDesigns {
		t.Errorf("cost-tier interners grew on a repeat pass: %+v -> %+v", mid.Costs, end.Costs)
	}
	if end.Evictions <= mid.Evictions {
		t.Errorf("repeat pass over a saturated memo evicted nothing: %d -> %d", mid.Evictions, end.Evictions)
	}

	// A pass over designs nobody priced before — the edit.cold walk:
	// sessions intern nothing into the cost tier, so under the cap
	// nothing there grows with the designs they visit.
	var fresh []inum.IndexSpec
	for _, spec := range specs {
		fresh = append(fresh, inum.IndexSpec{Table: "photoobj", Columns: append(slices.Clone(spec.Columns), "type")})
	}
	specs = fresh
	pass(true)
	novel := shared.Stats()
	if novel.Costs.InternedStmts != end.Costs.InternedStmts || novel.Costs.InternedDesigns != end.Costs.InternedDesigns ||
		novel.Costs.Entries != end.Costs.Entries {
		t.Errorf("cost tier grew over never-seen designs: %+v -> %+v", end.Costs, novel.Costs)
	}
	if novel.States > capTotal {
		t.Errorf("state tier holds %d states, cap is %d", novel.States, capTotal)
	}
}
