package recommend_test

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/costlab"
	"repro/internal/design"
	"repro/internal/recommend"
)

// TestConcurrentPartitionPricingCoalesces: two evaluators over one
// memo, released together onto the same partitioned design, pay one
// solo run's plan calls between them — the later one waits on the
// earlier one's in-flight pricing instead of re-planning it — store no
// cost twice, and both see the solo costs.
func TestConcurrentPartitionPricingCoalesces(t *testing.T) {
	cat := testCatalog(t)
	queries := seedWorkload(t)
	d := design.Design{Partitions: []design.Partition{{
		Table:     "photoobj",
		Fragments: recommend.AtomicFragments(cat.Table("photoobj"), queries),
	}}}
	ctx := context.Background()
	newEval := func(memo *costlab.Memo) *recommend.Evaluator {
		ev, err := recommend.NewEvaluator(cat, queries, costlab.BackendFull, 1, memo)
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	solo := newEval(costlab.NewMemo())
	want, err := solo.DesignCosts(ctx, d)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 20
	for r := 0; r < rounds; r++ {
		memo := costlab.NewMemo()
		evs := [2]*recommend.Evaluator{newEval(memo), newEval(memo)}
		var got [2][]float64
		var errs [2]error
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range evs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				got[i], errs[i] = evs[i].DesignCosts(ctx, d)
			}(i)
		}
		close(start)
		wg.Wait()
		for i := range evs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !slices.Equal(got[i], want) {
				t.Fatalf("round %d evaluator %d: costs %v, solo run %v", r, i, got[i], want)
			}
		}
		if calls := evs[0].PlanCalls() + evs[1].PlanCalls(); calls != solo.PlanCalls() {
			t.Errorf("round %d: two concurrent evaluators paid %d plan calls, a solo run %d", r, calls, solo.PlanCalls())
		}
		if st := memo.Stats(); st.DupStores != 0 {
			t.Errorf("round %d: %d duplicate cost stores", r, st.DupStores)
		}
	}
}
