package costlab

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// The lock-free memo contract under contention: readers racing with
// writers across snapshot republications only ever see complete
// entries (a cost, once visible, is exactly what its first writer
// stored and never vanishes), and the hit/miss counters account for
// every key asked for, by a lookup or a Resolve.
func TestMemoLockFreeStress(t *testing.T) {
	memo := NewMemo()
	const (
		stmts   = 40
		cfgs    = 25
		readers = 4
		passes  = 30
	)
	costOf := func(s, c uint32) float64 { return float64(s)*1e6 + float64(c) }

	// Pre-intern all identities so readers can probe by id while
	// writers race to publish costs.
	stmtIDs := make([]uint32, stmts)
	cfgIDs := make([]uint32, cfgs)
	for i := range stmtIDs {
		stmtIDs[i] = memo.InternStmtKey(fmt.Sprintf("SELECT %d", i))
	}
	for i := range cfgIDs {
		cfgIDs[i] = memo.InternDesign(nil, fmt.Sprintf("cfg-%d", i))
	}

	var wg sync.WaitGroup
	var lookups [readers]int64
	var resolved [2]int64
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Both writers price every key, one statement's batch at a
			// time: the overlap exercises singleflight while promotion
			// races with it.
			for si := range stmtIDs {
				keys := make([]Key, len(cfgIDs))
				for ci := range cfgIDs {
					keys[ci] = Key{stmtIDs[si], cfgIDs[ci]}
				}
				got, _, err := memo.Resolve(context.Background(), keys, func(led []int) ([]float64, error) {
					out := make([]float64, len(led))
					for p, i := range led {
						out[p] = costOf(keys[i].Stmt, keys[i].Design)
					}
					return out, nil
				})
				if err != nil {
					panic(err)
				}
				resolved[w] += int64(len(keys))
				for ci, k := range keys {
					if got[ci] != costOf(k.Stmt, k.Design) {
						panic(fmt.Sprintf("Resolve(%v) = %v", k, got[ci]))
					}
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := map[Key]bool{}
			for pass := 0; pass < passes; pass++ {
				for si := range stmtIDs {
					for ci := range cfgIDs {
						k := Key{stmtIDs[si], cfgIDs[ci]}
						cost, ok := memo.LookupID(k)
						lookups[r]++
						if ok {
							if want := costOf(k.Stmt, k.Design); cost != want {
								panic(fmt.Sprintf("torn read: %v = %v, want %v", k, cost, want))
							}
							seen[k] = true
						} else if seen[k] {
							panic(fmt.Sprintf("entry %v vanished after being visible", k))
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	st := memo.Stats()
	if st.Entries != stmts*cfgs {
		t.Fatalf("Entries = %d, want %d", st.Entries, stmts*cfgs)
	}
	total := resolved[0] + resolved[1]
	for r := range lookups {
		total += lookups[r]
	}
	if st.Hits+st.Misses != total {
		t.Fatalf("hits(%d)+misses(%d) = %d, want %d keys accounted", st.Hits, st.Misses, st.Hits+st.Misses, total)
	}
	if st.DupStores != 0 || st.Leads != int64(stmts*cfgs) {
		t.Fatalf("stats = %+v: every key must be priced exactly once", st)
	}
	if st.InternedStmts != stmts || st.InternedDesigns != cfgs {
		t.Fatalf("interners grew: %d stmts / %d cfgs, want %d / %d", st.InternedStmts, st.InternedDesigns, stmts, cfgs)
	}
	// Every key must be durably present with its exact cost.
	for si := range stmtIDs {
		for ci := range cfgIDs {
			k := Key{stmtIDs[si], cfgIDs[ci]}
			cost, ok := memo.LookupID(k)
			if !ok || cost != costOf(k.Stmt, k.Design) {
				t.Fatalf("final LookupID(%v) = %v,%v, want %v,true", k, cost, ok, costOf(k.Stmt, k.Design))
			}
		}
	}
}
