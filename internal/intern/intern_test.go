package intern

import (
	"fmt"
	"sync"
	"testing"
)

// The interning contract: distinct strings get distinct dense ids
// starting at 1, equal strings always share an id, and Lookup
// round-trips every id — under any interleaving of concurrent
// interners.
func TestTableRoundTripUniqueness(t *testing.T) {
	tb := NewTable()
	const n = 2000
	ids := make(map[uint32]string, n)
	for i := 0; i < n; i++ {
		s := fmt.Sprintf("sig-%d", i)
		id := tb.Intern(s)
		if id == 0 {
			t.Fatalf("Intern(%q) = 0; 0 is reserved for unset", s)
		}
		if prev, dup := ids[id]; dup {
			t.Fatalf("id %d assigned to both %q and %q", id, prev, s)
		}
		ids[id] = s
		if again := tb.Intern(s); again != id {
			t.Fatalf("Intern(%q) unstable: %d then %d", s, id, again)
		}
		if got := tb.Lookup(id); got != s {
			t.Fatalf("Lookup(%d) = %q, want %q", id, got, s)
		}
	}
	if tb.Len() != n {
		t.Fatalf("Len = %d, want %d", tb.Len(), n)
	}
	// Density: ids are exactly 1..n.
	for id := uint32(1); id <= n; id++ {
		if _, ok := ids[id]; !ok {
			t.Fatalf("ids not dense: %d never assigned", id)
		}
	}
}

func TestTableIDNeverGrows(t *testing.T) {
	tb := NewTable()
	a := tb.Intern("present")
	if id, ok := tb.ID("present"); !ok || id != a {
		t.Fatalf("ID(present) = %d,%v, want %d,true", id, ok, a)
	}
	if id, ok := tb.ID("absent"); ok {
		t.Fatalf("ID(absent) = %d,true, want a miss", id)
	}
	if tb.Len() != 1 {
		t.Fatalf("ID grew the table: Len = %d, want 1", tb.Len())
	}
	if tb.Lookup(0) != "" || tb.Lookup(99) != "" {
		t.Fatal("Lookup of unassigned ids must return empty")
	}
}

// Concurrent interners racing on an overlapping key space must agree:
// every goroutine sees the same id for the same string, ids stay
// dense, and every id round-trips — including mid-promotion, which the
// overlap is sized to exercise.
func TestTableConcurrentAgreement(t *testing.T) {
	tb := NewTable()
	const (
		workers = 8
		keys    = 500
	)
	got := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		got[w] = make([]uint32, keys)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				s := fmt.Sprintf("key-%d", i)
				id := tb.Intern(s)
				got[w][i] = id
				if back := tb.Lookup(id); back != s {
					panic(fmt.Sprintf("Lookup(%d) = %q, want %q", id, back, s))
				}
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := 0; i < keys; i++ {
			if got[w][i] != got[0][i] {
				t.Fatalf("worker %d saw id %d for key-%d, worker 0 saw %d", w, got[w][i], i, got[0][i])
			}
		}
	}
	if tb.Len() != keys {
		t.Fatalf("Len = %d, want %d (no duplicate ids under contention)", tb.Len(), keys)
	}
}
