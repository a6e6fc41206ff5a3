package serve

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/design"
	"repro/internal/inum"
	"repro/internal/session"
	"repro/internal/workload"
)

func testCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat, err := workload.BuildCatalog(50000)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func testWorkload() []string { return workload.Queries()[:6] }

func TestManagerCreateDropLifecycle(t *testing.T) {
	m := NewManager(testCatalog(t), testWorkload(), Options{MaxSessions: 4})
	if err := m.Create("a", nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Create("a", nil, 0); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("duplicate create: %v, want ErrExists", err)
	}
	if err := m.Create("", nil, 0); err == nil {
		t.Error("empty session name accepted")
	}
	if err := m.Do("a", func(s *session.DesignSession) error {
		if got := len(s.Queries()); got != 6 {
			t.Errorf("session has %d queries, want 6", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Drop("a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Drop("a"); err == nil {
		t.Error("double drop accepted")
	}
	if err := m.Do("a", func(*session.DesignSession) error { return nil }); err == nil {
		t.Error("Do on dropped session accepted")
	}
	if m.Len() != 0 {
		t.Errorf("manager still has %d sessions", m.Len())
	}
}

// TestManagerSharedMemoAcrossTenants is the multi-tenant aha: after
// tenant A priced an edit, tenant B's whole life (create + identical
// edit) costs zero optimizer calls.
func TestManagerSharedMemoAcrossTenants(t *testing.T) {
	m := NewManager(testCatalog(t), testWorkload(), Options{MaxSessions: 4})
	spec := inum.IndexSpec{Table: "photoobj", Columns: []string{"ra"}}
	if err := m.Create("a", nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Do("a", func(s *session.DesignSession) error {
		_, err := s.AddIndex(spec)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Create("b", nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Do("b", func(s *session.DesignSession) error {
		if _, err := s.AddIndex(spec); err != nil {
			return err
		}
		if got := s.PlanCalls(); got != 0 {
			t.Errorf("tenant b consumed %d optimizer calls, want 0 (shared memo)", got)
		}
		if st := s.Stats(); st.SharedHits == 0 {
			t.Error("tenant b saw no shared-memo hits")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Shared.Hits == 0 {
		t.Errorf("manager shared stats show no hits: %+v", st.Shared)
	}
}

func TestManagerCapacityEvictsLRUIdle(t *testing.T) {
	m := NewManager(testCatalog(t), testWorkload(), Options{MaxSessions: 2})
	for _, name := range []string{"old", "new"} {
		if err := m.Create(name, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "old" last so "new" becomes the LRU victim.
	if err := m.Do("old", func(*session.DesignSession) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := m.Create("third", nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Do("new", func(*session.DesignSession) error { return nil }); err == nil {
		t.Error("LRU session survived a capacity eviction")
	}
	if err := m.Do("old", func(*session.DesignSession) error { return nil }); err != nil {
		t.Errorf("recently used session was evicted: %v", err)
	}
	if ev := m.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

func TestManagerBusySessionsAreUnevictable(t *testing.T) {
	m := NewManager(testCatalog(t), testWorkload(), Options{MaxSessions: 2})
	for _, name := range []string{"a", "b"} {
		if err := m.Create(name, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Pin both sessions with in-flight requests.
	hold := make(chan struct{})
	entered := make(chan struct{})
	var wg sync.WaitGroup
	for _, name := range []string{"a", "b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Do(name, func(*session.DesignSession) error {
				entered <- struct{}{}
				<-hold
				return nil
			})
		}()
	}
	<-entered
	<-entered
	if err := m.Create("c", nil, 0); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Errorf("create with every session busy: %v, want ErrCapacity", err)
	}
	close(hold)
	wg.Wait()
	// Now both are idle again: the create must evict and succeed.
	if err := m.Create("c", nil, 0); err != nil {
		t.Errorf("create after sessions went idle: %v", err)
	}
}

func TestManagerIdleTTLSweep(t *testing.T) {
	m := NewManager(testCatalog(t), testWorkload(), Options{MaxSessions: 4, IdleTTL: time.Minute})
	now := time.Now()
	m.now = func() time.Time { return now }
	if err := m.Create("a", nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Create("b", nil, 0); err != nil {
		t.Fatal(err)
	}
	if n := m.Sweep(); n != 0 {
		t.Errorf("fresh sessions swept: %d", n)
	}
	now = now.Add(30 * time.Second)
	if err := m.Do("b", func(*session.DesignSession) error { return nil }); err != nil {
		t.Fatal(err)
	}
	now = now.Add(45 * time.Second) // a idle 75s (expired), b idle 45s
	if n := m.Sweep(); n != 1 {
		t.Errorf("sweep evicted %d sessions, want 1", n)
	}
	if err := m.Do("a", func(*session.DesignSession) error { return nil }); err == nil {
		t.Error("expired session survived the sweep")
	}
	if err := m.Do("b", func(*session.DesignSession) error { return nil }); err != nil {
		t.Errorf("unexpired session was swept: %v", err)
	}
	if exp := m.Stats().Expirations; exp != 1 {
		t.Errorf("expirations = %d, want 1", exp)
	}
}

// designKeys flattens a design to its sorted index-key set for model
// comparison.
func designKeys(d design.Design) string {
	keys := make([]string, 0, len(d.Indexes))
	for _, spec := range d.Indexes {
		keys = append(keys, spec.Key())
	}
	// Design preserves edit order, the model sorts; compare as sets.
	m := map[string]bool{}
	for _, k := range keys {
		m[k] = true
	}
	return setString(m)
}

func setString(m map[string]bool) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Small sets; insertion sort keeps this dependency-free.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return strings.Join(keys, ";")
}

func copySet(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// tenantModel mirrors the session's design + undo/redo semantics.
// It is only mutated while the test holds the tenant's checked-op
// lock, so a divergence from the live session means ops interleaved
// non-serially.
type tenantModel struct {
	mu   sync.Mutex
	cur  map[string]bool
	undo []map[string]bool
	redo []map[string]bool
}

func newTenantModel() *tenantModel { return &tenantModel{cur: map[string]bool{}} }

func (tm *tenantModel) reset() {
	tm.cur = map[string]bool{}
	tm.undo, tm.redo = nil, nil
}

// TestManagerConcurrentTenantsLinearizable is the ISSUE's concurrency
// gauntlet: N goroutines × M tenants issue mixed edit/undo/redo/
// costs/evict traffic under -race. Three invariants:
//
//  1. per-session mutual exclusion — an "inside" counter per tenant
//     must never see two requests at once;
//  2. per-session linearizability — a model of the design + undo/redo
//     stacks, advanced once per completed op, always matches the live
//     session;
//  3. eviction safety — an eviction hammer overflows capacity the
//     whole time, and evicted tenants come back with fresh state, no
//     race reports, no torn designs.
func TestManagerConcurrentTenantsLinearizable(t *testing.T) {
	const (
		tenants    = 4
		goroutines = 3 // per tenant
		ops        = 25
	)
	cat := testCatalog(t)
	m := NewManager(cat, testWorkload(), Options{MaxSessions: tenants + 1})

	cols := []string{"ra", "dec", "run", "camcol", "field", "htmid"}
	names := make([]string, tenants)
	models := make([]*tenantModel, tenants)
	inside := make([]atomic.Int32, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%d", i)
		models[i] = newTenantModel()
		if err := m.Create(names[i], nil, 0); err != nil {
			t.Fatal(err)
		}
	}

	// checked runs one op + model update + verification atomically
	// w.r.t. other checked ops on the same tenant. Do() itself still
	// sees concurrent arrivals from the read-only traffic below.
	checked := func(t *testing.T, ti int, op func(*session.DesignSession, *tenantModel) error) {
		tm := models[ti]
		tm.mu.Lock()
		defer tm.mu.Unlock()
		err := m.Do(names[ti], func(s *session.DesignSession) error {
			if n := inside[ti].Add(1); n != 1 {
				t.Errorf("tenant %d: %d requests inside the session at once", ti, n)
			}
			defer inside[ti].Add(-1)
			if err := op(s, tm); err != nil {
				return err
			}
			if got, want := designKeys(s.Design()), setString(tm.cur); got != want {
				t.Errorf("tenant %d design diverged from model: session %q, model %q", ti, got, want)
			}
			return nil
		})
		if err == nil {
			return
		}
		if strings.Contains(err.Error(), "no such session") {
			// Evicted: bring the tenant back with fresh state.
			if cerr := m.Create(names[ti], nil, 0); cerr != nil && !strings.Contains(cerr.Error(), "already exists") &&
				!strings.Contains(cerr.Error(), "capacity") {
				t.Errorf("tenant %d: recreate after eviction: %v", ti, cerr)
			}
			tm.reset()
			return
		}
		t.Errorf("tenant %d: unexpected op error: %v", ti, err)
	}

	var wg, hammerWG sync.WaitGroup
	stop := make(chan struct{})

	// Eviction hammer: keep overflowing capacity with throwaway
	// sessions so LRU eviction fires continuously while tenants edit.
	hammerWG.Add(1)
	go func() {
		defer hammerWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Fillers are never dropped: once the manager is full,
			// every create evicts the LRU idle session — sometimes an
			// older filler, sometimes a momentarily idle tenant.
			name := fmt.Sprintf("filler-%d", i)
			if err := m.Create(name, nil, 0); err != nil &&
				!strings.Contains(err.Error(), "capacity") && !strings.Contains(err.Error(), "already exists") {
				t.Errorf("filler create: %v", err)
				return
			}
		}
	}()

	for ti := range names {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				spec := inum.IndexSpec{Table: "photoobj", Columns: []string{cols[(ti*goroutines+g)%len(cols)]}}
				key := spec.Key()
				for i := 0; i < ops; i++ {
					switch i % 5 {
					case 0, 3: // add (tolerate duplicate)
						checked(t, ti, func(s *session.DesignSession, tm *tenantModel) error {
							_, err := s.AddIndex(spec)
							switch {
							case err == nil:
								tm.undo = append(tm.undo, copySet(tm.cur))
								tm.cur[key] = true
								tm.redo = nil
							case strings.Contains(err.Error(), "already in the design"):
								if !tm.cur[key] {
									t.Errorf("duplicate-index error but model lacks %s", key)
								}
							default:
								return err
							}
							return nil
						})
					case 1: // drop (tolerate missing)
						checked(t, ti, func(s *session.DesignSession, tm *tenantModel) error {
							_, err := s.DropIndexKey(key)
							switch {
							case err == nil:
								tm.undo = append(tm.undo, copySet(tm.cur))
								delete(tm.cur, key)
								tm.redo = nil
							case strings.Contains(err.Error(), "no design index"):
								if tm.cur[key] {
									t.Errorf("missing-index error but model has %s", key)
								}
							default:
								return err
							}
							return nil
						})
					case 2: // undo (tolerate empty stack)
						checked(t, ti, func(s *session.DesignSession, tm *tenantModel) error {
							_, err := s.Undo()
							switch {
							case err == nil:
								if len(tm.undo) == 0 {
									t.Error("session undid with an empty model stack")
									return nil
								}
								tm.redo = append(tm.redo, tm.cur)
								tm.cur = tm.undo[len(tm.undo)-1]
								tm.undo = tm.undo[:len(tm.undo)-1]
							case strings.Contains(err.Error(), "nothing to undo"):
								if len(tm.undo) != 0 {
									t.Errorf("nothing-to-undo but model stack has %d frames", len(tm.undo))
								}
							default:
								return err
							}
							return nil
						})
					case 4: // redo (tolerate empty stack)
						checked(t, ti, func(s *session.DesignSession, tm *tenantModel) error {
							_, err := s.Redo()
							switch {
							case err == nil:
								if len(tm.redo) == 0 {
									t.Error("session redid with an empty model stack")
									return nil
								}
								tm.undo = append(tm.undo, tm.cur)
								tm.cur = tm.redo[len(tm.redo)-1]
								tm.redo = tm.redo[:len(tm.redo)-1]
							case strings.Contains(err.Error(), "nothing to redo"):
								if len(tm.redo) != 0 {
									t.Errorf("nothing-to-redo but model stack has %d frames", len(tm.redo))
								}
							default:
								return err
							}
							return nil
						})
					}
					// Unchecked read-only traffic: races onto the same
					// tenant lock from outside the model mutex, so Do
					// really does see concurrent arrivals.
					m.Do(names[ti], func(s *session.DesignSession) error {
						if n := inside[ti].Add(1); n != 1 {
							t.Errorf("tenant %d: %d requests inside the session at once", ti, n)
						}
						defer inside[ti].Add(-1)
						rep := s.Report()
						var sum float64
						for _, pq := range rep.PerQuery {
							sum += pq.NewCost
						}
						if diff := sum - rep.NewCost; diff > 1e-6 || diff < -1e-6 {
							t.Errorf("tenant %d: torn report: per-query sum %v != total %v", ti, sum, rep.NewCost)
						}
						return nil
					})
				}
			}()
		}
	}
	// Let the workers finish, then stop the hammer once it has evicted:
	// workers that finish first must not stop it before it fires.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	limit := time.Now().Add(2 * time.Minute)
	select {
	case <-done:
	case <-time.After(time.Until(limit)):
		t.Fatal("concurrency gauntlet deadlocked")
	}
	for m.Stats().Evictions == 0 && time.Now().Before(limit) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	hammerWG.Wait()

	if ev := m.Stats().Evictions; ev == 0 {
		t.Error("eviction hammer never evicted — the gauntlet did not exercise eviction")
	}
	// The singleflight tier must have eliminated every duplicated
	// pricing batch: no state publication may ever lose a race to an
	// identical concurrent one.
	if sh := m.Shared().Stats(); sh.DupStores != 0 {
		t.Errorf("shared memo recorded %d duplicate state stores; singleflight should pin this at 0 (stats: %+v)", sh.DupStores, sh)
	}
}
