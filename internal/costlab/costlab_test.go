// Tests for the unified cost-estimation layer. They live in an
// external test package so the seed workload and its catalog can be
// reused without an import cycle (workload → recommend → costlab).
package costlab_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/costlab"
	"repro/internal/design"
	"repro/internal/inum"
	"repro/internal/recommend"
	"repro/internal/sql"
	"repro/internal/workload"
)

func seedCatalog(t testing.TB, scale int64) *catalog.Catalog {
	t.Helper()
	cat, err := workload.BuildCatalog(scale)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func seedQueries(t testing.TB) []recommend.Query {
	t.Helper()
	qs, err := workload.ParseQueries()
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

// pricingJobs builds the agreement/concurrency workload: every seed
// query under the empty configuration and under a handful of mined
// candidate indexes.
func pricingJobs(t testing.TB, cat *catalog.Catalog, queries []recommend.Query, perQuery int) []costlab.Job {
	t.Helper()
	cands := recommend.IndexCandidates(cat, queries, recommend.CandidateOptions{})
	if len(cands) == 0 {
		t.Fatal("no candidates mined from the seed workload")
	}
	var jobs []costlab.Job
	for qi, q := range queries {
		jobs = append(jobs, costlab.Job{Stmt: q.Stmt})
		for k := 0; k < perQuery && k < len(cands); k++ {
			spec := cands[(qi+k)%len(cands)]
			jobs = append(jobs, costlab.Job{Stmt: q.Stmt, Config: costlab.Config{spec}})
		}
	}
	return jobs
}

// TestBackendAgreement checks the two implementations of the
// CostEstimator contract against each other on the seed workload: the
// INUM reconstruction must stay within the paper's error envelope of
// the full optimizer, and must preserve which configurations help.
func TestBackendAgreement(t *testing.T) {
	cat := seedCatalog(t, 100000)
	queries := seedQueries(t)
	jobs := pricingJobs(t, cat, queries, 2)

	ctx := context.Background()
	inumCosts, err := costlab.EvaluateAll(ctx, costlab.NewINUM(cat), jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	fullCosts, err := costlab.EvaluateAll(ctx, costlab.NewFull(cat), jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sumRel float64
	for i := range jobs {
		if fullCosts[i] <= 0 {
			t.Fatalf("job %d: non-positive optimizer cost %v", i, fullCosts[i])
		}
		rel := math.Abs(inumCosts[i]-fullCosts[i]) / fullCosts[i]
		sumRel += rel
		// Per-configuration bound: INUM's reconstruction error on any
		// single scenario (matches the envelope inum's own tests use).
		if rel > 0.5 {
			t.Errorf("job %d (%v): INUM %v vs optimizer %v (rel err %.2f)",
				i, jobs[i].Config, inumCosts[i], fullCosts[i], rel)
		}
	}
	// Aggregate bound: the average disagreement must be far tighter —
	// the cache is useful because it is usually near-exact.
	if avg := sumRel / float64(len(jobs)); avg > 0.10 {
		t.Errorf("mean INUM vs optimizer error %.3f, want <= 0.10", avg)
	}
}

// TestConcurrentPricingMatchesSequential prices the same workload from
// 8 goroutines through one shared estimator of each backend and
// asserts every goroutine saw costs identical to the sequential path.
// Run with -race: the pooled sessions and sharded caches must never
// share a planner between goroutines.
func TestConcurrentPricingMatchesSequential(t *testing.T) {
	cat := seedCatalog(t, 50000)
	queries := seedQueries(t)[:10]
	jobs := pricingJobs(t, cat, queries, 2)
	ctx := context.Background()

	backends := map[string]func() costlab.Backend{
		costlab.BackendINUM: func() costlab.Backend { return costlab.NewINUM(cat) },
		costlab.BackendFull: func() costlab.Backend { return costlab.NewFull(cat) },
	}
	for name, mk := range backends {
		t.Run(name, func(t *testing.T) {
			sequential, err := costlab.EvaluateAll(ctx, mk(), jobs, 1)
			if err != nil {
				t.Fatal(err)
			}
			shared := mk()
			const goroutines = 8
			results := make([][]float64, goroutines)
			errs := make([]error, goroutines)
			// PlanCalls must be readable mid-flight (progress
			// reporting); hammer it while the goroutines price.
			stopPolling := make(chan struct{})
			var pollWg sync.WaitGroup
			pollWg.Add(1)
			go func() {
				defer pollWg.Done()
				for {
					select {
					case <-stopPolling:
						return
					default:
						_ = shared.PlanCalls()
					}
				}
			}()
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					out := make([]float64, len(jobs))
					for i, job := range jobs {
						c, err := shared.Cost(job.Stmt, job.Config)
						if err != nil {
							errs[g] = err
							return
						}
						out[i] = c
					}
					results[g] = out
				}(g)
			}
			wg.Wait()
			close(stopPolling)
			pollWg.Wait()
			for g := 0; g < goroutines; g++ {
				if errs[g] != nil {
					t.Fatalf("goroutine %d: %v", g, errs[g])
				}
				for i := range jobs {
					if results[g][i] != sequential[i] {
						t.Fatalf("goroutine %d job %d: concurrent cost %v != sequential %v",
							g, i, results[g][i], sequential[i])
					}
				}
			}
		})
	}
}

// TestEvaluateAllDeterministicOrdering fans jobs out over many workers
// and checks results land at their job's index.
func TestEvaluateAllDeterministicOrdering(t *testing.T) {
	cat := seedCatalog(t, 50000)
	queries := seedQueries(t)[:12]
	jobs := pricingJobs(t, cat, queries, 1)
	// Repeat the batch until every worker count below is started.
	for len(jobs) < 8*costlab.MinPerWorker {
		jobs = append(jobs, jobs...)
	}
	est := costlab.NewINUM(cat)
	ctx := context.Background()
	want, err := costlab.EvaluateAll(ctx, est, jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := costlab.EvaluateAll(ctx, est, jobs, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: job %d cost %v, want %v", workers, i, got[i], want[i])
			}
		}
		// The memo's shard-aware schedule must return the same
		// caller-order results.
		grouped, _, err := costlab.EvaluateDelta(ctx, est, jobs, costlab.NewMemo(), workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if grouped[i] != want[i] {
				t.Fatalf("grouped workers=%d: job %d cost %v, want %v", workers, i, grouped[i], want[i])
			}
		}
	}
}

// failAfter errors once its call budget is exhausted — the
// cancellation path's test double.
type failAfter struct {
	mu    sync.Mutex
	calls int
	limit int
}

func (f *failAfter) Cost(stmt *sql.Select, cfg costlab.Config) (float64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.calls > f.limit {
		return 0, fmt.Errorf("budget exhausted")
	}
	return float64(f.calls), nil
}

func TestEvaluateAllFirstErrorCancels(t *testing.T) {
	sel, err := sql.ParseSelect("SELECT objid FROM photoobj")
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]costlab.Job, 4*costlab.MinPerWorker) // enough for four workers
	for i := range jobs {
		jobs[i] = costlab.Job{Stmt: sel}
	}
	est := &failAfter{limit: 5}
	_, err = costlab.EvaluateAll(context.Background(), est, jobs, 4)
	if err == nil || !strings.Contains(err.Error(), "budget exhausted") {
		t.Fatalf("error = %v, want budget exhaustion", err)
	}
	// The error must attribute the failure to a job index callers can
	// map back to their batch.
	var je *costlab.JobError
	if !errors.As(err, &je) || je.Index < 0 || je.Index >= len(jobs) {
		t.Fatalf("error %v did not unwrap to an in-range JobError", err)
	}
	est.mu.Lock()
	calls := est.calls
	est.mu.Unlock()
	// Cancellation must stop the fleet long before all the jobs run;
	// at most the in-flight job per worker can slip through.
	if calls >= len(jobs) {
		t.Errorf("ran %d jobs after first error, cancellation failed", calls)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := costlab.EvaluateAll(ctx, &failAfter{limit: 1 << 30}, jobs, 4); err == nil {
		t.Error("cancelled context accepted")
	}
}

func TestNewBackend(t *testing.T) {
	cat := seedCatalog(t, 50000)
	for _, kind := range []string{"", costlab.BackendINUM, costlab.BackendFull} {
		est, err := costlab.NewBackend(cat, kind)
		if err != nil || est == nil {
			t.Fatalf("NewBackend(%q) = %v, %v", kind, est, err)
		}
		sz, err := est.SpecSizeBytes(inum.IndexSpec{Table: "photoobj", Columns: []string{"ra"}})
		if err != nil || sz <= 0 {
			t.Errorf("backend %q sizing: %d, %v", kind, sz, err)
		}
	}
	if _, err := costlab.NewBackend(cat, "oracle"); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestFullPlanNamesAlignWithConfig checks the spec↔name contract that
// the advisor's per-query report relies on.
func TestFullPlanNamesAlignWithConfig(t *testing.T) {
	cat := seedCatalog(t, 100000)
	full := costlab.NewFull(cat)
	sel, err := sql.ParseSelect("SELECT objid FROM photoobj WHERE ra BETWEEN 10 AND 10.01")
	if err != nil {
		t.Fatal(err)
	}
	cfg := costlab.Config{
		{Table: "photoobj", Columns: []string{"ra"}},
		{Table: "specobj", Columns: []string{"bestobjid"}},
	}
	plan, names, err := full.Plan(sel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(cfg) {
		t.Fatalf("names = %v for %d specs", names, len(cfg))
	}
	used := plan.IndexesUsed()
	if len(used) == 0 || used[0] != names[0] {
		t.Errorf("selective ra index not used: plan uses %v, ra index is %q", used, names[0])
	}
	// The per-call indexes must not leak into later calls.
	baseCost, err := full.Cost(sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	ixCost, err := full.Cost(sel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ixCost >= baseCost {
		t.Errorf("index config did not help: %v >= %v", ixCost, baseCost)
	}
	// The session still holds cfg, so a permutation of it is served by
	// the same live indexes: names follow the caller's order, not the
	// creation order.
	_, held, err := full.Plan(sel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, permuted, err := full.Plan(sel, costlab.Config{cfg[1], cfg[0]})
	if err != nil {
		t.Fatal(err)
	}
	if permuted[0] != held[1] || permuted[1] != held[0] {
		t.Errorf("permuted config names = %v, want the held %v reversed", permuted, held)
	}
}

// TestEvaluateDeltaCrossProduct: a cross product of statements ×
// configurations, listed statement-major so adjacent jobs want
// different designs, prices through the Full pricer's design-grouped
// schedule with every cost landing at its job's index — equal to
// pricing each job alone on a fresh estimator.
func TestEvaluateDeltaCrossProduct(t *testing.T) {
	cat := seedCatalog(t, 50000)
	queries := seedQueries(t)[:5]
	cands := recommend.IndexCandidates(cat, queries, recommend.CandidateOptions{})
	cfgs := []costlab.Config{nil, {cands[0]}, {cands[len(cands)/2]}, {cands[0], cands[len(cands)-1]}}
	var jobs []costlab.Job
	for _, q := range queries {
		for _, cfg := range cfgs {
			jobs = append(jobs, costlab.Job{Stmt: q.Stmt, Config: cfg})
		}
	}
	for _, workers := range []int{1, 4} {
		got, stats, err := costlab.EvaluateDelta(context.Background(), costlab.NewFull(cat), jobs, costlab.NewMemo(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Misses != len(jobs) {
			t.Fatalf("workers=%d: stats %+v, want %d misses", workers, stats, len(jobs))
		}
		for i, job := range jobs {
			want, err := costlab.NewFull(cat).Cost(job.Stmt, job.Config)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Errorf("workers=%d job %d: %v, alone %v", workers, i, got[i], want)
			}
		}
	}
}

// TestInterleaveByStmt: the permutation must visit groups round-robin
// and cover every index exactly once.
func TestInterleaveByStmt(t *testing.T) {
	// Groups: 0 → {0,1,2}, 1 → {3}, 2 → {4,5}.
	group := []int{0, 0, 0, 1, 2, 2}
	order := costlab.InterleaveByStmt(len(group), func(i int) int { return group[i] })
	want := []int{0, 3, 4, 1, 5, 2}
	if len(order) != len(group) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	seen := map[int]bool{}
	for _, oi := range order {
		if seen[oi] {
			t.Fatalf("duplicate index %d in %v", oi, order)
		}
		seen[oi] = true
	}
}

// TestINUMShardingInvariance: estimated costs must not depend on the
// shard count.
func TestINUMShardingInvariance(t *testing.T) {
	cat := seedCatalog(t, 50000)
	queries := seedQueries(t)[:8]
	jobs := pricingJobs(t, cat, queries, 2)
	ctx := context.Background()
	want, err := costlab.EvaluateAll(ctx, costlab.NewINUMShards(cat, 1), jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 7} {
		got, err := costlab.EvaluateAll(ctx, costlab.NewINUMShards(cat, shards), jobs, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: job %d cost %v, want %v", shards, i, got[i], want[i])
			}
		}
	}
}

// countingEstimator wraps a backend and counts Cost invocations, so
// tests can assert that memo hits never reach the estimator.
type countingEstimator struct {
	inner costlab.CostEstimator
	mu    sync.Mutex
	calls int
}

func (c *countingEstimator) Cost(stmt *sql.Select, cfg costlab.Config) (float64, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return c.inner.Cost(stmt, cfg)
}

func (c *countingEstimator) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

func TestEvaluateDeltaMemoizes(t *testing.T) {
	cat := seedCatalog(t, 200000)
	queries := seedQueries(t)[:8]
	jobs := pricingJobs(t, cat, queries, 2)

	ctx := context.Background()
	want, err := costlab.EvaluateAll(ctx, costlab.NewFull(cat), jobs, 0)
	if err != nil {
		t.Fatal(err)
	}

	est := &countingEstimator{inner: costlab.NewFull(cat)}
	memo := costlab.NewMemo()
	got, stats, err := costlab.EvaluateDelta(ctx, est, jobs, memo, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != 0 || stats.Misses != len(jobs) {
		t.Errorf("cold batch stats = %+v", stats)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("job %d: delta %v != all %v", i, got[i], want[i])
		}
	}
	coldCalls := est.count()

	// Second identical batch: every job is a hit, the estimator is
	// never consulted.
	got2, stats2, err := costlab.EvaluateDelta(ctx, est, jobs, memo, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Hits != len(jobs) || stats2.Misses != 0 {
		t.Errorf("warm batch stats = %+v", stats2)
	}
	if est.count() != coldCalls {
		t.Errorf("warm batch reached the estimator: %d -> %d calls", coldCalls, est.count())
	}
	for i := range want {
		if got2[i] != want[i] {
			t.Fatalf("warm job %d: %v != %v", i, got2[i], want[i])
		}
	}
	ms := memo.Stats()
	if ms.Entries == 0 || ms.Hits != int64(len(jobs)) || ms.Misses != int64(len(jobs)) {
		t.Errorf("memo stats = %+v", ms)
	}

	// A partially-new batch prices only the new jobs.
	extra := append(append([]costlab.Job(nil), jobs...), costlab.Job{
		Stmt:   queries[0].Stmt,
		Config: costlab.Config{{Table: "photoobj", Columns: []string{"dec", "ra"}}},
	})
	_, stats3, err := costlab.EvaluateDelta(ctx, est, extra, memo, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats3.Hits != len(jobs) || stats3.Misses != 1 {
		t.Errorf("incremental batch stats = %+v", stats3)
	}
	if est.count() != coldCalls+1 {
		t.Errorf("incremental batch estimator calls = %d, want %d", est.count(), coldCalls+1)
	}
}

// TestMemoKeyIdentity: the memo keys a job by (statement, projected
// design, backend). Permuted configurations and indexes on tables the
// statement never reads share an entry — for EvaluateDelta and Lookup
// alike — while a different configuration on its table does not, and
// INUM never serves a full-optimizer cost.
func TestMemoKeyIdentity(t *testing.T) {
	cat := seedCatalog(t, 50000)
	stmt, err := sql.ParseSelect("SELECT objid, ra FROM photoobj WHERE ra BETWEEN 10 AND 10.2 AND dec > 0")
	if err != nil {
		t.Fatal(err)
	}
	ra := inum.IndexSpec{Table: "photoobj", Columns: []string{"ra"}}
	dec := inum.IndexSpec{Table: "photoobj", Columns: []string{"dec"}}
	z := inum.IndexSpec{Table: "specobj", Columns: []string{"z"}}
	memo := costlab.NewMemo()
	full := costlab.NewFull(cat)
	price := func(est costlab.CostEstimator, cfg costlab.Config) costlab.BatchStats {
		t.Helper()
		_, st, err := costlab.EvaluateDelta(context.Background(), est, []costlab.Job{{Stmt: stmt, Config: cfg}}, memo, 1)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if st := price(full, costlab.Config{ra, dec}); st.Misses != 1 {
		t.Fatalf("cold job: %+v", st)
	}
	for name, cfg := range map[string]costlab.Config{"permuted": {dec, ra}, "off-footprint index": {z, dec, ra}} {
		if st := price(full, cfg); st.Hits != 1 {
			t.Errorf("%s: %+v, want a hit", name, st)
		}
		if _, ok := memo.Lookup(stmt, cfg); !ok {
			t.Errorf("%s: Lookup misses what EvaluateDelta hit", name)
		}
	}
	if st := price(full, costlab.Config{ra}); st.Misses != 1 {
		t.Errorf("a distinct configuration collided: %+v", st)
	}
	if st := price(costlab.NewINUM(cat), costlab.Config{ra}); st.Misses != 1 {
		t.Errorf("INUM was served a full-optimizer cost: %+v", st)
	}
	// Lookup reads full-optimizer costs only.
	if st := price(costlab.NewINUM(cat), costlab.Config{dec}); st.Misses != 1 {
		t.Errorf("cold INUM job: %+v", st)
	}
	if _, ok := memo.Lookup(stmt, costlab.Config{dec}); ok {
		t.Error("Lookup served an INUM-priced cost")
	}
	if n := full.PlanCalls(); n != 2 {
		t.Errorf("full optimizer planned %d times, want 2", n)
	}
}

// TestEvaluateDeltaOffFootprintSpec pins the documented contract for a
// spec on a table the statement does not read: it is outside the job's
// key, so a priced job reports it invalid while a memo hit serves the
// job the projection's cost.
func TestEvaluateDeltaOffFootprintSpec(t *testing.T) {
	cat := seedCatalog(t, 50000)
	stmt, err := sql.ParseSelect("SELECT objid FROM photoobj WHERE ra BETWEEN 10 AND 10.2")
	if err != nil {
		t.Fatal(err)
	}
	bad := costlab.Job{Stmt: stmt, Config: costlab.Config{{Table: "nosuch", Columns: []string{"x"}}}}
	memo := costlab.NewMemo()
	full := costlab.NewFull(cat)
	var je *costlab.JobError
	if _, _, err := costlab.EvaluateDelta(context.Background(), full, []costlab.Job{bad}, memo, 1); !errors.As(err, &je) {
		t.Fatalf("priced job: err = %v, want a JobError", err)
	}
	base, _, err := costlab.EvaluateDelta(context.Background(), full, []costlab.Job{{Stmt: stmt}}, memo, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := costlab.EvaluateDelta(context.Background(), full, []costlab.Job{bad}, memo, 1)
	if err != nil || st.Hits != 1 || got[0] != base[0] {
		t.Fatalf("served job: cost %v, %+v, err %v; want the base cost %v from the memo", got, st, err, base[0])
	}
}

func TestEvaluateDeltaPropagatesJobError(t *testing.T) {
	cat := seedCatalog(t, 200000)
	q := seedQueries(t)[0]
	jobs := []costlab.Job{
		{Stmt: q.Stmt},
		// An index on a table the query reads: one on any other table
		// projects away and is served the first job's cost.
		{Stmt: q.Stmt, Config: costlab.Config{{Table: "photoobj", Columns: []string{"nosuch"}}}},
	}
	_, _, err := costlab.EvaluateDelta(context.Background(), costlab.NewFull(cat), jobs, costlab.NewMemo(), 0)
	var je *costlab.JobError
	if !errors.As(err, &je) || je.Index != 1 {
		t.Fatalf("err = %v, want JobError at index 1", err)
	}
}

// TestMemoContentionStats: the memo counts every key asked for once.
// A key its read-through answers is a hit and never reaches the price
// function; a priced key is a miss and a store; a lookup that finds
// nothing is a miss; and no batch stores a key twice.
func TestMemoContentionStats(t *testing.T) {
	memo := costlab.NewMemoBounded(0, func(stmt uint32, projected string) (float64, bool) {
		return 10, projected == "ix:a(x)"
	})
	q := memo.InternStmtKey("q1")
	full := &costlab.Full{}
	a := costlab.Key{Stmt: q, Design: memo.InternDesign(full, "ix:a(x)")}
	b := costlab.Key{Stmt: q, Design: memo.InternDesign(full, "ix:b(y)")}
	inumA := costlab.Key{Stmt: q, Design: memo.InternDesign(&costlab.INUM{}, "ix:a(x)")}
	got, batch, err := memo.Resolve(context.Background(), []costlab.Key{a, b, inumA}, func(led []int) ([]float64, error) {
		if len(led) != 2 || led[0] != 1 || led[1] != 2 {
			t.Errorf("price saw %v, want the keys the read-through missed: [1 2]", led)
		}
		return []float64{20, 30}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []float64{10, 20, 30}) || batch.Hits != 1 || batch.Led != 2 {
		t.Errorf("costs %v batch %+v, want [10 20 30], 1 hit, 2 led", got, batch)
	}
	memo.LookupID(a)
	memo.LookupID(costlab.Key{Stmt: q, Design: memo.InternDesign(full, "nope")})
	st := memo.Stats()
	if st.Stores != 3 || st.DupStores != 0 {
		t.Errorf("stores = %d dup = %d, want 3 and 0", st.Stores, st.DupStores)
	}
	// One read-through answer and one lookup found; two keys priced
	// plus one failed lookup.
	if st.Hits != 2 || st.Misses != 3 || st.Entries != 3 {
		t.Errorf("hits %d misses %d entries %d, want 2, 3, 3", st.Hits, st.Misses, st.Entries)
	}
}

// TestINUMPermutationInvariance: INUM must price a configuration the
// same whatever order its indexes are listed in — every memo keys a
// configuration by its sorted projected key, so an order-dependent cost
// would make the memo serve whichever order happened to be priced
// first. Random 2–13-index configurations of mined candidates, each
// priced for every seed query on two fresh estimators in two orders.
func TestINUMPermutationInvariance(t *testing.T) {
	cat := seedCatalog(t, 50000)
	queries := seedQueries(t)
	cands := recommend.IndexCandidates(cat, queries, recommend.CandidateOptions{})
	rng := rand.New(rand.NewSource(1))
	const configs = 60
	for n := 0; n < configs; n++ {
		cfg := make(costlab.Config, 2+rng.Intn(12))
		for i, p := range rng.Perm(len(cands))[:len(cfg)] {
			cfg[i] = cands[p]
		}
		shuffled := slices.Clone(cfg)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		a, b := costlab.NewINUMShards(cat, 1), costlab.NewINUMShards(cat, 1)
		for qi, q := range queries {
			ca, err := a.Cost(q.Stmt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cb, err := b.Cost(q.Stmt, shuffled)
			if err != nil {
				t.Fatal(err)
			}
			if ca != cb {
				t.Errorf("Q%d under %d indexes costs %v listed as %v but %v listed as %v", qi+1, len(cfg), ca, cfg, cb, shuffled)
			}
		}
	}
}

// TestConcurrentDesignBatchesMatchSequential: 8 goroutines price
// interleaved batches of different designs — index configurations, two
// partitionings sharing fragment names over different columns, nested
// loops off — on one Full, half of them through EvaluateDelta's
// design-grouped schedule, all over shared statements that every
// pooled session's planner prepares for itself. Every cost equals the
// sequential answer, and every plan uses only indexes of its own
// batch's design: no pooled session is planned while it holds another
// batch's design. The two partitionings also alternate on one pooled
// session first. Run with -race.
func TestConcurrentDesignBatchesMatchSequential(t *testing.T) {
	cat := seedCatalog(t, 50000)
	queries := seedQueries(t)
	cands := recommend.IndexCandidates(cat, queries, recommend.CandidateOptions{})
	var offPhoto []inum.IndexSpec
	for _, spec := range cands {
		if spec.Table != "photoobj" {
			offPhoto = append(offPhoto, spec)
		}
	}
	atomic := recommend.AtomicFragments(cat.Table("photoobj"), queries)
	split := []design.Partition{{Table: "photoobj", Fragments: atomic}}
	// The same fragment names over other column sets: the atomic
	// fragments merged into two halves.
	var halves [2][]string
	for i, f := range atomic {
		halves[i*2/len(atomic)] = append(halves[i*2/len(atomic)], f...)
	}
	merged := []design.Partition{{Table: "photoobj", Fragments: halves[:]}}
	targets := []costlab.Target{
		{NestLoop: true},
		{Design: design.Design{Indexes: cands[:3]}, NestLoop: true},
		{Design: design.Design{Indexes: cands[2:7]}, NestLoop: false},
		{Design: design.Design{Partitions: split}, NestLoop: true},
		{Design: design.Design{Indexes: offPhoto[:4], Partitions: split}, NestLoop: false},
		{Design: design.Design{Partitions: merged}, NestLoop: true},
	}
	stmts := make([][]*sql.Select, len(targets))
	want := make([][]float64, len(targets))
	wantUsed := make([][][]string, len(targets))
	for i, tg := range targets {
		rw := design.Rewriter(cat, tg.Design)
		for _, q := range queries {
			stmt := q.Stmt
			if rw != nil {
				var err error
				if stmt, err = rw.Rewrite(stmt); err != nil {
					t.Fatal(err)
				}
			}
			stmts[i] = append(stmts[i], stmt)
		}
		var err error
		if want[i], wantUsed[i], err = costlab.NewFull(cat).PriceAll(context.Background(), tg, stmts[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	// The two partitionings sharing fragment names, alternately on one
	// pooled session.
	alt := costlab.NewFull(cat)
	for r := 0; r < 4; r++ {
		i := []int{3, 5}[r%2]
		costs, used, err := alt.PriceAll(context.Background(), targets[i], stmts[i], 1)
		if err != nil {
			t.Fatal(err)
		}
		for qi := range costs {
			if costs[qi] != want[i][qi] || !slices.Equal(used[qi], wantUsed[i][qi]) {
				t.Fatalf("alternation %d design %d Q%d: %v using %v, a fresh pricer %v using %v",
					r, i, qi+1, costs[qi], used[qi], want[i][qi], wantUsed[i][qi])
			}
		}
	}
	if alt.Sessions() != 1 {
		t.Fatalf("alternation used %d sessions, want one", alt.Sessions())
	}

	// The index-only designs again, as one cross-product job list.
	var jobs []costlab.Job
	var jobWant []float64
	for i, tg := range targets {
		if len(tg.Design.Partitions) > 0 || !tg.NestLoop {
			continue
		}
		for qi, q := range queries {
			jobs = append(jobs, costlab.Job{Stmt: q.Stmt, Config: tg.Design.Indexes})
			jobWant = append(jobWant, want[i][qi])
		}
	}

	shared := costlab.NewFull(cat)
	const goroutines, rounds = 8, 2
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs <- func() error {
				for r := 0; r < rounds; r++ {
					if g%2 == 1 {
						got, _, err := costlab.EvaluateDelta(context.Background(), shared, jobs, costlab.NewMemo(), 2)
						if err != nil {
							return err
						}
						if !slices.Equal(got, jobWant) {
							return fmt.Errorf("goroutine %d: EvaluateDelta costs differ from sequential", g)
						}
						continue
					}
					for k := range targets {
						i := (g + k) % len(targets)
						costs, used, err := shared.PriceAll(context.Background(), targets[i], stmts[i], 2)
						if err != nil {
							return err
						}
						keys := map[string]bool{}
						for _, spec := range targets[i].Design.Indexes {
							keys[spec.Key()] = true
						}
						for qi := range costs {
							if costs[qi] != want[i][qi] || !slices.Equal(used[qi], wantUsed[i][qi]) {
								return fmt.Errorf("goroutine %d design %d Q%d: %v using %v, sequential %v using %v",
									g, i, qi+1, costs[qi], used[qi], want[i][qi], wantUsed[i][qi])
							}
							for _, k := range used[qi] {
								if !keys[k] {
									return fmt.Errorf("goroutine %d design %d Q%d uses %s, not in its design", g, i, qi+1, k)
								}
							}
						}
					}
				}
				return nil
			}()
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
