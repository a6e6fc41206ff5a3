package repro

// The experiment harness: one benchmark per paper claim E1–E8 (the
// rows of REPRODUCTION.md), plus benchmarks that hold the engine's
// own contracts (incremental edits, shared memo, recovery). PARINDA
// is a demo paper without numbered result tables; each E-benchmark
// reproduces one of its quantitative claims and fails (b.Fatalf) when
// the claim's direction flips, so the CI benchmark step is the check.
//
//	go test -run=NONE -bench='E[1-8]_' -benchtime=1x .
//
// Custom metrics reported via b.ReportMetric:
//	speedup     workload cost(before) / cost(after)
//	benefit_pct 100 * (1 - after/before)
//	relerr_pct  what-if vs materialized cost error
//	plancalls   full optimizer invocations consumed

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/costlab"
	"repro/internal/design"
	"repro/internal/durable"
	"repro/internal/ingest"
	"repro/internal/inum"
	"repro/internal/optimizer"
	"repro/internal/recommend"
	"repro/internal/serve"
	"repro/internal/session"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// planCatalog builds the statistics-only catalog once per scale.
func planCatalog(b *testing.B, scale int64) *catalog.Catalog {
	b.Helper()
	cat, err := workload.BuildCatalog(scale)
	if err != nil {
		b.Fatal(err)
	}
	return cat
}

func populated(b *testing.B, scale int64) *storage.Database {
	b.Helper()
	db := storage.NewDatabase(16384)
	if err := workload.PopulateDatabase(db, scale, 1); err != nil {
		b.Fatal(err)
	}
	return db
}

func mustSelect(b *testing.B, q string) *sql.Select {
	b.Helper()
	sel, err := sql.ParseSelect(q)
	if err != nil {
		b.Fatal(err)
	}
	return sel
}

// --- E1: what-if simulation vs. physically building the index -------
// Claim (§1, §3.2): simulating design features is orders of magnitude
// faster than building them.

func BenchmarkE1_WhatIfVsBuild(b *testing.B) {
	for _, scale := range []int64{20000, 60000} {
		db := populated(nil2b(b), scale)
		q := mustSelect(b, "SELECT objid FROM photoobj WHERE ra BETWEEN 100 AND 100.3")
		var simulate, build time.Duration // per op; zero when filtered out

		b.Run(fmt.Sprintf("Simulate/rows=%d", scale), func(b *testing.B) {
			defer func() { simulate = b.Elapsed() / time.Duration(b.N) }()
			session := whatif.NewSession(db.Catalog)
			for i := 0; i < b.N; i++ {
				ix, err := session.CreateIndex("photoobj", []string{"ra"})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := session.Cost(q); err != nil {
					b.Fatal(err)
				}
				if err := session.DropIndex(ix.Name); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Build/rows=%d", scale), func(b *testing.B) {
			defer func() { build = b.Elapsed() / time.Duration(b.N) }()
			for i := 0; i < b.N; i++ {
				name := fmt.Sprintf("bench_ix_%d_%d", scale, i)
				ci := &sql.CreateIndex{Name: name, Table: "photoobj", Columns: []string{"ra"}}
				if _, err := db.BuildIndex(ci); err != nil {
					b.Fatal(err)
				}
				p := optimizer.New(db.Catalog)
				if _, err := p.Cost(q); err != nil {
					b.Fatal(err)
				}
				if err := db.DropIndex(name); err != nil {
					b.Fatal(err)
				}
			}
		})
		if simulate > 0 && build > 0 && build < 100*simulate {
			b.Fatalf("rows=%d: building took %v, simulating %v — want building >= 100x slower",
				scale, build, simulate)
		}
	}
}

// nil2b lets populated() accept the parent b for setup outside subtests.
func nil2b(b *testing.B) *testing.B { return b }

// --- E2: interactive design evaluation ------------------------------
// Scenario 1 (§4): evaluate a manual design over the 30-query
// workload; the benefit numbers are the figure-3 panel.

func BenchmarkE2_InteractiveEvaluate(b *testing.B) {
	cat := planCatalog(b, 500000)
	queries := workload.Queries()
	d := design.Design{
		Indexes: []inum.IndexSpec{
			{Table: "photoobj", Columns: []string{"ra"}},
			{Table: "photoobj", Columns: []string{"run", "camcol", "field"}},
			{Table: "specobj", Columns: []string{"bestobjid"}},
		},
	}
	var rep *session.InteractiveReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := session.New(cat, queries, session.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if rep, err = s.ApplyDesign(d); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Speedup(), "speedup")
	b.ReportMetric(100*rep.AvgBenefit(), "benefit_pct")
	if rep.AvgBenefit() <= 0 {
		b.Fatalf("manual design benefit %.1f%%, want > 0", 100*rep.AvgBenefit())
	}
}

// --- E3: automatic partition suggestion (AutoPart) ------------------
// Claim (§1, §4): 2x–10x speedups on analytical queries.

func BenchmarkE3_AutoPart(b *testing.B) {
	cat := planCatalog(b, 300000)
	all := workload.Queries()
	subset := []string{all[0], all[1], all[3], all[6], all[26], all[27]}
	queries, err := recommend.ParseWorkload(subset)
	if err != nil {
		b.Fatal(err)
	}
	var res *recommend.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = recommend.Recommend(context.Background(), cat, queries, recommend.Options{
			Objects:           recommend.ObjectsPartitions,
			Strategy:          recommend.StrategyGreedy,
			ReplicationBudget: 256 << 20,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Speedup(), "speedup")
	b.ReportMetric(100*res.AvgBenefit(), "benefit_pct")
	if res.Speedup() < 2 {
		b.Fatalf("AutoPart speedup %.2fx, want >= 2x", res.Speedup())
	}
}

// --- E4: ILP index advisor vs. greedy baseline ----------------------
// Claim (§1, §3.4): the non-greedy (ILP) search yields 2x–10x
// speedups and outperforms greedy pruning. Not reproduced: under this
// 32 MiB budget the ILP measures 1.363x and greedy 1.384x (see
// REPRODUCTION.md), so the benchmark records both and asserts no
// direction; only its plan-call counters are gated.

func BenchmarkE4_ILPvsGreedy(b *testing.B) {
	cat := planCatalog(b, 300000)
	queries, err := workload.ParseQueries()
	if err != nil {
		b.Fatal(err)
	}
	const budget = 32 << 20
	b.Run("ILP", func(b *testing.B) {
		var res *recommend.Result
		for i := 0; i < b.N; i++ {
			res, err = recommend.Recommend(context.Background(), cat, queries, recommend.Options{
				Objects:       recommend.ObjectsIndexes,
				Strategy:      recommend.StrategyILP,
				StorageBudget: budget,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(res.Speedup(), "speedup")
		b.ReportMetric(100*res.AvgBenefit(), "benefit_pct")
		b.ReportMetric(float64(res.PlanCalls), "plancalls")
	})
	b.Run("Greedy", func(b *testing.B) {
		var res *recommend.Result
		for i := 0; i < b.N; i++ {
			res, err = recommend.Recommend(context.Background(), cat, queries, recommend.Options{
				Objects:       recommend.ObjectsIndexes,
				Strategy:      recommend.StrategyGreedy,
				StorageBudget: budget,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(res.Speedup(), "speedup")
		b.ReportMetric(100*res.AvgBenefit(), "benefit_pct")
		b.ReportMetric(float64(res.PlanCalls), "plancalls")
	})
}

// --- E5: INUM throughput vs. full optimizer calls -------------------
// Claim (§3.4): INUM estimates the costs of millions of designs in
// minutes instead of days — i.e. per-configuration costing must be
// orders of magnitude cheaper than a full optimizer invocation after
// the scenario cache warms up.

func BenchmarkE5_INUMThroughput(b *testing.B) {
	cat := planCatalog(b, 300000)
	// A four-relation join: full optimization enumerates join orders
	// exponentially, while INUM's reconstruction stays linear in the
	// relation count — this is where the cache earns its keep.
	q := mustSelect(b, `SELECT p.objid FROM photoobj p, specobj s, neighbors n, field f
		WHERE p.objid = s.bestobjid AND p.objid = n.objid
		AND p.run = f.run AND p.camcol = f.camcol AND p.field = f.field
		AND p.ra BETWEEN 10 AND 10.2 AND p.run = 93 AND s.z > 2.9 AND n.distance < 0.01`)
	cols := []string{"ra", "run", "camcol", "field", "mjd", "htmid", "r", "colc"}
	var cfgs []inum.Config
	for i := range cols {
		for j := range cols {
			if i == j {
				cfgs = append(cfgs, inum.Config{{Table: "photoobj", Columns: []string{cols[i]}}})
			} else {
				cfgs = append(cfgs, inum.Config{{Table: "photoobj", Columns: []string{cols[i], cols[j]}}})
			}
		}
	}
	b.Run("INUM", func(b *testing.B) {
		cache := inum.New(cat)
		// Warm the scenario cache, as INUM does during candidate setup.
		for _, cfg := range cfgs {
			if _, err := cache.Cost(q, cfg); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cache.Cost(q, cfgs[i%len(cfgs)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(cache.PlanerCalls), "plancalls")
		if cache.PlanerCalls >= int64(len(cfgs)) {
			b.Fatalf("INUM issued %d optimizer calls for %d configurations, want fewer",
				cache.PlanerCalls, len(cfgs))
		}
	})
	b.Run("FullOptimizer", func(b *testing.B) {
		cache := inum.New(cat)
		for i := 0; i < b.N; i++ {
			if _, err := cache.FullOptimizerCost(q, cfgs[i%len(cfgs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Costlab: parallel candidate pricing ----------------------------
// The ROADMAP's "fast as the hardware allows" axis: the ILP advisor's
// candidate-pricing sweep (queries × configurations) fanned out over
// costlab's worker pool must beat the sequential baseline on
// multi-core hosts. Each job runs the full optimizer on a pooled
// what-if session, so the work parallelizes with zero sharing.

func BenchmarkCostlabParallelPricing(b *testing.B) {
	cat := planCatalog(b, 300000)
	queries, err := workload.ParseQueries()
	if err != nil {
		b.Fatal(err)
	}
	cands := recommend.IndexCandidates(cat, queries, recommend.CandidateOptions{})
	const maxCands = 16
	if len(cands) > maxCands {
		cands = cands[:maxCands]
	}
	cfgs := make([]costlab.Config, len(cands))
	for i, spec := range cands {
		cfgs[i] = costlab.Config{spec}
	}
	// Configuration-major, so the pricer's sessions move to each
	// configuration once and plan every query under it back to back.
	var jobs []costlab.Job
	for _, cfg := range cfgs {
		for _, q := range queries {
			jobs = append(jobs, costlab.Job{Stmt: q.Stmt, Config: cfg})
		}
	}
	ctx := context.Background()
	run := func(b *testing.B, workers int) {
		est := costlab.NewFull(cat)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := costlab.EvaluateAll(ctx, est, jobs, workers); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(jobs)), "jobs")
	}
	b.Run("Sequential", func(b *testing.B) { run(b, 1) })
	b.Run(fmt.Sprintf("Parallel/workers=%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		run(b, runtime.GOMAXPROCS(0))
	})
}

// --- Session: incremental design edits ------------------------------
// The paper's interactive-speed claim, measured on the engine that
// carries it: one index edit on the 30-query SDSS workload must issue
// optimizer calls ONLY for the queries that reference the edited
// table — everything else is served from the session memo. The
// assertion is on optimizer-call counts, not wall time; the
// FromScratch sub-benchmark shows what the same loop costs when every
// edit re-prices the whole workload.

func BenchmarkSessionIncrementalEdit(b *testing.B) {
	cat := planCatalog(b, 500000)
	wl := workload.Queries()
	spec := inum.IndexSpec{Table: "field", Columns: []string{"run", "camcol"}}
	// Count the queries the edit is allowed to re-plan.
	touched := 0
	for _, q := range wl {
		sel := mustSelect(b, q)
		if sql.FootprintOf(sel).TouchesTable(spec.Table) {
			touched++
		}
	}
	if touched == 0 || touched == len(wl) {
		b.Fatalf("workload unsuitable: %d/%d queries touch %s", touched, len(wl), spec.Table)
	}

	b.Run("Incremental", func(b *testing.B) {
		s, err := session.New(cat, wl, session.Options{})
		if err != nil {
			b.Fatal(err)
		}
		baseCalls := s.PlanCalls() // workload-sized: the one-time base pricing
		var rep *session.InteractiveReport
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err = s.AddIndex(spec)
			if err != nil {
				b.Fatal(err)
			}
			if _, err = s.DropIndex(spec); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		// The incremental contract: across every iteration, only the
		// FIRST add planned anything (later adds and every drop hit
		// the memo), and it planned exactly the touched queries.
		delta := s.PlanCalls() - baseCalls
		if delta != int64(touched) {
			b.Fatalf("edit loop consumed %d optimizer calls, want %d (only queries referencing %s)",
				delta, touched, spec.Table)
		}
		if rep.Invalidated != touched {
			b.Fatalf("edit invalidated %d queries, want %d", rep.Invalidated, touched)
		}
		b.ReportMetric(float64(touched), "queries_touched")
		b.ReportMetric(float64(len(wl)), "workload_queries")
		b.ReportMetric(float64(delta), "plancalls_total")
	})
	b.Run("FromScratch", func(b *testing.B) {
		d := design.Design{Indexes: []inum.IndexSpec{spec}}
		var calls int64
		for i := 0; i < b.N; i++ {
			s, err := session.New(cat, wl, session.Options{})
			if err != nil {
				b.Fatal(err)
			}
			rep, err := s.ApplyDesign(d)
			if err != nil {
				b.Fatal(err)
			}
			calls += rep.PlanCalls
		}
		b.ReportMetric(float64(calls), "plancalls_total")
	})
}

// --- Serve: multi-tenant sessions over one shared memo ---------------
// The serving subsystem's headline: tenants share one pricing memo,
// so after tenant A prices an edit, an identical edit by any other
// tenant — including the tenant's own session creation — issues ZERO
// optimizer calls, and the costs responses are byte-identical across
// tenants and runs even under concurrent load. Asserted, not just
// reported, via the real HTTP surface.

func BenchmarkServeConcurrentTenants(b *testing.B) {
	cat := planCatalog(b, 300000)
	wl := workload.Queries()
	const tenants = 8
	mgr := serve.NewManager(cat, wl, serve.Options{MaxSessions: 2*tenants + 2})
	ts := httptest.NewServer(mgr.Handler())
	defer ts.Close()
	client := ts.Client()

	// do returns errors instead of failing, because it also runs on
	// tenant goroutines where b.Fatal is not allowed.
	do := func(method, path, body string, want int) ([]byte, error) {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != want {
			return nil, fmt.Errorf("%s %s = %d, want %d (%s)", method, path, resp.StatusCode, want, raw)
		}
		return raw, nil
	}
	planCallsOf := func(name string) (int64, error) {
		raw, err := do("GET", "/sessions/"+name+"/stats", "", http.StatusOK)
		if err != nil {
			return 0, err
		}
		var st struct {
			PlanCalls int64 `json:"planCalls"`
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return 0, err
		}
		return st.PlanCalls, nil
	}
	mustDo := func(method, path, body string, want int) []byte { // main goroutine only
		raw, err := do(method, path, body, want)
		if err != nil {
			b.Fatal(err)
		}
		return raw
	}

	// Tenant A (the "warm" tenant) prices the base design and the
	// edit; everything later is served from the shared memo.
	const editBody = `{"table":"field","columns":["run","camcol"]}`
	mustDo("POST", "/sessions", `{"name":"warm"}`, http.StatusCreated)
	mustDo("POST", "/sessions/warm/indexes", editBody, http.StatusOK)
	warmCalls, err := planCallsOf("warm")
	if err != nil {
		b.Fatal(err)
	}
	if warmCalls == 0 {
		b.Fatal("warm tenant priced nothing — the benchmark premise is broken")
	}
	reference := mustDo("GET", "/sessions/warm/costs", "", http.StatusOK)

	var tenantCalls atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for tn := 0; tn < tenants; tn++ {
			wg.Add(1)
			go func(tn int) {
				defer wg.Done()
				name := fmt.Sprintf("t%d-%d", i, tn)
				tenant := func() error {
					if _, err := do("POST", "/sessions", fmt.Sprintf(`{"name":%q}`, name), http.StatusCreated); err != nil {
						return err
					}
					if _, err := do("POST", "/sessions/"+name+"/indexes", editBody, http.StatusOK); err != nil {
						return err
					}
					calls, err := planCallsOf(name)
					if err != nil {
						return err
					}
					tenantCalls.Add(calls)
					if calls != 0 {
						return fmt.Errorf("tenant %s issued %d optimizer calls, want 0 (shared memo)", name, calls)
					}
					costs, err := do("GET", "/sessions/"+name+"/costs", "", http.StatusOK)
					if err != nil {
						return err
					}
					if !bytes.Equal(costs, reference) {
						return fmt.Errorf("tenant %s costs response differs from the reference:\n got %s\nwant %s",
							name, costs, reference)
					}
					_, err = do("DELETE", "/sessions/"+name, "", http.StatusNoContent)
					return err
				}
				if err := tenant(); err != nil {
					b.Error(err) // Error (not Fatal) is goroutine-safe
				}
			}(tn)
		}
		wg.Wait()
	}
	b.StopTimer()
	st := mgr.Shared().Stats()
	b.ReportMetric(float64(warmCalls), "plancalls_warm")
	b.ReportMetric(float64(tenantCalls.Load()), "plancalls_tenants")
	b.ReportMetric(float64(st.Hits), "shared_hits")
	b.ReportMetric(float64(st.DupStores), "shared_dupstores")
	b.ReportMetric(float64(st.InflightWaits), "shared_inflight_waits")
	b.ReportMetric(float64(st.CoalescedPlanCalls), "shared_coalesced")
	b.ReportMetric(float64(tenants), "tenants_per_run")
}

// --- Session: N identical tenants booting concurrently ---------------
// The singleflight tier's headline: N sessions created at once over
// the same COLD shared memo must together pay ~1× the base-pricing
// plan calls a single session pays — one leader prices each state,
// everyone else waits for its publication — instead of N×. Asserted
// per iteration, with create-latency percentiles reported through the
// benchjson gate.

func BenchmarkConcurrentSessionCreate(b *testing.B) {
	cat := planCatalog(b, 300000)
	parsed, err := session.ParseWorkload(workload.Queries())
	if err != nil {
		b.Fatal(err)
	}

	// Single-tenant baseline: what one session pays to boot cold.
	solo, err := session.NewFromWorkload(cat, parsed, session.Options{Shared: session.NewSharedMemo()})
	if err != nil {
		b.Fatal(err)
	}
	baseline := solo.PlanCalls()
	if baseline == 0 {
		b.Fatal("solo session priced nothing — the benchmark premise is broken")
	}

	for _, tenants := range []int{1, 8} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			var totalCalls, coalesced int64
			latencies := make([]time.Duration, 0, tenants*b.N)
			for i := 0; i < b.N; i++ {
				// Fresh memo each iteration: every round is the cold
				// worst case the coordinator exists for.
				shared := session.NewSharedMemo()
				sessions := make([]*session.DesignSession, tenants)
				took := make([]time.Duration, tenants)
				errs := make([]error, tenants)
				release := make(chan struct{})
				var ready, wg sync.WaitGroup
				ready.Add(tenants)
				for tn := 0; tn < tenants; tn++ {
					wg.Add(1)
					go func(tn int) {
						defer wg.Done()
						ready.Done()
						<-release // all creates start together
						start := time.Now()
						sessions[tn], errs[tn] = session.NewFromWorkload(cat, parsed, session.Options{Shared: shared})
						took[tn] = time.Since(start)
					}(tn)
				}
				ready.Wait()
				close(release)
				wg.Wait()
				var calls int64
				for tn := 0; tn < tenants; tn++ {
					if errs[tn] != nil {
						b.Fatal(errs[tn])
					}
					calls += sessions[tn].PlanCalls()
					latencies = append(latencies, took[tn])
				}
				// The acceptance bound: N concurrent cold boots together
				// pay at most 1.1× one cold boot.
				if float64(calls) > 1.1*float64(baseline) {
					b.Fatalf("%d tenants issued %d plan calls booting, want <= 1.1x the solo baseline %d",
						tenants, calls, baseline)
				}
				totalCalls += calls
				coalesced += shared.Stats().CoalescedPlanCalls
			}
			sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
			pct := func(p float64) float64 {
				i := int(p * float64(len(latencies)-1))
				return float64(latencies[i].Nanoseconds())
			}
			b.ReportMetric(pct(0.50), "p50-ns")
			b.ReportMetric(pct(0.99), "p99-ns")
			b.ReportMetric(float64(totalCalls)/float64(b.N), "plancalls_boot")
			b.ReportMetric(float64(baseline), "plancalls_solo_baseline")
			b.ReportMetric(float64(coalesced)/float64(b.N), "coalesced_per_run")
			b.ReportMetric(float64(tenants), "tenants_per_run")
		})
	}
}

// --- Recommend: budgeted anytime joint search ------------------------
// The unified recommender's headline: a budget-capped joint
// (index + partition) search must return a valid best-so-far design —
// it applies cleanly to a design session — with a monotonically
// non-increasing workload cost across rounds, while issuing strictly
// fewer optimizer calls than the unbudgeted run. Asserted, not just
// reported.

func BenchmarkRecommendAnytime(b *testing.B) {
	cat := planCatalog(b, 300000)
	all := workload.Queries()
	subset := []string{all[0], all[1], all[3], all[6], all[26], all[27]}
	queries, err := recommend.ParseWorkload(subset)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	assertMonotone := func(trace []float64, label string) {
		for i := 1; i < len(trace); i++ {
			if trace[i] > trace[i-1]+1e-9 {
				b.Fatalf("%s cost trace not monotone at round %d: %v", label, i, trace)
			}
		}
	}

	var full, capped *recommend.Result
	for i := 0; i < b.N; i++ {
		// Unbudgeted joint greedy: the convergence baseline.
		full, err = recommend.Recommend(ctx, cat, queries, recommend.Options{
			Objects: recommend.ObjectsJoint,
		})
		if err != nil {
			b.Fatal(err)
		}
		assertMonotone(full.CostTrace, "unbudgeted")
		if full.Evaluations < 2 {
			b.Fatalf("baseline search trivial: %d evaluations", full.Evaluations)
		}
		// Budget-capped anytime run at half the baseline's evaluations.
		budget := full.Evaluations / 2
		capped, err = recommend.Recommend(ctx, cat, queries, recommend.Options{
			Objects:  recommend.ObjectsJoint,
			Strategy: recommend.StrategyAnytime,
			Budget:   recommend.Budget{MaxEvaluations: budget},
		})
		if err != nil {
			b.Fatal(err)
		}
		if capped.Evaluations > budget {
			b.Fatalf("budget violated: %d evaluations > %d", capped.Evaluations, budget)
		}
		if capped.PlanCalls >= full.PlanCalls {
			b.Fatalf("budget saved nothing: %d optimizer calls vs %d unbudgeted",
				capped.PlanCalls, full.PlanCalls)
		}
		if capped.NewCost > capped.BaseCost+1e-6 {
			b.Fatalf("best-so-far design worse than doing nothing: %v > %v",
				capped.NewCost, capped.BaseCost)
		}
		assertMonotone(capped.CostTrace, "budgeted")
	}
	b.StopTimer()

	// Validity: the best-so-far design applies cleanly to a real
	// design session (structural validation + full re-pricing).
	s, err := session.New(cat, subset, session.Options{})
	if err != nil {
		b.Fatal(err)
	}
	rep, err := s.ApplyDesign(capped.Design)
	if err != nil {
		b.Fatalf("best-so-far design invalid: %v", err)
	}
	if rep.NewCost > capped.BaseCost+1e-6 {
		b.Fatalf("applied design re-priced worse than base: %v > %v", rep.NewCost, capped.BaseCost)
	}

	b.ReportMetric(full.Speedup(), "speedup_unbudgeted")
	b.ReportMetric(capped.Speedup(), "speedup_budgeted")
	b.ReportMetric(float64(full.Evaluations), "evals_unbudgeted")
	b.ReportMetric(float64(capped.Evaluations), "evals_budgeted")
	b.ReportMetric(float64(full.PlanCalls), "plancalls_unbudgeted")
	b.ReportMetric(float64(capped.PlanCalls), "plancalls_budgeted")
}

// --- Recommend: lazy greedy sweep -------------------------------------
// The search-pruning counters of the index-only greedy on the 30-query
// seed workload under the full optimizer: the lazy sweep (a gain cache
// over the queries naming each candidate's leading column, plus a
// CELF-style stale-bound heap) issues 906 plan calls where the
// exhaustive sweep, through the same memo, issues 20 944. The counters are
// deterministic, so the benchjson gate holds them to the tight
// tolerance. That the design is move-for-move identical to the
// exhaustive sweep's is asserted against the test oracle in
// internal/recommend (lazyseed_test.go), not here.

func BenchmarkRecommendLazyGreedy(b *testing.B) {
	cat := planCatalog(b, 300000)
	queries, err := recommend.ParseWorkload(workload.Queries())
	if err != nil {
		b.Fatal(err)
	}
	var lazy *recommend.Result
	for i := 0; i < b.N; i++ {
		lazy, err = recommend.Recommend(context.Background(), cat, queries, recommend.Options{
			Objects:  recommend.ObjectsIndexes,
			Strategy: recommend.StrategyGreedy,
			Backend:  costlab.BackendFull,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(lazy.PlanCalls), "plancalls_lazy")
	b.ReportMetric(float64(lazy.EvalsSkipped), "evals_skipped")
	b.ReportMetric(float64(lazy.JobsPruned), "jobs_pruned")
}

// --- Ingest: continuous tuning beats the cold advisor ----------------
// The continuous tuner's economic claim, asserted: when the streamed
// workload drifts, the drift-triggered re-search — warm-started from
// the memo that earlier tuning populated — must issue STRICTLY fewer
// optimizer calls than a cold recommend run over the same window, and
// its design must price the new window no worse than the stale one.

func BenchmarkContinuousTuning(b *testing.B) {
	cat := planCatalog(b, 100000)
	all := workload.Queries()
	ctx := context.Background()
	searchOpts := recommend.Options{Objects: recommend.ObjectsIndexes}

	var warmCalls, coldCalls, warmSkipped int64
	var lastDrift, lastSpeedup float64
	for i := 0; i < b.N; i++ {
		memo := costlab.NewMemo()
		// The workload the current design was tuned for, priced once —
		// the history that warms the memo.
		baseline, err := recommend.ParseWorkload([]string{all[0], all[1]})
		if err != nil {
			b.Fatal(err)
		}
		warm := searchOpts
		warm.Backend = costlab.BackendFull
		warm.Strategy = recommend.StrategyAnytime
		warm.Memo = memo
		if _, err := recommend.Recommend(ctx, cat, baseline, warm); err != nil {
			b.Fatal(err)
		}

		// Drifted stream: specobj traffic plus one original query.
		win := ingest.NewWindow(ingest.Options{})
		for _, q := range []string{all[0], all[15], all[17], all[15], all[17]} {
			if err := win.Ingest(q); err != nil {
				b.Fatal(err)
			}
		}
		tuner := ingest.NewTuner(ingest.TunerOptions{
			Catalog:   cat,
			Baseline:  baseline,
			Recommend: warm,
		})
		ret, drift, err := tuner.Check(ctx, win.Queries())
		if err != nil {
			b.Fatal(err)
		}
		if ret == nil {
			b.Fatalf("drift %v did not trigger a retune", drift)
		}
		if ret.Result.NewCost > ret.StaleCost+1e-6 {
			b.Fatalf("retuned design prices worse than stale on the window: %v > %v",
				ret.Result.NewCost, ret.StaleCost)
		}

		cold := searchOpts
		cold.Backend = costlab.BackendFull
		cold.Strategy = recommend.StrategyAnytime
		coldRes, err := recommend.Recommend(ctx, cat, win.Queries(), cold)
		if err != nil {
			b.Fatal(err)
		}
		if ret.Result.PlanCalls >= coldRes.PlanCalls {
			b.Fatalf("drift-triggered re-search issued %d optimizer calls, cold run %d — want strictly fewer",
				ret.Result.PlanCalls, coldRes.PlanCalls)
		}
		warmCalls, coldCalls = ret.Result.PlanCalls, coldRes.PlanCalls
		warmSkipped = ret.Result.EvalsSkipped
		lastDrift, lastSpeedup = ret.Drift, ret.Speedup()
	}
	b.ReportMetric(float64(warmCalls), "plancalls_warm")
	b.ReportMetric(float64(coldCalls), "plancalls_cold")
	b.ReportMetric(float64(warmSkipped), "evals_skipped_warm")
	b.ReportMetric(lastDrift, "drift")
	b.ReportMetric(lastSpeedup, "speedup_on_window")
}

// --- Durable: WAL append throughput + group-commit fsync latency ------
// The durability tier's hot path: one journaled record per
// acknowledged edit, so append throughput bounds the serve tier's
// durable edit rate. fsync=always measures the full
// durable-before-ack round trip (group commit: concurrent appenders
// share one fsync); fsync=off isolates the framing + buffered-write
// cost. Fsync latency percentiles are reported as p50-ns / p99-ns for
// information only: benchjson gates B/op, allocs/op and plan-call
// counters, never timings.

func BenchmarkWALAppend(b *testing.B) {
	payload := bytes.Repeat([]byte{'r'}, 256)
	type capture struct {
		mu     sync.Mutex
		fsyncs []time.Duration
	}
	open := func(b *testing.B, pol durable.Policy, c *capture) *durable.Store {
		store, err := durable.Open(b.TempDir(), durable.Options{
			Policy: pol,
			OnFsync: func(d time.Duration) {
				c.mu.Lock()
				c.fsyncs = append(c.fsyncs, d)
				c.mu.Unlock()
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		return store
	}
	report := func(b *testing.B, c *capture) {
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/sec")
		c.mu.Lock()
		defer c.mu.Unlock()
		if len(c.fsyncs) == 0 {
			return
		}
		sort.Slice(c.fsyncs, func(i, j int) bool { return c.fsyncs[i] < c.fsyncs[j] })
		pct := func(p float64) float64 {
			return float64(c.fsyncs[int(p*float64(len(c.fsyncs)-1))].Nanoseconds())
		}
		b.ReportMetric(pct(0.50), "p50-ns")
		b.ReportMetric(pct(0.99), "p99-ns")
		b.ReportMetric(float64(len(c.fsyncs)), "fsyncs")
	}
	b.Run("fsync=always/serial", func(b *testing.B) {
		var c capture
		store := open(b, durable.SyncAlways, &c)
		defer store.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := store.Append(payload); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		report(b, &c)
	})
	b.Run("fsync=always/group-commit", func(b *testing.B) {
		// GOMAXPROCS concurrent appenders: the batched group commit must
		// amortize one fsync over many appends, so fsyncs < b.N.
		var c capture
		store := open(b, durable.SyncAlways, &c)
		defer store.Close()
		b.SetParallelism(1)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := store.Append(payload); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		report(b, &c)
	})
	b.Run("fsync=off", func(b *testing.B) {
		var c capture
		store := open(b, durable.SyncOff, &c)
		defer store.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := store.Append(payload); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		report(b, &c)
	})
}

// --- Durable: boot recovery over a 30-session journal -----------------
// The crash-recovery cost the serve tier pays on boot: rebuild 30
// edited sessions (each a fresh session Restored to its snapshotted
// history) plus the shared memo from one data dir. The rebuilds must be
// served entirely by the restored shared-memo states — zero optimizer
// plan calls across all 30 — and each must come back with both edits
// undoable and nothing to redo, asserted every iteration.

func BenchmarkRecover(b *testing.B) {
	cat := planCatalog(b, 50000)
	wl := workload.Queries()[:6]
	dir := b.TempDir()
	const tenants = 30
	opts := serve.Options{MaxSessions: tenants + 2, DataDir: dir}
	names := make([]string, tenants)
	cols := [][]string{{"ra"}, {"dec"}, {"htmid"}, {"run", "camcol"}, {"field"}}

	seed, err := serve.NewManagerDurable(cat, wl, opts)
	if err != nil {
		b.Fatal(err)
	}
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%02d", i)
		if err := seed.Create(names[i], nil, 0); err != nil {
			b.Fatal(err)
		}
		if err := seed.Do(names[i], func(s *session.DesignSession) error {
			if _, err := s.AddIndex(inum.IndexSpec{Table: "photoobj", Columns: cols[i%len(cols)]}); err != nil {
				return err
			}
			_, err := s.AddIndex(inum.IndexSpec{Table: "photoobj", Columns: cols[(i+1)%len(cols)]})
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := seed.Close(); err != nil {
		b.Fatal(err)
	}

	var recovered int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := serve.NewManagerDurable(cat, wl, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		st := m.Stats()
		if st.Durability == nil || st.Durability.RecoverRecords == 0 {
			b.Fatal("recovery restored nothing")
		}
		recovered = st.Durability.RecoverRecords
		var calls int64
		for _, name := range names {
			if err := m.Do(name, func(s *session.DesignSession) error {
				calls += s.PlanCalls()
				if u, r := s.UndoDepth(), s.RedoDepth(); u != 2 || r != 0 {
					return fmt.Errorf("%s rebuilt with undo/redo depth %d/%d, want 2/0", name, u, r)
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		}
		if calls != 0 {
			b.Fatalf("replay consumed %d optimizer plan calls across %d sessions, want 0 (shared-memo-warm)",
				calls, tenants)
		}
		if err := m.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(recovered), "recover_records")
	b.ReportMetric(float64(tenants), "sessions_rebuilt")
}

// --- E6: what-if accuracy against the materialized design -----------
// Scenario 1's verification step: plan shape must match and the
// estimated cost must be close once the design is physically built.

func BenchmarkE6_WhatIfAccuracy(b *testing.B) {
	wl := []string{
		"SELECT objid FROM photoobj WHERE ra BETWEEN 100 AND 101",
		"SELECT objid, ra, dec FROM photoobj WHERE dec BETWEEN 0 AND 1",
		"SELECT objid FROM photoobj WHERE run = 93 AND camcol = 3",
	}
	var rep *session.ComparisonReport
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := populated(b, 20000)
		var rest []string
		for _, c := range db.Catalog.Table("photoobj").Columns {
			switch c.Name {
			case "objid", "ra", "dec":
			default:
				rest = append(rest, c.Name)
			}
		}
		d := design.Design{
			Indexes: []inum.IndexSpec{{Table: "photoobj", Columns: []string{"ra"}}},
			Partitions: []design.Partition{{
				Table: "photoobj", Fragments: [][]string{{"ra", "dec"}, rest},
			}},
		}
		b.StartTimer()
		var err error
		rep, err = session.MaterializeAndCompare(db, wl, d)
		if err != nil {
			b.Fatal(err)
		}
	}
	match := 0.0
	if rep.AllShapesMatch() {
		match = 1
	}
	b.ReportMetric(match, "shapes_match")
	b.ReportMetric(100*rep.MaxRelCostError(), "relerr_pct")
	if !rep.AllShapesMatch() || rep.MaxRelCostError() > 0.10 {
		b.Fatalf("what-if vs materialized: shapes match %v, cost error %.1f%% — want all shapes and <= 10%%",
			rep.AllShapesMatch(), 100*rep.MaxRelCostError())
	}
}

// --- E7: Equation-1 sizing vs. the zero-size assumption -------------
// Ablation of the design choice §2 criticizes in Monteiro et al.:
// assuming hypothetical indexes occupy zero space (a) misprices index
// scans and (b) lets the advisor blow through its storage budget. We
// measure both: the Equation-1 size error against a really-built
// B-Tree, and the budget overshoot an advisor incurs when it believes
// indexes are free.

func BenchmarkE7_ZeroSizeIndexAblation(b *testing.B) {
	db := populated(b, 40000)
	// (a) Size accuracy: Equation 1 vs. the built tree.
	ci := &sql.CreateIndex{Name: "e7_ra", Table: "photoobj", Columns: []string{"ra"}}
	built, err := db.BuildIndex(ci)
	if err != nil {
		b.Fatal(err)
	}
	if err := db.DropIndex("e7_ra"); err != nil {
		b.Fatal(err)
	}
	eq1Pages := catalog.IndexPages(db.Catalog.Table("photoobj"), []string{"ra"},
		db.Catalog.Table("photoobj").RowCount)
	sizeErr := relErr(float64(eq1Pages), float64(built.Pages))

	// (b) Budget overshoot under the zero-size assumption: run the
	// ILP with a tight budget, once with true sizes and once with the
	// budget constraint effectively disabled (what a zero-size model
	// believes), then measure the real size of the "free" selection.
	queries, err := workload.ParseQueries()
	if err != nil {
		b.Fatal(err)
	}
	queries = queries[:12]
	cat := db.Catalog
	const budget = 8 << 20
	var overshoot float64
	for i := 0; i < b.N; i++ {
		sized, err := recommend.Recommend(context.Background(), cat, queries, recommend.Options{
			Objects:       recommend.ObjectsIndexes,
			Strategy:      recommend.StrategyILP,
			StorageBudget: budget,
		})
		if err != nil {
			b.Fatal(err)
		}
		free, err := recommend.Recommend(context.Background(), cat, queries, recommend.Options{
			Objects:  recommend.ObjectsIndexes,
			Strategy: recommend.StrategyILP,
		}) // zero-size belief
		if err != nil {
			b.Fatal(err)
		}
		if sized.SizeBytes > budget {
			b.Fatalf("sized advisor violated its budget: %d > %d", sized.SizeBytes, budget)
		}
		overshoot = float64(free.SizeBytes) / float64(budget)
	}
	b.ReportMetric(100*sizeErr, "eq1_size_relerr_pct")
	b.ReportMetric(overshoot, "zerosize_budget_overshoot_x")
	b.ReportMetric(float64(built.Pages), "measured_pages")
	b.ReportMetric(float64(eq1Pages), "eq1_pages")
	if sizeErr > 0.10 {
		b.Fatalf("Equation-1 pages %d vs built %d: error %.1f%%, want <= 10%%", eq1Pages, built.Pages, 100*sizeErr)
	}
	if overshoot <= 1 {
		b.Fatalf("zero-size advisor used %.2fx the budget, want > 1x", overshoot)
	}
}

func relErr(a, truth float64) float64 {
	if truth == 0 {
		return 0
	}
	e := (a - truth) / truth
	if e < 0 {
		e = -e
	}
	return e
}

// --- E8: multicolumn vs. single-column candidates -------------------
// Ablation of the COLT comparison (§2): PARINDA suggests multicolumn
// indexes; COLT is restricted to single columns.

func BenchmarkE8_MulticolumnAblation(b *testing.B) {
	cat := planCatalog(b, 300000)
	// Queries whose best index is genuinely multicolumn.
	queries, err := recommend.ParseWorkload([]string{
		"SELECT objid FROM photoobj WHERE run = 93 AND camcol = 3 AND field BETWEEN 100 AND 120",
		"SELECT objid FROM photoobj WHERE flags > 1000000000 AND mode = 1 AND status = 42",
		"SELECT objid FROM photoobj WHERE ra BETWEEN 10 AND 10.5 AND type = 6",
	})
	if err != nil {
		b.Fatal(err)
	}
	var multi, single float64 // speedups; zero when filtered out
	b.Run("Multicolumn", func(b *testing.B) {
		var res *recommend.Result
		for i := 0; i < b.N; i++ {
			res, err = recommend.Recommend(context.Background(), cat, queries, recommend.Options{
				Objects:  recommend.ObjectsIndexes,
				Strategy: recommend.StrategyILP,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(res.Speedup(), "speedup")
		b.ReportMetric(100*res.AvgBenefit(), "benefit_pct")
		multi = res.Speedup()
	})
	b.Run("SingleColumnOnly", func(b *testing.B) {
		var res *recommend.Result
		for i := 0; i < b.N; i++ {
			res, err = recommend.Recommend(context.Background(), cat, queries, recommend.Options{
				Objects:          recommend.ObjectsIndexes,
				Strategy:         recommend.StrategyILP,
				SingleColumnOnly: true,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(res.Speedup(), "speedup")
		b.ReportMetric(100*res.AvgBenefit(), "benefit_pct")
		single = res.Speedup()
	})
	if multi > 0 && single > 0 && multi <= single {
		b.Fatalf("multicolumn speedup %.2fx, single-column %.2fx — want multicolumn higher", multi, single)
	}
}
