package design_test

import (
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"repro/internal/costlab"
	"repro/internal/design"
	"repro/internal/design/designtest"
	"repro/internal/session"
	"repro/internal/sql"
)

// TestFootprintIndependence: a query's full-optimizer cost, and the
// design indexes its plan uses, depend only on the design as the query
// sees it — design.ProjectedKey — which is what every pricing memo
// keys by. Over a seeded walk of random designs (partitionings,
// fragment indexes, nested loops off), every (query, projected key)
// priced twice must price the same, through a fresh DesignSession and
// through Full.PriceAll alike. A failure prints both designs as JSON,
// replayable through DesignSession.ApplyDesign and SetNestLoop.
func TestFootprintIndependence(t *testing.T) {
	const seed = 4
	cat := seedCatalog(t)
	queries := seedQueries(t)
	full := costlab.NewFull(cat)
	g := designtest.New(seed, cat)

	type price struct {
		cost       float64
		used, via  string
		step       int
		design     design.Design
		nestLoop   bool
		fragmented bool
	}
	first := map[string]price{} // "qi|projected key" → first price seen
	replay := func(p price) string {
		blob, _ := json.Marshal(p.design)
		return string(blob) + " nestLoop=" + strconv.FormatBool(p.nestLoop)
	}
	compared, projected, fragments, nlOff := 0, 0, 0, 0
	check := func(qi int, key string, got price) {
		k := strconv.Itoa(qi) + "|" + key
		want, ok := first[k]
		if !ok {
			first[k] = got
			return
		}
		if got.cost != want.cost || got.used != want.used {
			t.Fatalf("seed %d Q%d, projected key %q:\n %s at step %d prices %v using [%s] under %s\n %s at step %d prices %v using [%s] under %s",
				seed, qi+1, key, got.via, got.step, got.cost, got.used, replay(got), want.via, want.step, want.cost, want.used, replay(want))
		}
		compared++
		if key != "" {
			projected++
		}
		if got.fragmented {
			fragments++
		}
		if !got.nestLoop || !want.nestLoop {
			nlOff++
		}
	}

	d := g.Design()
	for step := 0; step < 120; step++ {
		if step > 0 {
			d = g.Mutate(d)
		}
		nl := g.Rng.Intn(3) != 0
		parents, err := design.Validate(cat, d)
		if err != nil {
			t.Fatal(err)
		}
		stmts := targets(cat, d, queries)
		var idx []int
		var live []*sql.Select
		var workload []string
		for i, s := range stmts {
			if s != nil {
				idx, live, workload = append(idx, i), append(live, s), append(workload, queries[i].SQL)
			}
		}
		costs, used, err := full.PriceAll(context.Background(), costlab.Target{Design: d, NestLoop: nl}, live, 1)
		if err != nil {
			t.Fatalf("seed %d step %d: %v", seed, step, err)
		}
		s, err := session.New(cat, workload, session.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.ApplyDesign(d); err != nil {
			t.Fatalf("seed %d step %d: %v", seed, step, err)
		}
		rep, err := s.SetNestLoop(nl)
		if err != nil {
			t.Fatal(err)
		}
		for j, qi := range idx {
			key := design.ProjectedKey(d, parents, sql.FootprintOf(queries[qi].Stmt), nl)
			p := price{step: step, design: d, nestLoop: nl, fragmented: stmts[qi] != queries[qi].Stmt}
			p.cost, p.used, p.via = costs[j], strings.Join(used[j], " "), "Full.PriceAll"
			check(qi, key, p)
			p.cost, p.used, p.via = rep.PerQuery[j].NewCost, strings.Join(rep.PerQuery[j].IndexesUsed, " "), "DesignSession"
			check(qi, key, p)
		}
	}
	t.Logf("%d comparisons: %d under a non-empty projection, %d on fragments, %d with nested loops off", compared, projected, fragments, nlOff)
	if projected < 500 || fragments < 200 || nlOff < 200 {
		t.Errorf("too little coverage")
	}
}
