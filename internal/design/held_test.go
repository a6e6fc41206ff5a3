package design_test

import (
	"context"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/costlab"
	"repro/internal/design"
	"repro/internal/design/designtest"
	"repro/internal/inum"
	"repro/internal/optimizer"
	"repro/internal/recommend"
	"repro/internal/sql"
	"repro/internal/whatif"
	"repro/internal/workload"
)

func seedQueries(t *testing.T) []recommend.Query {
	t.Helper()
	qs, err := workload.ParseQueries()
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

// priced is one query's price on a what-if session: its cost and the
// design keys of the indexes its plan uses, or the planning error.
type priced struct {
	cost float64
	used string
	err  string
}

// freshPrices installs d into a fresh what-if session and prices every
// query that rewrites onto d (nil entries for those that do not).
func freshPrices(t *testing.T, cat *catalog.Catalog, d design.Design, nl bool, stmts []*sql.Select) []*priced {
	t.Helper()
	ws, created := installed(t, cat, d, nl)
	return pricesOn(ws, liveNames(d, created), stmts)
}

// pricesOn plans stmts on ws and maps each plan's indexes back to design
// keys through names (index key → live what-if name).
func pricesOn(ws *whatif.Session, names map[string]string, stmts []*sql.Select) []*priced {
	keyOf := map[string]string{}
	for k, n := range names {
		keyOf[n] = k
	}
	out := make([]*priced, len(stmts))
	for i, stmt := range stmts {
		if stmt == nil {
			continue
		}
		plan, err := ws.Plan(stmt)
		if err != nil {
			out[i] = &priced{err: err.Error()}
			continue
		}
		out[i] = &priced{cost: plan.TotalCost, used: usedKeys(plan, keyOf)}
	}
	return out
}

func usedKeys(plan *optimizer.Plan, keyOf map[string]string) string {
	var used []string
	for _, name := range plan.IndexesUsed() {
		if k, ok := keyOf[name]; ok {
			used = append(used, k)
		}
	}
	sort.Strings(used)
	return strings.Join(used, " ")
}

// targets rewrites the queries onto d's fragments; a query d's
// fragments cannot cover is nil.
func targets(cat *catalog.Catalog, d design.Design, queries []recommend.Query) []*sql.Select {
	rw := design.Rewriter(cat, d)
	out := make([]*sql.Select, len(queries))
	for i, q := range queries {
		out[i] = q.Stmt
		if rw != nil {
			rq, err := rw.Rewrite(q.Stmt)
			if err != nil {
				out[i] = nil
				continue
			}
			out[i] = rq
		}
	}
	return out
}

// TestHeldPricerMatchesFreshInstall: one pricer session, driven by diff
// through 200 seeded designs — index adds and drops, fragment indexes,
// repartitions, nested loops off — prices every seed query exactly as a
// fresh Install of the design it holds: same cost, same design keys
// behind the plan's indexes.
func TestHeldPricerMatchesFreshInstall(t *testing.T) {
	cat := seedCatalog(t)
	queries := seedQueries(t)
	full := costlab.NewFull(cat)
	g := designtest.New(3, cat)
	d := g.Design()
	compared, onFragments, nlOff := 0, 0, 0
	for step := 0; step < 200; step++ {
		if step > 0 {
			d = g.Mutate(d)
		}
		nl := g.Rng.Intn(4) != 0
		stmts := targets(cat, d, queries)
		var idx []int
		var live []*sql.Select
		for i, s := range stmts {
			if s != nil {
				idx, live = append(idx, i), append(live, s)
			}
		}
		costs, used, err := full.PriceAll(context.Background(), costlab.Target{Design: d, NestLoop: nl}, live, 1)
		if err != nil {
			t.Fatalf("step %d: %v\n design %+v", step, err, d)
		}
		want := freshPrices(t, cat, d, nl, stmts)
		for j, qi := range idx {
			w := want[qi]
			if w.err != "" {
				t.Fatalf("step %d Q%d: fresh install failed to plan: %s", step, qi+1, w.err)
			}
			if gotUsed := strings.Join(used[j], " "); costs[j] != w.cost || gotUsed != w.used {
				t.Fatalf("step %d Q%d: held session prices %v using [%s], fresh install %v using [%s]\n design %+v nl=%v",
					step, qi+1, costs[j], gotUsed, w.cost, w.used, d, nl)
			}
			compared++
			if stmts[qi] != queries[qi].Stmt {
				onFragments++
			}
		}
		if !nl {
			nlOff++
		}
	}
	if full.Sessions() != 1 {
		t.Errorf("pricer created %d sessions, want the one held session", full.Sessions())
	}
	t.Logf("%d comparisons, %d on fragments, %d steps with nested loops off", compared, onFragments, nlOff)
	if onFragments < 200 || nlOff < 20 {
		t.Errorf("too little coverage")
	}
}

// TestCreationOrderDoesNotChangePlans: two sessions holding one design
// whose indexes share a table and a leading column at different widths
// — created in opposite orders, so with opposite generated-name orders
// — agree on the signature, and on every seed query's cost and the
// design keys behind its plan's indexes.
func TestCreationOrderDoesNotChangePlans(t *testing.T) {
	cat, err := workload.BuildCatalog(50000)
	if err != nil {
		t.Fatal(err)
	}
	queries := seedQueries(t)
	d := design.Design{Indexes: []inum.IndexSpec{
		{Table: "photoobj", Columns: []string{"objid"}},
		{Table: "photoobj", Columns: []string{"objid", "ra", "dec", "type", "u", "g", "r", "i", "z"}},
		{Table: "specobj", Columns: []string{"bestobjid"}},
		{Table: "specobj", Columns: []string{"bestobjid", "z", "zerr", "plate", "mjd"}},
		{Table: "photoobj", Columns: []string{"ra"}},
		{Table: "photoobj", Columns: []string{"ra", "dec", "u", "g", "r"}},
	}}
	reversed := d.Clone()
	slices.Reverse(reversed.Indexes)
	stmts := targets(cat, d, queries)
	a, createdA := installed(t, cat, d, true)
	b, createdB := installed(t, cat, reversed, true)
	if a.Signature() != b.Signature() {
		t.Fatalf("signatures differ: %q vs %q", a.Signature(), b.Signature())
	}
	pa := pricesOn(a, liveNames(d, createdA), stmts)
	pb := pricesOn(b, liveNames(reversed, createdB), stmts)
	for qi := range queries {
		if *pa[qi] != *pb[qi] {
			t.Errorf("Q%d: created in order prices %+v, reversed %+v", qi+1, *pa[qi], *pb[qi])
		}
	}
}
