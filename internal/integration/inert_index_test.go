package integration

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/costlab"
	"repro/internal/design"
	"repro/internal/design/designtest"
	"repro/internal/inum"
	"repro/internal/sql"
	"repro/internal/workload"
)

// inertSpecs draws up to perTable index specs on each unpartitioned
// table fp reads whose leading column fp never names. Half of them
// carry a second column the statement does name, so an index usable
// only past its leading column is in the draw. Keys in have are
// skipped.
func inertSpecs(rng *rand.Rand, cat *catalog.Catalog, fp *sql.Footprint, partitioned, have map[string]bool, perTable int) []inum.IndexSpec {
	var out []inum.IndexSpec
	for _, t := range cat.Tables() {
		if !fp.TouchesTable(t.Name) || partitioned[t.Name] {
			continue
		}
		var unnamed, named []string
		for _, c := range t.Columns {
			if fp.Columns[t.Name][c.Name] {
				named = append(named, c.Name)
			} else {
				unnamed = append(unnamed, c.Name)
			}
		}
		for i := 0; i < perTable && len(unnamed) > 0; i++ {
			spec := inum.IndexSpec{Table: t.Name, Columns: []string{unnamed[rng.Intn(len(unnamed))]}}
			if len(named) > 0 && rng.Intn(2) == 0 {
				spec.Columns = append(spec.Columns, named[rng.Intn(len(named))])
			}
			if !have[spec.Key()] {
				have[spec.Key()] = true
				out = append(out, spec)
			}
		}
	}
	return out
}

// TestInertIndexInvariance: an index whose leading column a statement
// never names is inert for it — the optimizer reaches an index only
// through its leading column (matcher.match in optimizer/scan.go,
// indexProbeCost in optimizer/join.go), so every backend prices the
// statement to the same float bits with or without it. The lazy
// scorer's exact-invariance layer (recommend/lazy.go, usableBy) never
// prices such a (candidate, query) pair and relies on this.
//
// Over a seeded walk of designs (partitionings and fragment indexes
// included), each of the 30 seed queries and 30 template instances is
// priced with and without each drawn inert spec on a table it reads:
// through EvaluateDelta on Full, so partitioned designs are rewritten
// onto their fragments, and on INUM under the design's base-table
// indexes. A failure prints the statement, the design as JSON and the
// spec.
func TestInertIndexInvariance(t *testing.T) {
	const (
		seed     = 21
		designs  = 120
		perTable = 6
	)
	cat, err := workload.BuildCatalog(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var stmts []*sql.Select
	var foot []*sql.Footprint
	for _, q := range append(workload.Queries(), workload.GenerateInstances(30, 1)...) {
		s := parse(t, q)
		stmts, foot = append(stmts, s), append(foot, sql.FootprintOf(s))
	}
	ctx := context.Background()
	full, in := costlab.NewFull(cat), costlab.NewINUM(cat)
	g := designtest.New(seed, cat)

	// pair is one statement priced under a design and under the design
	// plus an inert spec.
	type pair struct {
		stmt int
		spec inum.IndexSpec
	}
	// check prices jobs[2k] and jobs[2k+1] for pairs[k] through est and
	// demands bit-identical costs.
	check := func(backend string, est costlab.CostEstimator, d design.Design, pairs []pair, jobs []costlab.Job) {
		t.Helper()
		costs, _, err := costlab.EvaluateDelta(ctx, est, jobs, costlab.NewMemo(), 1)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		for k, p := range pairs {
			without, with := costs[2*k], costs[2*k+1]
			if math.Float64bits(without) != math.Float64bits(with) {
				blob, _ := json.Marshal(d)
				t.Fatalf("%s: an inert index changed a price\n statement: %s\n design: %s\n spec: %s\n without %v, with %v",
					backend, sql.PrintSelect(stmts[p.stmt]), blob, p.spec.Key(), without, with)
			}
		}
	}

	fullPairs, inumPairs, onFragments, pastLeading, joins := 0, 0, 0, 0, 0
	d := g.Design()
	for step := 0; step < designs; step++ {
		if step > 0 {
			d = g.Mutate(d)
		}
		rw := design.Rewriter(cat, d)
		partitioned := map[string]bool{}
		for _, p := range d.Partitions {
			partitioned[p.Table] = true
		}
		var baseIndexes inum.Config // the design's indexes on base tables: what INUM prices
		have := map[string]bool{}
		for _, spec := range d.Indexes {
			have[spec.Key()] = true
			if cat.Table(spec.Table) != nil {
				baseIndexes = append(baseIndexes, spec)
			}
		}
		with := func(cfg inum.Config, spec inum.IndexSpec) inum.Config {
			return append(append(inum.Config(nil), cfg...), spec)
		}
		var fullP, inumP []pair
		var fullJobs, inumJobs []costlab.Job
		for i, s := range stmts {
			covered := true
			if rw != nil {
				_, err := rw.Rewrite(s)
				covered = err == nil // else the partitioning cannot price s
			}
			fragmented := false
			for t := range partitioned {
				fragmented = fragmented || foot[i].TouchesTable(t)
			}
			for _, spec := range inertSpecs(g.Rng, cat, foot[i], partitioned, copyKeys(have), perTable) {
				if covered {
					fullP = append(fullP, pair{i, spec})
					fullJobs = append(fullJobs,
						costlab.Job{Stmt: s, Config: d.Indexes, Partitions: d.Partitions},
						costlab.Job{Stmt: s, Config: with(d.Indexes, spec), Partitions: d.Partitions})
					if fragmented {
						onFragments++
					}
					if len(spec.Columns) > 1 {
						pastLeading++
					}
					if foot[i].Relations > 1 {
						joins++
					}
				}
				inumP = append(inumP, pair{i, spec})
				inumJobs = append(inumJobs,
					costlab.Job{Stmt: s, Config: baseIndexes},
					costlab.Job{Stmt: s, Config: with(baseIndexes, spec)})
			}
		}
		check("Full", full, d, fullP, fullJobs)
		check("INUM", in, design.Design{Indexes: baseIndexes}, inumP, inumJobs)
		fullPairs += len(fullP)
		inumPairs += len(inumP)
	}
	t.Logf("%d Full pairs (%d on rewritten statements, %d on joins, %d with a named second column), %d INUM pairs: all bit-identical",
		fullPairs, onFragments, joins, pastLeading, inumPairs)
	if fullPairs < 20000 || inumPairs < 20000 || onFragments < 1000 || joins < 5000 || pastLeading < 5000 {
		t.Errorf("too little coverage")
	}
}

func copyKeys(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
