package integration

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/design"
	"repro/internal/design/designtest"
	"repro/internal/inum"
	"repro/internal/optimizer"
	"repro/internal/rewrite"
	"repro/internal/sql"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/plan_golden.txt from the current planner")

const planGoldenPath = "testdata/plan_golden.txt"

// goldenStatements is the statement set the planner golden covers: the
// 30 seed queries, 30 template instances, and edge shapes — a
// 70-conjunct restriction, repeated equalities on one column, a
// constant clause, a three-way join, a cartesian product, unqualified
// join columns, OR / NOT / IS NULL restrictions.
func goldenStatements() []string {
	out := append(workload.Queries(), workload.GenerateInstances(30, 1)...)
	return append(out,
		wideRestriction(70),
		`SELECT objid FROM photoobj WHERE ra = 10 AND ra = 11 AND dec IN (1, 2, 3) AND r BETWEEN 15 AND 16 AND 1 = 1`,
		`SELECT p.objid, s.z FROM photoobj p, specobj s, neighbors n WHERE p.objid = s.bestobjid AND n.objid = p.objid AND s.z < 0.1 AND n.distance < 0.01 AND p.ra > 100 AND p.dec < 10`,
		`SELECT s.plate, x.mjd FROM specobj s, platex x WHERE s.plate = x.plate AND x.quality = 1`,
		`SELECT f.run, x.nexp FROM field f, platex x WHERE f.quality = 1 AND x.nexp > 8`,
		`SELECT bestobjid, objid FROM photoobj, specobj WHERE objid = bestobjid AND ra < 5 AND zconf > 0.5`,
		`SELECT objid FROM photoobj WHERE (ra < 10 OR dec > 80) AND NOT type = 3 AND flags IS NOT NULL AND run >= 90 AND run <= 95`,
	)
}

// wideRestriction is a single-table statement with n restriction
// conjuncts cycling over photoobj columns and over the sargable shapes
// (range, BETWEEN, IN, equality), several per column.
func wideRestriction(n int) string {
	cols := []string{"ra", "dec", "r", "g", "u", "type", "run", "camcol", "field", "mjd",
		"rowc", "colc", "htmid", "flags", "mode", "status", "airmass_r", "sky_r"}
	conds := make([]string, n)
	for i := range conds {
		c := cols[i%len(cols)]
		switch i % 5 {
		case 0:
			conds[i] = fmt.Sprintf("%s > %d", c, i)
		case 1:
			conds[i] = fmt.Sprintf("%s < %d", c, 1000+i)
		case 2:
			conds[i] = fmt.Sprintf("%s BETWEEN %d AND %d", c, i, 2000+i)
		case 3:
			conds[i] = fmt.Sprintf("%s IN (%d, %d)", c, i, i+1)
		default:
			conds[i] = fmt.Sprintf("%s = %d", c, i)
		}
	}
	return "SELECT objid FROM photoobj WHERE " + strings.Join(conds, " AND ")
}

// goldenColumns are the columns the golden statements restrict or join
// on, per table: index-only designs draw their indexes from these so
// index scans, bitmap ANDs and indexed nested-loop inners all occur.
var goldenColumns = map[string][]string{
	"photoobj":  {"objid", "ra", "dec", "r", "g", "u", "type", "run", "camcol", "field", "mjd", "rowc", "colc", "htmid", "flags", "mode", "status", "airmass_r", "sky_r", "extinction_r", "petrorad_r"},
	"specobj":   {"bestobjid", "z", "specclass", "zconf", "velocity", "zstatus", "zerr", "plate", "sn_median"},
	"neighbors": {"objid", "neighborobjid", "distance", "neighbortype"},
	"field":     {"run", "camcol", "field", "quality", "ra", "dec"},
	"platex":    {"plate", "quality", "nexp", "mjd"},
}

// indexOnlyDesign draws two to eight distinct indexes of one to three
// columns over goldenColumns.
func indexOnlyDesign(rng *rand.Rand) design.Design {
	tables := []string{"photoobj", "specobj", "neighbors", "field", "platex"}
	var d design.Design
	seen := map[string]bool{}
	for n := 2 + rng.Intn(7); len(d.Indexes) < n; {
		table := tables[rng.Intn(len(tables))]
		if rng.Intn(2) == 0 {
			table = "photoobj"
		}
		cols := goldenColumns[table]
		var pick []string
		for _, i := range rng.Perm(len(cols))[:1+rng.Intn(3)] {
			pick = append(pick, cols[i])
		}
		spec := inum.IndexSpec{Table: table, Columns: pick}
		if !seen[spec.Key()] {
			seen[spec.Key()] = true
			d.Indexes = append(d.Indexes, spec)
		}
	}
	return d
}

// goldenDesigns is the golden's design sequence: 120 steps of the
// seeded design walk (partitions, fragment indexes, repartitions) and
// 120 index-only designs, each with nested loops off one time in four.
func goldenDesigns(cat *catalog.Catalog) ([]design.Design, []bool) {
	g := designtest.New(11, cat)
	var ds []design.Design
	var nls []bool
	d := g.Design()
	for step := 0; step < 120; step++ {
		if step > 0 {
			d = g.Mutate(d)
		}
		ds, nls = append(ds, d), append(nls, g.Rng.Intn(4) != 0)
	}
	for step := 0; step < 120; step++ {
		ds, nls = append(ds, indexOnlyDesign(g.Rng)), append(nls, g.Rng.Intn(4) != 0)
	}
	return ds, nls
}

// planRecord plans stmt, rewritten onto rw's fragments when rw is not
// nil, on h's session and renders the outcome for comparison: the
// cost's float bits, the EXPLAIN text with what-if index names replaced
// by design keys and the design keys of the indexes the plan uses — or
// the rewrite or planning error.
func planRecord(h *design.Held, rw *rewrite.Rewriter, stmt *sql.Select) string {
	if rw != nil {
		var err error
		if stmt, err = rw.Rewrite(stmt); err != nil {
			return "rewrite error: " + err.Error()
		}
	}
	plan, err := h.Session().Plan(stmt)
	if err != nil {
		return "plan error: " + err.Error()
	}
	text := optimizer.Explain(plan)
	var names []string
	keyOf := map[string]string{}
	for _, spec := range h.Design().Indexes {
		if name := h.Name(spec.Key()); name != "" {
			names = append(names, name)
			keyOf[name] = spec.Key()
		}
	}
	// Longest first: a generated name can prefix another's.
	slices.SortFunc(names, func(a, b string) int { return len(b) - len(a) })
	for _, name := range names {
		text = strings.ReplaceAll(text, name, "{"+keyOf[name]+"}")
	}
	return fmt.Sprintf("cost=%016x\n%sused=%s", math.Float64bits(plan.TotalCost), text, strings.Join(h.UsedKeys(plan), " "))
}

func digest(record string) string {
	sum := sha256.Sum256([]byte(record))
	return hex.EncodeToString(sum[:4])
}

// TestPlannerGolden pins the optimizer's output, bit for bit: one held
// what-if session walks 240 seeded designs and plans every golden
// statement (rewritten onto the design's fragments) under each, and
// every (design, statement) record — cost bits, EXPLAIN text with
// design keys, indexes used, or the planning error — must digest to
// the value in testdata/plan_golden.txt. Regenerate with -update only
// when a plan is meant to change.
func TestPlannerGolden(t *testing.T) {
	cat, err := workload.BuildCatalog(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var stmts []*sql.Select
	for _, q := range goldenStatements() {
		stmts = append(stmts, parse(t, q))
	}
	designs, nls := goldenDesigns(cat)
	h := design.NewHeld(cat)
	lines := []string{"# design nestloop digest-per-statement (TestPlannerGolden; regenerate with -update)"}
	records := make([][]string, len(designs))
	for di, d := range designs {
		if _, _, err := h.Move(d, nls[di]); err != nil {
			t.Fatalf("design %d: %v\n %+v", di, err, d)
		}
		rw := design.Rewriter(cat, d)
		line := fmt.Sprintf("d%03d nl=%v", di, nls[di])
		for _, stmt := range stmts {
			rec := planRecord(h, rw, stmt)
			records[di] = append(records[di], rec)
			line += " " + digest(rec)
		}
		lines = append(lines, line)
	}
	got := strings.Join(lines, "\n") + "\n"

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(planGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(planGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(planGoldenPath)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(blob), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("golden has %d lines, the run produced %d", len(want), len(lines))
	}
	mismatches := 0
	for di := range designs {
		gotF, wantF := strings.Fields(lines[di+1]), strings.Fields(want[di+1])
		if len(gotF) != len(wantF) {
			t.Fatalf("design %d: golden has %d fields, the run produced %d", di, len(wantF), len(gotF))
		}
		for qi := range stmts {
			if gotF[qi+2] == wantF[qi+2] {
				continue
			}
			if mismatches++; mismatches <= 5 {
				t.Errorf("design %d (nl=%v) statement %d: digest %s, golden %s\n design %+v\n %s\n record:\n%s",
					di, nls[di], qi, gotF[qi+2], wantF[qi+2], designs[di], sql.PrintSelect(stmts[qi]), records[di][qi])
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d (design, statement) records differ from the golden", mismatches)
	}
	cover := map[string]int{}
	for _, recs := range records {
		for _, rec := range recs {
			for _, shape := range []string{"Index Scan", "Bitmap Heap Scan", "indexed inner", "Hash Join", "Merge Join", "error"} {
				if strings.Contains(rec, shape) {
					cover[shape]++
				}
			}
		}
	}
	t.Logf("%d designs × %d statements match the golden; records by shape %v", len(designs), len(stmts), cover)
	for shape, n := range cover {
		if n < 20 && shape != "error" {
			t.Errorf("too little coverage: %d records with %q", n, shape)
		}
	}
}
