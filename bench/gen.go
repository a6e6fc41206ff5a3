package main

// Seeded input generation. Everything the server ever receives — the
// workload queries, the candidate index and partition spaces, the op
// streams, the Poisson arrival gaps and the zipf tenant picks — is
// derived here from -seed, so the same seed replays the same bytes.
// The generator keeps a model of each tenant's design and undo/redo
// stacks and only emits ops that are valid against it: a benchmark
// run contains no request the server should refuse, so every non-2xx
// answer is a failure.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"
)

// table is one relation of the server's built-in SDSS-like catalog.
// The first column is the leading primary-key column.
type table struct {
	name string
	cols []string
}

var schema = []table{
	{"photoobj", strings.Fields(`objid ra dec run rerun camcol field obj type status flags mode
		u g r i z err_u err_g err_r err_i err_z
		psfmag_u psfmag_g psfmag_r psfmag_i psfmag_z
		petromag_u petromag_g petromag_r petromag_i petromag_z
		petrorad_r extinction_r rowc colc sky_r airmass_r mjd htmid`)},
	{"specobj", strings.Fields(`specobjid bestobjid z zerr zconf zstatus specclass plate mjd fiberid sn_median velocity`)},
	{"neighbors", strings.Fields(`objid neighborobjid distance neighbortype mode`)},
	{"field", strings.Fields(`fieldid run camcol field ra dec nobjects quality mjd`)},
	{"platex", strings.Fields(`plateid plate mjd ra dec nexp quality`)},
}

// tableWeights skews object picks toward the tables the workload
// reads most, so most edits invalidate a real share of the queries.
var tableWeights = []int{55, 15, 15, 10, 5}

// Op kinds.
const (
	opAddIndex      = "add_index"
	opDropIndex     = "drop_index"
	opAddPartition  = "add_partition"
	opDropPartition = "drop_partition"
	opUndo          = "undo"
	opRedo          = "redo"
	opCosts         = "costs"
	opExplain       = "explain"
	opIngest        = "ingest"
	opDropSession   = "drop_session"
	opCreateSession = "create_session"
	opClearDesign   = "clear_design" // POST the empty design
)

// Op is one generated request. The exported fields are the dump
// format (bench/out/ops-<workload>.jsonl) and the ladder's input; the
// HTTP rendering is derived from them by render.
type Op struct {
	Tenant    int        `json:"tenant"`
	Kind      string     `json:"kind"`
	Table     string     `json:"table,omitempty"`
	Columns   []string   `json:"columns,omitempty"`
	Fragments [][]string `json:"fragments,omitempty"`
	SQL       string     `json:"sql,omitempty"`
	Query     int        `json:"query,omitempty"`
	// Pos is the op's position inside its pass (closed-loop streams):
	// the key under which recurring answers are compared.
	Pos int `json:"pos"`
	// Objects is the design size the tenant holds after this op
	// succeeds, per the generator's model; the client checks the
	// server's answer against it.
	Objects int `json:"objects"`

	method, path string
	body         []byte
	design       []object // model design after the op (edits only)
}

func tenantName(t int) string { return fmt.Sprintf("t%d", t) }

// render fills the HTTP form of the op. workload is the session's
// query list for create_session (nil = the server's built-in one).
func (o *Op) render(workload []string) {
	base := "/sessions/" + tenantName(o.Tenant)
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // maps of strings and slices cannot fail
		}
		return b
	}
	switch o.Kind {
	case opAddIndex:
		o.method, o.path = "POST", base+"/indexes"
		o.body = mustJSON(map[string]any{"table": o.Table, "columns": o.Columns})
	case opDropIndex:
		o.method, o.path = "DELETE", base+"/indexes?key="+url.QueryEscape(indexKey(o.Table, o.Columns))
	case opAddPartition:
		o.method, o.path = "POST", base+"/partitions"
		o.body = mustJSON(map[string]any{"table": o.Table, "fragments": o.Fragments})
	case opDropPartition:
		o.method, o.path = "DELETE", base+"/partitions/"+o.Table
	case opUndo, opRedo:
		o.method, o.path = "POST", base+"/"+o.Kind
	case opCosts:
		o.method, o.path = "GET", base+"/costs"
	case opExplain:
		o.method, o.path = "GET", fmt.Sprintf("%s/explain/%d", base, o.Query)
	case opIngest:
		o.method, o.path = "POST", base+"/ingest"
		o.body = mustJSON(map[string]any{"sql": o.SQL})
	case opClearDesign:
		o.method, o.path, o.body = "POST", base+"/design", []byte("{}")
	case opDropSession:
		o.method, o.path = "DELETE", base
	case opCreateSession:
		o.method, o.path = "POST", "/sessions"
		req := map[string]any{"name": tenantName(o.Tenant)}
		if workload != nil {
			req["workload"] = workload
		}
		o.body = mustJSON(req)
	default:
		panic("bench: unknown op kind " + o.Kind)
	}
}

func indexKey(table string, cols []string) string {
	return table + "(" + strings.Join(cols, ",") + ")"
}

// isEdit reports whether the op changes the design (and so pushes or
// pops history, and is journaled under -data-dir).
func (o *Op) isEdit() bool {
	switch o.Kind {
	case opAddIndex, opDropIndex, opAddPartition, opDropPartition, opUndo, opRedo, opClearDesign:
		return true
	}
	return false
}

// subSeed derives an independent stream seed from the run seed and a
// label (splitmix64 over an FNV-style fold), so adding a stream never
// shifts another stream's draws.
func subSeed(seed int64, label string) int64 {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(label) {
		x = (x ^ uint64(c)) * 0x100000001b3
	}
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64(x ^ (x >> 31))
}

func newRand(seed int64, label string) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, label)))
}

// ---- workload queries ------------------------------------------------

// queryTemplates are parameterized shapes of the demonstration
// workload's query classes: single-table range and equality cuts,
// 2-way and 3-way joins, and aggregates. The seed moves each range
// but never changes its width or its categorical constants, and the
// catalog's statistics are uniform, so every instance of a template is
// as selective as any other: the work a generated workload asks for
// does not depend on the seed.
var queryTemplates = []func(r *rand.Rand, k int) string{
	func(r *rand.Rand, k int) string {
		ra, dec := r.Float64()*359, r.Float64()*170-85
		return fmt.Sprintf("SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN %.3f AND %.3f AND dec BETWEEN %.3f AND %.3f",
			ra, ra+0.5, dec, dec+0.5)
	},
	func(r *rand.Rand, k int) string {
		lo := r.Intn(900)
		return fmt.Sprintf("SELECT objid FROM photoobj WHERE run = %d AND camcol = %d AND field BETWEEN %d AND %d",
			r.Intn(250)*3, 1+k%6, lo, lo+20)
	},
	func(r *rand.Rand, k int) string {
		band := []string{"u", "g", "r", "i", "z"}[k%5]
		m := 12 + r.Float64()*15
		return fmt.Sprintf("SELECT objid, %s FROM photoobj WHERE %s BETWEEN %.3f AND %.3f AND type = 6", band, band, m, m+0.05)
	},
	func(r *rand.Rand, k int) string {
		z := r.Float64() * 2.9
		return fmt.Sprintf("SELECT p.objid, s.z FROM photoobj p, specobj s WHERE p.objid = s.bestobjid AND s.z BETWEEN %.4f AND %.4f", z, z+0.02)
	},
	func(r *rand.Rand, k int) string {
		d := r.Float64() * 0.04
		return fmt.Sprintf("SELECT n.objid, n.neighborobjid FROM neighbors n WHERE n.distance BETWEEN %.5f AND %.5f AND n.neighbortype = %d",
			d, d+0.005, []int{3, 6}[k%2])
	},
	func(r *rand.Rand, k int) string {
		lo := 51000 + r.Intn(2400)
		return fmt.Sprintf("SELECT run, COUNT(*) AS n FROM photoobj WHERE mjd BETWEEN %d AND %d GROUP BY run ORDER BY n DESC LIMIT 20", lo, lo+30)
	},
	func(r *rand.Rand, k int) string {
		z := r.Float64() * 2.9
		return fmt.Sprintf("SELECT s.specobjid, s.z, s.zerr FROM specobj s WHERE s.zstatus = %d AND s.z BETWEEN %.4f AND %.4f", k%12, z, z+0.05)
	},
	func(r *rand.Rand, k int) string {
		d := r.Float64() * 0.04
		return fmt.Sprintf("SELECT p.objid, n.neighborobjid FROM photoobj p, neighbors n WHERE p.objid = n.objid AND n.distance BETWEEN %.5f AND %.5f AND p.type = 6",
			d, d+0.002)
	},
	func(r *rand.Rand, k int) string {
		d := r.Float64() * 0.04
		return fmt.Sprintf("SELECT p.objid, q.objid AS objid2, n.distance FROM photoobj p, neighbors n, photoobj q WHERE p.objid = n.objid AND q.objid = n.neighborobjid AND n.distance BETWEEN %.5f AND %.5f AND p.type = 6 AND q.type = 6",
			d, d+0.001)
	},
	func(r *rand.Rand, k int) string {
		ra, dec := r.Float64()*350, r.Float64()*160-80
		return fmt.Sprintf("SELECT f.fieldid, f.ra, f.dec FROM field f WHERE f.ra BETWEEN %.2f AND %.2f AND f.dec BETWEEN %.2f AND %.2f", ra, ra+5, dec, dec+5)
	},
}

// genQueries instantiates n queries by cycling through the templates;
// k, the instance's turn within its template, picks the categorical
// constants so that those too are the same for every seed.
func genQueries(r *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = queryTemplates[i%len(queryTemplates)](r, i/len(queryTemplates))
	}
	return out
}

// ---- candidate spaces ------------------------------------------------

func pickTable(r *rand.Rand) table {
	x := r.Intn(100)
	for i, w := range tableWeights {
		if x < w {
			return schema[i]
		}
		x -= w
	}
	return schema[0]
}

// object is one design object in the generator's model.
type object struct {
	partition bool
	table     string
	cols      []string   // index columns
	frags     [][]string // partition fragments
}

func (o object) key() string {
	if o.partition {
		return "part:" + o.table
	}
	return indexKey(o.table, o.cols)
}

// fullKey identifies the object including a partitioning's fragments
// (two partitionings of one table share key() but not fullKey()).
func (o object) fullKey() string {
	if !o.partition {
		return o.key()
	}
	var b strings.Builder
	b.WriteString(o.key())
	for _, f := range o.frags {
		b.WriteString("|" + strings.Join(f, ","))
	}
	return b.String()
}

// randIndex draws an index over 1–3 distinct columns of t.
func randIndex(r *rand.Rand, t table) object {
	k := 1 + r.Intn(3)
	if k > len(t.cols) {
		k = len(t.cols)
	}
	perm := r.Perm(len(t.cols))[:k]
	cols := make([]string, k)
	for i, p := range perm {
		cols[i] = t.cols[p]
	}
	return object{table: t.name, cols: cols}
}

// randPartition splits every column of t into k vertical fragments
// (the server adds the primary key to each), so any query on t stays
// answerable from the fragments.
func randPartition(r *rand.Rand, t table, k int) object {
	cols := append([]string(nil), t.cols...)
	r.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
	cuts := r.Perm(len(cols) - 1)[:k-1]
	sort.Ints(cuts)
	var frags [][]string
	prev := 0
	for _, c := range cuts {
		frags = append(frags, cols[prev:c+1])
		prev = c + 1
	}
	frags = append(frags, cols[prev:])
	return object{partition: true, table: t.name, frags: frags}
}

// ---- tenant model ----------------------------------------------------

// model mirrors one tenant's session: the current design and the
// undo/redo stacks, with the server's semantics (an edit pushes the
// previous design and clears redo; undo and redo move one design
// between the stacks). Designs are copied on edit and never mutated.
type model struct {
	cur        []object
	undo, redo [][]object
}

func (m *model) edit(next []object) {
	m.undo = append(m.undo, m.cur)
	m.redo = nil
	m.cur = next
}

func (m *model) undoOne() {
	m.redo = append(m.redo, m.cur)
	m.cur = m.undo[len(m.undo)-1]
	m.undo = m.undo[:len(m.undo)-1]
}

func (m *model) redoOne() {
	m.undo = append(m.undo, m.cur)
	m.cur = m.redo[len(m.redo)-1]
	m.redo = m.redo[:len(m.redo)-1]
}

func (m *model) has(key string) bool {
	for _, o := range m.cur {
		if o.key() == key {
			return true
		}
	}
	return false
}

// with returns the design plus obj; a partitioning replaces the
// table's previous one (the server's repartition semantics).
func (m *model) with(obj object) []object {
	next := make([]object, 0, len(m.cur)+1)
	for _, o := range m.cur {
		if o.key() != obj.key() {
			next = append(next, o)
		}
	}
	return append(next, obj)
}

func (m *model) without(key string) []object {
	next := make([]object, 0, len(m.cur))
	for _, o := range m.cur {
		if o.key() != key {
			next = append(next, o)
		}
	}
	return next
}

// addOp / dropOp apply the edit to the model and return its op.
func (m *model) addOp(tenant int, obj object) Op {
	m.edit(m.with(obj))
	op := Op{Tenant: tenant, Table: obj.table, Objects: len(m.cur), design: m.cur}
	if obj.partition {
		op.Kind, op.Fragments = opAddPartition, obj.frags
	} else {
		op.Kind, op.Columns = opAddIndex, obj.cols
	}
	return op
}

func (m *model) dropOp(tenant int, obj object) Op {
	m.edit(m.without(obj.key()))
	op := Op{Tenant: tenant, Table: obj.table, Objects: len(m.cur), design: m.cur}
	if obj.partition {
		op.Kind = opDropPartition
	} else {
		op.Kind, op.Columns = opDropIndex, obj.cols
	}
	return op
}

func (m *model) undoOp(tenant int) Op {
	m.undoOne()
	return Op{Tenant: tenant, Kind: opUndo, Objects: len(m.cur), design: m.cur}
}

func (m *model) redoOp(tenant int) Op {
	m.redoOne()
	return Op{Tenant: tenant, Kind: opRedo, Objects: len(m.cur), design: m.cur}
}

// ---- closed-loop passes ----------------------------------------------

// A pass is a fixed-length op sequence that starts from a fresh
// session and ends by dropping and re-creating it, so every pass
// leaves the server in the state the next one expects and session
// history stays bounded however many passes a run completes.

const (
	// hotPassOps is long enough that a pass's op mix and design sizes
	// come out alike for every seed.
	hotPassOps  = 1200
	coldPassOps = 300
	maxObjects  = 8
)

// poolShape fixes how many pool objects sit on each table (in schema
// order) and which tables are partitioned, into how many fragments.
// The seed picks columns, fragment contents and the order of ops, but
// not the shape: how many queries an op invalidates, and so the work a
// stream asks for, is the same for every seed.
type poolShape struct {
	indexes    [5]int
	partitions [5]int // fragments per table, 0 = none
}

var (
	// hotShape: 8 indexes and 2 partitionings.
	hotShape = poolShape{indexes: [5]int{4, 2, 1, 1, 0}, partitions: [5]int{3, 2, 0, 0, 0}}
	// mixShape is the candidate set all mix.durable tenants draw their
	// pools from; mixTake is how many of each table's candidates one
	// tenant's pool takes: 14 indexes, plus both partitionings.
	mixShape = poolShape{indexes: [5]int{6, 5, 5, 3, 3}, partitions: [5]int{3, 2, 0, 0, 0}}
	mixTake  = [5]int{4, 3, 3, 2, 2}
)

func (ps poolShape) pool(r *rand.Rand) []object {
	var pool []object
	seen := map[string]bool{}
	for ti, n := range ps.indexes {
		for got := 0; got < n; {
			if o := randIndex(r, schema[ti]); !seen[o.key()] {
				seen[o.key()] = true
				pool = append(pool, o)
				got++
			}
		}
	}
	for ti, k := range ps.partitions {
		if k > 0 {
			pool = append(pool, randPartition(r, schema[ti], k))
		}
	}
	return pool
}

// hotPool is the object pool both edit.hot tenants draw from.
func hotPool(seed int64) []object { return hotShape.pool(newRand(seed, "hot.pool")) }

// closePass appends the session reset that ends every pass.
func closePass(ops []Op, tenant int, workload []string) []Op {
	ops = append(ops, Op{Tenant: tenant, Kind: opDropSession}, Op{Tenant: tenant, Kind: opCreateSession})
	for i := range ops {
		ops[i].Pos = i
		ops[i].render(workload)
	}
	return ops
}

// genHotPass generates tenant's edit.hot pass: add / drop / undo /
// redo / costs drawn at 40/20/15/15/10 %, an infeasible draw (nothing
// to undo, pool exhausted, …) being drawn again.
func genHotPass(seed int64, tenant int) []Op {
	pool := hotPool(seed)
	r := newRand(seed, fmt.Sprintf("hot.pass.%d", tenant))
	var m model
	ops := make([]Op, 0, hotPassOps+2)
	for len(ops) < hotPassOps {
		var absent, present []object
		for _, o := range pool {
			if m.has(o.key()) {
				present = append(present, o)
			} else {
				absent = append(absent, o)
			}
		}
		switch x := r.Float64(); {
		case x < 0.40:
			if len(absent) > 0 {
				ops = append(ops, m.addOp(tenant, absent[r.Intn(len(absent))]))
			}
		case x < 0.60:
			if len(present) > 0 {
				ops = append(ops, m.dropOp(tenant, present[r.Intn(len(present))]))
			}
		case x < 0.75:
			if len(m.undo) > 0 {
				ops = append(ops, m.undoOp(tenant))
			}
		case x < 0.90:
			if len(m.redo) > 0 {
				ops = append(ops, m.redoOp(tenant))
			}
		default:
			ops = append(ops, Op{Tenant: tenant, Kind: opCosts, Objects: len(m.cur)})
		}
	}
	return closePass(ops, tenant, nil)
}

// coldGen generates one tenant's edit.cold passes: a random design
// walk, 70 % adds of a never-seen object (1 in 10 a partitioning),
// 30 % drops, the design held to maxObjects.
type coldGen struct {
	r        *rand.Rand
	tenant   int
	workload []string
	seen     map[string]bool
}

func newColdGen(seed int64, tenant int, workload []string) *coldGen {
	return &coldGen{r: newRand(seed, fmt.Sprintf("cold.walk.%d", tenant)), tenant: tenant, workload: workload, seen: map[string]bool{}}
}

func (g *coldGen) fresh() object {
	for {
		t := pickTable(g.r)
		var o object
		if g.r.Intn(10) == 0 {
			o = randPartition(g.r, t, 2+g.r.Intn(2))
		} else {
			o = randIndex(g.r, t)
		}
		if !g.seen[o.fullKey()] {
			g.seen[o.fullKey()] = true
			return o
		}
	}
}

func (g *coldGen) pass() []Op {
	var m model
	ops := make([]Op, 0, coldPassOps+2)
	for len(ops) < coldPassOps {
		add := g.r.Float64() < 0.70
		if len(m.cur) == 0 {
			add = true
		}
		if add {
			o := g.fresh()
			if len(m.with(o)) > maxObjects {
				add = false
			} else {
				ops = append(ops, m.addOp(g.tenant, o))
			}
		}
		if !add {
			ops = append(ops, m.dropOp(g.tenant, m.cur[g.r.Intn(len(m.cur))]))
		}
	}
	return closePass(ops, g.tenant, g.workload)
}

// coldWorkload is tenant's own workload: the server's seed queries
// plus 150 generated instances.
func coldWorkload(seed int64, tenant int, seedQueries []string) []string {
	r := newRand(seed, fmt.Sprintf("cold.workload.%d", tenant))
	return append(append([]string(nil), seedQueries...), genQueries(r, 150)...)
}

// ---- open-loop mix ---------------------------------------------------

const (
	mixTenants = 16
	mixIngest  = 500
	zipfS      = 1.1
	// mixPassOps is one worker's pass length; at the mid rate a pass
	// recurs every few seconds.
	mixPassOps = 3000
)

// genMixPass generates one worker's mix.durable pass: 50 % costs
// reads, 25 % edits, 20 % ingests, 5 % explains, tenants picked
// zipfian. Edits go only to the worker's own tenants (tenant mod
// workers), which keeps each tenant's edits in generated order on one
// connection; reads and ingests pick among all tenants, so they
// contend with the other worker's edits on the tenant lock.
//
// The pass ends by setting every own tenant's design back to empty,
// so it can be replayed from where it ends: the run's design states
// recur, the warm-up replay plans them all, and the timed steps see a
// server in a steady state — its memo, journal tail and snapshots are
// the same size at the end as at the start. (A session cannot be
// dropped and re-created here as in the edit workloads: the other
// worker's reads would hit the gap.)
func genMixPass(seed int64, worker, workers, queries int) []Op {
	r := newRand(seed, fmt.Sprintf("mix.worker.%d", worker))
	var own []int // tenants this worker edits, hottest first
	models := map[int]*model{}
	pools := map[int][]object{}
	for t := worker; t < mixTenants; t += workers {
		own = append(own, t)
		models[t] = &model{}
		pools[t] = mixPool(seed, t)
	}
	zipfOwn := rand.NewZipf(r, zipfS, 1, uint64(len(own)-1))
	zipfAll := rand.NewZipf(r, zipfS, 1, mixTenants-1)
	ingest := genQueries(newRand(seed, "mix.ingest"), mixIngest)

	ops := make([]Op, 0, mixPassOps+len(own))
	for len(ops) < mixPassOps {
		var op Op
		switch x := r.Float64(); {
		case x < 0.50:
			op = Op{Tenant: int(zipfAll.Uint64()), Kind: opCosts}
		case x < 0.75:
			t := own[zipfOwn.Uint64()]
			op = mixEdit(r, t, models[t], pools[t])
		case x < 0.95:
			op = Op{Tenant: int(zipfAll.Uint64()), Kind: opIngest, SQL: ingest[r.Intn(len(ingest))]}
		default:
			op = Op{Tenant: int(zipfAll.Uint64()), Kind: opExplain, Query: 1 + r.Intn(queries)}
		}
		ops = append(ops, op)
	}
	for _, t := range own {
		if m := models[t]; len(m.cur) > 0 {
			m.edit(nil)
			ops = append(ops, Op{Tenant: t, Kind: opClearDesign})
		}
	}
	for i := range ops {
		ops[i].Pos = i
		ops[i].render(nil)
	}
	return ops
}

// mixEdit draws add / drop / undo / redo at 50/25/12.5/12.5 %, falling
// back to whichever of add and drop is feasible.
func mixEdit(r *rand.Rand, tenant int, m *model, pool []object) Op {
	var absent, present []object
	for _, o := range pool {
		if m.has(o.key()) {
			present = append(present, o)
		} else {
			absent = append(absent, o)
		}
	}
	x := r.Float64()
	switch {
	case x >= 0.75 && x < 0.875 && len(m.undo) > 0:
		return m.undoOp(tenant)
	case x >= 0.875 && len(m.redo) > 0:
		return m.redoOp(tenant)
	case (x < 0.50 || len(present) == 0) && len(m.cur) < maxObjects:
		return m.addOp(tenant, absent[r.Intn(len(absent))])
	default:
		return m.dropOp(tenant, present[r.Intn(len(present))])
	}
}

// mixPool is tenant's pool of 16 specs: its own pick of the shared
// candidate set, so tenants overlap and one tenant's pricing serves
// another through the shared memo.
func mixPool(seed int64, tenant int) []object {
	candidates := mixShape.pool(newRand(seed, "mix.candidates"))
	r := newRand(seed, fmt.Sprintf("mix.pool.%d", tenant))
	var pool []object
	next := 0
	for ti, n := range mixShape.indexes {
		perm := r.Perm(n)[:mixTake[ti]]
		sort.Ints(perm)
		for _, p := range perm {
			pool = append(pool, candidates[next+p])
		}
		next += n
	}
	return append(pool, candidates[next:]...)
}

// ---- dumps -----------------------------------------------------------

// dumpOps renders ops one JSON object per line.
func dumpOps(ops []Op) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for i := range ops {
		if err := enc.Encode(&ops[i]); err != nil {
			panic(err) // Op holds only strings, ints and slices of them
		}
	}
	return b.Bytes()
}

// dumpLimit is how many ops per stream the dump (and so the ladder
// replay) covers.
const dumpLimit = 2000
