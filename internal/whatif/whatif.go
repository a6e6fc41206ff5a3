// Package whatif implements PARINDA's what-if design features (§3.2
// of the paper): hypothetical indexes sized by Equation 1,
// hypothetical tables simulating vertical partitions with statistics
// derived from their parent, and control over the nested-loop join
// method. A Session installs these into the optimizer through its
// RelationInfoHook — the same mechanism PostgreSQL exposes — so the
// planner cannot tell simulated design features from real ones.
package whatif

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sql"
)

// HypoPrefix marks hypothetical object names in EXPLAIN output.
const HypoPrefix = "<what-if>"

// Session is one what-if design session over a base catalog. Creating
// hypothetical features never touches the base catalog or any data;
// everything lives in the session and is visible only to planners
// attached to it. A Session is not safe for concurrent use — planning
// fills its caches — so concurrent pricing pools one per goroutine.
type Session struct {
	base    *catalog.Catalog
	planner *optimizer.Planner

	hypoIndexes map[string]*catalog.Index // by index name
	hypoTables  map[string]*catalog.Table // by table name
	nextID      int

	// Signature cache, maintained incrementally: sigBase is the sorted
	// structural part (indexes and tables, no nest-loop suffix) and is
	// invalidated only by structural edits; sig is the full string last
	// returned, valid while the live nest-loop flag still equals sigNL.
	// The flag is re-checked on every call rather than invalidated by
	// SetNestLoop, so the cache stays correct even when the planner's
	// Flags are mutated directly (Reset replaces them wholesale).
	sig     string
	sigNL   bool
	sigOK   bool
	sigBase string
	baseOK  bool

	// byTable caches each table's hypothetical indexes in key order —
	// the order relationInfoHook splices them in. Built on the first
	// lookup after a structural edit; nil means stale.
	byTable map[string][]*catalog.Index
	// served caches, per table, the view relationInfoHook returned and
	// the catalog view it was built from; stale with byTable.
	served map[string]*servedInfo
}

// servedInfo is one table's cached hook result: out, built from the
// catalog's table and indexes in.
type servedInfo struct {
	inTable   *catalog.Table
	inIndexes []*catalog.Index
	out       *optimizer.RelationInfo
}

// dirtySig invalidates the signature and per-table caches after a
// structural edit.
func (s *Session) dirtySig() { s.sigOK, s.baseOK, s.byTable, s.served = false, false, nil, nil }

// NewSession creates a session planning against cat.
func NewSession(cat *catalog.Catalog) *Session {
	s := &Session{
		base:        cat,
		hypoIndexes: make(map[string]*catalog.Index),
		hypoTables:  make(map[string]*catalog.Table),
	}
	s.planner = optimizer.New(cat)
	s.planner.RelationInfoHook = s.relationInfoHook
	return s
}

// Planner returns the session's planner, with the what-if hook
// installed.
func (s *Session) Planner() *optimizer.Planner { return s.planner }

// relationInfoHook is the get_relation_info analogue: it serves
// what-if tables the base catalog does not know, and splices what-if
// indexes into the index lists of both real and what-if tables. The
// view served for a table is kept until the next structural edit, or
// until the catalog's view of the table changes.
func (s *Session) relationInfoHook(name string, info *optimizer.RelationInfo) *optimizer.RelationInfo {
	var inTable *catalog.Table
	var inIndexes []*catalog.Index
	if info != nil {
		inTable, inIndexes = info.Table, info.Indexes
	}
	if c := s.served[name]; c != nil && c.inTable == inTable && slices.Equal(c.inIndexes, inIndexes) {
		return c.out
	}
	table := inTable
	if table == nil {
		if table = s.hypoTables[name]; table == nil {
			return nil
		}
	}
	if s.byTable == nil {
		s.byTable = map[string][]*catalog.Index{}
		for _, ix := range s.sortedHypoIndexes() {
			s.byTable[ix.Table] = append(s.byTable[ix.Table], ix)
		}
	}
	out := &optimizer.RelationInfo{
		Table:   table,
		Indexes: slices.Concat(inIndexes, s.byTable[name]),
	}
	if s.served == nil {
		s.served = map[string]*servedInfo{}
	}
	s.served[name] = &servedInfo{inTable: inTable, inIndexes: slices.Clone(inIndexes), out: out}
	return out
}

// sortedHypoIndexes lists the hypothetical indexes by table, then
// columns, with the generated name only as a tie-break. The planner
// takes the first index that fits a probe, so this order — unlike the
// creation-counter name order — makes plans depend on the design alone,
// not on the path a session took to it.
func (s *Session) sortedHypoIndexes() []*catalog.Index {
	out := make([]*catalog.Index, 0, len(s.hypoIndexes))
	for _, ix := range s.hypoIndexes {
		out = append(out, ix)
	}
	slices.SortFunc(out, func(a, b *catalog.Index) int {
		return cmp.Or(cmp.Compare(a.Table, b.Table), slices.Compare(a.Columns, b.Columns), cmp.Compare(a.Name, b.Name))
	})
	return out
}

// lookupTable finds a table in the base catalog or among what-if
// tables.
func (s *Session) lookupTable(name string) *catalog.Table {
	if t := s.base.Table(name); t != nil {
		return t
	}
	return s.hypoTables[name]
}

// CreateIndex simulates an index on table(columns...). The page count
// comes from Equation 1 — never from data — and histogram statistics
// are inherited from the base table, exactly as §3.2 describes. The
// returned index is marked Hypothetical.
func (s *Session) CreateIndex(table string, columns []string) (*catalog.Index, error) {
	t := s.lookupTable(table)
	if t == nil {
		return nil, fmt.Errorf("whatif: unknown table %q", table)
	}
	if len(columns) == 0 {
		return nil, fmt.Errorf("whatif: index needs at least one column")
	}
	for _, c := range columns {
		if t.ColumnIndex(c) < 0 {
			return nil, fmt.Errorf("whatif: table %q has no column %q", table, c)
		}
	}
	s.nextID++
	name := HypoPrefix + "ix" + strconv.Itoa(s.nextID) + "_" + table + "_" + strings.Join(columns, "_")
	pages := catalog.IndexPages(t, columns, t.RowCount)
	ix := &catalog.Index{
		Name:         name,
		Table:        table,
		Columns:      append([]string(nil), columns...),
		Pages:        pages,
		Height:       catalog.BTreeHeight(pages),
		Hypothetical: true,
	}
	s.hypoIndexes[name] = ix
	s.dirtySig()
	return ix, nil
}

// DropIndex removes a what-if index by name.
func (s *Session) DropIndex(name string) error {
	if _, ok := s.hypoIndexes[name]; !ok {
		return fmt.Errorf("whatif: no what-if index %q", name)
	}
	delete(s.hypoIndexes, name)
	s.dirtySig()
	return nil
}

// Indexes returns the session's hypothetical indexes in key order.
func (s *Session) Indexes() []*catalog.Index { return s.sortedHypoIndexes() }

// TableDef describes a what-if table simulating a vertical partition
// of Parent holding the listed columns. The parent's primary key is
// always included so the original rows remain reconstructible, as the
// paper's What-If Table component requires.
type TableDef struct {
	Name    string
	Parent  string
	Columns []string
}

// CreateTable simulates a partition table. Statistics are shared with
// the parent's columns (nothing mutates statistics in place, and
// sessions holding partitioned designs stay small); the row count
// equals the parent's; the page count follows from the narrower row
// width. The what-if table exists only in the session ("empty what-if
// tables" in the paper: the parser must see them, the planner gets
// statistics spliced at plan time).
func (s *Session) CreateTable(def TableDef) (*catalog.Table, error) {
	parent := s.base.Table(def.Parent)
	if parent == nil {
		return nil, fmt.Errorf("whatif: unknown parent table %q", def.Parent)
	}
	if def.Name == "" {
		return nil, fmt.Errorf("whatif: what-if table needs a name")
	}
	if s.lookupTable(def.Name) != nil {
		return nil, fmt.Errorf("whatif: table %q already exists", def.Name)
	}

	cols, err := parent.FragmentColumns(def.Columns)
	if err != nil {
		return nil, fmt.Errorf("whatif: %w", err)
	}
	t := &catalog.Table{
		Name:         def.Name,
		Columns:      cols,
		PrimaryKey:   append([]string(nil), parent.PrimaryKey...),
		RowCount:     parent.RowCount,
		Hypothetical: true,
		PartitionOf:  parent.Name,
	}
	t.Pages = t.EstimatePages(t.RowCount)
	s.hypoTables[def.Name] = t
	s.dirtySig()
	return t, nil
}

// DropTable removes a what-if table and any what-if indexes on it.
func (s *Session) DropTable(name string) error {
	if _, ok := s.hypoTables[name]; !ok {
		return fmt.Errorf("whatif: no what-if table %q", name)
	}
	delete(s.hypoTables, name)
	for iname, ix := range s.hypoIndexes {
		if ix.Table == name {
			delete(s.hypoIndexes, iname)
		}
	}
	s.dirtySig()
	return nil
}

// Tables returns the session's what-if tables sorted by name.
func (s *Session) Tables() []*catalog.Table {
	out := make([]*catalog.Table, 0, len(s.hypoTables))
	for _, t := range s.hypoTables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetNestLoop toggles the nested-loop join method — the What-If Join
// component. INUM uses it to capture one plan with nested loops
// enabled and one without.
func (s *Session) SetNestLoop(enabled bool) {
	s.planner.Flags.EnableNestLoop = enabled
}

// NestLoopEnabled reports the current nested-loop setting.
func (s *Session) NestLoopEnabled() bool { return s.planner.Flags.EnableNestLoop }

// Plan plans a query under the session's hypothetical design.
func (s *Session) Plan(sel *sql.Select) (*optimizer.Plan, error) {
	return s.planner.Plan(sel)
}

// Cost returns the estimated cost of sel under the session's design.
func (s *Session) Cost(sel *sql.Select) (float64, error) {
	return s.planner.Cost(sel)
}

// IndexDef names an index to create in a Delta: a table and its key
// columns.
type IndexDef struct {
	Table   string
	Columns []string
}

// Delta is a batch of design edits applied atomically by ApplyDelta —
// the middle ground between per-edit mutation and a full Reset.
// Operations apply in the order: drop indexes, drop tables, create
// tables, create indexes, set the nested-loop flag. Drops come first so
// one delta can re-create a table under a name it drops (a
// repartition).
type Delta struct {
	CreateTables  []TableDef
	CreateIndexes []IndexDef
	DropIndexes   []string // what-if index names
	DropTables    []string // what-if table names (cascades to their indexes)
	NestLoop      *bool    // nil leaves the flag unchanged
}

// Empty reports whether the delta performs no edits.
func (d Delta) Empty() bool {
	return len(d.CreateTables) == 0 && len(d.CreateIndexes) == 0 &&
		len(d.DropIndexes) == 0 && len(d.DropTables) == 0 && d.NestLoop == nil
}

// ApplyDelta applies the batch atomically: either every edit lands or
// the session is left exactly as it was (including generated-name
// counters). It returns the created what-if indexes in
// d.CreateIndexes order. The design-session engine applies one edit's
// delta per interaction instead of rebuilding the design from
// scratch.
func (s *Session) ApplyDelta(d Delta) ([]*catalog.Index, error) {
	if d.Empty() {
		return nil, nil
	}
	// Snapshot the cheap mutable state; the maps hold only the
	// session's few hypothetical objects.
	prevIndexes := make(map[string]*catalog.Index, len(s.hypoIndexes))
	for k, v := range s.hypoIndexes {
		prevIndexes[k] = v
	}
	prevTables := make(map[string]*catalog.Table, len(s.hypoTables))
	for k, v := range s.hypoTables {
		prevTables[k] = v
	}
	prevID, prevNL := s.nextID, s.NestLoopEnabled()

	restore := func() {
		s.hypoIndexes = prevIndexes
		s.hypoTables = prevTables
		s.nextID = prevID
		s.SetNestLoop(prevNL)
		s.dirtySig()
	}

	for _, name := range d.DropIndexes {
		if err := s.DropIndex(name); err != nil {
			restore()
			return nil, err
		}
	}
	for _, name := range d.DropTables {
		if err := s.DropTable(name); err != nil {
			restore()
			return nil, err
		}
	}
	for _, td := range d.CreateTables {
		if _, err := s.CreateTable(td); err != nil {
			restore()
			return nil, err
		}
	}
	created := make([]*catalog.Index, 0, len(d.CreateIndexes))
	for _, id := range d.CreateIndexes {
		ix, err := s.CreateIndex(id.Table, id.Columns)
		if err != nil {
			restore()
			return nil, err
		}
		created = append(created, ix)
	}
	if d.NestLoop != nil {
		s.SetNestLoop(*d.NestLoop)
	}
	return created, nil
}

// Signature returns a canonical, cheap-to-compare identity of the
// session's hypothetical design: every what-if index as table(cols),
// every what-if table as name<parent, and the nested-loop flag.
// Generated object names are deliberately excluded, so two sessions
// holding the same design — built in any order, with any counter
// history — produce equal signatures.
//
// The signature is maintained incrementally: structural edits mark it
// dirty and the string is rebuilt at most once per design state, so
// the session layer can call it on every edit and memo probe for free.
func (s *Session) Signature() string {
	nl := s.NestLoopEnabled()
	if s.sigOK && s.sigNL == nl {
		return s.sig
	}
	if !s.baseOK {
		s.sigBase = s.buildSigBase()
		s.baseOK = true
	}
	sig := s.sigBase
	if !nl {
		if sig == "" {
			sig = "nl:off"
		} else {
			sig += ";nl:off"
		}
	}
	s.sig, s.sigNL, s.sigOK = sig, nl, true
	return sig
}

// buildSigBase rebuilds the structural (flag-free) signature part.
func (s *Session) buildSigBase() string {
	var parts []string
	for _, ix := range s.hypoIndexes {
		parts = append(parts, "ix:"+ix.Table+"("+strings.Join(ix.Columns, ",")+")")
	}
	for _, t := range s.hypoTables {
		cols := make([]string, 0, len(t.Columns))
		for _, c := range t.Columns {
			cols = append(cols, c.Name)
		}
		parts = append(parts, "tab:"+t.Name+"<"+t.PartitionOf+"("+strings.Join(cols, ",")+")")
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// Reset drops every hypothetical feature and re-enables nested loops.
func (s *Session) Reset() {
	s.hypoIndexes = make(map[string]*catalog.Index)
	s.hypoTables = make(map[string]*catalog.Table)
	s.planner.Flags = optimizer.DefaultFlags()
	s.dirtySig()
}

// IndexSizeBytes returns the Equation-1 size of an index over the
// given columns of a (real or what-if) table, in bytes, without
// creating anything — candidate enumeration uses this to respect
// storage constraints before simulating.
func (s *Session) IndexSizeBytes(table string, columns []string) (int64, error) {
	t := s.lookupTable(table)
	if t == nil {
		return 0, fmt.Errorf("whatif: unknown table %q", table)
	}
	return catalog.IndexPages(t, columns, t.RowCount) * catalog.PageSize, nil
}
