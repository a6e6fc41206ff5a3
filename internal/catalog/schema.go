package catalog

import (
	"fmt"
	"sort"

	"repro/internal/sql"
)

// PostgreSQL 8.3 layout constants used throughout the cost and size
// model. These match the values cited in the paper (§3.2).
const (
	// PageSize is the on-disk page size B in Equation 1.
	PageSize = 8192
	// IndexTupleOverhead is o in Equation 1: per-row overhead in an
	// index leaf entry, including the heap pointer (ItemIdData +
	// IndexTupleData in PostgreSQL 8.3).
	IndexTupleOverhead = 24
	// HeapTupleOverhead is the per-row heap overhead (HeapTupleHeader
	// rounded to MAXALIGN plus the 4-byte line pointer).
	HeapTupleOverhead = 28
	// PageHeaderSize is the fixed per-page header (PageHeaderData).
	PageHeaderSize = 24
	// BTreeFillFactor is the default leaf fill factor of PostgreSQL
	// B-Trees (90%).
	BTreeFillFactor = 0.90
)

// Column describes one column of a table.
type Column struct {
	Name string
	Type sql.TypeName
	// AvgWidth is the average payload width in bytes. For fixed-width
	// types it is the type width; for text it is measured by ANALYZE
	// (or defaulted). It excludes per-value alignment padding.
	AvgWidth int
	// NotNull records the column never holds NULL (primary keys).
	NotNull bool
	Stats   *ColumnStats // nil until ANALYZE or synthetic stats are set
}

// TypeWidth returns the storage payload width of a type; text returns
// the defaultTextWidth placeholder until ANALYZE measures it.
func TypeWidth(t sql.TypeName) int {
	switch t {
	case sql.TypeInt:
		return 4
	case sql.TypeBigInt:
		return 8
	case sql.TypeFloat:
		return 8
	case sql.TypeBool:
		return 1
	case sql.TypeText:
		return defaultTextWidth
	}
	return 8
}

const defaultTextWidth = 16

// TypeAlign returns the alignment requirement of a type, mirroring
// PostgreSQL's typalign: int4 aligns at 4, int8/float8 at 8, bool at 1,
// text (varlena with 4-byte header) at 4.
func TypeAlign(t sql.TypeName) int {
	switch t {
	case sql.TypeInt:
		return 4
	case sql.TypeBigInt, sql.TypeFloat:
		return 8
	case sql.TypeBool:
		return 1
	case sql.TypeText:
		return 4
	}
	return 8
}

// AlignedWidth returns width rounded up to the next multiple of align;
// this is the align() function of Equation 1 folded into the width.
func AlignedWidth(width, align int) int {
	if align <= 1 {
		return width
	}
	return (width + align - 1) / align * align
}

// Width returns the column's effective payload width: AvgWidth when
// measured, the type default otherwise. Text adds the 4-byte varlena
// length header.
func (c *Column) Width() int {
	w := c.AvgWidth
	if w <= 0 {
		w = TypeWidth(c.Type)
	}
	if c.Type == sql.TypeText {
		w += 4 // varlena header
	}
	return w
}

// Table describes a base table (or a hypothetical partition table).
type Table struct {
	Name       string
	Columns    []Column
	PrimaryKey []string
	// RowCount and Pages are the planner-visible statistics
	// (pg_class.reltuples / relpages). For hypothetical tables they
	// are derived, not measured.
	RowCount int64
	Pages    int64
	// Hypothetical marks what-if tables that exist only as catalog
	// entries (the paper's "empty what-if tables").
	Hypothetical bool
	// PartitionOf names the parent table when this table is a
	// vertical partition created by AutoPart; empty otherwise.
	PartitionOf string

	byName map[string]int
}

// NewTable builds a table from a parsed CREATE TABLE statement.
func NewTable(ct *sql.CreateTable) *Table {
	t := &Table{Name: ct.Name, PrimaryKey: append([]string(nil), ct.PrimaryKey...)}
	for _, cd := range ct.Columns {
		t.Columns = append(t.Columns, Column{Name: cd.Name, Type: cd.Type})
	}
	for _, pk := range t.PrimaryKey {
		if i := t.columnIndexSlow(pk); i >= 0 {
			t.Columns[i].NotNull = true
		}
	}
	t.reindex()
	return t
}

func (t *Table) reindex() {
	t.byName = make(map[string]int, len(t.Columns))
	for i := range t.Columns {
		t.byName[t.Columns[i].Name] = i
	}
}

func (t *Table) columnIndexSlow(name string) int {
	for i := range t.Columns {
		if t.Columns[i].Name == name {
			return i
		}
	}
	return -1
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if t.byName == nil {
		t.reindex()
	}
	if i, ok := t.byName[name]; ok {
		return i
	}
	return -1
}

// Column returns the named column, or nil.
func (t *Table) Column(name string) *Column {
	i := t.ColumnIndex(name)
	if i < 0 {
		return nil
	}
	return &t.Columns[i]
}

// RowWidth returns the average aligned payload width of a full row,
// excluding the heap tuple header.
func (t *Table) RowWidth() int {
	w := 0
	for i := range t.Columns {
		c := &t.Columns[i]
		w = AlignedWidth(w, TypeAlign(c.Type))
		w += c.Width()
	}
	return w
}

// EstimatePages computes the heap page count for rows rows of this
// table — the heap analogue of Equation 1. It models the storage
// engine's slotted-page layout (null bitmap + compact values + slot
// entry) rather than PostgreSQL's aligned heap tuples, so what-if
// table derivations agree with what ANALYZE measures on materialized
// fragments; IndexPages stays PostgreSQL-faithful per the paper.
func (t *Table) EstimatePages(rows int64) int64 {
	perRow := (len(t.Columns)+7)/8 + 4 // null bitmap + slot entry
	for i := range t.Columns {
		perRow += t.Columns[i].Width()
	}
	perPage := (PageSize - PageHeaderSize) / perRow
	if perPage < 1 {
		perPage = 1
	}
	pages := (rows + int64(perPage) - 1) / int64(perPage)
	if pages < 1 {
		pages = 1
	}
	return pages
}

// FragmentColumns returns the column layout of a vertical fragment of
// t holding cols: t's primary key plus cols, deduplicated, in t's
// column order, so parent rows stay reconstructible from any fragment.
// The columns are shallow copies sharing t's statistics. It fails on a
// column t does not have.
func (t *Table) FragmentColumns(cols []string) ([]Column, error) {
	want := make(map[string]bool, len(t.PrimaryKey)+len(cols))
	for _, pk := range t.PrimaryKey {
		want[pk] = true
	}
	for _, c := range cols {
		if t.ColumnIndex(c) < 0 {
			return nil, fmt.Errorf("parent %q has no column %q", t.Name, c)
		}
		want[c] = true
	}
	out := make([]Column, 0, len(want))
	for _, col := range t.Columns {
		if want[col.Name] {
			out = append(out, col)
		}
	}
	return out, nil
}

// Clone returns a deep copy of the table, sharing nothing with the
// original. Statistics are copied so what-if sessions can mutate them.
func (t *Table) Clone() *Table {
	nt := &Table{
		Name:         t.Name,
		PrimaryKey:   append([]string(nil), t.PrimaryKey...),
		RowCount:     t.RowCount,
		Pages:        t.Pages,
		Hypothetical: t.Hypothetical,
		PartitionOf:  t.PartitionOf,
	}
	nt.Columns = make([]Column, len(t.Columns))
	copy(nt.Columns, t.Columns)
	for i := range nt.Columns {
		if s := nt.Columns[i].Stats; s != nil {
			nt.Columns[i].Stats = s.Clone()
		}
	}
	nt.reindex()
	return nt
}

// Index describes a B-Tree index, real or hypothetical.
type Index struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
	// Pages is the leaf page count (Equation 1 for hypothetical
	// indexes, measured for built ones). Height is the B-Tree height
	// above the leaf level.
	Pages  int64
	Height int
	// Hypothetical marks what-if indexes that were never built.
	Hypothetical bool
}

// Clone returns a copy of the index.
func (ix *Index) Clone() *Index {
	c := *ix
	c.Columns = append([]string(nil), ix.Columns...)
	return &c
}

// Catalog is the schema catalog: all tables and indexes visible to the
// planner. A Catalog is not safe for concurrent mutation; what-if
// sessions clone the relevant entries instead of locking.
type Catalog struct {
	tables  map[string]*Table
	indexes map[string]*Index
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:  make(map[string]*Table),
		indexes: make(map[string]*Index),
	}
}

// AddTable registers a table; it fails on duplicate names.
func (c *Catalog) AddTable(t *Table) error {
	if _, dup := c.tables[t.Name]; dup {
		return fmt.Errorf("catalog: table %q already exists", t.Name)
	}
	c.tables[t.Name] = t
	return nil
}

// DropTable removes a table and all indexes on it.
func (c *Catalog) DropTable(name string) error {
	if _, ok := c.tables[name]; !ok {
		return fmt.Errorf("catalog: table %q does not exist", name)
	}
	delete(c.tables, name)
	for iname, ix := range c.indexes {
		if ix.Table == name {
			delete(c.indexes, iname)
		}
	}
	return nil
}

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *Table { return c.tables[name] }

// Tables returns all tables sorted by name.
func (c *Catalog) Tables() []*Table {
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AddIndex registers an index; the table must exist and every column
// must belong to it.
func (c *Catalog) AddIndex(ix *Index) error {
	t := c.tables[ix.Table]
	if t == nil {
		return fmt.Errorf("catalog: index %q references unknown table %q", ix.Name, ix.Table)
	}
	if _, dup := c.indexes[ix.Name]; dup {
		return fmt.Errorf("catalog: index %q already exists", ix.Name)
	}
	if len(ix.Columns) == 0 {
		return fmt.Errorf("catalog: index %q has no columns", ix.Name)
	}
	for _, col := range ix.Columns {
		if t.ColumnIndex(col) < 0 {
			return fmt.Errorf("catalog: index %q references unknown column %q.%q", ix.Name, ix.Table, col)
		}
	}
	c.indexes[ix.Name] = ix
	return nil
}

// DropIndex removes an index by name.
func (c *Catalog) DropIndex(name string) error {
	if _, ok := c.indexes[name]; !ok {
		return fmt.Errorf("catalog: index %q does not exist", name)
	}
	delete(c.indexes, name)
	return nil
}

// Index returns the named index, or nil.
func (c *Catalog) Index(name string) *Index { return c.indexes[name] }

// IndexesOn returns all indexes on the named table, sorted by name.
func (c *Catalog) IndexesOn(table string) []*Index {
	var out []*Index
	for _, ix := range c.indexes {
		if ix.Table == table {
			out = append(out, ix)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Indexes returns all indexes sorted by name.
func (c *Catalog) Indexes() []*Index {
	out := make([]*Index, 0, len(c.indexes))
	for _, ix := range c.indexes {
		out = append(out, ix)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Clone deep-copies the catalog. What-if sessions plan against a clone
// so the real catalog never sees hypothetical entries.
func (c *Catalog) Clone() *Catalog {
	nc := New()
	for name, t := range c.tables {
		nc.tables[name] = t.Clone()
	}
	for name, ix := range c.indexes {
		nc.indexes[name] = ix.Clone()
	}
	return nc
}

// IndexPages implements Equation 1 of the paper for an index over the
// given columns of table t holding rows entries:
//
//	pages = ceil( (o + Σ_c align(size(c))) * R / (B * fillfactor) )
//
// where o = IndexTupleOverhead, B = PageSize. Only leaf pages are
// counted; internal pages are ignored, as in the paper.
func IndexPages(t *Table, columns []string, rows int64) int64 {
	entry := IndexTupleOverhead
	offset := 0
	for _, col := range columns {
		c := t.Column(col)
		if c == nil {
			continue
		}
		al := TypeAlign(c.Type)
		offset = AlignedWidth(offset, al)
		offset += c.Width()
	}
	entry += AlignedWidth(offset, 8)
	usable := float64(PageSize-PageHeaderSize) * BTreeFillFactor
	perPage := int64(usable) / int64(entry)
	if perPage < 1 {
		perPage = 1
	}
	pages := (rows + perPage - 1) / perPage
	if pages < 1 {
		pages = 1
	}
	return pages
}

// BTreeHeight estimates the height of a B-Tree with the given leaf
// page count, assuming ~256 fan-out per internal page.
func BTreeHeight(leafPages int64) int {
	const fanout = 256
	h := 0
	for n := leafPages; n > 1; n = (n + fanout - 1) / fanout {
		h++
	}
	return h
}
