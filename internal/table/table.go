// Package table provides the relational substrate: schemas, records, table
// snapshots, column statistics and CSV import/export. Every record is a
// tuple of string values under a shared schema, matching the paper's
// Definition 3.1 where source and target snapshots are sets of value tuples
// under the same attribute tuple A.
package table

import (
	"fmt"
	"strings"

	"affidavit/internal/value"
)

// Schema is an ordered tuple of attribute names.
type Schema struct {
	attrs []string
	index map[string]int
}

// NewSchema builds a schema from attribute names. Names must be unique and
// non-empty.
func NewSchema(attrs ...string) (*Schema, error) {
	s := &Schema{
		attrs: append([]string(nil), attrs...),
		index: make(map[string]int, len(attrs)),
	}
	for i, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("table: attribute %d has empty name", i)
		}
		if _, dup := s.index[a]; dup {
			return nil, fmt.Errorf("table: duplicate attribute name %q", a)
		}
		s.index[a] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for fixtures and tests.
func MustSchema(attrs ...string) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of attributes d = |A|.
func (s *Schema) Len() int { return len(s.attrs) }

// Attr returns the name of attribute i.
func (s *Schema) Attr(i int) string { return s.attrs[i] }

// Attrs returns a copy of the attribute name tuple.
func (s *Schema) Attrs() []string { return append([]string(nil), s.attrs...) }

// Index returns the position of the named attribute, or -1.
func (s *Schema) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Equal reports whether two schemas have identical attribute tuples.
func (s *Schema) Equal(o *Schema) bool {
	if s.Len() != o.Len() {
		return false
	}
	for i := range s.attrs {
		if s.attrs[i] != o.attrs[i] {
			return false
		}
	}
	return true
}

// WithAttr returns a new schema with one attribute appended.
func (s *Schema) WithAttr(name string) (*Schema, error) {
	return NewSchema(append(s.Attrs(), name)...)
}

// WithoutAttrs returns a new schema omitting the attributes at the given
// positions, together with the mapping from new positions to old ones.
func (s *Schema) WithoutAttrs(drop map[int]bool) (*Schema, []int) {
	var kept []string
	var old []int
	for i, a := range s.attrs {
		if !drop[i] {
			kept = append(kept, a)
			old = append(old, i)
		}
	}
	ns, err := NewSchema(kept...)
	if err != nil {
		// Dropping attributes cannot introduce duplicates or empties.
		panic(err)
	}
	return ns, old
}

// Record is one value tuple. Records are value types: tables intern what
// they are given and decode fresh tuples on the way out, so a Record never
// aliases table storage.
type Record []string

// Clone returns a deep copy of the record.
func (r Record) Clone() Record { return append(Record(nil), r...) }

// Equal reports field-wise equality.
func (r Record) Equal(o Record) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if r[i] != o[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string key for the full tuple, suitable for
// multiset grouping. Values are length-prefixed so no separator collision
// can merge distinct tuples.
func (r Record) Key() string {
	var sb strings.Builder
	for _, v := range r {
		fmt.Fprintf(&sb, "%d:", len(v))
		sb.WriteString(v)
	}
	return sb.String()
}

// Project returns the sub-tuple at the given attribute positions.
func (r Record) Project(cols []int) Record {
	p := make(Record, len(cols))
	for i, c := range cols {
		p[i] = r[c]
	}
	return p
}

// Table is a snapshot: a schema plus a multiset of records (Def. 3.1). It
// has one representation: every value is interned into a per-attribute
// Dict the moment it is appended and records are stored as dense in-memory
// int32 code columns, so a snapshot costs its distinct values plus 4 bytes
// per cell and never exists as a [][]string. Tables built over the same
// dictionaries (NewBuilder, DictPool.DictsFor) share one code space.
type Table struct {
	schema *Schema
	// cols[a][i] is the code of record i's value of attribute a in dicts[a];
	// views[a] is a lock-free snapshot of dicts[a]'s value table covering
	// every code stored in cols[a]; n is the record count (kept separately
	// so zero-attribute tables still know their size).
	dicts []*Dict
	views [][]string
	cols  [][]int32
	n     int
}

// New creates an empty table under the given schema, interning into fresh
// dictionaries.
func New(s *Schema) *Table {
	dicts := make([]*Dict, s.Len())
	for a := range dicts {
		dicts[a] = NewDict()
	}
	return newTable(s, dicts)
}

// newTable creates an empty table interning into the given dictionaries.
func newTable(s *Schema, dicts []*Dict) *Table {
	t := &Table{schema: s, dicts: dicts, views: make([][]string, len(dicts)), cols: make([][]int32, len(dicts))}
	for a, d := range dicts {
		t.views[a] = d.Snapshot()
	}
	return t
}

// FromRows builds a table from a schema and rows, validating widths.
func FromRows(s *Schema, rows []Record) (*Table, error) {
	b := &Builder{t: New(s)}
	for i, r := range rows {
		if len(r) != s.Len() {
			return nil, fmt.Errorf("table: row %d has %d values, schema has %d attributes", i, len(r), s.Len())
		}
		b.add(r)
	}
	return b.Table(), nil
}

// MustFromRows is FromRows that panics on error, for fixtures and tests.
func MustFromRows(s *Schema, rows []Record) *Table {
	t, err := FromRows(s, rows)
	if err != nil {
		panic(err)
	}
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// Len returns the number of records.
func (t *Table) Len() int { return t.n }

// Record decodes record i into a fresh tuple, safe to hold and mutate.
func (t *Table) Record(i int) Record {
	return t.decode(make(Record, len(t.cols)), i)
}

// decode fills r (len = attribute count) with record i's values.
func (t *Table) decode(r Record, i int) Record {
	for a, col := range t.cols {
		r[a] = t.views[a][col[i]]
	}
	return r
}

// Value returns the value of attribute a in record i.
func (t *Table) Value(i, a int) string { return t.views[a][t.cols[a][i]] }

// Append interns one record (validated against the schema): a batch of
// one. The record is consumed by value — the table keeps no reference to
// it.
func (t *Table) Append(r Record) error {
	if len(r) != t.schema.Len() {
		return fmt.Errorf("table: record has %d values, schema has %d attributes", len(r), t.schema.Len())
	}
	t.internBatch(r, 1)
	return nil
}

// internBatch appends the n records held row-major in flat (n × the
// schema's width values), interning column by column under one dictionary
// lock per column. Each column's new values still get codes in record
// order.
func (t *Table) internBatch(flat []string, n int) {
	width := len(t.cols)
	for a, d := range t.dicts {
		t.cols[a], t.views[a] = d.appendCodes(t.cols[a], flat, a, width)
	}
	t.n += n
}

// internFields is internBatch over the n records whose fields raw and
// ends hold as CSVReader.readRecord lays them out.
func (t *Table) internFields(raw []byte, ends []int, n int) {
	width := len(t.cols)
	for a, d := range t.dicts {
		t.cols[a], t.views[a] = d.appendFieldCodes(t.cols[a], raw, ends, a, width)
	}
	t.n += n
}

// reserve grows every column's capacity to at least n records.
func (t *Table) reserve(n int) {
	for a, col := range t.cols {
		if cap(col) < n {
			t.cols[a] = append(make([]int32, 0, n), col...)
		}
	}
}

// Clone returns a copy of the table: the code columns are copied, the
// (append-only) dictionaries shared.
func (t *Table) Clone() *Table {
	c := *t
	c.views = append([][]string(nil), t.views...)
	c.cols = make([][]int32, len(t.cols))
	for a, col := range t.cols {
		c.cols[a] = append([]int32(nil), col...)
	}
	return &c
}

// Select returns a new table containing the records at the given indices
// (copied; the dictionaries are shared).
func (t *Table) Select(idx []int) *Table {
	c := *t
	c.n = len(idx)
	c.views = append([][]string(nil), t.views...)
	c.cols = make([][]int32, len(t.cols))
	for a, col := range t.cols {
		sel := make([]int32, len(idx))
		for i, j := range idx {
			sel[i] = col[j]
		}
		c.cols[a] = sel
	}
	return &c
}

// DropAttrs returns a new table without the attributes at the given
// positions. The surviving code columns are shared read-only views
// (capacity-clamped, so appending to either table can never write into the
// other's records), which keeps the projection O(d) instead of
// re-materialising every record — the difference between a cheap filter
// and hundreds of megabytes on the Figure 5 input.
func (t *Table) DropAttrs(drop map[int]bool) *Table {
	ns, old := t.schema.WithoutAttrs(drop)
	c := &Table{schema: ns, n: t.n, dicts: make([]*Dict, len(old)), views: make([][]string, len(old)), cols: make([][]int32, len(old))}
	for i, a := range old {
		c.dicts[i] = t.dicts[a]
		c.views[i] = t.views[a]
		c.cols[i] = t.cols[a][:t.n:t.n]
	}
	return c
}

// ColumnStats summarises one attribute, driving both the generator's domain
// detection and the >0.7-distinct-ratio filter from Section 5.1.
type ColumnStats struct {
	Attr          string
	Distinct      int
	NonEmpty      int
	NumericAll    bool // every non-empty value parses as a decimal
	CanonicalAll  bool // every non-empty value is in canonical numeric form
	DistinctRatio float64
}

// Stats computes ColumnStats for attribute a. Distinct counts the values
// present in the column, not everything a shared dictionary holds.
func (t *Table) Stats(a int) ColumnStats {
	st := ColumnStats{Attr: t.schema.Attr(a), NumericAll: true, CanonicalAll: true}
	view := t.views[a]
	seen := make([]bool, len(view))
	for _, c := range t.cols[a] {
		v := view[c]
		if v != "" {
			st.NonEmpty++
		}
		if seen[c] {
			continue
		}
		seen[c] = true
		st.Distinct++
		if v == "" {
			continue
		}
		if !value.IsNumeric(v) {
			st.NumericAll = false
			st.CanonicalAll = false
		} else if !value.IsCanonical(v) {
			st.CanonicalAll = false
		}
	}
	if t.n > 0 {
		st.DistinctRatio = float64(st.Distinct) / float64(t.n)
	}
	if st.NonEmpty == 0 {
		st.NumericAll = false
		st.CanonicalAll = false
	}
	return st
}

// String renders a compact preview (schema plus up to 8 rows) for debugging.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.schema.attrs, " | "))
	sb.WriteByte('\n')
	n := t.Len()
	shown := n
	if shown > 8 {
		shown = 8
	}
	for i := 0; i < shown; i++ {
		sb.WriteString(strings.Join(t.Record(i), " | "))
		sb.WriteByte('\n')
	}
	if shown < n {
		fmt.Fprintf(&sb, "… (%d more rows)\n", n-shown)
	}
	return sb.String()
}
