package table

import "fmt"

// Builder assembles a table incrementally over a caller-chosen dictionary
// set: feeding source and target through builders sharing one set (or a
// DictPool's DictsFor) puts both snapshots in a common code space before
// the search even starts, so Instance.Coded shares their stored columns
// instead of translating them.
//
// A builder interns in batches: it buffers up to batchRecords records and
// then interns them column by column, taking each dictionary's lock once
// per batch instead of once per value. Codes are the same as record by
// record: each column's new values are coded in record order.
type Builder struct {
	t    *Table
	buf  []string // buffered records, row-major
	n    int      // records in buf
	done bool
}

// batchRecords is how many records a Builder buffers before interning.
const batchRecords = 256

// NewBuilder returns a builder for the given schema. dicts, when non-nil,
// must hold one dictionary per attribute (typically a shared set covering a
// snapshot pair, or a DictPool's DictsFor); nil creates fresh dictionaries.
func NewBuilder(s *Schema, dicts []*Dict) (*Builder, error) {
	if dicts == nil {
		return &Builder{t: New(s)}, nil
	}
	if len(dicts) != s.Len() {
		return nil, fmt.Errorf("table: got %d dictionaries, schema has %d attributes", len(dicts), s.Len())
	}
	for a, d := range dicts {
		if d == nil {
			return nil, fmt.Errorf("table: dictionary for attribute %d is nil", a)
		}
	}
	return &Builder{t: newTable(s, dicts)}, nil
}

// Append adds one record, validated against the schema. The record is
// copied — the builder keeps no reference to it.
func (b *Builder) Append(r Record) error {
	if b.done {
		return fmt.Errorf("table: builder already finished")
	}
	if len(r) != b.t.schema.Len() {
		return fmt.Errorf("table: record has %d values, schema has %d attributes", len(r), b.t.schema.Len())
	}
	b.add(r)
	return nil
}

// add buffers one record of the schema's width, interning the batch once
// it is full.
func (b *Builder) add(r Record) {
	b.buf = append(b.buf, r...)
	b.n++
	if b.n == batchRecords {
		b.flush()
	}
}

// flush interns the buffered records.
func (b *Builder) flush() {
	b.t.internBatch(b.buf, b.n)
	clear(b.buf) // drop the references to the interned strings
	b.buf, b.n = b.buf[:0], 0
}

// Len returns the number of records appended so far.
func (b *Builder) Len() int { return b.t.Len() + b.n }

// Table finishes the build and returns the table. The builder must not be
// appended to afterwards.
func (b *Builder) Table() *Table {
	if !b.done {
		b.flush()
		b.buf, b.done = nil, true
	}
	return b.t
}
