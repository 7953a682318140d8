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
// record: each column's new values are coded in record order. A batch is
// either Records (their strings) or CSV rows (their field bytes, which
// become strings only when new to a dictionary).
type Builder struct {
	t    *Table
	buf  []string // buffered records, row-major
	raw  []byte   // buffered CSV rows' fields, as CSVReader.readRecord lays them out
	ends []int
	n    int // records in buf or raw
	done bool
}

// batchRecords is how many records a Builder buffers before interning.
const batchRecords = 256

// maxReserve bounds how many records a CSV-fed Builder sizes its columns
// for up front (256 KiB per column): an input's byte count is only a
// promise, and one that a record cap will reject must not reserve memory
// its records would never have reached. Larger tables grow by append.
const maxReserve = 1 << 16

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
	if len(b.ends) > 0 {
		b.flush()
	}
	b.buf = append(b.buf, r...)
	b.n++
	if b.n == batchRecords {
		b.flush()
	}
}

// AppendCSV reads cr's next record straight into the batch and returns
// its field count, or io.EOF at the end of the input. A record whose
// field count is not the schema's is read but not appended: the count
// tells the caller. The builder must not be finished.
func (b *Builder) AppendCSV(cr *CSVReader) (int, error) {
	if len(b.buf) > 0 {
		b.flush()
	}
	nRaw, nEnds := len(b.raw), len(b.ends)
	raw, ends, err := cr.readRecord(b.raw, b.ends)
	n := len(ends) - nEnds
	if err != nil || n != b.t.schema.Len() {
		b.raw, b.ends = raw[:nRaw], ends[:nEnds]
		return n, err
	}
	b.raw, b.ends = raw, ends
	b.n++
	if b.n == batchRecords {
		if b.t.n == 0 {
			// Size the columns once, for as many records as the input's
			// bytes hold at the first batch's record width.
			want := cr.expected(b.n)
			b.t.reserve(min(want+want/16, maxReserve))
		}
		b.flush()
	}
	return n, nil
}

// flush interns the buffered records.
func (b *Builder) flush() {
	if len(b.ends) > 0 {
		b.t.internFields(b.raw, b.ends, b.n)
	} else {
		b.t.internBatch(b.buf, b.n)
	}
	clear(b.buf) // drop the references to the interned strings
	b.buf, b.raw, b.ends, b.n = b.buf[:0], b.raw[:0], b.ends[:0], 0
}

// Len returns the number of records appended so far.
func (b *Builder) Len() int { return b.t.Len() + b.n }

// Table finishes the build and returns the table. The builder must not be
// appended to afterwards.
func (b *Builder) Table() *Table {
	if !b.done {
		b.flush()
		b.buf, b.raw, b.ends, b.done = nil, nil, nil, true
	}
	return b.t
}
