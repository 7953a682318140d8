package table

import "fmt"

// Builder assembles a table incrementally over a caller-chosen dictionary
// set: feeding source and target through builders sharing one set (or a
// DictPool's DictsFor) puts both snapshots in a common code space before
// the search even starts, so Instance.Coded shares their stored columns
// instead of translating them.
type Builder struct {
	t    *Table
	done bool
}

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

// Append interns one record. The record is consumed by value — the builder
// keeps no reference to it.
func (b *Builder) Append(r Record) error {
	if b.done {
		return fmt.Errorf("table: builder already finished")
	}
	return b.t.Append(r)
}

// Len returns the number of records appended so far.
func (b *Builder) Len() int { return b.t.Len() }

// Table finishes the build and returns the table. The builder must not be
// appended to afterwards.
func (b *Builder) Table() *Table {
	b.done = true
	return b.t
}
