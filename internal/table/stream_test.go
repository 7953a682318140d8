package table

import (
	"bytes"
	"testing"
)

func buildColumnar(t *testing.T, s *Schema, rows []Record, dicts []*Dict) *Table {
	t.Helper()
	b, err := NewBuilder(s, dicts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := b.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	return b.Table()
}

var streamRows = []Record{
	{"a", "1", "x"},
	{"b", "2", "x"},
	{"a", "2", "y"},
	{"", "1", "x"},
}

// dictKinds are the two ways a table meets its dictionaries: fresh ones of
// its own, or a set it shares with other tables and that already holds
// values the table never stores.
var dictKinds = map[string]func(t *testing.T, s *Schema) []*Dict{
	"fresh": func(*testing.T, *Schema) []*Dict { return nil },
	"shared": func(t *testing.T, s *Schema) []*Dict {
		dicts := NewDictPool().DictsFor(s)
		buildColumnar(t, s, []Record{{"other", "7", "z"}, {"b", "1", "w"}}, dicts)
		return dicts
	},
}

func csvOf(t *testing.T, tab *Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// walk checks every read accessor of tab against the rows it should hold.
func walk(t *testing.T, label string, tab *Table, rows []Record) {
	t.Helper()
	ref := MustFromRows(tab.Schema(), rows)
	if tab.Len() != len(rows) {
		t.Fatalf("%s: Len = %d, want %d", label, tab.Len(), len(rows))
	}
	for i, want := range rows {
		got := tab.Record(i)
		if !got.Equal(want) {
			t.Errorf("%s: record %d = %v, want %v", label, i, got, want)
		}
		for a := range want {
			if tab.Value(i, a) != want[a] {
				t.Errorf("%s: value %d,%d = %q, want %q", label, i, a, tab.Value(i, a), want[a])
			}
			got[a] = "scribbled" // a decoded record never aliases the table
		}
	}
	for a := 0; a < tab.Schema().Len(); a++ {
		if got, want := tab.Stats(a), ref.Stats(a); got != want {
			t.Errorf("%s: stats %d = %+v, want %+v", label, a, got, want)
		}
		// Own dictionary: the stored column itself, clamped. Foreign: a
		// fresh slice, interning only the values present, in record order.
		own := tab.CodeColumn(a, tab.dicts[a])
		if len(own) != len(rows) || cap(own) != len(own) || (len(own) > 0 && &own[0] != &tab.cols[a][0]) {
			t.Errorf("%s: attr %d: own-dictionary CodeColumn is not the clamped stored column", label, a)
		}
		foreign := NewDict()
		codes := tab.CodeColumn(a, foreign)
		if len(codes) > 0 && &codes[0] == &tab.cols[a][0] {
			t.Errorf("%s: attr %d: foreign CodeColumn shares the stored column", label, a)
		}
		next := int32(0)
		for i, c := range codes {
			if foreign.Value(c) != rows[i][a] {
				t.Errorf("%s: attr %d rec %d: decoded %q, want %q", label, a, i, foreign.Value(c), rows[i][a])
			}
			if c > next {
				t.Errorf("%s: attr %d rec %d: code %d skips ahead of first-appearance order", label, a, i, c)
			}
			if c == next {
				next++
			}
		}
		if foreign.Len() != ref.Stats(a).Distinct {
			t.Errorf("%s: attr %d: foreign dict holds %d values, %d are present", label, a, foreign.Len(), ref.Stats(a).Distinct)
		}
	}
	if got, want := csvOf(t, tab), csvOf(t, ref); got != want {
		t.Errorf("%s: CSV differs:\n%s\nvs\n%s", label, got, want)
	}
}

// TestBuilderEquivalence: a table is observationally the rows it was built
// from, whichever dictionaries it interns into, and so is every table
// derived from it.
func TestBuilderEquivalence(t *testing.T) {
	s := MustSchema("k", "n", "c")
	for kind, dicts := range dictKinds {
		tab := buildColumnar(t, s, streamRows, dicts(t, s))
		walk(t, kind, tab, streamRows)
		walk(t, kind+"/clone", tab.Clone(), streamRows)
		walk(t, kind+"/select", tab.Select([]int{2, 0, 2}), []Record{streamRows[2], streamRows[0], streamRows[2]})
		walk(t, kind+"/drop", tab.DropAttrs(map[int]bool{1: true}),
			[]Record{{"a", "x"}, {"b", "x"}, {"a", "y"}, {"", "x"}})
		walk(t, kind+"/drop/select", tab.DropAttrs(map[int]bool{0: true}).Select([]int{3}), []Record{{"1", "x"}})
	}
}

// TestBuilderSharedDicts: CodeColumn against the backing dictionary must
// return the stored codes without interning anything new.
func TestBuilderSharedDicts(t *testing.T) {
	s := MustSchema("k", "n", "c")
	dicts := []*Dict{NewDict(), NewDict(), NewDict()}
	col := buildColumnar(t, s, streamRows, dicts)
	for a := 0; a < s.Len(); a++ {
		before := dicts[a].Len()
		codes := col.CodeColumn(a, dicts[a])
		if dicts[a].Len() != before {
			t.Errorf("attr %d: CodeColumn grew the backing dict", a)
		}
		for i, c := range codes {
			if got := dicts[a].Value(c); got != streamRows[i][a] {
				t.Errorf("attr %d rec %d: decoded %q, want %q", a, i, got, streamRows[i][a])
			}
		}
	}
}

// TestColumnarMutators: appending to a table never shows through a table
// derived from it or a column it handed out, and vice versa — also when the
// stored columns have spare capacity behind the shared view.
func TestColumnarMutators(t *testing.T) {
	s := MustSchema("k", "n", "c")
	extra := Record{"z", "9", "new"}
	rows := append(append([]Record(nil), streamRows...), extra) // 5 records in capacity 8
	dropped := []Record{{"a", "x"}, {"b", "x"}, {"a", "y"}, {"", "x"}, {"z", "new"}}
	for kind, dicts := range dictKinds {
		tab := buildColumnar(t, s, rows, dicts(t, s))
		clone, drop := tab.Clone(), tab.DropAttrs(map[int]bool{1: true})
		shared := tab.CodeColumn(0, tab.dicts[0])
		want := append([]int32(nil), shared...)
		if err := drop.Append(Record{"q", "r"}); err != nil {
			t.Fatal(err)
		}
		if err := tab.Append(extra); err != nil {
			t.Fatal(err)
		}
		if err := clone.Append(Record{"w", "8", "more"}); err != nil {
			t.Fatal(err)
		}
		walk(t, kind+"/appended", tab, append(rows, extra))
		walk(t, kind+"/drop", drop, append(dropped, Record{"q", "r"}))
		walk(t, kind+"/clone", clone, append(rows, Record{"w", "8", "more"}))
		for i := range want {
			if shared[i] != want[i] {
				t.Errorf("%s: shared column moved at %d after Append", kind, i)
			}
		}
		if err := tab.Append(Record{"short"}); err == nil {
			t.Errorf("%s: width mismatch not rejected", kind)
		}
	}
}

// TestBuilderValidation: dictionary count and finished-builder misuse.
func TestBuilderValidation(t *testing.T) {
	s := MustSchema("a", "b")
	if _, err := NewBuilder(s, []*Dict{NewDict()}); err == nil {
		t.Error("dict count mismatch not rejected")
	}
	if _, err := NewBuilder(s, []*Dict{NewDict(), nil}); err == nil {
		t.Error("nil dict not rejected")
	}
	b, err := NewBuilder(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = b.Table()
	if err := b.Append(Record{"x", "y"}); err == nil {
		t.Error("append after Table() not rejected")
	}
}
