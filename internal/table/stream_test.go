package table

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
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

// TestBuilderBatchBoundaries: however many records a builder buffers
// before it interns, it must give the codes, columns and dictionaries of
// interning record by record — each column's new values coded in record
// order — on fresh and pre-seeded shared dictionaries and on a pool that
// a source and then a target snapshot intern into.
func TestBuilderBatchBoundaries(t *testing.T) {
	s := MustSchema("k", "n", "c", "u")
	// row i repeats values across rows and columns, so later rows hit codes
	// that earlier batches assigned; column u is distinct per row, so its
	// values collide in a dictionary's recent-value table.
	row := func(i int) Record {
		return Record{fmt.Sprintf("k%d", i%97), fmt.Sprintf("%d", i%13), fmt.Sprintf("k%d", i%7), fmt.Sprintf("u%d", i)}
	}
	rows := func(n, from int) []Record {
		out := make([]Record, n)
		for i := range out {
			out[i] = row(from + i)
		}
		return out
	}
	// reference interns rows into dictionaries seeded with seed, record by
	// record, as plain maps.
	type refDict struct {
		codes map[string]int32
		vals  []string
	}
	reference := func(seed [][]string, snaps ...[]Record) ([]refDict, [][][]int32) {
		dicts := make([]refDict, s.Len())
		for a := range dicts {
			dicts[a].codes = map[string]int32{}
			for _, v := range seed[a] {
				dicts[a].codes[v] = int32(len(dicts[a].vals))
				dicts[a].vals = append(dicts[a].vals, v)
			}
		}
		cols := make([][][]int32, len(snaps))
		for si, recs := range snaps {
			cols[si] = make([][]int32, s.Len())
			for _, r := range recs {
				for a, v := range r {
					c, ok := dicts[a].codes[v]
					if !ok {
						c = int32(len(dicts[a].vals))
						dicts[a].codes[v] = c
						dicts[a].vals = append(dicts[a].vals, v)
					}
					cols[si][a] = append(cols[si][a], c)
				}
			}
		}
		return dicts, cols
	}
	check := func(label string, tabs []*Table, dicts []*Dict, seed [][]string, snaps ...[]Record) {
		t.Helper()
		wantDicts, wantCols := reference(seed, snaps...)
		for a, d := range dicts {
			if got := d.Snapshot(); !slices.Equal(got, wantDicts[a].vals) {
				t.Fatalf("%s: attr %d dictionary %q, record by record %q", label, a, got, wantDicts[a].vals)
			}
		}
		for si, tab := range tabs {
			walk(t, fmt.Sprintf("%s/snapshot %d", label, si), tab, snaps[si])
			for a := range dicts {
				if got := tab.CodeColumn(a, dicts[a]); !slices.Equal(got, wantCols[si][a]) {
					t.Fatalf("%s: snapshot %d attr %d codes %v, record by record %v", label, si, a, got, wantCols[si][a])
				}
			}
		}
	}
	const b = batchRecords
	for _, n := range []int{0, 1, b - 1, b, b + 1, 2*b + 1} {
		// Shared dictionaries, pre-seeded with values the table also holds.
		seed := [][]string{{"k5", "other"}, {"7"}, {"k3", "k96"}, {"u9"}}
		dicts := []*Dict{NewDict(), NewDict(), NewDict(), NewDict()}
		for a, vs := range seed {
			for _, v := range vs {
				dicts[a].Code(v)
			}
		}
		src := rows(n, 0)
		check(fmt.Sprintf("shared/%d", n), []*Table{buildColumnar(t, s, src, dicts)}, dicts, seed, src)

		// Fresh dictionaries, through the Builder, FromRows and CSV rows.
		none := [][]string{nil, nil, nil, nil}
		built := buildColumnar(t, s, src, nil)
		check(fmt.Sprintf("fresh/%d", n), []*Table{built}, built.dicts, none, src)
		fromRows := MustFromRows(s, src)
		check(fmt.Sprintf("FromRows/%d", n), []*Table{fromRows}, fromRows.dicts, none, src)
		read, err := readCSV(strings.NewReader(csvOf(t, built)))
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("CSV/%d", n), []*Table{read}, read.dicts, none, src)

		// One builder fed Records and CSV rows by turns: switching kinds
		// interns the pending batch first, so record order holds.
		for _, run := range []int{3, b + 44} {
			cr := NewCSVReader(strings.NewReader(csvOf(t, built)))
			if _, err := cr.Read(); err != nil { // the header
				t.Fatal(err)
			}
			mixed, err := NewBuilder(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range src {
				if i/run%2 == 0 {
					if err := mixed.Append(r); err != nil {
						t.Fatal(err)
					}
					if _, err := cr.Read(); err != nil { // the same row, skipped
						t.Fatal(err)
					}
				} else if w, err := mixed.AppendCSV(cr); err != nil || w != s.Len() {
					t.Fatalf("AppendCSV = %d, %v", w, err)
				}
			}
			tab := mixed.Table()
			check(fmt.Sprintf("mixed/%d/%d", run, n), []*Table{tab}, tab.dicts, none, src)
		}

		// A pool: the source snapshot, then a target that shares most values.
		pool := NewDictPool()
		tgt := rows(n+3, 50)
		srcTab := buildColumnar(t, s, src, pool.DictsFor(s))
		tgtTab := buildColumnar(t, s, tgt, pool.DictsFor(s))
		check(fmt.Sprintf("pool/%d", n), []*Table{srcTab, tgtTab}, pool.DictsFor(s), none, src, tgt)
	}
}

// TestBuilderLenCountsBuffered: Len counts the records appended so far,
// interned or still buffered, and an invalid record is rejected when it is
// appended, whatever its place in a batch.
func TestBuilderLenCountsBuffered(t *testing.T) {
	s := MustSchema("a", "b")
	bld, err := NewBuilder(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < batchRecords+10; i++ {
		if i == batchRecords/2 || i == batchRecords+3 {
			if err := bld.Append(Record{"short"}); err == nil {
				t.Fatalf("short record at %d accepted", i)
			}
		}
		if err := bld.Append(Record{fmt.Sprint(i), "x"}); err != nil {
			t.Fatal(err)
		}
		if bld.Len() != i+1 {
			t.Fatalf("after %d appends Len = %d", i+1, bld.Len())
		}
	}
	if tab := bld.Table(); tab.Len() != batchRecords+10 {
		t.Fatalf("table holds %d records, want %d", tab.Len(), batchRecords+10)
	}
}

// TestAppendCSVReservesFromByteCount: the first full batch sizes the
// columns for the records the input's byte count implies, so a table that
// fits grows no further, and never for more than maxReserve records, so a
// byte count promising millions of rows reserves a bounded amount.
func TestAppendCSVReservesFromByteCount(t *testing.T) {
	for _, tc := range []struct {
		rows    int
		wantCap func(c int) bool
	}{
		{batchRecords + 200, func(c int) bool { return c >= batchRecords+200 && c <= 2*(batchRecords+200) }},
		{5 << 20, func(c int) bool { return c == maxReserve }},
	} {
		in := "v\n" + strings.Repeat("1\n", tc.rows)
		cr := NewCSVReader(strings.NewReader(in))
		if _, err := cr.Read(); err != nil {
			t.Fatal(err)
		}
		b, err := NewBuilder(MustSchema("v"), nil)
		if err != nil {
			t.Fatal(err)
		}
		for range batchRecords {
			if n, err := b.AppendCSV(cr); n != 1 || err != nil {
				t.Fatalf("AppendCSV = %d, %v", n, err)
			}
		}
		if c := cap(b.t.cols[0]); !tc.wantCap(c) {
			t.Errorf("%d rows: column capacity %d after the first batch", tc.rows, c)
		}
	}
}
