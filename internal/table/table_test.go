package table

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewSchema(t *testing.T) {
	s, err := NewSchema("a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if s.Attr(1) != "b" {
		t.Errorf("Attr(1) = %q, want b", s.Attr(1))
	}
	if s.Index("c") != 2 || s.Index("zzz") != -1 {
		t.Error("Index lookup wrong")
	}
}

func TestNewSchemaRejectsDuplicates(t *testing.T) {
	if _, err := NewSchema("a", "a"); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := NewSchema("a", ""); err == nil {
		t.Error("empty attribute accepted")
	}
}

func TestSchemaEqual(t *testing.T) {
	a := MustSchema("x", "y")
	b := MustSchema("x", "y")
	c := MustSchema("y", "x")
	d := MustSchema("x")
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) {
		t.Error("schema equality wrong")
	}
}

func TestSchemaWithWithout(t *testing.T) {
	s := MustSchema("a", "b", "c")
	s2, err := s.WithAttr("d")
	if err != nil || s2.Len() != 4 || s2.Attr(3) != "d" {
		t.Fatalf("WithAttr failed: %v %v", s2, err)
	}
	s3, old := s.WithoutAttrs(map[int]bool{1: true})
	if s3.Len() != 2 || s3.Attr(0) != "a" || s3.Attr(1) != "c" {
		t.Fatalf("WithoutAttrs wrong schema: %v", s3.Attrs())
	}
	if len(old) != 2 || old[0] != 0 || old[1] != 2 {
		t.Fatalf("WithoutAttrs wrong mapping: %v", old)
	}
}

func TestRecordKeyCollisionFree(t *testing.T) {
	// Without length prefixes these two would collide under naive joins.
	a := Record{"ab", "c"}
	b := Record{"a", "bc"}
	if a.Key() == b.Key() {
		t.Error("record keys collide")
	}
	if !a.Equal(a.Clone()) {
		t.Error("clone not equal")
	}
}

func TestTableBasics(t *testing.T) {
	s := MustSchema("id", "v")
	tab, err := FromRows(s, []Record{{"1", "x"}, {"2", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 || tab.Value(1, 1) != "y" {
		t.Error("FromRows content wrong")
	}
	if err := tab.Append(Record{"3", "z"}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Append(Record{"too", "many", "fields"}); err == nil {
		t.Error("Append accepted wrong width")
	}
	if _, err := FromRows(s, []Record{{"only-one"}}); err == nil {
		t.Error("FromRows accepted wrong width")
	}
	sel := tab.Select([]int{2, 0})
	if sel.Len() != 2 || sel.Value(0, 0) != "3" || sel.Value(1, 0) != "1" {
		t.Error("Select wrong")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := MustSchema("a")
	tab := MustFromRows(s, []Record{{"orig"}})
	c := tab.Clone()
	c.cols[0][0] = c.dicts[0].Code("mutated")
	if tab.Value(0, 0) != "orig" {
		t.Error("Clone aliases records")
	}
}

func TestDropAttrsAndWithColumn(t *testing.T) {
	s := MustSchema("a", "b", "c")
	tab := MustFromRows(s, []Record{{"1", "2", "3"}, {"4", "5", "6"}})
	d := tab.DropAttrs(map[int]bool{0: true, 2: true})
	if d.Schema().Len() != 1 || d.Value(1, 0) != "5" {
		t.Error("DropAttrs wrong")
	}
	// Original untouched.
	if tab.Schema().Len() != 3 || tab.Value(1, 2) != "6" {
		t.Error("DropAttrs mutated original")
	}
}

func TestStats(t *testing.T) {
	s := MustSchema("num", "canon", "cat", "empty")
	tab := MustFromRows(s, []Record{
		{"007", "1.5", "x", ""},
		{"12", "2", "y", ""},
		{"12", "3.25", "x", ""},
	})
	num := tab.Stats(0)
	if !num.NumericAll || num.CanonicalAll {
		t.Errorf("num stats wrong: %+v", num)
	}
	canon := tab.Stats(1)
	if !canon.NumericAll || !canon.CanonicalAll {
		t.Errorf("canon stats wrong: %+v", canon)
	}
	cat := tab.Stats(2)
	if cat.NumericAll || cat.Distinct != 2 {
		t.Errorf("cat stats wrong: %+v", cat)
	}
	empty := tab.Stats(3)
	if empty.NonEmpty != 0 || empty.NumericAll {
		t.Errorf("empty stats wrong: %+v", empty)
	}
	if got := tab.Stats(0).DistinctRatio; got < 0.66 || got > 0.67 {
		t.Errorf("DistinctRatio = %v, want 2/3", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := MustSchema("a", "b")
	tab := MustFromRows(s, []Record{
		{"1", "hello, world"},
		{"2", `with "quotes"`},
		{"3", "line\nbreak"},
		{"4", ""},
	})
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Schema().Equal(tab.Schema()) || got.Len() != tab.Len() {
		t.Fatal("round trip changed shape")
	}
	for i := 0; i < tab.Len(); i++ {
		if !got.Record(i).Equal(tab.Record(i)) {
			t.Errorf("row %d: got %v want %v", i, got.Record(i), tab.Record(i))
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty csv accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1\n")); err == nil {
		t.Error("ragged csv accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,a\n1,2\n")); err == nil {
		t.Error("duplicate header accepted")
	}
	if _, err := ReadCSVFile("/nonexistent/path.csv"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestStringPreview(t *testing.T) {
	s := MustSchema("a")
	var rows []Record
	for i := 0; i < 12; i++ {
		rows = append(rows, Record{"v"})
	}
	tab := MustFromRows(s, rows)
	out := tab.String()
	if !strings.Contains(out, "more rows") {
		t.Errorf("preview should elide rows: %q", out)
	}
}

// Property: Record.Key is injective on the records we generate.
func TestQuickRecordKeyInjective(t *testing.T) {
	f := func(a1, a2, b1, b2 string) bool {
		ra := Record{a1, a2}
		rb := Record{b1, b2}
		if ra.Equal(rb) {
			return ra.Key() == rb.Key()
		}
		return ra.Key() != rb.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CSV round trip preserves arbitrary cell content.
func TestQuickCSVRoundTrip(t *testing.T) {
	f := func(v1, v2 string) bool {
		// csv cannot represent bare \r reliably across round trips; the
		// package normalises \r\n. Restrict to values without \r.
		if strings.ContainsRune(v1, '\r') || strings.ContainsRune(v2, '\r') {
			return true
		}
		s := MustSchema("x", "y")
		tab := MustFromRows(s, []Record{{v1, v2}})
		var buf bytes.Buffer
		if err := tab.WriteCSV(&buf); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		return got.Len() == 1 && got.Record(0).Equal(tab.Record(0))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
