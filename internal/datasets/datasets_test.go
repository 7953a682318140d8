package datasets_test

import (
	"testing"

	"affidavit/internal/datasets"
)

// table2Shapes is |A| (including the artificial key) and record counts as
// printed in Table 2, plus flight-500k from Section 5.4.1.
var table2Shapes = map[string]struct{ attrs, rows int }{
	"iris": {6, 150}, "balance": {6, 625}, "chess": {8, 28056},
	"abalone": {9, 4177}, "nursery": {10, 12960}, "bridges": {10, 108},
	"echo": {10, 132}, "breast": {11, 699}, "adult": {15, 48842},
	"ncvoter-1k": {16, 1000}, "letter": {18, 20000}, "hepatitis": {19, 155},
	"horse": {28, 368}, "fd-red-30": {31, 250000}, "plista": {43, 1000},
	"flight-1k": {75, 1000}, "uniprot": {182, 1000}, "flight-500k": {21, 500000},
}

func TestRegistryMatchesTable2(t *testing.T) {
	specs := datasets.All()
	if len(specs) != len(table2Shapes) {
		t.Fatalf("registry has %d datasets, want %d", len(specs), len(table2Shapes))
	}
	for _, s := range specs {
		want, ok := table2Shapes[s.Name]
		if !ok {
			t.Errorf("unexpected dataset %q", s.Name)
			continue
		}
		if s.DataAttrs != want.attrs-1 {
			t.Errorf("%s: DataAttrs = %d, want |A|−1 = %d", s.Name, s.DataAttrs, want.attrs-1)
		}
		if s.Rows != want.rows {
			t.Errorf("%s: Rows = %d, want %d", s.Name, s.Rows, want.rows)
		}
		if len(s.Columns) != s.DataAttrs {
			t.Errorf("%s: %d columns for %d attrs", s.Name, len(s.Columns), s.DataAttrs)
		}
	}
}

func TestGetAndNames(t *testing.T) {
	if _, err := datasets.Get("iris"); err != nil {
		t.Fatal(err)
	}
	if _, err := datasets.Get("nope"); err == nil {
		t.Error("unknown dataset accepted")
	}
	names := datasets.Names()
	if len(names) != 18 || names[0] != "iris" {
		t.Errorf("Names = %v", names)
	}
}

// TestBuildShapesAndRatios builds each dataset (large ones at reduced row
// counts) and checks that (a) shapes match, (b) no column violates the
// generator's 0.7 distinct-ratio filter, and (c) no column is entirely
// empty — so the Section 5.1 preprocessing drops nothing and Table 2's |A|
// is preserved.
func TestBuildShapesAndRatios(t *testing.T) {
	for _, s := range datasets.All() {
		rows := s.Rows
		if rows > 20000 {
			rows = 20000
		}
		tab, err := s.BuildRows(rows, 7)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if tab.Len() != rows || tab.Schema().Len() != s.DataAttrs {
			t.Errorf("%s: built %d×%d, want %d×%d",
				s.Name, tab.Len(), tab.Schema().Len(), rows, s.DataAttrs)
		}
		for a := 0; a < tab.Schema().Len(); a++ {
			st := tab.Stats(a)
			if st.DistinctRatio > 0.7 {
				t.Errorf("%s.%s: distinct ratio %.2f exceeds the 0.7 filter",
					s.Name, st.Attr, st.DistinctRatio)
			}
			if st.NonEmpty == 0 {
				t.Errorf("%s.%s: column entirely empty", s.Name, st.Attr)
			}
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	s, _ := datasets.Get("iris")
	a, err := s.Build(42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build(42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		if !a.Record(i).Equal(b.Record(i)) {
			t.Fatal("same seed built different tables")
		}
	}
	c, err := s.Build(43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < a.Len(); i++ {
		if !a.Record(i).Equal(c.Record(i)) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds built identical tables")
	}
}

// TestLowCardinalityProfile: chess, letter and nursery must contain only
// low-cardinality attributes relative to their record counts — the property
// that makes the overlap-based Hs start state fail in Table 2.
func TestLowCardinalityProfile(t *testing.T) {
	for _, name := range []string{"chess", "letter", "nursery"} {
		s, err := datasets.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := s.BuildRows(5000, 1)
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < tab.Schema().Len(); a++ {
			st := tab.Stats(a)
			if st.Distinct > 30 {
				t.Errorf("%s.%s has %d distinct values; profile should be low-cardinality",
					name, st.Attr, st.Distinct)
			}
		}
	}
}

func TestSpecValidation(t *testing.T) {
	bad := datasets.Spec{Name: "bad", Rows: 10, DataAttrs: 2,
		Columns: []datasets.Column{datasets.Int{N: "only-one", Min: 0, Max: 1}}}
	if _, err := bad.Build(1); err == nil {
		t.Error("mismatched spec accepted")
	}
}

func TestSparseColumn(t *testing.T) {
	s := datasets.Spec{Name: "sp", Rows: 500, DataAttrs: 1, Columns: []datasets.Column{
		datasets.Sparse{Col: datasets.Int{N: "v", Min: 0, Max: 9}, P: 0.5},
	}}
	tab, err := s.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	st := tab.Stats(0)
	if st.NonEmpty == 0 || st.NonEmpty == tab.Len() {
		t.Errorf("sparse column should mix empty and non-empty: %+v", st)
	}
}
