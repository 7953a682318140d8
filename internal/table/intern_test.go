package table_test

import (
	"fmt"
	"sync"
	"testing"

	"affidavit/internal/table"
)

func TestDictRoundTrip(t *testing.T) {
	d := table.NewDict()
	values := []string{"a", "", "a", "b", "k $", "a|b", "b"}
	codes := make([]int32, len(values))
	for i, v := range values {
		codes[i] = d.Code(v)
	}
	if d.Len() != 5 {
		t.Errorf("Len = %d, want 5 distinct values", d.Len())
	}
	for i, v := range values {
		if got := d.Value(codes[i]); got != v {
			t.Errorf("Value(Code(%q)) = %q", v, got)
		}
	}
	// Equal strings share codes; distinct strings never do.
	if codes[0] != codes[2] || codes[3] != codes[6] {
		t.Error("equal values got distinct codes")
	}
	if codes[0] == codes[3] || codes[1] == codes[4] {
		t.Error("distinct values share a code")
	}
	if c, ok := d.Lookup("a"); !ok || c != codes[0] {
		t.Error("Lookup disagrees with Code")
	}
	if _, ok := d.Lookup("never interned"); ok {
		t.Error("Lookup invented a code")
	}
	if d.Len() != 5 {
		t.Error("Lookup must not intern")
	}
}

func TestDictConcurrentInterning(t *testing.T) {
	d := table.NewDict()
	const goroutines, values = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < values; i++ {
				v := fmt.Sprintf("v%03d", (i+g)%values)
				c := d.Code(v)
				if got := d.Value(c); got != v {
					t.Errorf("Value(Code(%q)) = %q", v, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if d.Len() != values {
		t.Errorf("Len = %d, want %d", d.Len(), values)
	}
}

func TestCodeColumnSharedCodeSpace(t *testing.T) {
	s := table.MustSchema("x", "y")
	src := table.MustFromRows(s, []table.Record{{"a", "1"}, {"b", "2"}, {"a", "3"}})
	tgt := table.MustFromRows(s, []table.Record{{"b", "2"}, {"c", "1"}})
	d := table.NewDict()
	sc := src.CodeColumn(0, d)
	tc := tgt.CodeColumn(0, d)
	if len(sc) != 3 || len(tc) != 2 {
		t.Fatalf("column lengths %d/%d", len(sc), len(tc))
	}
	if sc[0] != sc[2] {
		t.Error("repeated source value got two codes")
	}
	if sc[1] != tc[0] {
		t.Error("cross-snapshot equality must be code equality")
	}
	if tc[1] == sc[0] || tc[1] == sc[1] {
		t.Error("fresh target value collided with a source code")
	}
	// A second attribute interned into its own dict is an independent code
	// space.
	d2 := table.NewDict()
	yc := src.CodeColumn(1, d2)
	if d2.Value(yc[0]) != "1" {
		t.Error("per-attribute dict round trip failed")
	}
}

func TestDictPoolSharing(t *testing.T) {
	pool := table.NewDictPool()
	s1 := table.MustSchema("a", "b")
	s2 := table.MustSchema("b", "c")
	d1 := pool.DictsFor(s1)
	d2 := pool.DictsFor(s2)
	if d1[1] != d2[0] {
		t.Error("attribute \"b\" should share one dictionary across schemas")
	}
	if d1[0] == d2[1] {
		t.Error("attributes \"a\" and \"c\" should not share a dictionary")
	}
	if pool.Attrs() != 3 {
		t.Errorf("pool has %d attribute dicts, want 3", pool.Attrs())
	}
	c := d1[1].Code("x")
	if got := pool.Dict("b").Code("x"); got != c {
		t.Errorf("re-interning through the pool gave code %d, want %d", got, c)
	}
	if pool.Values() != 1 {
		t.Errorf("pool holds %d values, want 1", pool.Values())
	}
}

func TestDictPoolConcurrent(t *testing.T) {
	pool := table.NewDictPool()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				pool.Dict("attr").Code(fmt.Sprintf("v%d", i%50))
			}
		}(g)
	}
	wg.Wait()
	if got := pool.Dict("attr").Len(); got != 50 {
		t.Errorf("dict has %d values, want 50", got)
	}
}
