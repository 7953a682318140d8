package blocking_test

import (
	"fmt"
	"math/rand"
	"testing"

	"affidavit/internal/blocking"
	"affidavit/internal/delta"
	"affidavit/internal/metafunc"
	"affidavit/internal/table"
)

// bigInstance builds an instance of 2·rows records with skewed
// cardinalities: a key-like attribute (rows/2 values), a 7-valued one and a
// numeric one shifted by 7 between the snapshots.
func bigInstance(t testing.TB, rows int) *delta.Instance {
	t.Helper()
	add7, err := metafunc.NewAdd("7")
	if err != nil {
		t.Fatal(err)
	}
	schema := table.MustSchema("hi", "lo", "num")
	rng := rand.New(rand.NewSource(5))
	rec := func() table.Record {
		return table.Record{
			fmt.Sprintf("v%d", rng.Intn(rows/2)), // high cardinality
			fmt.Sprintf("g%d", rng.Intn(7)),      // low cardinality
			fmt.Sprintf("%d", rng.Intn(1000)),
		}
	}
	src := table.New(schema)
	tgt := table.New(schema)
	for i := 0; i < rows; i++ {
		r := rec()
		if err := src.Append(r); err != nil {
			t.Fatal(err)
		}
		// Most targets mirror a transformed source record; some are fresh.
		if rng.Intn(10) == 0 {
			r = rec()
		}
		r = r.Clone()
		r[2] = add7.Apply(r[2])
		if err := tgt.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	inst, err := delta.NewInstance(src, tgt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

var refineSink int

// BenchmarkRefine times the two halves of one refinement of a single
// 800 000-record block — the shape that dominates early search — by its
// low-cardinality attribute: count is what Refine itself costs (the
// counting pass every candidate state pays), force adds the grouping pass
// and block build that only states reaching an accessor pay. count-small
// is the counting pass over the same records once the key-like attribute
// has split them into ~200 000 blocks of a few records each, the shape
// of late search.
func BenchmarkRefine(b *testing.B) {
	root := blocking.New(bigInstance(b, 400000))
	b.Run("count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refineSink += root.Refine(1, metafunc.Identity{}).TargetSurplus()
		}
	})
	b.Run("force", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refineSink += len(root.Refine(1, metafunc.Identity{}).Blocks())
		}
	})
	byKey := root.Refine(0, metafunc.Identity{})
	byKey.Blocks()
	b.Run("count-small", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refineSink += byKey.Refine(2, metafunc.Identity{}).TargetSurplus()
		}
	})
}
