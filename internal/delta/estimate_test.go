package delta

import (
	"context"
	"runtime"
	"strconv"
	"testing"

	"affidavit/internal/table"
)

// TestMatchEstimateTracksAllocation: the estimate that decides when a
// budgeted matching goes to disk stays within [1×, 2×] of the bytes one
// in-memory matching actually allocates, whatever the schema's width (the
// index holds record positions, not tuples).
func TestMatchEstimateTracksAllocation(t *testing.T) {
	for _, n := range []int{1_000, 100_000, 300_000} {
		schema := table.MustSchema("id", "a", "b", "c", "d", "e", "f", "g")
		src, tgt := table.New(schema), table.New(schema)
		rec := make(table.Record, schema.Len())
		for i := 0; i < n; i++ {
			rec[0] = strconv.Itoa(i)
			for a := 1; a < len(rec); a++ {
				rec[a] = strconv.Itoa(i % (7 * a))
			}
			if err := src.Append(rec); err != nil {
				t.Fatal(err)
			}
			if err := tgt.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		inst, err := NewInstance(src, tgt, nil)
		if err != nil {
			t.Fatal(err)
		}
		co := inst.Coded()
		memos := make([][]int32, inst.NumAttrs()) // all identity

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		matchOf, err := match(context.Background(), inst, co, memos, 1, nil, nil)
		runtime.ReadMemStats(&after)
		if err != nil || len(matchOf) != n {
			t.Fatalf("n=%d: match: %v", n, err)
		}
		allocated := int64(after.TotalAlloc - before.TotalAlloc)
		est := matchEstimate(n, n)
		if est < allocated || est > 2*allocated {
			t.Errorf("n=%d: estimate %d B, allocated %d B (ratio %.2f, want within [1, 2])",
				n, est, allocated, float64(est)/float64(allocated))
		} else {
			t.Logf("n=%d: estimate %d B, allocated %d B (ratio %.2f)", n, est, allocated, float64(est)/float64(allocated))
		}
	}
}
