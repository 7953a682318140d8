package eval

import (
	"context"
	"os"
	"strings"
	"testing"

	"affidavit/internal/obs"
	"affidavit/internal/search"
	"affidavit/internal/spill"
)

// TestFigure5OutOfCore runs one Figure 5 row step end-to-end — dataset
// generation, snapshot realisation, search and conversion — under a memory
// budget. CI's memory-capped job (GOMEMLIMIT=256MiB) drives it at the
// paper's full 500000 rows via AFFIDAVIT_F5_ROWS, proving the out-of-core
// path completes where the in-memory pipeline needs gigabytes; without the
// variable it runs a quick 20k-row smoke so the path stays covered by
// plain `go test`.
//
// Byte-identity of budgeted explanations is asserted against unbudgeted
// runs at test scale by TestSpillEquivalence (root package) — it cannot be
// asserted here at 500k rows, because the comparison run would need the
// very memory the cap removes.
//
// On Linux the test logs the process's peak resident set (VmHWM) when the
// search starts — generation and snapshot realisation are behind it — and
// at the end, so what -mem-budget buys is a number (run with -v).
func TestFigure5OutOfCore(t *testing.T) {
	rows := 20000
	if env := os.Getenv("AFFIDAVIT_F5_ROWS"); env != "" {
		n, err := spill.ParseSize(env) // plain integers parse too
		if err != nil || n <= 0 {
			t.Fatalf("bad AFFIDAVIT_F5_ROWS=%q: %v", env, err)
		}
		rows = int(n)
	}
	budget := int64(96 << 20)
	if env := os.Getenv("AFFIDAVIT_F5_BUDGET"); env != "" {
		n, err := spill.ParseSize(env)
		if err != nil || n <= 0 {
			t.Fatalf("bad AFFIDAVIT_F5_BUDGET=%q: %v", env, err)
		}
		budget = n
	} else if rows <= 20000 {
		budget = 4 << 20 // smoke mode: tiny budget so spilling actually engages
	}

	opts := search.DefaultOptions()
	opts.Spill = spill.NewManager(budget, "")
	opts.OnEvent = func(ev obs.Event) {
		if ev.Kind == obs.KindSearchStart {
			logPeakRSS(t, "after generation")
		}
	}
	points, err := Figure5(context.Background(), Figure5Spec{
		BaseRows: rows,
		Factors:  []float64{1.0},
		Seed:     1,
		Opts:     opts,
		Progress: func(p ScalePoint) {
			t.Logf("factor %.0f%%: %d rows in %v (matched reference: %v)",
				p.Factor*100, p.Rows, p.Time, p.MatchedReference)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("got %d points, want 1", len(points))
	}
	if points[0].Rows == 0 {
		t.Fatal("empty instance")
	}
	if !points[0].MatchedReference {
		t.Errorf("budgeted run did not reproduce the reference explanation at %d rows", points[0].Rows)
	}
	logPeakRSS(t, "at the end")
}

// logPeakRSS logs VmHWM from /proc/self/status; off Linux it logs nothing.
func logPeakRSS(t *testing.T, when string) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return
	}
	for _, line := range strings.Split(string(status), "\n") {
		if hwm, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			t.Logf("peak RSS %s: %s", when, strings.TrimSpace(hwm))
		}
	}
}
