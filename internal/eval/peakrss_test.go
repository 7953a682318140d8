package eval

import (
	"context"
	"os"
	"strconv"
	"strings"
	"testing"

	"affidavit/internal/obs"
	"affidavit/internal/search"
)

// peakRSSCeilingKB is the committed ceiling on the process's peak resident
// set (VmHWM, which /proc reports in kB) after one Figure 5 row step at the
// size AFFIDAVIT_F5_ROWS names: 420 MB. The 500 000-row step read 340–354
// MB under GOMEMLIMIT=256MiB when the ceiling was set.
const peakRSSCeilingKB = 420_000

// TestFigure5PeakRSS runs one Figure 5 row step end-to-end — dataset
// generation, snapshot realisation, search and conversion — and checks the
// process's peak resident set. CI's memory-ceiling job (GOMEMLIMIT=256MiB)
// drives it at the paper's full 500000 rows via AFFIDAVIT_F5_ROWS and
// fails when VmHWM at the end exceeds peakRSSCeilingKB. Without the
// variable it runs a quick 20k-row smoke that checks the reference is
// reproduced and only logs the peak.
//
// On Linux the test logs VmHWM when the search starts — generation and
// snapshot realisation are behind it — and at the end (run with -v).
func TestFigure5PeakRSS(t *testing.T) {
	rows := 20000
	env := os.Getenv("AFFIDAVIT_F5_ROWS")
	if env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			t.Fatalf("bad AFFIDAVIT_F5_ROWS=%q: %v", env, err)
		}
		rows = n
	}

	ctx := obs.ContextWithSink(context.Background(), func(ev obs.Event) {
		if ev.Kind == obs.KindSearchStart {
			logPeakRSS(t, "after generation")
		}
	})
	points, err := Figure5(ctx, Figure5Spec{
		BaseRows: rows,
		Factors:  []float64{1.0},
		Seed:     1,
		Opts:     search.DefaultOptions(),
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
		t.Errorf("run did not reproduce the reference explanation at %d rows", points[0].Rows)
	}
	hwm := logPeakRSS(t, "at the end")
	if env != "" && hwm > peakRSSCeilingKB {
		t.Errorf("peak RSS %d kB exceeds the %d kB ceiling at %d base rows", hwm, peakRSSCeilingKB, rows)
	}
}

// logPeakRSS logs and returns VmHWM in kB from /proc/self/status; off
// Linux it logs nothing and returns 0.
func logPeakRSS(t *testing.T, when string) int {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if hwm, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			hwm = strings.TrimSpace(hwm)
			t.Logf("peak RSS %s: %s", when, hwm)
			kb, _ := strconv.Atoi(strings.TrimSuffix(hwm, " kB"))
			return kb
		}
	}
	return 0
}
