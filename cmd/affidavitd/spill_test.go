package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"affidavit"
)

// get fetches a URL and returns its body as a string.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// spillPair is a CSV pair big and distinct enough that an 8 KiB budget
// spills during the end-state conversion.
func spillPair() (source, target string) {
	var src, tgt strings.Builder
	src.WriteString("id,city,qty\n")
	tgt.WriteString("id,city,qty\n")
	for i := 0; i < 600; i++ {
		fmt.Fprintf(&src, "%d,city-%d,%d\n", i, i%37, i%11)
		fmt.Fprintf(&tgt, "%d,city-%d,%d\n", i+1000000, i%37, i%11+7)
	}
	return src.String(), tgt.String()
}

// TestServerSpillCounters: under -mem-budget, /stats and /metrics expose
// the out-of-core totals (spill_bytes_total / spill_partitions_total and
// the affidavit_spill_* counters).
func TestServerSpillCounters(t *testing.T) {
	srv := httptest.NewServer(mustServer(t, serverConfig{
		options: append(testOptions(), affidavit.WithMemBudget(8<<10)),
	}).handler())
	t.Cleanup(srv.Close)

	source, target := spillPair()
	code, body := post(t, srv, source, target, nil)
	if code != http.StatusOK {
		t.Fatalf("explain: status %d body %.200s", code, body)
	}
	if !strings.Contains(string(body), `"spilled_bytes"`) {
		t.Errorf("response stats lack spilled_bytes: %.300s", body)
	}

	stats := get(t, srv.URL+"/stats")
	for _, want := range []string{`"spill_bytes_total"`, `"spill_partitions_total"`} {
		if !strings.Contains(stats, want) {
			t.Errorf("/stats lacks %s: %.300s", want, stats)
		}
	}
	if strings.Contains(stats, `"spill_bytes_total": 0,`) {
		t.Errorf("/stats reports zero spill bytes after a budgeted explanation: %.300s", stats)
	}

	metrics := get(t, srv.URL+"/metrics")
	for _, want := range []string{"affidavit_spill_bytes_total", "affidavit_spill_partitions_total"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
	if strings.Contains(metrics, "affidavit_spill_bytes_total 0\n") {
		t.Error("/metrics reports zero spill bytes after a budgeted explanation")
	}
}

// TestMaxSnapshotMentionsMemBudget: the -max-snapshot rejection points at
// -mem-budget as the way to serve genuinely large snapshots.
func TestMaxSnapshotMentionsMemBudget(t *testing.T) {
	srv := httptest.NewServer(mustServer(t, serverConfig{
		options:          testOptions(),
		maxSnapshotBytes: 1 << 10,
	}).handler())
	t.Cleanup(srv.Close)

	huge := "v\n" + strings.Repeat("x", 4<<10) + "\n"
	code, body := post(t, srv, huge, "v\na\n", nil)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(string(body), "-mem-budget") {
		t.Errorf("rejection does not mention -mem-budget: %.200s", body)
	}
}
