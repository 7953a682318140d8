package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
)

// metricsMix drives a fixed request mix through a durable server and a
// restart of it, and returns both /metrics pages without their histogram
// series (wall times): a cold /explain and its duplicate, a registered
// table with three pushes, and a chain whose third push runs after the
// restart — the step that re-seeds from its parent's blob, the one path
// that ingests inside a job run.
func metricsMix(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	ch := testChain(t, 2)
	csvs := make([]string, len(ch.Snapshots))
	for i, snap := range ch.Snapshots {
		csvs[i] = csvOf(t, snap)
	}
	explain := func(srv *httptest.Server, table string, src, tgt int) {
		t.Helper()
		if code, body := post(t, srv, csvs[src], csvs[tgt], map[string]string{"table": table}); code != http.StatusOK {
			t.Fatalf("explain %s: status %d: %s", table, code, body)
		}
	}
	push := func(srv *httptest.Server, table string, snap, wantCode int) {
		t.Helper()
		if code, body, _ := pushSnapshot(t, srv, table, csvs[snap], nil); code != wantCode {
			t.Fatalf("push %s: status %d, want %d: %s", table, code, wantCode, body)
		}
	}
	register := func(srv *httptest.Server, table string) {
		t.Helper()
		if code, body := registerTable(t, srv, table); code != http.StatusCreated {
			t.Fatalf("register %s: status %d: %s", table, code, body)
		}
	}
	var out strings.Builder
	page := func(label string, srv *httptest.Server) {
		out.WriteString("== " + label + "\n")
		for _, line := range strings.SplitAfter(get(t, srv.URL+"/metrics"), "\n") {
			if !strings.Contains(line, "_duration_seconds") {
				out.WriteString(line)
			}
		}
	}

	s := mustServer(t, serverConfig{options: testOptions(), jobsDir: dir})
	srv := httptest.NewServer(s.handler())
	explain(srv, "cold", 0, 1)
	explain(srv, "cold", 0, 1)
	register(srv, "pushed")
	push(srv, "pushed", 0, http.StatusCreated)
	push(srv, "pushed", 1, http.StatusOK)
	push(srv, "pushed", 2, http.StatusOK)
	register(srv, "durable")
	push(srv, "durable", 0, http.StatusCreated)
	push(srv, "durable", 1, http.StatusOK)
	page("before restart", srv)
	srv.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustServer(t, serverConfig{options: testOptions(), jobsDir: dir})
	t.Cleanup(func() { s2.Close() })
	srv2 := httptest.NewServer(s2.handler())
	t.Cleanup(srv2.Close)
	push(srv2, "durable", 2, http.StatusOK)
	page("after restart", srv2)
	return out.String()
}

// TestMetricsGolden: every non-histogram /metrics line of the request mix
// equals the page the parent commit's code served for it
// (testdata/metrics_parent.txt, recorded there, no -update on purpose),
// so rewiring how runs reach their sessions and observers moves no
// counter. The last series of each page — affidavit_jobs_journal_failed,
// affidavit_catalog_journal_failed, affidavit_traces_retained and the
// per-table affidavit_chain_runs and affidavit_chain_pool_values — were
// appended to the recording when /metrics took over what GET /stats
// served. The three affidavit_chain_pool_values samples were re-measured
// when apply memos came to cover source codes only (314, 367 and 312
// before): a memo no longer interns function outputs of target-only
// values. The affidavit_search_polls_total and
// affidavit_search_states_costed_total samples of the first page were
// re-measured when a warm step whose carried tuple reproduces the previous
// compression stopped polling the no-mapping state (62 and 252 before):
// the mix's third push polls one state fewer and costs six fewer. The
// HELP, TYPE and sample lines of affidavit_jobs_retried_total were
// deleted from both pages when a failed run came to end its job. No other
// line of the parent's page was edited.
func TestMetricsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/metrics_parent.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := metricsMix(t)
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d: got %q, want %q\nfull page:\n%s", i+1, gotLines[i], wantLines[i], got)
		}
	}
	t.Fatalf("got %d lines, want %d\nfull page:\n%s", len(gotLines), len(wantLines), got)
}

// metricSamples fetches srv's /metrics page and returns its samples as
// series (name plus labels) → value.
func metricSamples(t *testing.T, srv *httptest.Server) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, line := range strings.Split(get(t, srv.URL+"/metrics"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			out[line[:i]] = line[i+1:]
		}
	}
	return out
}

// chainSeries returns the affidavit_chain_* series among samples: one per
// live catalog chain session and gauge.
func chainSeries(samples map[string]string) []string {
	var out []string
	for series := range samples {
		if strings.HasPrefix(series, "affidavit_chain_") {
			out = append(out, series)
		}
	}
	sort.Strings(out)
	return out
}
