package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The upload path addresses before it ingests: both file parts are
// spooled and hashed, and only an address the store cannot join is
// interned. These tests pin what a duplicate must not do (parse, intern,
// touch the blob directory), what a rejected upload must not leave behind,
// and the fallbacks around a lost blob and a crash before Submit.

// uploadServer starts a server over an in-memory or durable job store and
// returns the directory its spools and blobs land in — the blob directory
// when durable, a private TMPDIR otherwise.
func uploadServer(t *testing.T, durable bool, cfg serverConfig) (*httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	if durable {
		cfg.jobsDir = dir
		dir = filepath.Join(dir, "blobs")
	} else {
		t.Setenv("TMPDIR", dir)
	}
	cfg.options = testOptions()
	s := mustServer(t, cfg)
	srv := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return srv, dir
}

// eachStore runs f against an in-memory and a durable job store.
func eachStore(t *testing.T, f func(t *testing.T, durable bool)) {
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) { f(t, durable) })
	}
}

// pairBlobs is how many files one committed pair leaves in the directory
// uploadServer returns: its two blobs when durable, nothing otherwise.
func pairBlobs(durable bool) int {
	if durable {
		return 2
	}
	return 0
}

// dirNames lists dir's entries, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	sort.Strings(names)
	return names
}

// metricLines returns the /metrics sample lines of the named series.
func metricLines(t *testing.T, srv *httptest.Server, name string) string {
	t.Helper()
	var out []string
	for _, line := range strings.Split(get(t, srv.URL+"/metrics"), "\n") {
		if strings.HasPrefix(line, name) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestUploadDuplicateSkipsIngest: a re-submission of a known pair — sync
// and ?async=1 — is answered from the address alone. It interns no record,
// leaves the blob directory exactly as it was, counts as a dedupe hit and
// serves the original's bytes.
func TestUploadDuplicateSkipsIngest(t *testing.T) {
	ch := testChain(t, 1)
	src, tgt := csvOf(t, ch.Snapshots[0]), csvOf(t, ch.Snapshots[1])
	fields := map[string]string{"table": "dup"}
	eachStore(t, func(t *testing.T, durable bool) {
		srv, dir := uploadServer(t, durable, serverConfig{})
		code, original := post(t, srv, src, tgt, fields)
		if code != http.StatusOK {
			t.Fatalf("original: status %d: %.200s", code, original)
		}
		ingested := metricLines(t, srv, "affidavit_ingested_records_total")
		if !strings.Contains(ingested, `{snapshot="source"} 98`) {
			t.Fatalf("original did not ingest: %q", ingested)
		}
		blobs := dirNames(t, dir)
		if want := pairBlobs(durable); len(blobs) != want {
			t.Fatalf("after the original the directory holds %v, want %d blobs and no spool", blobs, want)
		}

		code, again := post(t, srv, src, tgt, fields)
		if code != http.StatusOK || !bytes.Equal(again, original) {
			t.Fatalf("sync duplicate: status %d, identical %v", code, bytes.Equal(again, original))
		}
		_, sub := postAsync(t, srv, src, tgt, fields)
		if sub.State != "completed" {
			t.Errorf("async duplicate joined a %s job, want completed", sub.State)
		}
		if got := get(t, srv.URL+sub.Result); got != string(original) {
			t.Error("async duplicate's result differs from the original")
		}

		if got := metricLines(t, srv, "affidavit_ingested_records_total"); got != ingested {
			t.Errorf("duplicates ingested records:\n%s\nwant unchanged:\n%s", got, ingested)
		}
		if got := dirNames(t, dir); fmt.Sprint(got) != fmt.Sprint(blobs) {
			t.Errorf("duplicates changed the blob directory: %v, was %v", got, blobs)
		}
		for _, want := range []string{"affidavit_jobs_dedupe_hits_total 2", "affidavit_jobs_submitted_total 1"} {
			if got := metricLines(t, srv, strings.Fields(want)[0]); got != want {
				t.Errorf("metrics: %q, want %q", got, want)
			}
		}
	})
}

// TestUploadRejectedLeavesNothing: malformed CSV and -max-records /
// -max-snapshot overruns still answer 400, and leave no job record, no
// blob and no stray spool — whichever part of the pair is the bad one.
func TestUploadRejectedLeavesNothing(t *testing.T) {
	good := "id,v\n1,a\n2,b\n3,c\n"
	for _, tc := range []struct {
		name, bad, wantMsg string
	}{
		{"malformed", "id,v\n1,a\n2,\"b\n", "reading"},
		{"ragged", "id,v\n1,a\n2\n", "reading"},
		{"max-records", "id,v\n" + strings.Repeat("9,z\n", 40), "record limit"},
		{"max-snapshot", "id,v\n1," + strings.Repeat("x", 4<<10) + "\n", "byte limit"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eachStore(t, func(t *testing.T, durable bool) {
				srv, dir := uploadServer(t, durable, serverConfig{maxRecords: 20, maxSnapshotBytes: 2 << 10})
				for _, pair := range [][2]string{{tc.bad, good}, {good, tc.bad}} {
					for _, query := range []string{"", "?async=1"} {
						resp, body := postResp(t, srv, srv.URL+"/explain"+query, pair[0], pair[1], nil)
						if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.wantMsg) {
							t.Errorf("%s: status %d body %.160q, want 400 mentioning %q", query, resp.StatusCode, body, tc.wantMsg)
						}
					}
				}
				if names := dirNames(t, dir); len(names) != 0 {
					t.Errorf("rejected uploads left %v behind", names)
				}
				var listing struct {
					Jobs []jobView `json:"jobs"`
				}
				if err := json.Unmarshal([]byte(get(t, srv.URL+"/jobs")), &listing); err != nil {
					t.Fatal(err)
				}
				if len(listing.Jobs) != 0 {
					t.Errorf("rejected uploads left job records: %+v", listing.Jobs)
				}
			})
		})
	}
}

// TestUploadLateFieldsAddress: table and format sent as form fields after
// the file parts address the same job as ?table=&format= — the address is
// computed once the whole body is spooled, not when the files arrive.
func TestUploadLateFieldsAddress(t *testing.T) {
	srv := testServer(t)
	ch := testChain(t, 1)
	src, tgt := csvOf(t, ch.Snapshots[0]), csvOf(t, ch.Snapshots[1])

	resp, viaQuery := postResp(t, srv, srv.URL+"/explain?table=late&format=sql", src, tgt, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query form: status %d: %.200s", resp.StatusCode, viaQuery)
	}
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, part := range [][2]string{{"source", src}, {"target", tgt}} {
		fw, err := mw.CreateFormFile(part[0], part[0]+".csv")
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(fw, part[1])
	}
	mw.WriteField("table", "late")
	mw.WriteField("format", "sql")
	mw.Close()
	resp2, err := http.Post(srv.URL+"/explain", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	viaFields, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(viaFields, viaQuery) {
		t.Fatalf("trailing fields: status %d, identical %v", resp2.StatusCode, bytes.Equal(viaFields, viaQuery))
	}
	if a, b := resp.Header.Get("X-Affidavit-Job-Id"), resp2.Header.Get("X-Affidavit-Job-Id"); a == "" || a != b {
		t.Errorf("job ids %q (query) vs %q (trailing fields), want one job", a, b)
	}
	if got := metricLines(t, srv, "affidavit_jobs_dedupe_hits_total"); got != "affidavit_jobs_dedupe_hits_total 1" {
		t.Errorf("%q, want the second form to be a dedupe hit", got)
	}
}

// TestUploadMissingBlobFallsBack: when a stored blob of a known pair has
// gone missing, a re-submission does not join a job that could no longer
// replay — it takes the miss path, which re-ingests and restores the blob,
// and still collapses onto the one job at Submit.
func TestUploadMissingBlobFallsBack(t *testing.T) {
	srv, dir := uploadServer(t, true, serverConfig{})
	ch := testChain(t, 1)
	src, tgt := csvOf(t, ch.Snapshots[0]), csvOf(t, ch.Snapshots[1])
	code, original := post(t, srv, src, tgt, nil)
	if code != http.StatusOK {
		t.Fatalf("original: status %d", code)
	}
	blobs := dirNames(t, dir)
	if len(blobs) != 2 {
		t.Fatalf("blob directory holds %v, want 2 blobs", blobs)
	}
	if err := os.Remove(filepath.Join(dir, blobs[0])); err != nil {
		t.Fatal(err)
	}
	code, again := post(t, srv, src, tgt, nil)
	if code != http.StatusOK || !bytes.Equal(again, original) {
		t.Fatalf("re-submission: status %d, identical %v", code, bytes.Equal(again, original))
	}
	if got := metricLines(t, srv, "affidavit_ingested_records_total"); !strings.Contains(got, `{snapshot="source"} 196`) {
		t.Errorf("re-submission with a lost blob did not re-ingest: %q", got)
	}
	if got := dirNames(t, dir); fmt.Sprint(got) != fmt.Sprint(blobs) {
		t.Errorf("blob directory %v, want the lost blob restored: %v", got, blobs)
	}
	for _, want := range []string{"affidavit_jobs_dedupe_hits_total 1", "affidavit_jobs_submitted_total 1"} {
		if got := metricLines(t, srv, strings.Fields(want)[0]); got != want {
			t.Errorf("metrics: %q, want %q", got, want)
		}
	}
}

// TestUploadCrashBeforeSubmit: a process killed after committing a pair's
// blobs but before journaling the job leaves only orphan blobs. The next
// process opens cleanly with no job, and the pair's upload takes the miss
// path onto the blobs already there.
func TestUploadCrashBeforeSubmit(t *testing.T) {
	ch := testChain(t, 1)
	src, tgt := csvOf(t, ch.Snapshots[0]), csvOf(t, ch.Snapshots[1])
	jobsDir := t.TempDir()
	dead := mustServer(t, serverConfig{options: testOptions(), jobsDir: jobsDir})
	for _, data := range []string{src, tgt} {
		bw := dead.store.Blobs().NewWriter()
		io.WriteString(bw, data)
		if _, err := bw.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	dead.Close() // nothing was journaled, so this is the state SIGKILL leaves

	s := mustServer(t, serverConfig{options: testOptions(), jobsDir: jobsDir})
	srv := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	if jobs := s.store.List(); len(jobs) != 0 {
		t.Fatalf("orphan blobs replayed as jobs: %+v", jobs)
	}
	blobs := dirNames(t, filepath.Join(jobsDir, "blobs"))
	code, body := post(t, srv, src, tgt, nil)
	if code != http.StatusOK {
		t.Fatalf("upload onto orphan blobs: status %d: %.200s", code, body)
	}
	if got := dirNames(t, filepath.Join(jobsDir, "blobs")); len(got) != 2 || fmt.Sprint(got) != fmt.Sprint(blobs) {
		t.Errorf("blob directory %v, want exactly the two orphans %v", got, blobs)
	}
	ref := testServer(t)
	if _, want := post(t, ref, src, tgt, nil); !bytes.Equal(body, want) {
		t.Error("result over orphan blobs differs from a fresh server's")
	}
	if got := metricLines(t, srv, "affidavit_jobs_submitted_total"); got != "affidavit_jobs_submitted_total 1" {
		t.Errorf("%q, want one computation", got)
	}
}
