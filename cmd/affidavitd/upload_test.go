package main

import (
	"bytes"
	"context"
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

	"affidavit"
	"affidavit/internal/jobs"
)

// The upload path addresses before it ingests: both file parts are
// spooled and hashed, and only an address the store cannot join is
// interned. These tests pin what a duplicate must not do (parse, intern,
// touch the blob directory), what a rejected upload must not leave behind,
// and the fallbacks around a lost blob and a crash before Submit.

// uploadServer starts a server and returns the blob directory its spools
// and blobs land in.
func uploadServer(t *testing.T, cfg serverConfig) (*httptest.Server, string) {
	t.Helper()
	cfg.options = testOptions()
	s := mustServer(t, cfg)
	srv := httptest.NewServer(s.handler())
	t.Cleanup(srv.Close)
	return srv, filepath.Join(s.store.Dir(), "blobs")
}

// eachRoot runs f over an upload server on each way a daemon roots its
// state: the private directory it makes without -jobs-dir (subtest
// "memory", named for the in-memory store that directory replaced) and a
// -jobs-dir one ("durable").
func eachRoot(t *testing.T, cfg serverConfig, f func(t *testing.T, srv *httptest.Server, blobs string)) {
	for _, name := range []string{"memory", "durable"} {
		t.Run(name, func(t *testing.T) {
			cfg := cfg
			if name == "durable" {
				cfg.jobsDir = t.TempDir()
			}
			srv, blobs := uploadServer(t, cfg)
			f(t, srv, blobs)
		})
	}
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
	eachRoot(t, serverConfig{}, func(t *testing.T, srv *httptest.Server, dir string) {
		code, original := post(t, srv, src, tgt, fields)
		if code != http.StatusOK {
			t.Fatalf("original: status %d: %.200s", code, original)
		}
		ingested := metricLines(t, srv, "affidavit_ingested_records_total")
		if !strings.Contains(ingested, `{snapshot="source"} 98`) {
			t.Fatalf("original did not ingest: %q", ingested)
		}
		blobs := dirNames(t, dir)
		if len(blobs) != 2 {
			t.Fatalf("after the original the directory holds %v, want 2 blobs and no spool", blobs)
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
			eachRoot(t, serverConfig{maxRecords: 20, maxSnapshotBytes: 2 << 10}, func(t *testing.T, srv *httptest.Server, dir string) {
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

// TestUploadMalformedMultipartLeavesNothing: bodies the multipart reader
// refuses answer 400 and leave no blob and no spool — a header block over
// its 64 KiB window, a byte-cap overrun on a body with bare-LF delimiter
// lines, and a Content-Type that is not multipart or has no boundary.
func TestUploadMalformedMultipartLeavesNothing(t *testing.T) {
	good := "id,v\n1,a\n2,b\n"
	lf := func(source string) string {
		return "--lf\nContent-Disposition: form-data; name=\"source\"\n\n" + source +
			"\n--lf\nContent-Disposition: form-data; name=\"target\"\n\n" + good + "\n--lf--\n"
	}
	bigHeader := "--lf\nContent-Disposition: form-data; name=\"source\"\nX-Pad: " + strings.Repeat("x", 64<<10) + "\n\n" + good + "\n--lf--\n"
	for _, tc := range []struct {
		name, ctype, body, wantMsg string
	}{
		{"header block over the window", "multipart/form-data; boundary=lf", bigHeader, "header block"},
		{"max-snapshot, LF-only body", "multipart/form-data; boundary=lf", lf("id,v\n1," + strings.Repeat("x", 4<<10) + "\n"), "byte limit"},
		{"not multipart", "text/csv", good, "multipart"},
		{"missing boundary", "multipart/form-data", lf(good), "boundary"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eachRoot(t, serverConfig{maxSnapshotBytes: 2 << 10}, func(t *testing.T, srv *httptest.Server, dir string) {
				resp, err := http.Post(srv.URL+"/explain", tc.ctype, strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.wantMsg) {
					t.Errorf("status %d body %.160q, want 400 mentioning %q", resp.StatusCode, body, tc.wantMsg)
				}
				if names := dirNames(t, dir); len(names) != 0 {
					t.Errorf("rejected upload left %v behind", names)
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
	srv, dir := uploadServer(t, serverConfig{})
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

// TestUploadJoinerRerunReplaysBlobs: on a server without -jobs-dir, a
// pair whose job ended in error is rerun by a Submit that carries no
// payload — what a duplicate upload sends when it passed Joinable before
// the failure and discarded its spools. The rerun re-ingests the pair
// from the blob store and serves the bytes a fresh sync explain of the
// pair serves.
func TestUploadJoinerRerunReplaysBlobs(t *testing.T) {
	ch := testChain(t, 1)
	src, tgt := csvOf(t, ch.Snapshots[0]), csvOf(t, ch.Snapshots[1])
	s := mustServer(t, serverConfig{options: testOptions()})
	ctx := context.Background()
	commit := func(data string) string {
		bw := s.store.Blobs().NewWriter()
		io.WriteString(bw, data)
		hash, err := bw.Commit()
		if err != nil {
			t.Fatal(err)
		}
		return hash
	}
	spec := jobs.Spec{Table: "t", Format: "json", SourceBlob: commit(src), TargetBlob: commit(tgt)}
	spec.Addr = jobs.Address("explain/v2", s.engineFP, spec.Table, spec.Format, spec.SourceBlob, spec.TargetBlob)

	// The first run fails: its payload pairs two snapshots whose schemas
	// differ, standing in for any run error.
	sess := s.ex.Session(nil)
	read := func(csv string) *affidavit.Table {
		tab, err := sess.ReadSource(ctx, affidavit.NewCSVSource(strings.NewReader(csv)), "snapshot")
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	failing := spec
	failing.Payload = &jobPayload{sess: sess, src: read("id,v\n1,a\n"), tgt: read("id,w\n1,a\n")}
	job, _, err := s.store.Submit(failing)
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := s.store.Wait(ctx, job); err != nil || rec.State != jobs.StateError {
		t.Fatalf("first run ended %+v (%v), want an error", rec, err)
	}

	if _, created, err := s.store.Submit(spec); err != nil || !created {
		t.Fatalf("payload-less resubmission: created %v, err %v; want a rerun", created, err)
	}
	if rec, err := s.store.Wait(ctx, job); err != nil || rec.State != jobs.StateCompleted {
		t.Fatalf("rerun ended %s (%s, %v), want completed", rec.State, rec.Error, err)
	}
	body, _, err := s.store.Result(job.ID())
	if err != nil {
		t.Fatal(err)
	}
	code, want := post(t, testServer(t), src, tgt, map[string]string{"table": "t"})
	if code != http.StatusOK || !bytes.Equal(body, want) {
		t.Errorf("rerun from the blobs differs from a fresh sync explain (reference status %d)", code)
	}
	if !s.store.Joinable(spec.Addr) {
		t.Error("the completed rerun is not joinable")
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
	t.Cleanup(srv.Close)
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
