package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"affidavit"
	"affidavit/internal/jobs"
)

// submitResponse mirrors the 202 Accepted body of POST /explain?async=1.
type submitResponse struct {
	JobID  string `json:"job_id"`
	State  string `json:"state"`
	Status string `json:"status"`
	Result string `json:"result"`
}

// postAsync submits an async explain and decodes the 202 body.
func postAsync(t *testing.T, srv *httptest.Server, source, target string, fields map[string]string) (*http.Response, submitResponse) {
	t.Helper()
	resp, body := postResp(t, srv, srv.URL+"/explain?async=1", source, target, fields)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d, want 202: %s", resp.StatusCode, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatalf("bad 202 JSON: %v: %s", err, body)
	}
	if sub.JobID == "" || sub.JobID != resp.Header.Get("X-Affidavit-Job-Id") {
		t.Fatalf("job id %q vs header %q", sub.JobID, resp.Header.Get("X-Affidavit-Job-Id"))
	}
	return resp, sub
}

// waitJob polls GET /jobs/{id} until the job is terminal. Any answer
// but 200 fails the test with its status and body text.
func waitJob(t *testing.T, srv *httptest.Server, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("GET /jobs/%s: status %d: %s", id, resp.StatusCode, body)
		}
		var view jobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch view.State {
		case "completed", "error", "cancelled":
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", id, view.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAsyncJobLifecycle walks the submit → poll → fetch → cancel loop:
// 202 with a job id, /jobs/{id} reaching completed with stats and a
// result link, /jobs/{id}/result serving bytes identical to the sync
// path, deterministic /jobs listing, and sensible answers for unknown
// ids, premature result fetches and cancels of finished jobs.
func TestAsyncJobLifecycle(t *testing.T) {
	srv := testServer(t)
	ch := testChain(t, 1)
	src, tgt := csvOf(t, ch.Snapshots[0]), csvOf(t, ch.Snapshots[1])

	_, sub := postAsync(t, srv, src, tgt, map[string]string{"table": "async"})
	view := waitJob(t, srv, sub.JobID)
	if view.State != "completed" {
		t.Fatalf("job ended %s (%s), want completed", view.State, view.Error)
	}
	if view.Attempts != 1 || view.Result == "" || len(view.Stats) == 0 {
		t.Errorf("completed view = %+v, want 1 attempt, result link, stats", view)
	}

	// The stored result is byte-identical to a sync explain of the same
	// pair — here served from the result store via dedupe, so no second
	// computation happens either.
	asyncBody := get(t, srv.URL+view.Result)
	code, syncBody := post(t, srv, src, tgt, map[string]string{"table": "async"})
	if code != http.StatusOK {
		t.Fatalf("sync re-submit: status %d", code)
	}
	if asyncBody != string(syncBody) {
		t.Error("async result and sync response differ")
	}

	// The listing is deterministic: submission order, one entry.
	var listing struct {
		Jobs []jobView `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/jobs")), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != 1 || listing.Jobs[0].ID != sub.JobID || listing.Jobs[0].DedupeHits != 1 {
		t.Errorf("listing = %+v, want the one job with a dedupe hit", listing.Jobs)
	}

	// Cancelling a finished job is a no-op answer, not an error.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+sub.JobID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("cancel completed: status %d", resp.StatusCode)
	}
	if view := waitJob(t, srv, sub.JobID); view.State != "completed" {
		t.Errorf("cancel flipped a completed job to %s", view.State)
	}

	// Unknown ids 404; a failed job reports its error and has no result.
	for _, path := range []string{"/jobs/nope", "/jobs/nope/result"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
	_, bad := postAsync(t, srv, "a,b\n1,2\n", "x\n9\n", nil)
	if view := waitJob(t, srv, bad.JobID); view.State != "error" || view.Error == "" {
		t.Errorf("schema-mismatch job = %+v, want a terminal error", view)
	}
	resp2, err := http.Get(srv.URL + "/jobs/" + bad.JobID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("result of errored job: status %d, want 409", resp2.StatusCode)
	}
}

// TestAsyncDedupeEndToEnd is the acceptance race test: N concurrent
// first-time submissions of an identical pair perform exactly one
// computation — one queued job, N−1 dedupe hits, one cold search — and
// every fetch returns byte-identical bodies. Whichever of them spool past
// the store's lookup before the first Submit each ingest; Submit is where
// they collapse, on either store root alike.
func TestAsyncDedupeEndToEnd(t *testing.T) {
	ch := testChain(t, 1)
	src, tgt := csvOf(t, ch.Snapshots[0]), csvOf(t, ch.Snapshots[1])
	eachRoot(t, serverConfig{}, func(t *testing.T, srv *httptest.Server, dir string) {

		const n = 6
		bodies := make([][]byte, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				code, body := post(t, srv, src, tgt, map[string]string{"table": "dup"})
				if code != http.StatusOK {
					t.Errorf("request %d: status %d: %.200s", i, code, body)
					return
				}
				bodies[i] = body
			}(i)
		}
		wg.Wait()
		for i := 1; i < n; i++ {
			if !bytes.Equal(bodies[0], bodies[i]) {
				t.Fatalf("response %d differs from response 0", i)
			}
		}

		metrics := get(t, srv.URL+"/metrics")
		for _, want := range []string{
			"affidavit_jobs_submitted_total 1\n",
			fmt.Sprintf("affidavit_jobs_dedupe_hits_total %d\n", n-1),
			"affidavit_jobs_completed_total 1\n",
			`affidavit_runs_started_total{mode="cold"} 1`,
		} {
			if !strings.Contains(metrics, want) {
				t.Errorf("metrics missing %q in:\n%s", want, metrics)
			}
		}
		if names := dirNames(t, dir); len(names) != 2 {
			t.Errorf("the racers left %v, want 2 blobs and no spool", names)
		}
	})
}

// TestJobRestartDurability is the durability demo: a journal holding a
// job that was running when its process died (plus the blob-stored
// uploads) is replayed by a fresh server — the job is requeued,
// re-ingested from the blobs, and its result eventually served,
// byte-identical to a plain sync explain of the same pair.
func TestJobRestartDurability(t *testing.T) {
	ch := testChain(t, 1)
	src, tgt := csvOf(t, ch.Snapshots[0]), csvOf(t, ch.Snapshots[1])

	// Simulate the dead process's leftovers by hand: content-addressed
	// blobs and a journal whose last line says the job was mid-run.
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	writeBlob := func(data string) string {
		sum := sha256.Sum256([]byte(data))
		hash := hex.EncodeToString(sum[:])
		if err := os.WriteFile(filepath.Join(dir, "blobs", hash), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return hash
	}
	srcHash, tgtHash := writeBlob(src), writeBlob(tgt)
	// The journaled address must match what the restarted server computes,
	// fingerprint included — a config change would (correctly) miss it.
	ex, err := affidavit.New(testOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	addr := jobs.Address("explain/v2", ex.Fingerprint(), "t", "json", srcHash, tgtHash)
	rec := jobs.Record{
		ID:         addr[:32],
		Addr:       addr,
		Table:      "t",
		Format:     "json",
		SourceBlob: srcHash,
		TargetBlob: tgtHash,
		State:      jobs.StateRunning,
		Attempts:   1,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	s := mustServer(t, serverConfig{options: testOptions(), jobsDir: dir})
	srv := httptest.NewServer(s.handler())
	t.Cleanup(srv.Close)

	view := waitJob(t, srv, rec.ID)
	if view.State != "completed" {
		t.Fatalf("replayed job ended %s (%s), want completed", view.State, view.Error)
	}
	if view.Requeues != 1 {
		t.Errorf("requeues = %d, want 1 (orphaned mid-run)", view.Requeues)
	}
	replayed := get(t, srv.URL+"/jobs/"+rec.ID+"/result")

	// Reference: the same pair explained synchronously on a fresh
	// server.
	ref := testServer(t)
	code, want := post(t, ref, src, tgt, map[string]string{"table": "t"})
	if code != http.StatusOK {
		t.Fatalf("reference explain: status %d", code)
	}
	if replayed != string(want) {
		t.Error("replayed result differs from the sync reference")
	}

	// A second restart replays the job as completed. A re-submission of
	// the same pair dedupes to it: no new computation is queued and — the
	// session being resolved only on a miss — none appears for its table.
	srv.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustServer(t, serverConfig{options: testOptions(), jobsDir: dir})
	srv = httptest.NewServer(s.handler())
	t.Cleanup(srv.Close)
	code, body := post(t, srv, src, tgt, map[string]string{"table": "t"})
	if code != http.StatusOK || string(body) != string(want) {
		t.Fatalf("post-restart re-submission: status %d, identical %v", code, string(body) == string(want))
	}
	m := metricSamples(t, srv)
	if hits, subs, chains := m["affidavit_jobs_dedupe_hits_total"], m["affidavit_jobs_submitted_total"], chainSeries(m); hits != "1" || subs != "0" || len(chains) != 0 {
		t.Errorf("post-restart dedupe hits %q, submissions %q, chain series %v; want a pure dedupe hit and no session", hits, subs, chains)
	}
}

// TestAsyncCancelDelivers: DELETE /jobs/{id} lands either before the
// worker claims the job (terminal cancel) or mid-run (context cancel);
// both must reach a terminal state and refuse to serve a result.
func TestAsyncCancelDelivers(t *testing.T) {
	srv := testServer(t)

	// A pair big enough that the run usually outlives the DELETE.
	var src, tgt strings.Builder
	src.WriteString("id,city,amount\n")
	tgt.WriteString("id,city,amount\n")
	cities := []string{"mannheim", "berlin", "hamburg", "dresden"}
	for i := 0; i < 1500; i++ {
		fmt.Fprintf(&src, "K%05d,%s,%d\n", i, cities[i%4], i*100)
		fmt.Fprintf(&tgt, "R%05d,%s,%d\n", i, strings.ToUpper(cities[i%4]), i*100)
	}
	_, sub := postAsync(t, srv, src.String(), tgt.String(), map[string]string{"table": "cancel"})
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+sub.JobID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	view := waitJob(t, srv, sub.JobID)
	// The cancel races the run: "cancelled" when it landed in time,
	// "completed" when the run won. Both are terminal and consistent.
	switch view.State {
	case "cancelled":
		r, err := http.Get(srv.URL + "/jobs/" + sub.JobID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusConflict {
			t.Errorf("result of cancelled job: status %d, want 409", r.StatusCode)
		}
	case "completed":
		t.Logf("run finished before the cancel landed (legitimate race)")
	default:
		t.Errorf("job ended %s (%s), want cancelled or completed", view.State, view.Error)
	}
}
