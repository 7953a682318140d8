package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"affidavit"
	"affidavit/internal/catalog"
)

// registerTable POSTs /tables and returns the status code and body.
func registerTable(t *testing.T, srv *httptest.Server, name string) (int, []byte) {
	t.Helper()
	body, _ := json.Marshal(struct {
		Name string `json:"name"`
	}{name})
	resp, err := http.Post(srv.URL+"/tables", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// pushSnapshot POSTs one snapshot to /tables/{name}/snapshots and returns
// the status code, body and response headers.
func pushSnapshot(t *testing.T, srv *httptest.Server, name, csv string, fields map[string]string) (int, []byte, http.Header) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, err := mw.CreateFormFile("snapshot", "snapshot.csv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(fw, csv); err != nil {
		t.Fatal(err)
	}
	for k, v := range fields {
		if err := mw.WriteField(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/tables/"+name+"/snapshots", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header
}

// TestCatalogChainByteIdentity is the acceptance check: pushing N
// snapshots of a registered table yields an explanation chain
// byte-identical to N−1 manual warm ExplainNext calls on the same pair
// sequence (CI runs this under -race).
func TestCatalogChainByteIdentity(t *testing.T) {
	srv := testServer(t)
	ch := testChain(t, 3)
	csvs := make([]string, len(ch.Snapshots))
	for i, snap := range ch.Snapshots {
		csvs[i] = csvOf(t, snap)
	}

	if code, body := registerTable(t, srv, "bridges"); code != http.StatusCreated {
		t.Fatalf("register: status %d: %s", code, body)
	}
	code, body, _ := pushSnapshot(t, srv, "bridges", csvs[0], nil)
	if code != http.StatusCreated {
		t.Fatalf("first push: status %d: %s", code, body)
	}
	var chainBodies [][]byte
	for _, csv := range csvs[1:] {
		code, body, hdr := pushSnapshot(t, srv, "bridges", csv, nil)
		if code != http.StatusOK {
			t.Fatalf("push: status %d: %s", code, body)
		}
		if hdr.Get("X-Affidavit-Snapshot-Id") == "" || hdr.Get("X-Affidavit-Job-Id") == "" {
			t.Fatal("push response missing lineage headers")
		}
		chainBodies = append(chainBodies, body)
	}

	// Reference: the same sequence as manual warm ExplainNext calls on a
	// fresh explainer with the same options.
	ex, err := affidavit.New(testOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base, err := ex.ReadSource(ctx, affidavit.NewCSVSource(strings.NewReader(csvs[0])))
	if err != nil {
		t.Fatal(err)
	}
	sess := ex.Session(base)
	for i, csv := range csvs[1:] {
		next, err := ex.ReadSource(ctx, affidavit.NewCSVSource(strings.NewReader(csv)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.ExplainNextContext(ctx, next)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.MarshalIndent(res.JSONResult("bridges"), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if !bytes.Equal(chainBodies[i], want) {
			t.Errorf("chain step %d differs from the manual warm ExplainNext reference", i+1)
		}
	}

	// The stored chain serves the same bytes through the job result store.
	var hist struct {
		Steps []struct {
			Status string `json:"status"`
			Result string `json:"result"`
		} `json:"steps"`
	}
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/tables/bridges/history")), &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist.Steps) != len(chainBodies) {
		t.Fatalf("history has %d steps, want %d", len(hist.Steps), len(chainBodies))
	}
	for i, step := range hist.Steps {
		if step.Status != "explained" {
			t.Errorf("step %d status %q, want explained", i, step.Status)
		}
		if stored := get(t, srv.URL+step.Result); stored != string(chainBodies[i]) {
			t.Errorf("step %d stored result differs from the push response", i)
		}
	}
}

// TestCatalogEmptyAndSingle covers the degenerate chains: a freshly
// registered table (no snapshots) and a single-snapshot table must serve
// valid, empty-not-null history and trends.
func TestCatalogEmptyAndSingle(t *testing.T) {
	srv := testServer(t)
	if code, body := registerTable(t, srv, "fresh"); code != http.StatusCreated {
		t.Fatalf("register: status %d: %s", code, body)
	}

	hist := get(t, srv.URL+"/tables/fresh/history")
	if !strings.Contains(hist, `"snapshots": []`) || !strings.Contains(hist, `"steps": []`) {
		t.Errorf("empty history should encode empty arrays, got:\n%s", hist)
	}
	trends := get(t, srv.URL+"/tables/fresh/trends")
	var tr struct {
		Snapshots   int `json:"snapshots"`
		Compression struct {
			Trajectory []float64 `json:"trajectory"`
		} `json:"compression"`
	}
	if err := json.Unmarshal([]byte(trends), &tr); err != nil {
		t.Fatalf("empty trends: %v in:\n%s", err, trends)
	}
	if tr.Snapshots != 0 || len(tr.Compression.Trajectory) != 0 {
		t.Errorf("empty trends = %s", trends)
	}

	code, body, _ := pushSnapshot(t, srv, "fresh", "id,v\na,1\nb,2\n", map[string]string{"op": "seed"})
	if code != http.StatusCreated {
		t.Fatalf("single push: status %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/tables/fresh/trends")), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Snapshots != 1 || len(tr.Compression.Trajectory) != 0 {
		t.Errorf("single-snapshot trends: snapshots=%d trajectory=%v", tr.Snapshots, tr.Compression.Trajectory)
	}
	hist = get(t, srv.URL+"/tables/fresh/history")
	if !strings.Contains(hist, `"op": "seed"`) {
		t.Errorf("history should carry the op tag, got:\n%s", hist)
	}
}

// TestCatalogSchemaChangeMidChain: a pushed snapshot whose schema differs
// from its parent refuses the explanation with a clear error, and the
// chain continues from the new schema — the next compatible push is
// explained again.
func TestCatalogSchemaChangeMidChain(t *testing.T) {
	srv := testServer(t)
	if code, _ := registerTable(t, srv, "evolving"); code != http.StatusCreated {
		t.Fatal("register failed")
	}
	pushOK := func(csv string, wantCode int) []byte {
		t.Helper()
		code, body, _ := pushSnapshot(t, srv, "evolving", csv, nil)
		if code != wantCode {
			t.Fatalf("push: status %d, want %d: %s", code, wantCode, body)
		}
		return body
	}
	pushOK("id,city\na,berlin\nb,mannheim\n", http.StatusCreated)
	pushOK("id,city\na,BERLIN\nb,MANNHEIM\n", http.StatusOK)
	// Schema change: the sync push reports the refusal.
	body := pushOK("id,city,zip\na,BERLIN,10115\nb,MANNHEIM,68159\n", http.StatusUnprocessableEntity)
	if !strings.Contains(string(body), "schema changed") || !strings.Contains(string(body), "chain continues") {
		t.Errorf("schema-change error not clear: %s", body)
	}
	// The chain continues from the new schema.
	pushOK("id,city,zip\na,BERLIN,10115\nb,MANNHEIM,68161\n", http.StatusOK)

	var hist struct {
		Steps []struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		} `json:"steps"`
	}
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/tables/evolving/history")), &hist); err != nil {
		t.Fatal(err)
	}
	want := []string{"explained", "failed", "explained"}
	if len(hist.Steps) != len(want) {
		t.Fatalf("history has %d steps, want %d", len(hist.Steps), len(want))
	}
	for i, step := range hist.Steps {
		if step.Status != want[i] {
			t.Errorf("step %d status %q, want %q", i, step.Status, want[i])
		}
	}
	if !strings.Contains(hist.Steps[1].Error, "schema changed") {
		t.Errorf("failed step error = %q", hist.Steps[1].Error)
	}

	var tr struct {
		StepsFailed int `json:"steps_failed"`
		Steps       []struct {
			SchemaChange bool `json:"schema_change"`
		} `json:"steps"`
	}
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/tables/evolving/trends")), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.StepsFailed != 1 || !tr.Steps[1].SchemaChange {
		t.Errorf("trends should mark the schema change: %+v", tr)
	}
}

// TestCatalogRestartByteStability: /history and /trends must serve
// byte-identical JSON before and after a restart — every field replays
// from the catalog and job journals, none re-derives from the clock.
func TestCatalogRestartByteStability(t *testing.T) {
	dir := t.TempDir()
	s := mustServer(t, serverConfig{options: testOptions(), jobsDir: dir})
	srv := httptest.NewServer(s.handler())
	ch := testChain(t, 2)

	if code, _ := registerTable(t, srv, "durable"); code != http.StatusCreated {
		t.Fatal("register failed")
	}
	for i, snap := range ch.Snapshots {
		wantCode := http.StatusOK
		if i == 0 {
			wantCode = http.StatusCreated
		}
		code, body, _ := pushSnapshot(t, srv, "durable", csvOf(t, snap), nil)
		if code != wantCode {
			t.Fatalf("push %d: status %d: %s", i, code, body)
		}
	}
	histBefore := get(t, srv.URL+"/tables/durable/history")
	trendsBefore := get(t, srv.URL+"/tables/durable/trends")
	tablesBefore := get(t, srv.URL+"/tables")
	srv.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustServer(t, serverConfig{options: testOptions(), jobsDir: dir})
	t.Cleanup(func() { s2.Close() })
	srv2 := httptest.NewServer(s2.handler())
	t.Cleanup(srv2.Close)
	if got := get(t, srv2.URL+"/tables/durable/history"); got != histBefore {
		t.Errorf("history changed across restart:\nbefore:\n%s\nafter:\n%s", histBefore, got)
	}
	if got := get(t, srv2.URL+"/tables/durable/trends"); got != trendsBefore {
		t.Errorf("trends changed across restart:\nbefore:\n%s\nafter:\n%s", trendsBefore, got)
	}
	if got := get(t, srv2.URL+"/tables"); got != tablesBefore {
		t.Errorf("table listing changed across restart:\nbefore:\n%s\nafter:\n%s", tablesBefore, got)
	}
}

// TestCatalogRestartReseedsFromParentBlob: after a restart the catalog has
// no live session, so the next step seeds one from its parent's stored
// blob, and the chain runs warm from there — the steps equal a manual
// session started at that parent.
func TestCatalogRestartReseedsFromParentBlob(t *testing.T) {
	dir := t.TempDir()
	ch := testChain(t, 3)
	csvs := make([]string, len(ch.Snapshots))
	for i, snap := range ch.Snapshots {
		csvs[i] = csvOf(t, snap)
	}
	push := func(srv *httptest.Server, csv string, wantCode int) []byte {
		t.Helper()
		code, body, _ := pushSnapshot(t, srv, "durable", csv, nil)
		if code != wantCode {
			t.Fatalf("push: status %d, want %d: %s", code, wantCode, body)
		}
		return body
	}
	s := mustServer(t, serverConfig{options: testOptions(), jobsDir: dir})
	srv := httptest.NewServer(s.handler())
	if code, _ := registerTable(t, srv, "durable"); code != http.StatusCreated {
		t.Fatal("register failed")
	}
	push(srv, csvs[0], http.StatusCreated)
	push(srv, csvs[1], http.StatusOK)
	srv.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustServer(t, serverConfig{options: testOptions(), jobsDir: dir})
	t.Cleanup(func() { s2.Close() })
	srv2 := httptest.NewServer(s2.handler())
	t.Cleanup(srv2.Close)
	got := [][]byte{push(srv2, csvs[2], http.StatusOK), push(srv2, csvs[3], http.StatusOK)}

	ex, err := affidavit.New(testOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	read := func(csv string) *affidavit.Table {
		t.Helper()
		tab, err := ex.ReadSource(ctx, affidavit.NewCSVSource(strings.NewReader(csv)))
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	sess := ex.Session(read(csvs[1]))
	for i, csv := range csvs[2:] {
		res, err := sess.ExplainNextContext(ctx, read(csv))
		if err != nil {
			t.Fatal(err)
		}
		want, err := res.JSON("durable")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[i], append(want, '\n')) {
			t.Errorf("step %d after the restart differs from a session started at its parent", i+1)
		}
	}
}

// TestCatalogLostParentBlobReseeds: after a restart a step re-seeds from
// its parent's blob; when that blob is gone, the step fails on its one
// attempt (422, attempts 1) and the chain re-seeds at the pushed
// snapshot, so the next push explains against it.
func TestCatalogLostParentBlobReseeds(t *testing.T) {
	dir := t.TempDir()
	ch := testChain(t, 3)
	csvs := make([]string, len(ch.Snapshots))
	for i, snap := range ch.Snapshots {
		csvs[i] = csvOf(t, snap)
	}
	s := mustServer(t, serverConfig{options: testOptions(), jobsDir: dir})
	srv := httptest.NewServer(s.handler())
	if code, _ := registerTable(t, srv, "lost"); code != http.StatusCreated {
		t.Fatal("register failed")
	}
	if code, body, _ := pushSnapshot(t, srv, "lost", csvs[0], nil); code != http.StatusCreated {
		t.Fatalf("seed push: status %d: %s", code, body)
	}
	code, body, hdr := pushSnapshot(t, srv, "lost", csvs[1], nil)
	if code != http.StatusOK {
		t.Fatalf("step push: status %d: %s", code, body)
	}
	stepID := hdr.Get("X-Affidavit-Snapshot-Id")
	snap, ok := s.catalog.Snapshot("lost", stepID)
	if !ok {
		t.Fatalf("no snapshot %s", stepID)
	}
	srv.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "blobs", snap.Blob)); err != nil {
		t.Fatal(err)
	}

	s2 := mustServer(t, serverConfig{options: testOptions(), jobsDir: dir})
	t.Cleanup(func() { s2.Close() })
	srv2 := httptest.NewServer(s2.handler())
	t.Cleanup(srv2.Close)
	code, body, hdr = pushSnapshot(t, srv2, "lost", csvs[2], nil)
	if code != http.StatusUnprocessableEntity || !strings.Contains(string(body), "not reconstructable") {
		t.Fatalf("push over a lost parent blob: status %d, want 422: %s", code, body)
	}
	if view := waitJob(t, srv2, hdr.Get("X-Affidavit-Job-Id")); view.State != "error" || view.Attempts != 1 {
		t.Fatalf("failed step's job: %+v, want error after 1 attempt", view)
	}
	code, got, _ := pushSnapshot(t, srv2, "lost", csvs[3], nil)
	if code != http.StatusOK {
		t.Fatalf("push after the re-seed: status %d: %s", code, got)
	}

	ex, err := affidavit.New(testOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	read := func(csv string) *affidavit.Table {
		t.Helper()
		tab, err := ex.ReadSource(ctx, affidavit.NewCSVSource(strings.NewReader(csv)))
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	res, err := ex.Session(read(csvs[2])).ExplainNextContext(ctx, read(csvs[3]))
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.JSON("lost")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(want, '\n')) {
		t.Error("the step after the re-seed differs from a session started at the failed step's snapshot")
	}
}

// TestCatalogRestartInMemory: the catalog is durable exactly when the job
// store is. With jobsDir a restarted chain continues
// (TestCatalogRestartReseedsFromParentBlob); without it both stores live
// in one private directory that Close removes, so a restarted server
// lists no tables and a push to a table of the previous process answers
// 404 — never a chain whose parent blob is gone, on which every step
// would fail. Registering the name again starts a new chain.
func TestCatalogRestartInMemory(t *testing.T) {
	ch := testChain(t, 1)
	first, next := csvOf(t, ch.Snapshots[0]), csvOf(t, ch.Snapshots[1])
	s := mustServer(t, serverConfig{options: testOptions()})
	srv := httptest.NewServer(s.handler())
	if code, _ := registerTable(t, srv, "volatile"); code != http.StatusCreated {
		t.Fatal("register failed")
	}
	if code, body, _ := pushSnapshot(t, srv, "volatile", first, nil); code != http.StatusCreated {
		t.Fatalf("seed push: status %d: %s", code, body)
	}
	if code, body, _ := pushSnapshot(t, srv, "volatile", next, nil); code != http.StatusOK {
		t.Fatalf("step push: status %d: %s", code, body)
	}
	srv.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.store.Dir()); !os.IsNotExist(err) {
		t.Errorf("private directory %s outlived Close: %v", s.store.Dir(), err)
	}

	srv2 := testServer(t)
	var list struct {
		Tables []tableView `json:"tables"`
	}
	if err := json.Unmarshal([]byte(get(t, srv2.URL+"/tables")), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Tables) != 0 {
		t.Errorf("restarted default-mode server lists %+v, want no tables", list.Tables)
	}
	if code, body, _ := pushSnapshot(t, srv2, "volatile", next, nil); code != http.StatusNotFound {
		t.Errorf("push to a table of the previous process: status %d, want 404: %s", code, body)
	}
	if code, _ := registerTable(t, srv2, "volatile"); code != http.StatusCreated {
		t.Fatal("re-register failed")
	}
	if code, body, _ := pushSnapshot(t, srv2, "volatile", next, nil); code != http.StatusCreated {
		t.Errorf("first push of the new chain: status %d, want 201: %s", code, body)
	}
}

// TestCatalogAsyncPush: async=1 answers 202 with the job id; the step
// lands in the background and the history converges to explained.
func TestCatalogAsyncPush(t *testing.T) {
	srv := testServer(t)
	if code, _ := registerTable(t, srv, "async"); code != http.StatusCreated {
		t.Fatal("register failed")
	}
	if code, body, _ := pushSnapshot(t, srv, "async", "id,v\na,1\nb,2\n", nil); code != http.StatusCreated {
		t.Fatalf("first push: status %d: %s", code, body)
	}
	code, body, hdr := pushSnapshot(t, srv, "async", "id,v\na,2\nb,3\n", map[string]string{"async": "1"})
	if code != http.StatusAccepted {
		t.Fatalf("async push: status %d: %s", code, body)
	}
	jobID := hdr.Get("X-Affidavit-Job-Id")
	if jobID == "" {
		t.Fatal("async push missing X-Affidavit-Job-Id")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var view jobView
		if err := json.Unmarshal([]byte(get(t, srv.URL+"/jobs/"+jobID)), &view); err != nil {
			t.Fatal(err)
		}
		if view.State == "completed" {
			if view.Kind != "catalog" || view.SnapshotID == "" || view.ParentID == "" {
				t.Errorf("job view missing lineage: %+v", view)
			}
			break
		}
		if view.State == "error" || view.State == "cancelled" {
			t.Fatalf("async step ended %s: %s", view.State, view.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("async step stuck in %s", view.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	hist := get(t, srv.URL+"/tables/async/history")
	if !strings.Contains(hist, `"status": "explained"`) {
		t.Errorf("async step not explained in history:\n%s", hist)
	}
}

// TestCatalogValidation: the error surface — bad names, duplicate
// registration, pushes to unknown tables, malformed pushes.
func TestCatalogValidation(t *testing.T) {
	srv := testServer(t)
	if code, _ := registerTable(t, srv, "../evil"); code != http.StatusBadRequest {
		t.Errorf("bad name: status %d, want 400", code)
	}
	if code, _ := registerTable(t, srv, "dup"); code != http.StatusCreated {
		t.Fatal("register failed")
	}
	if code, _ := registerTable(t, srv, "dup"); code != http.StatusConflict {
		t.Errorf("duplicate registration: status %d, want 409", code)
	}
	if code, _, _ := pushSnapshot(t, srv, "ghost", "id,v\na,1\n", nil); code != http.StatusNotFound {
		t.Errorf("push to unknown table: status %d, want 404", code)
	}
	// A push without the snapshot part is a 400.
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	mw.WriteField("op", "oops")
	mw.Close()
	resp, err := http.Post(srv.URL+"/tables/dup/snapshots", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing snapshot part: status %d, want 400", resp.StatusCode)
	}
	if resp, err := http.Get(srv.URL + "/tables/ghost/history"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("history of unknown table: status %d, want 404", resp.StatusCode)
		}
	}
}

// TestEngineFingerprintAddresses: the same pair submitted under different
// engine options must compute under different job identities — a config
// change stops serving results computed under old flags.
func TestEngineFingerprintAddresses(t *testing.T) {
	ch := testChain(t, 1)
	src, tgt := csvOf(t, ch.Snapshots[0]), csvOf(t, ch.Snapshots[1])

	jobIDOf := func(opts ...affidavit.Option) string {
		t.Helper()
		s := mustServer(t, serverConfig{options: opts})
		t.Cleanup(func() { s.Close() })
		srv := httptest.NewServer(s.handler())
		t.Cleanup(srv.Close)
		ctype, body := multipartBody(t, src, tgt, map[string]string{"table": "t"})
		resp, err := http.Post(srv.URL+"/explain", ctype, body)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("explain: status %d", resp.StatusCode)
		}
		return resp.Header.Get("X-Affidavit-Job-Id")
	}

	base := jobIDOf(affidavit.WithSeed(31))
	same := jobIDOf(affidavit.WithSeed(31))
	reseeded := jobIDOf(affidavit.WithSeed(32))
	retuned := jobIDOf(affidavit.WithSeed(31), affidavit.WithAlpha(0.3))
	if base != same {
		t.Errorf("identical configs produced different job ids: %s vs %s", base, same)
	}
	if base == reseeded {
		t.Error("seed change did not change the job identity")
	}
	if base == retuned {
		t.Error("alpha change did not change the job identity")
	}
}

// catalogMetricsSmoke asserts the affidavit_catalog_* rows appear.
func TestCatalogMetrics(t *testing.T) {
	srv := testServer(t)
	if code, _ := registerTable(t, srv, "metered"); code != http.StatusCreated {
		t.Fatal("register failed")
	}
	if code, _, _ := pushSnapshot(t, srv, "metered", "id,v\na,1\n", nil); code != http.StatusCreated {
		t.Fatal("push failed")
	}
	metrics := get(t, srv.URL+"/metrics")
	for _, want := range []string{
		"affidavit_catalog_tables 1",
		"affidavit_catalog_snapshots 1",
		"affidavit_catalog_steps_pending 0",
		"affidavit_catalog_steps_explained 0",
		"affidavit_catalog_steps_failed 0",
		"affidavit_catalog_schema_resets_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestCatalogRoutes: each /tables route answers its documented method,
// every other method gets 405 with an Allow header naming the documented
// one, and an unknown sub-path is a 404.
func TestCatalogRoutes(t *testing.T) {
	srv := testServer(t)
	do := func(method, path, ctype string, body io.Reader) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, body)
		if err != nil {
			t.Fatal(err)
		}
		if ctype != "" {
			req.Header.Set("Content-Type", ctype)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, _ := mw.CreateFormFile("snapshot", "snapshot.csv")
	io.WriteString(fw, "id,v\na,1\n")
	mw.Close()
	routes := []struct {
		method, path, ctype string
		body                io.Reader
		want                int
	}{
		{http.MethodPost, "/tables", "application/json", strings.NewReader(`{"name": "x"}`), http.StatusCreated},
		{http.MethodGet, "/tables", "", nil, http.StatusOK},
		{http.MethodGet, "/tables/x", "", nil, http.StatusOK},
		{http.MethodPost, "/tables/x/snapshots", mw.FormDataContentType(), &buf, http.StatusCreated},
		{http.MethodGet, "/tables/x/history", "", nil, http.StatusOK},
		{http.MethodGet, "/tables/x/trends", "", nil, http.StatusOK},
	}
	documented := make(map[string][]string)
	for _, rt := range routes {
		if resp := do(rt.method, rt.path, rt.ctype, rt.body); resp.StatusCode != rt.want {
			t.Errorf("%s %s: status %d, want %d", rt.method, rt.path, resp.StatusCode, rt.want)
		}
		documented[rt.path] = append(documented[rt.path], rt.method)
	}
	for _, rt := range routes {
		for _, method := range []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodPatch, http.MethodDelete} {
			if slices.Contains(documented[rt.path], method) {
				continue
			}
			resp := do(method, rt.path, "", nil)
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", method, rt.path, resp.StatusCode)
				continue
			}
			for _, allowed := range documented[rt.path] {
				if !strings.Contains(resp.Header.Get("Allow"), allowed) {
					t.Errorf("%s %s: Allow %q does not name %s", method, rt.path, resp.Header.Get("Allow"), allowed)
				}
			}
		}
	}
	for _, method := range []string{http.MethodGet, http.MethodPost} {
		if resp := do(method, "/tables/x/nope", "", nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s /tables/x/nope: status %d, want 404", method, resp.StatusCode)
		}
	}
}

// TestCatalogPushUnknownTableLeavesNoBlob: a push to an unregistered
// table is refused before its snapshot is spooled, so the blob store
// gains no entry.
func TestCatalogPushUnknownTableLeavesNoBlob(t *testing.T) {
	srv, blobs := uploadServer(t, serverConfig{})
	before := dirNames(t, blobs)
	if code, body, _ := pushSnapshot(t, srv, "ghost", "id,v\na,1\n", nil); code != http.StatusNotFound {
		t.Fatalf("push to unknown table: status %d, want 404: %s", code, body)
	}
	if got := dirNames(t, blobs); !slices.Equal(got, before) {
		t.Errorf("blob directory %v after a refused push, was %v", got, before)
	}
}

// TestCatalogDeadlineStepCounts: a step cut by the -timeout budget ends
// its job in error and is served as "failed" in /history; /trends, the
// catalog gauges count it failed, not pending forever.
func TestCatalogDeadlineStepCounts(t *testing.T) {
	srv := httptest.NewServer(mustServer(t, serverConfig{options: testOptions(), timeout: time.Nanosecond}).handler())
	t.Cleanup(srv.Close)
	ch := testChain(t, 1)
	if code, _ := registerTable(t, srv, "slow"); code != http.StatusCreated {
		t.Fatal("register failed")
	}
	if code, body, _ := pushSnapshot(t, srv, "slow", csvOf(t, ch.Snapshots[0]), nil); code != http.StatusCreated {
		t.Fatalf("first push: status %d: %s", code, body)
	}
	if code, body, _ := pushSnapshot(t, srv, "slow", csvOf(t, ch.Snapshots[1]), nil); code != http.StatusServiceUnavailable {
		t.Fatalf("deadline-cut push: status %d, want 503: %s", code, body)
	}
	var hist struct {
		Steps []struct {
			Status string `json:"status"`
		} `json:"steps"`
	}
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/tables/slow/history")), &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist.Steps) != 1 || hist.Steps[0].Status != "failed" {
		t.Fatalf("history steps = %+v, want one failed step", hist.Steps)
	}
	var tr struct {
		StepsFailed  int `json:"steps_failed"`
		StepsPending int `json:"steps_pending"`
	}
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/tables/slow/trends")), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.StepsFailed != 1 || tr.StepsPending != 0 {
		t.Errorf("trends count failed=%d pending=%d, want 1, 0", tr.StepsFailed, tr.StepsPending)
	}
	metrics := get(t, srv.URL+"/metrics")
	for _, want := range []string{"affidavit_catalog_steps_failed 1\n", "affidavit_catalog_steps_pending 0\n"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", strings.TrimSpace(want))
		}
	}
}

// catalogLines reads the durable catalog journal under jobsDir, one
// decoded record per line.
func catalogLines(t *testing.T, jobsDir string) []catalog.Record {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(jobsDir, "catalog", "catalog.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var recs []catalog.Record
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if line == "" {
			continue
		}
		var rec catalog.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("catalog journal line %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestCatalogJournalsExplainedStepsOnly: a step's job is named by its
// snapshot id, and the catalog journal holds each fact once — for N
// pushes the registration, N snapshots and the N−1 explained steps, with
// no pending line before a step runs.
func TestCatalogJournalsExplainedStepsOnly(t *testing.T) {
	dir := t.TempDir()
	s := mustServer(t, serverConfig{options: testOptions(), jobsDir: dir})
	srv := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	ch := testChain(t, 3)
	if code, _ := registerTable(t, srv, "lean"); code != http.StatusCreated {
		t.Fatal("register failed")
	}
	for i, snap := range ch.Snapshots {
		code, body, hdr := pushSnapshot(t, srv, "lean", csvOf(t, snap), nil)
		if i == 0 {
			if code != http.StatusCreated {
				t.Fatalf("seed push: status %d: %s", code, body)
			}
			continue
		}
		if code != http.StatusOK {
			t.Fatalf("push %d: status %d: %s", i, code, body)
		}
		if id := hdr.Get("X-Affidavit-Snapshot-Id"); id == "" || hdr.Get("X-Affidavit-Job-Id") != id {
			t.Errorf("push %d: job id %q, want the snapshot id %q", i, hdr.Get("X-Affidavit-Job-Id"), id)
		}
	}
	recs := catalogLines(t, dir)
	kinds := make(map[string]int)
	for _, rec := range recs {
		kinds[rec.Kind]++
		if rec.Kind == catalog.KindStep && (rec.Status != catalog.StepExplained || rec.JobID != rec.SnapshotID) {
			t.Errorf("step line %+v, want explained under its snapshot id", rec)
		}
	}
	if len(recs) != 8 || kinds[catalog.KindTable] != 1 || kinds[catalog.KindSnapshot] != 4 || kinds[catalog.KindStep] != 3 {
		t.Errorf("catalog journal holds %d lines %v, want 8: 1 table, 4 snapshots, 3 steps", len(recs), kinds)
	}
	var hist historyResponse
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/tables/lean/history")), &hist); err != nil {
		t.Fatal(err)
	}
	for i, step := range hist.Steps {
		if step.JobID != step.SnapshotID || step.Job != "/jobs/"+step.SnapshotID {
			t.Errorf("history step %d: job %q (%s), want its snapshot id %s", i, step.JobID, step.Job, step.SnapshotID)
		}
	}
}

// TestCatalogRefusalJournalsNoLine: a schema-change refusal lands in the
// step's job record only. The catalog journal gains no step line for it,
// and /history and /trends serve the step as failed with the refusal
// message, at its snapshot's push time, before and after a durable
// restart.
func TestCatalogRefusalJournalsNoLine(t *testing.T) {
	dir := t.TempDir()
	s := mustServer(t, serverConfig{options: testOptions(), jobsDir: dir})
	srv := httptest.NewServer(s.handler())
	if code, _ := registerTable(t, srv, "evolving"); code != http.StatusCreated {
		t.Fatal("register failed")
	}
	for _, push := range []struct {
		csv  string
		want int
	}{
		{"id,city\na,berlin\nb,mannheim\n", http.StatusCreated},
		{"id,city\na,BERLIN\nb,MANNHEIM\n", http.StatusOK},
		{"id,city,zip\na,BERLIN,10115\nb,MANNHEIM,68159\n", http.StatusUnprocessableEntity},
	} {
		if code, body, _ := pushSnapshot(t, srv, "evolving", push.csv, nil); code != push.want {
			t.Fatalf("push: status %d, want %d: %s", code, push.want, body)
		}
	}
	// Registration, three snapshots and the first step's explained line.
	if recs := catalogLines(t, dir); len(recs) != 5 || recs[3].Kind != catalog.KindStep || recs[3].Status != catalog.StepExplained {
		t.Fatalf("catalog journal holds %d lines, want 5 with one explained step: %+v", len(recs), recs)
	}
	check := func(srv *httptest.Server) (hist, trends string) {
		t.Helper()
		hist, trends = get(t, srv.URL+"/tables/evolving/history"), get(t, srv.URL+"/tables/evolving/trends")
		var h historyResponse
		if err := json.Unmarshal([]byte(hist), &h); err != nil {
			t.Fatal(err)
		}
		if len(h.Steps) != 2 || len(h.Snapshots) != 3 {
			t.Fatalf("history: %d snapshots, %d steps", len(h.Snapshots), len(h.Steps))
		}
		if step := h.Steps[1]; step.Status != "failed" || !strings.Contains(step.Error, "schema changed") ||
			!step.UpdatedAt.Equal(h.Snapshots[2].PushedAt) || step.Result != "" {
			t.Errorf("refused step served as %+v", step)
		}
		var tr catalog.Trends
		if err := json.Unmarshal([]byte(trends), &tr); err != nil {
			t.Fatal(err)
		}
		if tr.StepsFailed != 1 || tr.StepsExplained != 1 || tr.Steps[1].Status != "failed" || !tr.Steps[1].SchemaChange {
			t.Errorf("trends: %+v", tr)
		}
		return hist, trends
	}
	histBefore, trendsBefore := check(srv)
	srv.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustServer(t, serverConfig{options: testOptions(), jobsDir: dir})
	srv2 := httptest.NewServer(s2.handler())
	t.Cleanup(func() {
		srv2.Close()
		s2.Close()
	})
	if hist, trends := check(srv2); hist != histBefore || trends != trendsBefore {
		t.Errorf("history or trends changed across restart:\n%s\n%s\nbefore:\n%s\n%s", hist, trends, histBefore, trendsBefore)
	}
}

// TestCatalogRejectedPushLeavesNothing: a malformed snapshot pushed to a
// registered table with a chain answers 400 and leaves no trace — the
// history is unchanged, no blob is stored and no job is listed.
func TestCatalogRejectedPushLeavesNothing(t *testing.T) {
	srv, blobs := uploadServer(t, serverConfig{})
	if code, _ := registerTable(t, srv, "known"); code != http.StatusCreated {
		t.Fatal("register failed")
	}
	for _, csv := range []string{"id,v\na,1\nb,2\n", "id,v\na,2\nb,3\n"} {
		if code, body, _ := pushSnapshot(t, srv, "known", csv, nil); code != http.StatusCreated && code != http.StatusOK {
			t.Fatalf("push: status %d: %s", code, body)
		}
	}
	histBefore, jobsBefore, blobsBefore := get(t, srv.URL+"/tables/known/history"), get(t, srv.URL+"/jobs"), dirNames(t, blobs)
	for _, bad := range []string{"id,v\n1,a\n2,\"b\n", "id,v\n1,a\n2\n"} {
		if code, body, _ := pushSnapshot(t, srv, "known", bad, nil); code != http.StatusBadRequest {
			t.Errorf("malformed push: status %d, want 400: %s", code, body)
		}
	}
	if got := get(t, srv.URL+"/tables/known/history"); got != histBefore {
		t.Errorf("history changed after a rejected push:\n%s\nwas\n%s", got, histBefore)
	}
	if got := get(t, srv.URL+"/jobs"); got != jobsBefore {
		t.Errorf("job listing changed after a rejected push:\n%s\nwas\n%s", got, jobsBefore)
	}
	if got := dirNames(t, blobs); !slices.Equal(got, blobsBefore) {
		t.Errorf("blob directory %v after a rejected push, was %v", got, blobsBefore)
	}
}

// rolledForward restarts a durable server on dir and checks that the
// table's one step, which has no job behind it, is queued at startup
// under the snapshot's id and explains: /trends reads steps_pending 0.
func rolledForward(t *testing.T, dir, table, snapID string) {
	t.Helper()
	s := mustServer(t, serverConfig{options: testOptions(), jobsDir: dir})
	srv := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	if _, ok := s.store.Get(snapID); !ok {
		t.Fatalf("no job queued at startup for step %s", snapID)
	}
	if job := waitJob(t, srv, snapID); job.State != "completed" || job.SnapshotID != snapID {
		t.Fatalf("rolled-forward step job: %+v", job)
	}
	var tr catalog.Trends
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/tables/"+table+"/trends")), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.StepsPending != 0 || tr.StepsExplained != 1 {
		t.Errorf("trends after the restart: %d pending, %d explained; want 0 and 1", tr.StepsPending, tr.StepsExplained)
	}
}

// TestCatalogRefusedPushRollsForward: a push refused with 503 (the job
// store closed under it) has already made its snapshot the chain head, so
// its step is pending with no job behind it. A restart on the same
// -jobs-dir queues that step, and it explains.
func TestCatalogRefusedPushRollsForward(t *testing.T) {
	dir := t.TempDir()
	ch := testChain(t, 1)
	s := mustServer(t, serverConfig{options: testOptions(), jobsDir: dir})
	srv := httptest.NewServer(s.handler())
	if code, _ := registerTable(t, srv, "bridges"); code != http.StatusCreated {
		t.Fatal("register failed")
	}
	if code, body, _ := pushSnapshot(t, srv, "bridges", csvOf(t, ch.Snapshots[0]), nil); code != http.StatusCreated {
		t.Fatalf("seed push: status %d: %s", code, body)
	}
	s.store.Close()
	code, body, hdr := pushSnapshot(t, srv, "bridges", csvOf(t, ch.Snapshots[1]), nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("push to a closed job store: status %d, want 503: %s", code, body)
	}
	snapID := hdr.Get("X-Affidavit-Snapshot-Id")
	var tr catalog.Trends
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/tables/bridges/trends")), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.StepsPending != 1 {
		t.Fatalf("refused push: %d steps pending, want its 1", tr.StepsPending)
	}
	srv.Close()
	s.Close()
	rolledForward(t, dir, "bridges", snapID)
}

// TestCatalogOrphanSnapshotRollsForward: a catalog journal holding a
// snapshot with a parent but no step line, beside a job store with no
// journal at all, starts a server that queues and explains that step.
func TestCatalogOrphanSnapshotRollsForward(t *testing.T) {
	dir := t.TempDir()
	ch := testChain(t, 1)
	blobDir := filepath.Join(dir, "blobs")
	if err := os.MkdirAll(blobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	var blobs []string
	for _, snap := range ch.Snapshots[:2] {
		data := csvOf(t, snap)
		sum := sha256.Sum256([]byte(data))
		blob := hex.EncodeToString(sum[:])
		if err := os.WriteFile(filepath.Join(blobDir, blob), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	schema := ch.Snapshots[0].Schema().Attrs()
	at := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	var journal bytes.Buffer
	for _, rec := range []catalog.Record{
		{Kind: catalog.KindTable, Seq: 0, Table: "bridges", Time: at},
		{Kind: catalog.KindSnapshot, Seq: 1, Table: "bridges", Time: at, SnapshotID: "snap-1",
			Blob: blobs[0], Records: ch.Snapshots[0].Len(), Schema: schema},
		{Kind: catalog.KindSnapshot, Seq: 2, Table: "bridges", Time: at, SnapshotID: "snap-2", ParentID: "snap-1",
			Blob: blobs[1], Records: ch.Snapshots[1].Len(), Schema: schema},
	} {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		journal.Write(append(line, '\n'))
	}
	if err := os.MkdirAll(filepath.Join(dir, "catalog"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "catalog", "catalog.jsonl"), journal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	rolledForward(t, dir, "bridges", "snap-2")
}
