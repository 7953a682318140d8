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
	"strings"
	"sync"
	"testing"
	"time"

	"affidavit"
	"affidavit/internal/datasets"
	"affidavit/internal/gen"
	"affidavit/internal/table"
)

// testOptions is the shared explainer construction for server tests.
func testOptions() []affidavit.Option {
	return []affidavit.Option{affidavit.WithSeed(31)}
}

// mustServer builds a server or fails the test, and closes it when the
// test ends: its pool stops and a private state directory goes.
func mustServer(t *testing.T, cfg serverConfig) *server {
	t.Helper()
	s, err := newServer(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(mustServer(t, serverConfig{options: testOptions()}).handler())
	t.Cleanup(srv.Close)
	return srv
}

func csvOf(t *testing.T, tab *table.Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// multipartBody builds an /explain upload from two CSV strings.
func multipartBody(t *testing.T, source, target string, fields map[string]string) (string, io.Reader) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for name, content := range map[string]string{"source": source, "target": target} {
		fw, err := mw.CreateFormFile(name, name+".csv")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(fw, content); err != nil {
			t.Fatal(err)
		}
	}
	for k, v := range fields {
		if err := mw.WriteField(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return mw.FormDataContentType(), &buf
}

func testChain(t *testing.T, steps int) *gen.ChainProblem {
	t.Helper()
	ds, err := datasets.Get("bridges")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ds.Build(31)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := gen.MakeChain(tab, gen.ChainConfig{Steps: steps, Eta: 0.1, Tau: 0.5, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func post(t *testing.T, srv *httptest.Server, source, target string, fields map[string]string) (int, []byte) {
	t.Helper()
	ctype, body := multipartBody(t, source, target, fields)
	resp, err := http.Post(srv.URL+"/explain", ctype, body)
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

func TestExplainEndpoint(t *testing.T) {
	srv := testServer(t)
	ch := testChain(t, 1)
	src, tgt := csvOf(t, ch.Snapshots[0]), csvOf(t, ch.Snapshots[1])

	code, body := post(t, srv, src, tgt, map[string]string{"table": "bridges"})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp affidavit.JSONResult
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if resp.Table != "bridges" {
		t.Errorf("table %q", resp.Table)
	}
	if len(resp.Explanation.Functions) == 0 {
		t.Error("no functions in response")
	}
	if resp.Cost <= 0 || resp.Cost >= resp.TrivialCost {
		t.Errorf("cost %v vs trivial %v: no structure found", resp.Cost, resp.TrivialCost)
	}
	if !strings.Contains(resp.SQL, "bridges") {
		t.Error("SQL script not rendered for the table name")
	}
	if resp.Stats.Polls == 0 {
		t.Error("stats not populated")
	}
}

func TestExplainFormats(t *testing.T) {
	srv := testServer(t)
	ch := testChain(t, 1)
	src, tgt := csvOf(t, ch.Snapshots[0]), csvOf(t, ch.Snapshots[1])

	code, body := post(t, srv, src, tgt, map[string]string{"table": "b", "format": "sql"})
	if code != http.StatusOK || !strings.Contains(string(body), "UPDATE") && !strings.Contains(string(body), "DELETE") && !strings.Contains(string(body), "INSERT") {
		t.Errorf("sql format: status %d body %.120s", code, body)
	}
	code, body = post(t, srv, src, tgt, map[string]string{"format": "text"})
	if code != http.StatusOK || len(body) == 0 {
		t.Errorf("text format: status %d", code)
	}
	code, body = post(t, srv, src, tgt, map[string]string{"format": "yaml"})
	if code != http.StatusBadRequest {
		t.Errorf("unknown format: status %d body %.120s", code, body)
	}
}

func TestExplainErrors(t *testing.T) {
	srv := testServer(t)
	// Missing files.
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	mw.Close()
	resp, err := http.Post(srv.URL+"/explain", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing files: status %d", resp.StatusCode)
	}
	// Mismatched schemas.
	code, _ := post(t, srv, "a,b\n1,2\n", "x\n9\n", nil)
	if code != http.StatusUnprocessableEntity {
		t.Errorf("schema mismatch: status %d", code)
	}
	// GET not allowed.
	get, err := http.Get(srv.URL + "/explain")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d", get.StatusCode)
	}
}

// TestConcurrentIdenticalRequests is the service acceptance check:
// concurrent POST /explain requests are race-clean and identical inputs
// yield byte-identical reports, shared pool or not.
func TestConcurrentIdenticalRequests(t *testing.T) {
	srv := testServer(t)
	ch := testChain(t, 1)
	src, tgt := csvOf(t, ch.Snapshots[0]), csvOf(t, ch.Snapshots[1])

	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := post(t, srv, src, tgt, map[string]string{"table": "same"})
			if code != http.StatusOK {
				t.Errorf("request %d: status %d", i, code)
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
}

// TestWarmChainViaService: the service's warm chain is the catalog.
// Pushing a chain's snapshots to a registered table returns, step for
// step, the explanation bytes the /explain?warm=1 chain it replaced
// returned for the same pairs (testdata/warm_chain_parent.json, recorded on
// the last commit that served warm=1; no -update), and the search effort
// pinned beside them. The two are compared apart: each body's `stats`
// object is cut off and checked on its own, so a change that only polls
// fewer states edits the fixture's stats and nothing else. The stats of
// steps 2 and 3 were re-recorded (polls 2 → 1, states_generated 6 → 0,
// enqueued 2 → 1) when a warm step whose carried tuple reproduces the
// previous compression stopped polling the no-mapping state. The warm
// steps poll fewer states than the first, /metrics shows the chain's
// session, and a warm value on /explain answers 400 naming the catalog
// routes.
func TestWarmChainViaService(t *testing.T) {
	raw, err := os.ReadFile("testdata/warm_chain_parent.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	srv := testServer(t)
	ch := testChain(t, 3)
	if len(want) != len(ch.Snapshots)-1 {
		t.Fatalf("fixture holds %d steps, chain has %d", len(want), len(ch.Snapshots)-1)
	}
	if code, body := registerTable(t, srv, "chain"); code != http.StatusCreated {
		t.Fatalf("register: status %d: %s", code, body)
	}
	if code, body, _ := pushSnapshot(t, srv, "chain", csvOf(t, ch.Snapshots[0]), nil); code != http.StatusCreated {
		t.Fatalf("seed push: status %d: %s", code, body)
	}
	var polls []int
	for i := 1; i < len(ch.Snapshots); i++ {
		code, body, _ := pushSnapshot(t, srv, "chain", csvOf(t, ch.Snapshots[i]), nil)
		if code != http.StatusOK {
			t.Fatalf("step %d: status %d: %s", i, code, body)
		}
		gotExpl, gotStats := splitStats(t, body)
		wantExpl, wantStats := splitStats(t, []byte(want[i-1]))
		if gotExpl != wantExpl {
			t.Errorf("step %d: pushed explanation bytes differ from the warm=1 chain's", i)
		}
		if gotStats != wantStats {
			t.Errorf("step %d: stats %+v, pinned %+v", i, gotStats, wantStats)
		}
		polls = append(polls, gotStats.Polls)
	}
	for i := 1; i < len(polls); i++ {
		if polls[i] >= polls[0] {
			t.Errorf("warm step %d polled %d states, cold step polled %d — no warm speedup",
				i+1, polls[i], polls[0])
		}
	}
	m := metricSamples(t, srv)
	if runs, pool := m[`affidavit_chain_runs{table="chain"}`], m[`affidavit_chain_pool_values{table="chain"}`]; runs != "3" || pool == "" || pool == "0" {
		t.Errorf("chain session gauges: runs %q, pool values %q; want 3 and non-zero", runs, pool)
	}
	code, body := post(t, srv, csvOf(t, ch.Snapshots[0]), csvOf(t, ch.Snapshots[1]),
		map[string]string{"table": "chain", "warm": "1"})
	if code != http.StatusBadRequest ||
		!strings.Contains(string(body), "POST /tables") || !strings.Contains(string(body), "POST /tables/{name}/snapshots") {
		t.Errorf("warm=1: status %d body %q, want 400 naming the catalog routes", code, body)
	}
}

// splitStats cuts a response body at its trailing "stats" member and
// returns the bytes before it (the explanation, its costs and ratio) and
// the decoded stats.
func splitStats(t *testing.T, body []byte) (string, affidavit.JSONStats) {
	t.Helper()
	const member = ",\n  \"stats\": "
	i := bytes.LastIndex(body, []byte(member))
	if i < 0 {
		t.Fatalf("body has no stats member: %.200s", body)
	}
	var stats affidavit.JSONStats
	dec := json.NewDecoder(bytes.NewReader(body[i+len(member):]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return string(body[:i]), stats
}

// TestExplainLeavesNoSession: /explain is stateless. Explained, duplicate,
// async and rejected uploads — one rejected mid-ingest, after its source
// interned — leave no affidavit_chain_ series on /metrics, which lists
// catalog chain sessions only.
func TestExplainLeavesNoSession(t *testing.T) {
	srv := testServer(t)
	ch := testChain(t, 1)
	src, tgt := csvOf(t, ch.Snapshots[0]), csvOf(t, ch.Snapshots[1])
	for _, tc := range []struct {
		source, target string
		fields         map[string]string
		want           int
	}{
		{src, tgt, map[string]string{"table": "a"}, http.StatusOK},
		{src, tgt, map[string]string{"table": "a"}, http.StatusOK},
		{tgt, src, map[string]string{"table": "b", "async": "1"}, http.StatusAccepted},
		{src, "id,v\n1,a\n2,\"b\n", map[string]string{"table": "c"}, http.StatusBadRequest},
	} {
		if code, body := post(t, srv, tc.source, tc.target, tc.fields); code != tc.want {
			t.Fatalf("%v: status %d, want %d: %.200s", tc.fields, code, tc.want, body)
		}
	}
	if chains := chainSeries(metricSamples(t, srv)); len(chains) != 0 {
		t.Errorf("/explain traffic left chain sessions on /metrics: %v", chains)
	}
}

// TestExplainEmptySnapshots: header-only CSVs are valid empty tables; the
// JSON path must not emit NaN ratios.
func TestExplainEmptySnapshots(t *testing.T) {
	srv := testServer(t)
	code, body := post(t, srv, "a,b\n", "a,b\n", nil)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp affidavit.JSONResult
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if resp.Compression != 0 {
		t.Errorf("compression %v, want 0 for an empty pair", resp.Compression)
	}
}

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d", resp.StatusCode)
	}
}

// TestExplainDeadline503: a request whose explanation budget is already
// exhausted answers 503 Service Unavailable with the partial (here: empty)
// search statistics instead of hanging or 500ing.
func TestExplainDeadline503(t *testing.T) {
	srv := httptest.NewServer(mustServer(t, serverConfig{
		options: testOptions(),
		timeout: time.Nanosecond,
	}).handler())
	t.Cleanup(srv.Close)

	ch := testChain(t, 1)
	code, body := post(t, srv, csvOf(t, ch.Snapshots[0]), csvOf(t, ch.Snapshots[1]),
		map[string]string{"table": "slow"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", code, body)
	}
	var resp deadlineResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad 503 JSON: %v: %s", err, body)
	}
	if resp.Error == "" || resp.Table != "slow" {
		t.Errorf("503 body: %+v", resp)
	}
}

// TestMaxInflightQueuedRequestExpires: with -max-inflight 1 and the one
// slot held by an upload still streaming in, an /explain whose request
// context ends while it queues answers 503 and takes no slot. Once the
// holder finishes and frees the slot, the next /explain runs.
func TestMaxInflightQueuedRequestExpires(t *testing.T) {
	s := mustServer(t, serverConfig{options: testOptions(), maxInflight: 1})
	t.Cleanup(func() { s.Close() })
	srv := httptest.NewServer(s.handler())
	t.Cleanup(srv.Close)
	ch := testChain(t, 2)
	src, tgt := csvOf(t, ch.Snapshots[0]), csvOf(t, ch.Snapshots[1])

	// The holder's body arrives in two writes; between them its handler
	// holds the slot while it spools.
	ctype, body := multipartBody(t, src, tgt, map[string]string{"table": "holder"})
	whole, err := io.ReadAll(body)
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	defer pw.Close() // a failed check must not leave the holder streaming
	held := make(chan int, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/explain", ctype, pr)
		if err != nil {
			held <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		held <- resp.StatusCode
	}()
	if _, err := pw.Write(whole[:64]); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); len(s.maxInflight) != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first upload never took the slot")
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctype2, body2 := multipartBody(t, src, tgt, map[string]string{"table": "queued"})
	req := httptest.NewRequest(http.MethodPost, "/explain", body2).WithContext(ctx)
	req.Header.Set("Content-Type", ctype2)
	rec := httptest.NewRecorder()
	s.handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable || strings.TrimSpace(rec.Body.String()) != "request expired while queued for a slot" {
		t.Errorf("queued request: status %d body %q, want 503 naming the slot queue", rec.Code, rec.Body.String())
	}
	if n := len(s.maxInflight); n != 1 {
		t.Errorf("%d slots taken after the queued request expired, want the holder's 1", n)
	}

	if _, err := pw.Write(whole[64:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if code := <-held; code != http.StatusOK {
		t.Fatalf("the slot holder answered %d, want 200", code)
	}
	if code, body := post(t, srv, tgt, src, map[string]string{"table": "next"}); code != http.StatusOK {
		t.Fatalf("/explain after the slot freed: status %d: %s", code, body)
	}
	if n := len(s.maxInflight); n != 0 {
		t.Errorf("%d slots taken after every request ended, want 0", n)
	}
}

// TestMetricsEndpoint: /metrics serves the observer-fed Prometheus
// counters and reflects the traffic the server handled.
func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t)
	ch := testChain(t, 1)
	code, body := post(t, srv, csvOf(t, ch.Snapshots[0]), csvOf(t, ch.Snapshots[1]),
		map[string]string{"table": "m"})
	if code != http.StatusOK {
		t.Fatalf("explain: status %d: %s", code, body)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	text := string(out)
	for _, want := range []string{
		`affidavit_ingested_records_total{snapshot="source"} 98`,
		`affidavit_ingested_records_total{snapshot="target"} 98`,
		`affidavit_runs_started_total{mode="cold"} 1`,
		"affidavit_runs_completed_total 1",
		"affidavit_conversions_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// postResp is post, but also returns the response headers — trace tests
// need X-Affidavit-Trace-Id.
func postResp(t *testing.T, srv *httptest.Server, url, source, target string, fields map[string]string) (*http.Response, []byte) {
	t.Helper()
	ctype, body := multipartBody(t, source, target, fields)
	resp, err := http.Post(url, ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestTracesEndpoint is the tracing acceptance path: a traced /explain
// tags its response with X-Affidavit-Trace-Id, /traces/{id} then returns
// the complete structured trace for that run, and ?trace=1 inlines the
// same trace in the JSON response.
func TestTracesEndpoint(t *testing.T) {
	s := mustServer(t, serverConfig{options: testOptions(), traceBuffer: 8})
	srv := httptest.NewServer(s.handler())
	t.Cleanup(srv.Close)
	ch := testChain(t, 1)
	src, tgt := csvOf(t, ch.Snapshots[0]), csvOf(t, ch.Snapshots[1])

	resp, body := postResp(t, srv, srv.URL+"/explain", src, tgt, map[string]string{"table": "traced"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-Affidavit-Trace-Id")
	if id == "" {
		t.Fatal("no X-Affidavit-Trace-Id header on a traced response")
	}
	if strings.Contains(string(body), `"trace"`) {
		t.Error("plain response inlined a trace without ?trace=1")
	}

	// The index lists the run, most recent first.
	idxResp, err := http.Get(srv.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer idxResp.Body.Close()
	var index struct {
		Traces []traceIndexEntry `json:"traces"`
	}
	if err := json.NewDecoder(idxResp.Body).Decode(&index); err != nil {
		t.Fatal(err)
	}
	if len(index.Traces) != 1 || index.Traces[0].ID != id || index.Traces[0].Label != "traced" {
		t.Fatalf("index = %+v, want one entry for %s/traced", index.Traces, id)
	}

	// The full trace is complete and structured: ingest spans for both
	// snapshots, a search span, a populated poll summary.
	trResp, err := http.Get(srv.URL + "/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer trResp.Body.Close()
	var tr affidavit.Trace
	if err := json.NewDecoder(trResp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if trResp.StatusCode != http.StatusOK || tr.ID != id || !tr.Complete {
		t.Fatalf("trace fetch: status %d, trace %+v", trResp.StatusCode, tr)
	}
	for _, stage := range []string{"ingest:source", "ingest:target", "search", "convert"} {
		if tr.SpanFor(stage) == nil {
			t.Errorf("trace missing span %q (spans: %+v)", stage, tr.Spans)
		}
	}
	if tr.Polls.Polls == 0 || len(tr.Polls.Curve) == 0 {
		t.Errorf("poll summary not populated: %+v", tr.Polls)
	}
	if tr.Mode != "cold" {
		t.Errorf("mode %q, want cold", tr.Mode)
	}
	// The trace joins the job that ran it.
	if jobID := resp.Header.Get("X-Affidavit-Job-Id"); jobID == "" || tr.JobID != jobID {
		t.Errorf("trace job id %q, want header job id %q", tr.JobID, jobID)
	}

	// ?trace=1 inlines the run's trace. This re-submission of an
	// identical pair dedupes to the already-completed job, so the
	// inlined trace is the original run's — and no second run happens.
	resp2, body2 := postResp(t, srv, srv.URL+"/explain?trace=1", src, tgt, map[string]string{"table": "traced"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("trace=1 explain: status %d: %s", resp2.StatusCode, body2)
	}
	var jr affidavit.JSONResult
	if err := json.Unmarshal(body2, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Trace == nil || jr.Trace.ID != resp2.Header.Get("X-Affidavit-Trace-Id") {
		t.Fatalf("inlined trace = %+v, want the run of header %q", jr.Trace, resp2.Header.Get("X-Affidavit-Trace-Id"))
	}

	// Unknown IDs 404.
	nf, err := http.Get(srv.URL + "/traces/nope")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace: status %d", nf.StatusCode)
	}

	// /metrics counts the retained traces. One retained trace: the
	// deduped re-submission joined the first run instead of computing (and
	// tracing) a second one.
	m := metricSamples(t, srv)
	if got := m["affidavit_traces_retained"]; got != "1" {
		t.Errorf("affidavit_traces_retained %q, want 1 (dedupe joins the first run)", got)
	}
	if hits, subs := m["affidavit_jobs_dedupe_hits_total"], m["affidavit_jobs_submitted_total"]; hits != "1" || subs != "1" {
		t.Errorf("dedupe hits %q, submissions %q; want 1 submission + 1 dedupe hit", hits, subs)
	}
}

// TestTraceSplice: ?trace=1 splices the trace into the stored body instead
// of decoding and re-encoding it. The spliced response must equal what the
// decode/re-encode gave — the stored body decoded onto JSONResult, Trace
// set, MarshalIndent plus the stored newline — and cutting the "trace"
// member back out must give the plain response byte for byte.
func TestTraceSplice(t *testing.T) {
	s := mustServer(t, serverConfig{options: testOptions(), traceBuffer: 8})
	srv := httptest.NewServer(s.handler())
	t.Cleanup(srv.Close)
	ch := testChain(t, 1)
	src, tgt := csvOf(t, ch.Snapshots[0]), csvOf(t, ch.Snapshots[1])

	resp, plain := postResp(t, srv, srv.URL+"/explain", src, tgt, map[string]string{"table": "spliced"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d: %s", resp.StatusCode, plain)
	}
	resp2, traced := postResp(t, srv, srv.URL+"/explain?trace=1", src, tgt, map[string]string{"table": "spliced"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("trace=1 explain: status %d: %s", resp2.StatusCode, traced)
	}
	tr := s.traceByID(resp.Header.Get("X-Affidavit-Trace-Id"))
	if tr == nil {
		t.Fatal("the run's trace is not retained")
	}

	var jr affidavit.JSONResult
	if err := json.Unmarshal(plain, &jr); err != nil {
		t.Fatal(err)
	}
	jr.Trace = tr
	want, err := json.MarshalIndent(jr, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(traced, want) {
		t.Errorf("spliced response differs from decode/re-encode:\n got %d bytes\nwant %d bytes", len(traced), len(want))
	}

	cut := bytes.LastIndex(traced, []byte(",\n  \"trace\": "))
	if cut < 0 {
		t.Fatal("no trace member in the ?trace=1 response")
	}
	if stripped := append(traced[:cut:cut], "\n}\n"...); !bytes.Equal(stripped, plain) {
		t.Error("the ?trace=1 response without its trace member is not the plain response")
	}
}

// TestTraceRingBound: the ring keeps only the newest -trace-buffer traces,
// index ordered most recent first.
func TestTraceRingBound(t *testing.T) {
	s := mustServer(t, serverConfig{options: testOptions(), traceBuffer: 2})
	for i := 0; i < 3; i++ {
		s.storeTrace(&affidavit.Trace{ID: fmt.Sprintf("t%d", i), Complete: true})
	}
	recent := s.recentTraces()
	if len(recent) != 2 || recent[0].ID != "t2" || recent[1].ID != "t1" {
		t.Fatalf("recent = %+v, want [t2 t1]", recent)
	}
	if s.traceByID("t0") != nil {
		t.Error("evicted trace still resolvable")
	}
}

// TestTracingDisabled: -trace-buffer 0 means no recorder, no header, and
// /traces answers 404.
func TestTracingDisabled(t *testing.T) {
	srv := testServer(t) // zero-value config: tracing off
	ch := testChain(t, 1)
	resp, body := postResp(t, srv, srv.URL+"/explain?trace=1",
		csvOf(t, ch.Snapshots[0]), csvOf(t, ch.Snapshots[1]), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get("X-Affidavit-Trace-Id"); h != "" {
		t.Errorf("unexpected trace header %q with tracing disabled", h)
	}
	if strings.Contains(string(body), `"trace"`) {
		t.Error("trace inlined with tracing disabled")
	}
	tresp, err := http.Get(srv.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusNotFound {
		t.Errorf("/traces with tracing disabled: status %d", tresp.StatusCode)
	}
}

// TestStreamingBeyondMaxUpload: file parts stream into the interned
// backend, so an upload far larger than -max-upload explains fine — the
// cap only bounds buffered non-file values now.
func TestStreamingBeyondMaxUpload(t *testing.T) {
	srv := httptest.NewServer(mustServer(t, serverConfig{
		options:   testOptions(),
		maxUpload: 1 << 10, // 1 KiB
	}).handler())
	t.Cleanup(srv.Close)

	// ~60 KiB per snapshot, far beyond the 1 KiB cap.
	var src, tgt strings.Builder
	src.WriteString("id,city,amount\n")
	tgt.WriteString("id,city,amount\n")
	cities := []string{"mannheim", "berlin", "hamburg", "dresden"}
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&src, "K%05d,%s,%d\n", i, cities[i%4], i*100)
		fmt.Fprintf(&tgt, "R%05d,%s,%d\n", i, strings.ToUpper(cities[i%4]), i*100)
	}
	code, body := post(t, srv, src.String(), tgt.String(), map[string]string{"table": "big"})
	if code != http.StatusOK {
		t.Fatalf("status %d: %.300s", code, body)
	}
	var resp affidavit.JSONResult
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cost >= resp.TrivialCost {
		t.Errorf("cost %v vs trivial %v: the uppercase rewrite was not learned", resp.Cost, resp.TrivialCost)
	}
	// The cap still applies to buffered value fields.
	code, body = post(t, srv, "a\n1\n", "a\n1\n", map[string]string{"table": strings.Repeat("x", 2<<10)})
	if code != http.StatusBadRequest || !strings.Contains(string(body), "exceeds") {
		t.Errorf("oversized field: status %d body %.120s", code, body)
	}
}

// TestMaxRecordsGuard: -max-records rejects snapshots that stream past
// the cap — the memory guard replacing the removed whole-body byte cap.
func TestMaxRecordsGuard(t *testing.T) {
	srv := httptest.NewServer(mustServer(t, serverConfig{
		options:    testOptions(),
		maxRecords: 10,
	}).handler())
	t.Cleanup(srv.Close)

	var big strings.Builder
	big.WriteString("id\n")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&big, "r%d\n", i)
	}
	code, body := post(t, srv, big.String(), big.String(), nil)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "record limit") {
		t.Errorf("over-limit upload: status %d body %.120s", code, body)
	}
	// Under the cap still works — and so does EXACTLY the cap (a snapshot
	// of max records ends in a clean EOF, not a limit error).
	code, _ = post(t, srv, "id\nr1\nr2\n", "id\nr1\n", nil)
	if code != http.StatusOK {
		t.Errorf("under-limit upload: status %d", code)
	}
	var exact strings.Builder
	exact.WriteString("id\n")
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&exact, "r%d\n", i)
	}
	code, body = post(t, srv, exact.String(), exact.String(), nil)
	if code != http.StatusOK {
		t.Errorf("exact-limit upload: status %d body %.120s", code, body)
	}
}

// TestMaxSnapshotBytesGuard: the byte cap catches few-records-huge-fields
// bodies that a record count cannot.
func TestMaxSnapshotBytesGuard(t *testing.T) {
	srv := httptest.NewServer(mustServer(t, serverConfig{
		options:          testOptions(),
		maxSnapshotBytes: 1 << 10, // 1 KiB
	}).handler())
	t.Cleanup(srv.Close)

	huge := "v\n" + strings.Repeat("x", 4<<10) + "\n" // one 4 KiB record
	code, body := post(t, srv, huge, "v\na\n", nil)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "byte limit") {
		t.Errorf("over-byte-limit upload: status %d body %.120s", code, body)
	}
	code, _ = post(t, srv, "v\na\n", "v\nb\n", nil)
	if code != http.StatusOK {
		t.Errorf("small upload: status %d", code)
	}
}

// TestMaxSnapshotRejectionNamesFlag: the byte-cap rejection names
// -max-snapshot, the one flag that serves genuinely large snapshots, and no
// flag that does not exist.
func TestMaxSnapshotRejectionNamesFlag(t *testing.T) {
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
	if !strings.Contains(string(body), "-max-snapshot") {
		t.Errorf("rejection does not name -max-snapshot: %.200s", body)
	}
	if strings.Contains(string(body), "-mem-budget") {
		t.Errorf("rejection mentions the removed -mem-budget: %.200s", body)
	}
}
