package main

// HTTP client side: one function per daemon operation. Every call reads
// the response body to the end before it returns — an operation is only
// complete when its bytes are in hand.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"time"
)

// pollEvery is how often an async submitter re-asks for its result.
const pollEvery = 2 * time.Millisecond

// client talks to one daemon over at most two connections — the harness
// never runs more than two concurrent callers.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout: opTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     2,
				MaxIdleConnsPerHost: 2,
				DisableCompression:  true,
			},
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// phases splits one request's client-observed time at the two points the
// client can see: the request body fully written, and the first response
// byte. Only traced runs ask for it.
type phases struct {
	start     time.Time
	wrote     time.Time
	firstByte time.Time
	done      time.Time
}

func (p *phases) uploadMS() float64 { return ms(p.wrote.Sub(p.start)) }
func (p *phases) waitMS() float64   { return ms(p.firstByte.Sub(p.wrote)) }
func (p *phases) readMS() float64   { return ms(p.done.Sub(p.firstByte)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// reply is one fully-read response.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// do sends one request and reads the whole response. ph, when non-nil,
// receives the client-side phase timestamps.
func (c *client) do(method, path, ctype string, body []byte, ph *phases) (*reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	ctx := context.Background()
	if ph != nil {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { ph.wrote = time.Now() },
			GotFirstResponseByte: func() { ph.firstByte = time.Now() },
		})
		ph.start = time.Now()
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf := bytes.NewBuffer(make([]byte, 0, max(int(resp.ContentLength), 512)))
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("reading %s %s: %w", method, path, err)
	}
	if ph != nil {
		ph.done = time.Now()
	}
	return &reply{status: resp.StatusCode, header: resp.Header, body: buf.Bytes()}, nil
}

// expect turns an unexpected status into an error carrying the body's
// first line.
func (r *reply) expect(status int, what string) error {
	if r.status == status {
		return nil
	}
	line, _, _ := strings.Cut(string(r.body), "\n")
	if len(line) > 200 {
		line = line[:200]
	}
	return fmt.Errorf("%s: status %d, want %d: %s", what, r.status, status, line)
}

// explain is one synchronous POST /explain of a prepared pair body.
func (c *client) explain(table string, body []byte, ph *phases) (*reply, error) {
	r, err := c.do(http.MethodPost, "/explain?table="+table, multipartType, body, ph)
	if err != nil {
		return nil, err
	}
	return r, r.expect(http.StatusOK, "POST /explain")
}

// explainAsync submits with async=1, then polls the result path until the
// job has completed and returns the result bytes and the number of polls.
// ph, when non-nil, receives the phases of the submitting request.
func (c *client) explainAsync(table string, body []byte, ph *phases) (*reply, int, error) {
	r, err := c.do(http.MethodPost, "/explain?async=1&table="+table, multipartType, body, ph)
	if err != nil {
		return nil, 0, err
	}
	if err := r.expect(http.StatusAccepted, "POST /explain?async=1"); err != nil {
		return nil, 0, err
	}
	var acc struct {
		Result string `json:"result"`
	}
	if err := json.Unmarshal(r.body, &acc); err != nil || acc.Result == "" {
		return nil, 0, fmt.Errorf("async accept body: %v: %.100s", err, r.body)
	}
	deadline := time.Now().Add(opTimeout)
	for polls := 1; ; polls++ {
		res, err := c.do(http.MethodGet, acc.Result, "", nil, nil)
		if err != nil {
			return nil, polls, err
		}
		switch res.status {
		case http.StatusOK:
			return res, polls, nil
		case http.StatusConflict: // not completed yet
		default:
			return nil, polls, res.expect(http.StatusOK, "GET "+acc.Result)
		}
		if time.Now().After(deadline) {
			return nil, polls, fmt.Errorf("job %s not completed within %v", acc.Result, opTimeout)
		}
		time.Sleep(pollEvery)
	}
}

// register creates a catalog table.
func (c *client) register(table string) error {
	r, err := c.do(http.MethodPost, "/tables?name="+table, "", nil, nil)
	if err != nil {
		return err
	}
	return r.expect(http.StatusCreated, "POST /tables")
}

// push uploads a table's next snapshot (sync). The first push of a table
// answers 201, every later one 200 with the step's explanation.
func (c *client) push(table string, body []byte, first bool, ph *phases) (*reply, error) {
	r, err := c.do(http.MethodPost, "/tables/"+table+"/snapshots", multipartType, body, ph)
	if err != nil {
		return nil, err
	}
	want := http.StatusOK
	if first {
		want = http.StatusCreated
	}
	return r, r.expect(want, "POST /tables/"+table+"/snapshots")
}

// get fetches a path that must answer 200.
func (c *client) get(path string) (*reply, error) {
	r, err := c.do(http.MethodGet, path, "", nil, nil)
	if err != nil {
		return nil, err
	}
	return r, r.expect(http.StatusOK, "GET "+path)
}

// counters fetches /metrics and returns every un-labelled and labelled
// sample as name{labels} → value.
func (c *client) counters() (map[string]float64, error) {
	r, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(r.body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// counterDelta sums after−before over every series whose name starts with
// prefix (so labelled families such as runs_started_total{mode=…} add up).
func counterDelta(before, after map[string]float64, prefix string) float64 {
	var d float64
	for name, v := range after {
		if strings.HasPrefix(name, prefix) {
			d += v - before[name]
		}
	}
	return d
}
