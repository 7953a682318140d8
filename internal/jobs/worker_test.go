package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// okRunner completes every job with a body derived from its record.
func okRunner(ctx context.Context, rec Record, payload any) (*Outcome, error) {
	return &Outcome{
		Body:        []byte("result:" + rec.Table),
		ContentType: "text/plain",
		Stats:       []byte(`{}`),
		TraceID:     "trace-" + rec.ID,
	}, nil
}

func waitState(t *testing.T, j *Job, want State) Record {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		rec := j.Record()
		if rec.State == want {
			return rec
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (now %s)", j.ID(), want, j.Record().State)
	return Record{}
}

func TestPoolCompletes(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(s, okRunner, PoolOptions{Workers: 3})
	p.Start(context.Background())
	defer func() { p.Close(); s.Close() }()
	var jobsList []*Job
	for i := 0; i < 5; i++ {
		j, _, err := s.Submit(Spec{Addr: fmt.Sprintf("addr-%d", i), Table: fmt.Sprintf("t%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		jobsList = append(jobsList, j)
	}
	for i, j := range jobsList {
		rec, err := s.Wait(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		if rec.State != StateCompleted || rec.Attempts != 1 {
			t.Fatalf("job %d: %+v", i, rec)
		}
		body, _, err := s.Result(j.ID())
		if err != nil || string(body) != "result:t"+fmt.Sprint(i) {
			t.Fatalf("job %d result %q err=%v", i, body, err)
		}
		if rec.TraceID != "trace-"+rec.ID {
			t.Fatalf("trace id not recorded: %+v", rec)
		}
	}
	if m := s.Metrics(); m.Completed != 5 || m.Queued != 0 || m.Running != 0 {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestPoolRunnerErrorEndsJob: a run that returns an error ends its job
// on the first attempt — the one way to rerun it is to resubmit the pair.
func TestPoolRunnerErrorEndsJob(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	runner := func(ctx context.Context, rec Record, payload any) (*Outcome, error) {
		calls.Add(1)
		return nil, errors.New("schema mismatch")
	}
	p := NewPool(s, runner, PoolOptions{Workers: 1})
	p.Start(context.Background())
	defer func() { p.Close(); s.Close() }()
	j, _, _ := s.Submit(Spec{Addr: "addr", Table: "t"})
	rec, err := s.Wait(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateError || rec.Attempts != 1 || rec.Error != "schema mismatch" {
		t.Fatalf("failed job: %+v", rec)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("runner called %d times, want 1", n)
	}
	if m := s.Metrics(); m.Failed != 1 || m.Queued != 0 || m.Running != 0 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestPoolCancelRunning(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	runner := func(ctx context.Context, rec Record, payload any) (*Outcome, error) {
		close(started)
		<-ctx.Done()
		// Mirror the engine: a cancelled run returns best-so-far, not an
		// error.
		return &Outcome{Cancelled: true, Stats: []byte(`{"polls":1}`)}, nil
	}
	p := NewPool(s, runner, PoolOptions{Workers: 1})
	p.Start(context.Background())
	defer func() { p.Close(); s.Close() }()
	j, _, _ := s.Submit(Spec{Addr: "addr", Table: "t"})
	<-started
	rec, err := s.Cancel(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateRunning {
		t.Fatalf("cancel of a running job should report running (cancel in flight), got %s", rec.State)
	}
	final, err := s.Wait(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled {
		t.Fatalf("cancelled run landed as %s", final.State)
	}
	if string(final.Stats) != `{"polls":1}` {
		t.Fatalf("cancelled run lost its partial stats: %s", final.Stats)
	}
}

func TestPoolDeadlineFailsWithPartialStats(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	runner := func(ctx context.Context, rec Record, payload any) (*Outcome, error) {
		<-ctx.Done()
		return &Outcome{Cancelled: true, Stats: []byte(`{"polls":7}`)}, nil
	}
	p := NewPool(s, runner, PoolOptions{Workers: 1, Timeout: 5 * time.Millisecond})
	p.Start(context.Background())
	defer func() { p.Close(); s.Close() }()
	j, _, _ := s.Submit(Spec{Addr: "addr", Table: "t"})
	rec, err := s.Wait(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateError || !rec.Deadline {
		t.Fatalf("deadline cut: %+v", rec)
	}
	if string(rec.Stats) != `{"polls":7}` {
		t.Fatalf("partial stats lost: %s", rec.Stats)
	}
}

func TestPoolShutdownRequeues(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	runner := func(ctx context.Context, rec Record, payload any) (*Outcome, error) {
		close(started)
		<-ctx.Done()
		return &Outcome{Cancelled: true}, nil
	}
	p := NewPool(s, runner, PoolOptions{Workers: 1})
	p.Start(context.Background())
	j, _, _ := s.Submit(Spec{Addr: "addr", Table: "t"})
	<-started
	p.Close() // shutdown, not cancel: the job must return to the queue
	rec := j.Record()
	if rec.State != StatePending || rec.Requeues != 1 {
		t.Fatalf("shutdown did not requeue: %+v", rec)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The journaled pending line survives to the next process run, which
	// completes the job from its blobs.
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	p2 := NewPool(s2, okRunner, PoolOptions{Workers: 1})
	p2.Start(context.Background())
	defer func() { p2.Close(); s2.Close() }()
	j2, ok := s2.Get(j.ID())
	if !ok {
		t.Fatal("requeued job lost across restart")
	}
	rec2, err := s2.Wait(context.Background(), j2)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.State != StateCompleted || rec2.Requeues != 1 {
		t.Fatalf("requeued job did not complete after restart: %+v", rec2)
	}
}

// TestWorkerAffinitySerializesTables checks the sharding contract: jobs
// for one table never run concurrently and execute in submission order,
// even with many workers.
func TestWorkerAffinitySerializesTables(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	inflight := map[string]int{}
	order := map[string][]string{}
	runner := func(ctx context.Context, rec Record, payload any) (*Outcome, error) {
		mu.Lock()
		inflight[rec.Table]++
		if inflight[rec.Table] > 1 {
			mu.Unlock()
			return nil, errors.New("two jobs for one table ran concurrently")
		}
		order[rec.Table] = append(order[rec.Table], rec.ID)
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		inflight[rec.Table]--
		mu.Unlock()
		return okRunner(ctx, rec, payload)
	}
	p := NewPool(s, runner, PoolOptions{Workers: 4})
	p.Start(context.Background())
	defer func() { p.Close(); s.Close() }()
	var jobsByTable [2][]*Job
	for i := 0; i < 6; i++ {
		table := fmt.Sprintf("table-%d", i%2)
		j, _, err := s.Submit(Spec{Addr: fmt.Sprintf("addr-%d", i), Table: table})
		if err != nil {
			t.Fatal(err)
		}
		jobsByTable[i%2] = append(jobsByTable[i%2], j)
	}
	for ti := range jobsByTable {
		for _, j := range jobsByTable[ti] {
			rec, err := s.Wait(context.Background(), j)
			if err != nil {
				t.Fatal(err)
			}
			if rec.State != StateCompleted {
				t.Fatalf("affinity job failed: %+v", rec)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for ti := range jobsByTable {
		table := fmt.Sprintf("table-%d", ti)
		for i, j := range jobsByTable[ti] {
			if order[table][i] != j.ID() {
				t.Fatalf("table %s ran out of submission order: %v", table, order[table])
			}
		}
	}
}
