package jobs

import (
	"context"
	"errors"
	"hash/fnv"
	"time"
)

// Outcome is what a Runner hands back for one job execution.
type Outcome struct {
	// Body is the rendered result (stored verbatim; fetches are
	// byte-identical across dedupe joiners).
	Body []byte
	// ContentType is Body's MIME type.
	ContentType string
	// Stats is the run's search statistics, pre-encoded (partial when
	// Cancelled).
	Stats []byte
	// TraceID joins the job to its run trace.
	TraceID string
	// Cancelled reports the run's context ended mid-search and Body is
	// absent; the pool inspects the context cause to decide between
	// cancel, deadline and shutdown-requeue.
	Cancelled bool
}

// Runner executes one job under ctx. rec is a snapshot of the job's
// record; payload is the submission's non-durable state (nil when the
// job was replayed from the journal — reconstruct from the blobs). A
// returned error ends the job: each submission runs once, and
// resubmitting the pair reruns it.
type Runner func(ctx context.Context, rec Record, payload any) (*Outcome, error)

// PoolOptions tunes the worker pool.
type PoolOptions struct {
	// Workers is the number of drain goroutines (0 = default 2). Jobs
	// shard across workers by table hash, so all jobs for one table run
	// on one worker in submission order — warm chains stay ordered and
	// the table's dictionary pool stays hot.
	Workers int
	// Timeout bounds each run (0 = unlimited). Expiry fails the job with
	// its partial statistics.
	Timeout time.Duration
}

// Pool drains the store through a Runner.
type Pool struct {
	store   *Store
	run     Runner
	opts    PoolOptions
	cancel  context.CancelCauseFunc
	done    chan struct{}
	workers int
}

// NewPool builds a pool over st. Call Start to begin draining.
func NewPool(st *Store, run Runner, opts PoolOptions) *Pool {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	return &Pool{store: st, run: run, opts: opts, workers: opts.Workers}
}

// Workers returns the number of drain goroutines, defaults applied.
func (p *Pool) Workers() int { return p.workers }

// Start launches the workers under ctx.
func (p *Pool) Start(ctx context.Context) {
	ctx, cancel := context.WithCancelCause(ctx)
	p.cancel = cancel
	done := make(chan struct{})
	p.done = done
	running := make(chan struct{}, p.workers)
	for w := 0; w < p.workers; w++ {
		running <- struct{}{}
		go func(wid int) {
			defer func() { <-running }()
			p.worker(ctx, wid)
		}(w)
	}
	go func() {
		for i := 0; i < p.workers; i++ {
			running <- struct{}{}
		}
		close(done)
	}()
}

// Close stops the pool: running jobs see ErrShutdown as their context
// cause, unwind, and are requeued (journaled back to pending), then
// Close waits for every worker to exit. Close the store afterwards.
func (p *Pool) Close() {
	if p.cancel == nil {
		return
	}
	p.cancel(ErrShutdown)
	<-p.done
}

// worker drains jobs whose table hashes to wid until ctx ends.
func (p *Pool) worker(ctx context.Context, wid int) {
	for {
		j, wake := p.store.claimFor(wid, p.workers)
		if j == nil {
			select {
			case <-ctx.Done():
				return
			case <-wake:
			}
			continue
		}
		p.runOne(ctx, j)
		if ctx.Err() != nil {
			return
		}
	}
}

// runOne executes one claimed job and lands its terminal (or shutdown
// requeue) transition.
func (p *Pool) runOne(ctx context.Context, j *Job) {
	jctx, cancel := context.WithCancelCause(ctx)
	tcancel := context.CancelFunc(func() {})
	if p.opts.Timeout > 0 {
		jctx, tcancel = context.WithTimeout(jctx, p.opts.Timeout)
	}
	defer tcancel()
	defer cancel(nil)
	rec, ok := p.store.startRun(j, cancel)
	if !ok {
		return // cancelled between claim and start
	}
	out, err := p.run(jctx, rec, p.store.payload(j))
	cause := context.Cause(jctx)
	interrupted := err != nil || out == nil || out.Cancelled
	switch {
	case interrupted && errors.Is(cause, ErrShutdown):
		// Drain-on-shutdown: the journaled pending line lets the next
		// process run pick the job back up.
		p.store.requeue(j)
	case err == nil && out != nil && !out.Cancelled:
		p.store.complete(j, out)
	case errors.Is(cause, ErrCancelRequested):
		p.store.cancelDone(j, out)
	case out != nil && out.Cancelled, errors.Is(cause, context.DeadlineExceeded):
		// The job's own run budget cut it: terminal, with partial stats.
		p.store.failDeadline(j, out)
	case err != nil:
		p.store.fail(j, err.Error(), out)
	default:
		p.store.fail(j, "runner returned no outcome", nil)
	}
}

// workerFor shards a table name onto a worker: FNV-1a so every process
// routes a table to the same worker index for a given pool size.
func workerFor(table string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(table))
	return int(h.Sum32() % uint32(n))
}
