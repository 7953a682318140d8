// Package cliutil is the one shared configuration path of the cmds: every
// CLI registers the same search flags here and turns them into either an
// affidavit.Explainer (functional options) or a raw search.Options (for
// the internal eval drivers) — so flag names, defaults, zero-value
// semantics and the -progress observer cannot drift between binaries.
package cliutil

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // -pprof serves the default mux's profiling handlers
	"os"
	"runtime"
	"strings"
	"sync"

	"affidavit"
	"affidavit/internal/obs"
	"affidavit/internal/search"
	"affidavit/internal/spill"
)

// Flags holds the registered flag values. Zero int/float flags mean "the
// configuration default", matching the historical cmd behaviour.
type Flags struct {
	Start     *string
	Alpha     *float64
	Beta      *int
	Rho       *int
	Theta     *float64
	Conf      *float64
	MaxBlock  *int
	Seed      *int64
	Workers   *int
	Progress  *bool
	MemBudget *string
}

// Defaults parameterises per-cmd flag defaults.
type Defaults struct {
	Seed int64
}

// Register installs the shared search flags on fs.
func Register(fs *flag.FlagSet, d Defaults) *Flags {
	return &Flags{
		Start:     fs.String("start", "hid", "start strategy: hid | hs | empty"),
		Alpha:     fs.Float64("alpha", 0.5, "cost parameter α in [0,1]"),
		Beta:      fs.Int("beta", 0, "branching factor β (0 = config default)"),
		Rho:       fs.Int("rho", 0, "queue width ϱ (0 = config default)"),
		Theta:     fs.Float64("theta", 0.1, "estimated effect fraction θ"),
		Conf:      fs.Float64("conf", 0.95, "sampling confidence ρ"),
		MaxBlock:  fs.Int("max-block", 100000, "overlap-matching block threshold (hs)"),
		Seed:      fs.Int64("seed", d.Seed, "random seed (equal seeds give equal explanations)"),
		Workers:   fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent search probes (1 = sequential engine)"),
		Progress:  fs.Bool("progress", false, "narrate pipeline progress (ingest, polls, phases) on stderr"),
		MemBudget: fs.String("mem-budget", "", "approximate per-run memory budget, e.g. 256MiB (empty = unlimited); beyond it the overlap index and the conversion's matching partition through temp files (snapshots stay resident) — explanations are byte-identical, only peak memory changes"),
	}
}

// Diag holds the shared diagnostics flags. They live in their own struct
// (and RegisterDiag call) rather than in Flags because affidavitd defines
// its own -pprof flag; only the one-shot CLIs register these.
type Diag struct {
	TraceOut *string
	Pprof    *string
}

// RegisterDiag installs the shared diagnostics flags on fs.
func RegisterDiag(fs *flag.FlagSet) *Diag {
	return &Diag{
		TraceOut: fs.String("trace-out", "", "append each run's structured trace (stage wall-clock spans, poll cost curve, spill totals) as a JSON line to this file"),
		Pprof:    fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the process lifetime"),
	}
}

// StartPprof starts the profiling listener when -pprof was set. Listener
// failures are reported on stderr; they never stop the run itself.
func (d *Diag) StartPprof() {
	addr := *d.Pprof
	if addr == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintln(os.Stderr, "pprof:", err)
		}
	}()
}

// OpenTraceLog opens the -trace-out sink, or returns nil when the flag is
// unset. The nil TraceLog is a valid no-op receiver, so call sites need no
// conditionals.
func (d *Diag) OpenTraceLog() (*TraceLog, error) {
	if *d.TraceOut == "" {
		return nil, nil
	}
	f, err := os.OpenFile(*d.TraceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("-trace-out: %w", err)
	}
	return &TraceLog{f: f, enc: json.NewEncoder(f)}, nil
}

// TraceLog appends structured run traces to a file, one JSON object per
// line. Safe for concurrent appends; a nil *TraceLog is a no-op.
type TraceLog struct {
	mu  sync.Mutex
	f   *os.File
	enc *json.Encoder
}

// Append writes one trace as a JSONL line. Nil receivers and nil traces
// are no-ops.
func (l *TraceLog) Append(tr *affidavit.Trace) error {
	if l == nil || tr == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.enc.Encode(tr)
}

// Close flushes and closes the log file.
func (l *TraceLog) Close() error {
	if l == nil {
		return nil
	}
	return l.f.Close()
}

// WireSearch chains a trace collector after so.OnEvent: every run flowing
// through the options gets its event stream folded into a trace and
// appended to the log. Append failures surface once on stderr rather than
// aborting an otherwise-healthy sweep.
func (l *TraceLog) WireSearch(so *search.Options) {
	if l == nil {
		return
	}
	collector := affidavit.NewTraceCollector(func(tr *affidavit.Trace) {
		if err := l.Append(tr); err != nil {
			fmt.Fprintln(os.Stderr, "trace-out:", err)
		}
	})
	so.OnEvent = obs.Chain(so.OnEvent, collector.Observe)
}

// memBudget parses the -mem-budget flag (0 when unset).
func (f *Flags) memBudget() (int64, error) {
	n, err := spill.ParseSize(*f.MemBudget)
	if err != nil {
		return 0, fmt.Errorf("-mem-budget: %w", err)
	}
	return n, nil
}

// ProgressObserver returns the stderr narrator when -progress was set,
// nil otherwise. Callers compose it with their own observers (e.g.
// affidavit.Observers(metrics, flags.ProgressObserver())).
func (f *Flags) ProgressObserver() affidavit.Observer {
	if !*f.Progress {
		return nil
	}
	return affidavit.NewProgressObserver(os.Stderr)
}

// Options turns the parsed flags into functional options for affidavit.New,
// appending any extra options after the flag-derived ones (so callers can
// override). Observers are deliberately NOT included — each cmd composes
// its own (ProgressObserver, metrics, …) and attaches them via
// affidavit.WithObserver, so a later option can never silently drop one.
func (f *Flags) Options(extra ...affidavit.Option) ([]affidavit.Option, error) {
	opts := []affidavit.Option{}
	switch strings.ToLower(*f.Start) {
	case "hid":
		opts = append(opts, affidavit.WithStart(affidavit.StartID))
	case "hs":
		opts = append(opts, affidavit.WithOverlapConfig())
	case "empty":
		opts = append(opts, affidavit.WithStart(affidavit.StartEmpty))
	default:
		return nil, fmt.Errorf("unknown start strategy %q", *f.Start)
	}
	opts = append(opts,
		affidavit.WithAlpha(*f.Alpha),
		affidavit.WithTheta(*f.Theta),
		affidavit.WithRho(*f.Conf),
		affidavit.WithMaxBlockSize(*f.MaxBlock),
		affidavit.WithSeed(*f.Seed),
		affidavit.WithWorkers(*f.Workers),
	)
	if budget, err := f.memBudget(); err != nil {
		return nil, err
	} else if budget > 0 {
		opts = append(opts, affidavit.WithMemBudget(budget))
	}
	if *f.Beta > 0 {
		opts = append(opts, affidavit.WithBeta(*f.Beta))
	}
	if *f.Rho > 0 {
		opts = append(opts, affidavit.WithQueueWidth(*f.Rho))
	}
	return append(opts, extra...), nil
}

// Explainer builds the Explainer the flags describe.
func (f *Flags) Explainer(extra ...affidavit.Option) (*affidavit.Explainer, error) {
	opts, err := f.Options(extra...)
	if err != nil {
		return nil, err
	}
	return affidavit.New(opts...)
}

// SearchOptions turns the parsed flags into a search.Options for the
// internal eval drivers (rowscale, attrscale), including the -progress
// event sink. It applies the same start-strategy mapping as Options.
func (f *Flags) SearchOptions() (search.Options, error) {
	var so search.Options
	switch strings.ToLower(*f.Start) {
	case "hid":
		so = search.DefaultOptions()
	case "hs":
		so = search.OverlapOptions()
	case "empty":
		so = search.DefaultOptions()
		so.Start = search.StartEmpty
	default:
		return so, fmt.Errorf("unknown start strategy %q", *f.Start)
	}
	so.Alpha = *f.Alpha
	if *f.Beta > 0 {
		so.Beta = *f.Beta
	}
	if *f.Rho > 0 {
		so.QueueWidth = *f.Rho
	}
	so.Induce.Theta = *f.Theta
	so.Induce.Rho = *f.Conf
	so.MaxBlockSize = *f.MaxBlock
	so.Seed = *f.Seed
	so.Workers = *f.Workers
	if budget, err := f.memBudget(); err != nil {
		return so, err
	} else if budget > 0 {
		so.Spill = spill.NewManager(budget, "")
	}
	if o := f.ProgressObserver(); o != nil {
		so.OnEvent = o.Observe
	}
	return so, nil
}
