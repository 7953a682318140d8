// Command bench is the repository's service benchmark: it builds the real
// affidavitd binary, spawns it, drives four named workloads over HTTP in a
// closed loop, checks every response, and prints every metric by name
// with its unit. See README.md in this directory.
//
//	go run ./bench                                  all four workloads, end-to-end then traced
//	go run ./bench -workload small_mix -seed 3 -seconds 10 -trace 0
//	go run ./bench -repeat 10 -out bench/out/new.json
//	go run ./bench -compare old.json new.json
//	go run ./bench -report bench/out/results.json   rewrite the budget table of README.md
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// config is one invocation's settings.
type config struct {
	root      string // repository root (holds go.mod and BENCHMARK.json)
	outDir    string // bench/out: binaries, scratch, traces, results
	tmpRoot   string // parent of every daemon's directories
	daemonBin string
	buildS    float64
	seed      int64
	seconds   float64
	scale     float64
}

// findRoot walks up from the working directory to the directory holding
// this module's go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(raw), "module affidavit\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no affidavit go.mod above the working directory; run from inside the repository")
		}
		dir = parent
	}
}

// newConfig locates the repository, prepares bench/out and builds the
// daemon.
func newConfig(seed int64, seconds, scale float64) (*config, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	cfg := &config{root: root, outDir: filepath.Join(root, "bench", "out"), seed: seed, seconds: seconds, scale: scale}
	cfg.tmpRoot = filepath.Join(cfg.outDir, "tmp")
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	// Everything the harness or a library under it spills (the out-of-core
	// probe's temp files) stays inside the checkout.
	os.Setenv("TMPDIR", cfg.tmpRoot)
	bin, took, err := buildDaemon(root, filepath.Join(cfg.outDir, "bin"))
	if err != nil {
		return nil, err
	}
	cfg.daemonBin, cfg.buildS = bin, took.Seconds()
	return cfg, nil
}

// line is the last line of standard output in single-workload mode.
type line struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printMetrics prints every metric by name with its unit and, where it is
// a statistic, its sample count.
func printMetrics(workload string, m map[string]value) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := m[name]
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("  (n=%d)", v.N)
		}
		fmt.Printf("%-11s %-34s %14.6g %s%s\n", workload, name, v.Value, v.Unit, n)
	}
}

// runOne runs one workload in one mode and prints its metrics and
// failures.
func runOne(cfg *config, w *workload, traced bool) (map[string]value, *tally, error) {
	run := runEndToEnd
	if traced {
		run = runTraced
	}
	m, t, err := run(cfg, w)
	if err != nil {
		return nil, t, fmt.Errorf("%s: %w", w.name, err)
	}
	printMetrics(w.name, m)
	for _, f := range t.failures {
		fmt.Fprintln(os.Stderr, "FAILED:", f)
	}
	return m, t, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "run one workload and end with the one-line JSON result (default: all four, both modes)")
		seed         = flag.Int64("seed", 1, "seed every generated dataset derives from")
		seconds      = flag.Float64("seconds", 12, "length of each timed phase")
		trace        = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = traced run with per-layer metrics")
		scale        = flag.Float64("scale", 1, "shrink input sizes and phases (smoke test)")
		repeat       = flag.Int("repeat", 1, "without -workload: passes over the workloads, at seeds seed, seed+1, …")
		out          = flag.String("out", "", "without -workload: results file (default bench/out/results.json)")
		cmp          = flag.Bool("compare", false, "compare two results files: -compare old.json new.json")
		report       = flag.String("report", "", "rewrite the budget table of bench/README.md from this results file")
	)
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	if *cmp {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two results files"))
		}
		clean, err := compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if !clean {
			return 1
		}
		return 0
	}
	if *report != "" {
		root, err := findRoot()
		if err != nil {
			return fail(err)
		}
		r, err := readResults(*report)
		if err != nil {
			return fail(err)
		}
		if err := rewriteBudget(root, r); err != nil {
			return fail(err)
		}
		return 0
	}

	// Daemons and scratch directories die with the harness on every path:
	// normal return, a failed check, SIGINT/SIGTERM, and (through
	// Pdeathsig) even a SIGKILL of the harness itself.
	defer cleanupAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanupAll()
		os.Exit(130)
	}()

	cfg, err := newConfig(*seed, *seconds**scale, *scale)
	if err != nil {
		return fail(err)
	}

	if *workloadName != "" {
		w, err := workloadByName(*workloadName)
		if err != nil {
			return fail(err)
		}
		m, t, err := runOne(cfg, w, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		l := line{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: make(map[string]lineValue, len(m))}
		for name, v := range m {
			l.Metrics[name] = lineValue{v.Value, v.Unit}
		}
		raw, err := json.Marshal(l)
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(raw))
		if t.failed > 0 {
			return 1
		}
		return 0
	}

	res := results{Host: hostRecord(cfg.root, cfg.tmpRoot), Seconds: cfg.seconds, Scale: cfg.scale}
	if res.Host.LowParallelism {
		fmt.Fprintf(os.Stderr, "warning: %d processor(s): Workers 2 and two-client numbers cannot show parallelism\n", res.Host.NProc)
	}
	failed := 0
	for rep := 0; rep < *repeat; rep++ {
		cfg.seed = *seed + int64(rep)
		rr := resultRun{Seed: cfg.seed, Workloads: make(map[string]*workloadResult)}
		for i := range workloads {
			w := &workloads[i]
			fmt.Printf("== %s, seed %d: %s\n", w.name, cfg.seed, w.sizes)
			wr := &workloadResult{}
			for _, traced := range []bool{false, true} {
				m, t, err := runOne(cfg, w, traced)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				if traced {
					wr.PerLayer = m
				} else {
					wr.EndToEnd = m
				}
				wr.Attempted += t.attempted
				wr.Failed += t.failed
			}
			failed += wr.Failed
			rr.Workloads[w.name] = wr
		}
		res.Runs = append(res.Runs, rr)
	}
	path := *out
	if path == "" {
		path = filepath.Join(cfg.outDir, "results.json")
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fail(err)
	}
	fmt.Printf("results: %s  traces: %s\n", path, filepath.Join(cfg.outDir, "trace-<workload>.json"))
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d failed checks\n", failed)
		return 1
	}
	return 0
}
