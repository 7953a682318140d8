package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"affidavit/internal/cliutil"
	"affidavit/internal/datasets"
	"affidavit/internal/delta"
	"affidavit/internal/eval"
	"affidavit/internal/gen"
	"affidavit/internal/report"
	"affidavit/internal/search"
)

// generate writes one benchmark problem instance per the paper's Section
// 5.1 protocol: it builds a synthetic dataset, samples attribute
// transformations at a difficulty setting (η, τ), splits records into
// core and noise, and writes source.csv, target.csv and reference.txt
// (the ground-truth explanation) into the output directory.
func generate(fs *flag.FlagSet, stdout, _ io.Writer) func(context.Context) error {
	var (
		dataset = fs.String("dataset", "iris", "dataset name ("+strings.Join(datasets.Names(), ", ")+")")
		rows    = fs.Int("rows", 0, "override dataset record count (0 = Table 2 size)")
		eta     = fs.Float64("eta", 0.3, "noise percentage η")
		tau     = fs.Float64("tau", 0.3, "transformation percentage τ")
		seed    = fs.Int64("seed", 1, "random seed")
		out     = fs.String("out", ".", "output directory")
	)
	return func(context.Context) error {
		spec, err := datasets.Get(*dataset)
		if err != nil {
			return err
		}
		n := spec.Rows
		if *rows > 0 {
			n = *rows
		}
		tab, err := spec.BuildRows(n, *seed*7919+13)
		if err != nil {
			return err
		}
		p, err := gen.Generate(tab, gen.Config{
			Setting: gen.Setting{Eta: *eta, Tau: *tau},
			Seed:    *seed,
		})
		if err != nil {
			return err
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		srcPath := filepath.Join(*out, "source.csv")
		tgtPath := filepath.Join(*out, "target.csv")
		refPath := filepath.Join(*out, "reference.txt")
		if err := p.Inst.Source.WriteCSVFile(srcPath); err != nil {
			return err
		}
		if err := p.Inst.Target.WriteCSVFile(tgtPath); err != nil {
			return err
		}
		ref := report.Text(p.Reference, delta.DefaultCosts)
		if err := os.WriteFile(refPath, []byte(ref), 0o644); err != nil {
			return err
		}
		_, err = fmt.Fprintf(stdout, "wrote %s (%d records), %s (%d records), %s\nreference: core %d, deleted %d, inserted %d, cost %g\n",
			srcPath, p.Inst.Source.Len(), tgtPath, p.Inst.Target.Len(), refPath,
			p.Reference.CoreSize(), len(p.Reference.Deleted),
			len(p.Reference.Inserted), delta.DefaultCosts.Cost(p.Reference))
		return err
	}
}

// table2 regenerates the paper's Table 2: both Affidavit configurations
// (Hs and Hid) on every dataset at the three difficulty settings,
// reporting runtime t, relative core size ∆core, relative costs ∆costs
// and cell accuracy acc, macro-averaged over problem instances. The full
// paper protocol is -instances 10 -scale 1; the defaults trade instance
// count and large-dataset size for a CI-sized budget: datasets above
// -scale-from rows run at -scale of their size.
func table2(fs *flag.FlagSet, stdout, stderr io.Writer) func(context.Context) error {
	var (
		names     = fs.String("datasets", "", "comma-separated dataset names (default: all Table 2 datasets)")
		instances = fs.Int("instances", 3, "problem instances per cell (paper: 10)")
		scale     = fs.Float64("scale", 0.1, "row fraction for datasets above -scale-from rows (1 = full size)")
		scaleFrom = fs.Int("scale-from", 30000, "datasets with more rows than this are scaled by -scale")
		seed      = fs.Int64("seed", 1, "base random seed")
	)
	return func(ctx context.Context) error {
		spec := eval.Table2Spec{
			Instances: *instances,
			Seed:      *seed,
			Rows:      map[string]int{},
			Progress: func(c eval.Cell) {
				fmt.Fprintf(stderr, "done %-12s %-14s %-3s  t=%v ∆core=%.2f ∆costs=%.2f acc=%.2f\n",
					c.Dataset, c.Setting, c.Config, c.Time.Round(1e6),
					c.DeltaCore, c.DeltaCosts, c.Acc)
			},
		}
		if *names != "" {
			spec.Datasets = strings.Split(*names, ",")
		}
		if *scale < 1 {
			// Only the datasets Table2 runs; an unknown name fails there.
			for _, name := range spec.Names() {
				if ds, err := datasets.Get(name); err == nil && ds.Rows > *scaleFrom {
					spec.Rows[name] = int(float64(ds.Rows) * *scale)
					fmt.Fprintf(stderr, "scaling %s: %d → %d rows\n", name, ds.Rows, spec.Rows[name])
				}
			}
		}
		cells, err := eval.Table2(ctx, spec)
		if err != nil {
			return interrupted(ctx, err, len(cells), "cell")
		}
		_, err = io.WriteString(stdout, "\n"+eval.RenderTable2(cells))
		return err
	}
}

// rowscale regenerates the paper's Figure 5: Hid runtimes on a (η=0.3,
// τ=0.3) problem instance of flight-500k scaled to different numbers of
// records (-base-rows 500000 is the paper's full sweep). The expected
// shape is linear growth, and every run should reproduce the reference
// explanation.
func rowscale(fs *flag.FlagSet, stdout, stderr io.Writer) func(context.Context) error {
	var (
		baseRows = fs.Int("base-rows", 50000, "records at factor 100% (paper: 500000)")
		factors  = fs.String("factors", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0", "comma-separated scaling factors")
	)
	sweep := registerSweep(fs)
	return func(ctx context.Context) error {
		var fracs []float64
		for _, tok := range strings.Split(*factors, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				return usageError{error: fmt.Errorf("bad factor %q: %v", tok, err)}
			}
			fracs = append(fracs, f)
		}
		return sweep.run(ctx, stdout, stderr, func(ctx context.Context, opts search.Options) (string, int, error) {
			points, err := eval.Figure5(ctx, eval.Figure5Spec{
				BaseRows: *baseRows,
				Factors:  fracs,
				Seed:     opts.Seed,
				Opts:     opts,
				Progress: func(p eval.ScalePoint) {
					fmt.Fprintf(stderr, "done %3.0f%% (%d rows): %v\n",
						p.Factor*100, p.Rows, p.Time.Round(1e6))
				},
			})
			return eval.RenderFigure5(points), len(points), err
		})
	}
}

// attrscale regenerates the paper's Figure 6: Hid runtimes at (η=0.3,
// τ=0.3), normalised by record count, against the attribute counts of
// the four widest datasets (fd-red-30, plista, flight-1k, uniprot;
// -fd-red-rows 250000 is the paper's full size). The expected shape is
// roughly linear growth of per-record time in |A|.
func attrscale(fs *flag.FlagSet, stdout, stderr io.Writer) func(context.Context) error {
	fdRows := fs.Int("fd-red-rows", 25000, "fd-red-30 record count (paper: 250000)")
	sweep := registerSweep(fs)
	return func(ctx context.Context) error {
		return sweep.run(ctx, stdout, stderr, func(ctx context.Context, opts search.Options) (string, int, error) {
			points, err := eval.Figure6(ctx, eval.Figure6Spec{
				Rows: map[string]int{"fd-red-30": *fdRows},
				Seed: opts.Seed,
				Opts: opts,
				Progress: func(p eval.AttrPoint) {
					fmt.Fprintf(stderr, "done %-12s |A|=%d: %v\n",
						p.Dataset, p.Attrs, p.Time.Round(1e6))
				},
			})
			return eval.RenderFigure6(points), len(points), err
		})
	}
}

// interrupted names how far a sweep got when an interrupt stopped it.
func interrupted(ctx context.Context, err error, done int, unit string) error {
	if ctx.Err() != nil {
		return fmt.Errorf("cancelled (interrupt received) after %d %s(s)", done, unit)
	}
	return err
}

// sweep holds the search and diagnostics flags of the scaling sweeps.
type sweep struct {
	cfg  *cliutil.Flags
	diag diag
}

// registerSweep installs the sweep flags on fs; -seed defaults to 1.
func registerSweep(fs *flag.FlagSet) sweep {
	return sweep{cliutil.Register(fs, cliutil.Defaults{Seed: 1}), registerDiag(fs)}
}

// run measures one sweep and prints its figure. The flags become the
// search options measure runs with, and its context carries the sweep's
// observers: every run narrates under -progress and appends one line to
// the -trace-out file. measure returns the rendered figure and the number
// of points it holds.
func (s sweep) run(ctx context.Context, stdout, stderr io.Writer, measure func(context.Context, search.Options) (string, int, error)) error {
	opts, err := s.searchOptions()
	if err != nil {
		return usageError{error: err}
	}
	traceFile, err := s.diag.open(stderr)
	if err != nil {
		return err
	}
	if traceFile != nil {
		defer traceFile.Close()
	}
	ctx = s.cfg.Observe(ctx, stderr, traceSink(traceFile, stderr))
	figure, points, err := measure(ctx, opts)
	if err != nil {
		return interrupted(ctx, err, points, "point")
	}
	_, err = io.WriteString(stdout, "\n"+figure)
	return err
}

// searchOptions turns the search flags into the search.Options the eval
// drivers take, with the start-strategy mapping of cliutil's Options.
func (s sweep) searchOptions() (search.Options, error) {
	f := s.cfg
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
	return so, nil
}
