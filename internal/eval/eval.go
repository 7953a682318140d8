// Package eval implements the paper's evaluation protocol (Section 5.2):
// it generates problem instances per dataset and difficulty setting, runs
// both Affidavit configurations (Hs and Hid), and reports the macro-
// averaged runtime t, relative core size ∆core, relative costs ∆costs and
// cell accuracy acc against the reference explanation. It also drives the
// Figure 5 row-scalability and Figure 6 attribute-scalability experiments.
package eval

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"affidavit/internal/datasets"
	"affidavit/internal/delta"
	"affidavit/internal/gen"
	"affidavit/internal/search"
)

// Configs returns the paper's two evaluation configurations keyed by their
// Table 2 names.
func Configs() map[string]search.Options {
	return map[string]search.Options{
		"Hs":  search.OverlapOptions(),
		"Hid": search.DefaultOptions(),
	}
}

// Metrics compares a search result against a problem's reference
// explanation (Section 5.2):
//
//   - ∆core  = |core_res| / |core_ref|;
//   - ∆costs = c(E_res) / c(E_ref);
//   - acc    = the fraction of cells of the reference core that the learned
//     functions translate exactly as the reference functions do, ignoring
//     the artificial primary-key attribute.
func Metrics(p *gen.Problem, res *search.Result, cm delta.CostModel) (deltaCore, deltaCosts, acc float64) {
	refCore := p.Reference.CoreSize()
	if refCore > 0 {
		deltaCore = float64(res.Explanation.CoreSize()) / float64(refCore)
	} else {
		deltaCore = 1
	}
	refCost := cm.Cost(p.Reference)
	if refCost > 0 {
		deltaCosts = res.Cost / refCost
	} else if res.Cost == 0 {
		deltaCosts = 1
	}

	total, correct := 0, 0
	for _, s := range p.Reference.CoreSrc {
		rec := p.Inst.Source.Record(s)
		for a := 0; a < p.Inst.NumAttrs(); a++ {
			if a == p.KeyAttr {
				continue
			}
			total++
			if res.Explanation.Funcs[a].Apply(rec[a]) == p.Reference.Funcs[a].Apply(rec[a]) {
				correct++
			}
		}
	}
	if total > 0 {
		acc = float64(correct) / float64(total)
	} else {
		acc = 1
	}
	return deltaCore, deltaCosts, acc
}

// Run is one measured run on one problem instance.
type Run struct {
	Time       time.Duration
	DeltaCore  float64
	DeltaCosts float64
	Acc        float64
}

// Cell is the macro average over a cell's instances (one dataset × setting
// × configuration).
type Cell struct {
	Dataset   string
	Setting   gen.Setting
	Config    string
	Instances int
	Run
}

// CellSpec describes one Table 2 cell to measure.
type CellSpec struct {
	Dataset  string
	Rows     int // 0 = the dataset's Table 2 record count
	Setting  gen.Setting
	Config   string
	Opts     search.Options
	Seeds    int   // instances per cell (the paper uses 10)
	BaseSeed int64 // seed offset, varied per instance
}

// RunCell generates Seeds problem instances and macro-averages the metrics.
// Instances run in parallel across available CPUs. Cancelling ctx aborts
// the cell with ctx's error.
func RunCell(ctx context.Context, spec CellSpec) (Cell, error) {
	ds, err := datasets.Get(spec.Dataset)
	if err != nil {
		return Cell{}, err
	}
	rows := spec.Rows
	if rows == 0 {
		rows = ds.Rows
	}
	if spec.Seeds < 1 {
		spec.Seeds = 1
	}
	cm := delta.CostModel{Alpha: spec.Opts.Alpha}
	runs := make([]Run, spec.Seeds)
	errs := make([]error, spec.Seeds)
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxParallel())
	for i := 0; i < spec.Seeds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			seed := spec.BaseSeed + int64(i)
			tab, err := ds.BuildRows(rows, seed*7919+13)
			if err != nil {
				errs[i] = err
				return
			}
			p, err := gen.Generate(tab, gen.Config{Setting: spec.Setting, Seed: seed})
			if err != nil {
				errs[i] = err
				return
			}
			opts := spec.Opts
			opts.Seed = seed
			start := time.Now()
			res, err := search.Run(ctx, p.Inst, opts)
			if err != nil {
				errs[i] = err
				return
			}
			if res.Stats.Cancelled {
				errs[i] = fmt.Errorf("eval: run cancelled: %w", ctx.Err())
				return
			}
			dc, dk, acc := Metrics(p, res, cm)
			runs[i] = Run{Time: time.Since(start), DeltaCore: dc, DeltaCosts: dk, Acc: acc}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Cell{}, err
		}
	}
	avg := Run{}
	for _, r := range runs {
		avg.Time += r.Time
		avg.DeltaCore += r.DeltaCore
		avg.DeltaCosts += r.DeltaCosts
		avg.Acc += r.Acc
	}
	n := float64(spec.Seeds)
	avg.Time = time.Duration(float64(avg.Time) / n)
	avg.DeltaCore /= n
	avg.DeltaCosts /= n
	avg.Acc /= n
	return Cell{
		Dataset:   spec.Dataset,
		Setting:   spec.Setting,
		Config:    spec.Config,
		Instances: spec.Seeds,
		Run:       avg,
	}, nil
}

func maxParallel() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		return 1
	}
	return n
}

// Table2Spec configures a full Table 2 reproduction.
type Table2Spec struct {
	Datasets  []string       // nil = all Table 2 datasets (flight-500k excluded)
	Rows      map[string]int // per-dataset row overrides (scaling large sets)
	Instances int            // instances per cell; the paper uses 10
	Seed      int64
	Settings  []gen.Setting // nil = the paper's three settings
	// Progress, when non-nil, receives one line per finished cell.
	Progress func(Cell)
}

// Names lists the datasets Table2 runs, in order: Datasets, or every
// Table 2 dataset when it is nil.
func (spec Table2Spec) Names() []string {
	if spec.Datasets != nil {
		return spec.Datasets
	}
	var names []string
	for _, n := range datasets.Names() {
		if n != "flight-500k" { // Figure 5's dataset, not a Table 2 row
			names = append(names, n)
		}
	}
	return names
}

// Table2 measures every requested cell in Table 2 order. Cancelling ctx
// stops before the next cell (and interrupts the running one).
func Table2(ctx context.Context, spec Table2Spec) ([]Cell, error) {
	names := spec.Names()
	settings := spec.Settings
	if settings == nil {
		settings = gen.Settings()
	}
	if spec.Instances < 1 {
		spec.Instances = 1
	}
	var out []Cell
	for _, name := range names {
		for _, setting := range settings {
			for _, cfg := range []string{"Hs", "Hid"} {
				if err := ctx.Err(); err != nil {
					return out, fmt.Errorf("eval: cancelled: %w", err)
				}
				cell, err := RunCell(ctx, CellSpec{
					Dataset:  name,
					Rows:     spec.Rows[name],
					Setting:  setting,
					Config:   cfg,
					Opts:     Configs()[cfg],
					Seeds:    spec.Instances,
					BaseSeed: spec.Seed,
				})
				if err != nil {
					return nil, fmt.Errorf("eval: %s %v %s: %w", name, setting, cfg, err)
				}
				out = append(out, cell)
				if spec.Progress != nil {
					spec.Progress(cell)
				}
			}
		}
	}
	return out, nil
}
