package eval

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"affidavit/internal/datasets"
	"affidavit/internal/delta"
	"affidavit/internal/gen"
	"affidavit/internal/search"
)

// ScalePoint is one Figure 5 measurement: runtime at a scaling factor.
type ScalePoint struct {
	Factor float64 // fraction of the full problem instance
	Rows   int     // source records at this factor
	Time   time.Duration
	// MatchedReference reports whether the run reproduced the reference
	// explanation's cost (the paper: "it was able to produce the reference
	// explanation in every run").
	MatchedReference bool
}

// Figure5Spec configures the row-scalability experiment (Section 5.4.1).
type Figure5Spec struct {
	// BaseRows is the full size; the paper uses flight-500k's 500000.
	BaseRows int
	// Factors are the scaling factors; the paper sweeps 10%..100%.
	Factors []float64
	Seed    int64
	// Opts is the search configuration; the paper uses Hid.
	Opts     search.Options
	Progress func(ScalePoint)
}

// Figure5 generates one (η=0.3, τ=0.3) flight-500k problem instance, scales
// it to each factor, and measures Hid runtimes. Cancelling ctx returns the
// points measured so far together with ctx's error.
func Figure5(ctx context.Context, spec Figure5Spec) ([]ScalePoint, error) {
	ds, err := datasets.Get("flight-500k")
	if err != nil {
		return nil, err
	}
	if spec.BaseRows == 0 {
		spec.BaseRows = ds.Rows
	}
	if len(spec.Factors) == 0 {
		spec.Factors = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	}
	tab, err := ds.BuildRows(spec.BaseRows, spec.Seed*31+7)
	if err != nil {
		return nil, err
	}
	base, err := gen.Generate(tab, gen.Config{
		Setting: gen.Setting{Eta: 0.3, Tau: 0.3},
		Seed:    spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	var out []ScalePoint
	for _, f := range spec.Factors {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("eval: cancelled: %w", err)
		}
		p := base
		if f < 1 {
			p, err = base.Scale(f, spec.Seed+int64(f*1000))
			if err != nil {
				return nil, err
			}
		}
		opts := spec.Opts
		opts.Seed = spec.Seed
		start := time.Now()
		res, err := search.Run(ctx, p.Inst, opts)
		if err != nil {
			return nil, err
		}
		if res.Stats.Cancelled {
			return out, fmt.Errorf("eval: cancelled: %w", ctx.Err())
		}
		cm := delta.CostModel{Alpha: opts.Alpha}
		pt := ScalePoint{
			Factor:           f,
			Rows:             p.Inst.Source.Len(),
			Time:             time.Since(start),
			MatchedReference: res.Cost <= cm.Cost(p.Reference),
		}
		out = append(out, pt)
		if spec.Progress != nil {
			spec.Progress(pt)
		}
	}
	return out, nil
}

// AttrPoint is one Figure 6 measurement: per-record runtime vs |A|.
type AttrPoint struct {
	Dataset       string
	Attrs         int
	Rows          int
	Time          time.Duration
	PerRecord     time.Duration
	PerRecordAttr time.Duration // per record per attribute, for trend checks
}

// Figure6Spec configures the attribute-scalability experiment (Section
// 5.4.2): Hid runtimes at (η=0.3, τ=0.3), normalised by record count, on
// the datasets with 30..182 attributes.
type Figure6Spec struct {
	// Datasets defaults to the paper's x-axis: fd-red-30, plista,
	// flight-1k, uniprot.
	Datasets []string
	// Rows overrides per-dataset record counts (fd-red-30 is 250k).
	Rows     map[string]int
	Seed     int64
	Opts     search.Options
	Progress func(AttrPoint)
}

// Figure6 measures normalised runtimes against attribute count. Cancelling
// ctx returns the points measured so far together with ctx's error.
func Figure6(ctx context.Context, spec Figure6Spec) ([]AttrPoint, error) {
	names := spec.Datasets
	if names == nil {
		names = []string{"fd-red-30", "plista", "flight-1k", "uniprot"}
	}
	var out []AttrPoint
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("eval: cancelled: %w", err)
		}
		ds, err := datasets.Get(name)
		if err != nil {
			return nil, err
		}
		rows := ds.Rows
		if r, ok := spec.Rows[name]; ok && r > 0 {
			rows = r
		}
		tab, err := ds.BuildRows(rows, spec.Seed*17+3)
		if err != nil {
			return nil, err
		}
		p, err := gen.Generate(tab, gen.Config{
			Setting: gen.Setting{Eta: 0.3, Tau: 0.3},
			Seed:    spec.Seed,
		})
		if err != nil {
			return nil, err
		}
		opts := spec.Opts
		opts.Seed = spec.Seed
		start := time.Now()
		res, err := search.Run(ctx, p.Inst, opts)
		if err != nil {
			return nil, err
		}
		if res.Stats.Cancelled {
			return out, fmt.Errorf("eval: cancelled: %w", ctx.Err())
		}
		elapsed := time.Since(start)
		n := p.Inst.Source.Len()
		pt := AttrPoint{
			Dataset:       name,
			Attrs:         p.Inst.NumAttrs(),
			Rows:          n,
			Time:          elapsed,
			PerRecord:     elapsed / time.Duration(n),
			PerRecordAttr: elapsed / time.Duration(n*p.Inst.NumAttrs()),
		}
		out = append(out, pt)
		if spec.Progress != nil {
			spec.Progress(pt)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Attrs < out[j].Attrs })
	return out, nil
}

// RenderTable2 renders cells in the paper's layout: one row per dataset and
// configuration, one column group per setting.
func RenderTable2(cells []Cell) string {
	type key struct {
		ds, cfg string
	}
	type group map[string]Run // setting → run
	rows := make(map[key]group)
	var order []key
	settingsSeen := map[string]bool{}
	var settingOrder []string
	inst := 0
	for _, c := range cells {
		k := key{c.Dataset, c.Config}
		if _, ok := rows[k]; !ok {
			rows[k] = make(group)
			order = append(order, k)
		}
		s := c.Setting.String()
		rows[k][s] = c.Run
		if !settingsSeen[s] {
			settingsSeen[s] = true
			settingOrder = append(settingOrder, s)
		}
		inst = c.Instances
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 2 reproduction (macro average over %d instance(s) per cell)\n", inst)
	fmt.Fprintf(&sb, "%-12s %-4s", "Dataset", "H0")
	for _, s := range settingOrder {
		fmt.Fprintf(&sb, " | %-33s", s)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "%-12s %-4s", "", "")
	for range settingOrder {
		fmt.Fprintf(&sb, " | %8s %7s %8s %7s", "t", "∆core", "∆costs", "acc")
	}
	sb.WriteByte('\n')
	for _, k := range order {
		fmt.Fprintf(&sb, "%-12s %-4s", k.ds, k.cfg)
		for _, s := range settingOrder {
			r, ok := rows[k][s]
			if !ok {
				fmt.Fprintf(&sb, " | %33s", "—")
				continue
			}
			fmt.Fprintf(&sb, " | %8s %7.2f %8.2f %7.2f",
				formatDuration(r.Time), r.DeltaCore, r.DeltaCosts, r.Acc)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func formatDuration(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d < time.Second:
		return fmt.Sprintf("%dms", d.Milliseconds())
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// RenderFigure5 renders the scaling curve as an aligned text series.
func RenderFigure5(points []ScalePoint) string {
	var sb strings.Builder
	sb.WriteString("Figure 5 reproduction: runtime vs scaling factor (flight-500k, η=0.3, τ=0.3, Hid)\n")
	sb.WriteString("factor   rows      runtime    matched-ref\n")
	for _, p := range points {
		fmt.Fprintf(&sb, "%5.0f%%  %8d  %9s  %v\n",
			p.Factor*100, p.Rows, formatDuration(p.Time), p.MatchedReference)
	}
	return sb.String()
}

// RenderFigure6 renders the normalised runtimes.
func RenderFigure6(points []AttrPoint) string {
	var sb strings.Builder
	sb.WriteString("Figure 6 reproduction: normalised Hid runtime vs attribute count (η=0.3, τ=0.3)\n")
	sb.WriteString("dataset       |A|    rows     runtime    s/record\n")
	for _, p := range points {
		fmt.Fprintf(&sb, "%-12s %4d  %6d  %9s  %.6f\n",
			p.Dataset, p.Attrs, p.Rows, formatDuration(p.Time),
			p.Time.Seconds()/float64(p.Rows))
	}
	return sb.String()
}
