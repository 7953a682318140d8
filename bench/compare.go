package main

// -compare old.json new.json: one row per workload × end-to-end metric
// with both medians, the ratio with its base, and a verdict under the
// bounds of metrics.go. Counts that repeat exactly for a seed must match
// exactly on the one-client workloads.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// results is the layout of a results file (bench/out/results.json).
type results struct {
	Host    host        `json:"host"`
	Seconds float64     `json:"seconds"`
	Scale   float64     `json:"scale"`
	Runs    []resultRun `json:"runs"`
}

// resultRun is one pass over the workloads at one seed.
type resultRun struct {
	Seed      int64                      `json:"seed"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// workloadResult is one workload's two runs.
type workloadResult struct {
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
}

func readResults(path string) (*results, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	return &r, nil
}

// exactCounts are the metrics that repeat exactly for a seed when one
// client drives the daemon: any difference is a behaviour change, not
// noise.
var exactCounts = []string{"disk_bytes_per_input_byte", "affidavitd.response_kb_per_op", "search.polls_per_op", "jobs.journal_bytes_per_job"}

// sameCount reports whether two readings of an exact count agree. Bytes
// on disk include journal lines whose timestamps print with a varying
// number of digits, so they agree to a part in ten thousand; everything
// else agrees to the last digit.
func sameCount(name string, a, b float64) bool {
	if name == "disk_bytes_per_input_byte" {
		return math.Abs(a-b) <= 1e-4*math.Abs(a)
	}
	return a == b
}

// reading is one run's value of a metric on a workload, end-to-end or
// per-layer.
func (run *resultRun) reading(workload, metric string) (float64, bool) {
	w := run.Workloads[workload]
	if w == nil {
		return 0, false
	}
	if v, ok := w.EndToEnd[metric]; ok {
		return v.Value, true
	}
	v, ok := w.PerLayer[metric]
	return v.Value, ok
}

// series collects one metric's values over a set of runs.
func series(r *results, workload, metric string) []float64 {
	var out []float64
	for i := range r.Runs {
		if v, ok := r.Runs[i].reading(workload, metric); ok {
			out = append(out, v)
		}
	}
	return out
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 || median(xs) == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs)
}

// verdict judges one metric: worse is how much worse the new median is
// than the old as a share of the old (negative = better).
func verdict(def metricDef, old, new []float64) (worse float64, status string) {
	om, nm := median(old), median(new)
	if om == 0 {
		return 0, "unresolved"
	}
	worse = (nm - om) / om
	if def.Better == "higher" {
		worse = -worse
	}
	sort.Float64s(old)
	sort.Float64s(new)
	// Every new run better than every old run settles it whatever the
	// spread.
	allBetter := new[len(new)-1] < old[0]
	if def.Better == "higher" {
		allBetter = new[0] > old[len(old)-1]
	}
	switch {
	case allBetter:
		return worse, "ok"
	case max(spread(old), spread(new)) > def.Bound:
		return worse, "unresolved"
	case worse > def.Bound:
		return worse, "regressed"
	default:
		return worse, "ok"
	}
}

// compare prints the table and reports whether anything regressed or an
// exact count moved.
func compare(w io.Writer, oldPath, newPath string) (bool, error) {
	old, err := readResults(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	for _, r := range []*results{old, cur} {
		if r.Host.LowParallelism {
			fmt.Fprintf(w, "warning: runs on %d processor(s): Workers 2 and two-client numbers cannot show parallelism\n", r.Host.NProc)
		}
	}
	if old.Seconds != cur.Seconds || old.Scale != cur.Scale {
		return false, fmt.Errorf("run settings differ: %vs scale %v vs %vs scale %v", old.Seconds, old.Scale, cur.Seconds, cur.Scale)
	}
	clean := true
	fmt.Fprintf(w, "%-11s %-26s %12s %12s %16s  %s\n", "workload", "metric", "old median", "new median", "new/old", "verdict")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			o, n := series(old, wl.name, def.Name), series(cur, wl.name, def.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			worse, status := verdict(def, o, n)
			if status == "regressed" {
				clean = false
			}
			fmt.Fprintf(w, "%-11s %-26s %12.5g %12.5g %7.3f of %-7.4g  %s (%+.1f%% worse, bound %.0f%%, n=%d/%d)\n",
				wl.name, def.Name, median(o), median(n), median(n)/median(o), median(o), status, worse*100, def.Bound*100, len(o), len(n))
		}
	}
	for _, wl := range workloads {
		if wl.clients != 1 {
			continue
		}
		for _, name := range exactCounts {
			for i := range old.Runs {
				for j := range cur.Runs {
					orun, nrun := &old.Runs[i], &cur.Runs[j]
					if orun.Seed != nrun.Seed {
						continue
					}
					o, ok1 := orun.reading(wl.name, name)
					n, ok2 := nrun.reading(wl.name, name)
					if ok1 && ok2 && !sameCount(name, o, n) {
						clean = false
						fmt.Fprintf(w, "%-11s %-26s seed %d: exact count changed: %v → %v\n", wl.name, name, orun.Seed, o, n)
					}
				}
			}
		}
	}
	return clean, nil
}
