package main

// -report: regenerate the per-layer budget table of README.md from a
// results file, between the budget markers.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

const (
	budgetBegin = "<!-- budget:begin -->"
	budgetEnd   = "<!-- budget:end -->"
)

// budgetTable renders, per workload, every per-layer time in ms with its
// share of that workload's latency_p50_ms, as a markdown table. Values
// are medians over the runs of the results file.
func budgetTable(r *results) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Host: %d × %s, GOMAXPROCS %d, %s, commit %s, build `%s`, daemon `%s`, temp dir on %s; %d run(s) of %v s per phase.\n\n",
		r.Host.NProc, r.Host.CPU, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.Commit,
		strings.Join(r.Host.BuildFlags, " "), strings.Join(r.Host.DaemonArgs, " "), r.Host.TmpFS, len(r.Runs), r.Seconds)
	b.WriteString("| metric |")
	for _, wl := range workloads {
		fmt.Fprintf(&b, " %s |", wl.name)
	}
	b.WriteString("\n|---|")
	for range workloads {
		b.WriteString("---:|")
	}
	b.WriteString("\n")
	row := func(name string, cell func(wl string) string) {
		fmt.Fprintf(&b, "| `%s` |", name)
		for _, wl := range workloads {
			fmt.Fprintf(&b, " %s |", cell(wl.name))
		}
		b.WriteString("\n")
	}
	for _, def := range endToEnd {
		row(def.Name, func(wl string) string { return fmt.Sprintf("%.4g %s", median(series(r, wl, def.Name)), def.Unit) })
	}
	for _, def := range perLayer {
		row(def.Name, func(wl string) string {
			v := median(series(r, wl, def.Name))
			if def.Unit != "ms" {
				return fmt.Sprintf("%.4g %s", v, def.Unit)
			}
			p50 := median(series(r, wl, "latency_p50_ms"))
			if p50 == 0 {
				return fmt.Sprintf("%.4g ms", v)
			}
			return fmt.Sprintf("%.4g ms (%.1f%%)", v, 100*v/p50)
		})
	}
	return b.String()
}

// rewriteBudget replaces the text between the budget markers of
// bench/README.md.
func rewriteBudget(root string, r *results) error {
	path := filepath.Join(root, "bench", "README.md")
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	i, j := bytes.Index(raw, []byte(budgetBegin)), bytes.Index(raw, []byte(budgetEnd))
	if i < 0 || j < i {
		return fmt.Errorf("%s: budget markers not found", path)
	}
	var out bytes.Buffer
	out.Write(raw[:i+len(budgetBegin)])
	out.WriteString("\n")
	out.WriteString(budgetTable(r))
	out.Write(raw[j:])
	return os.WriteFile(path, out.Bytes(), 0o644)
}
