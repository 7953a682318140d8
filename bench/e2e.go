package main

// The end-to-end run: the harness records one latency per operation and
// nothing else, so these numbers carry no tracing cost of its own.

import (
	"fmt"
	"path/filepath"
)

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind the value (0 where the metric is a
	// single reading).
	N int `json:"n,omitempty"`
}

// latencies extracts the per-operation latencies of the successful
// operations.
func latencies(rs []opResult) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if r.err == nil {
			out = append(out, r.latencyMS)
		}
	}
	return out
}

// runEndToEnd performs setupReps complete set-ups and drives a third of
// the timed seconds on each of the daemons they produce, verifying every
// one. Each metric is the median of the per-daemon readings: run-to-run
// differences on this sandbox are mostly differences between processes
// and between stretches of a few seconds, and three short phases on three
// fresh daemons, spread over the whole run, sample both.
func runEndToEnd(cfg *config, w *workload) (map[string]value, *tally, error) {
	t := &tally{}
	per := make(map[string][]float64)
	ops := 0
	for rep := 0; rep < setupReps; rep++ {
		s, took, err := setUp(cfg, w, nil)
		if err != nil {
			return nil, t, err
		}
		m, n, err := s.measure(cfg.seconds / setupReps)
		t.add(s)
		s.close()
		if err != nil {
			return nil, t, err
		}
		m["setup_s"] = took
		for name, v := range m {
			per[name] = append(per[name], v)
		}
		ops += n
	}
	out := make(map[string]value, len(endToEnd))
	for _, def := range endToEnd {
		// N is the operations behind the per-daemon readings; set-up and
		// the disk ratio are one reading per daemon.
		n := ops
		if def.Name == "setup_s" || def.Name == "disk_bytes_per_input_byte" {
			n = setupReps
		}
		out[def.Name] = value{median(per[def.Name]), def.Unit, n}
	}
	return out, t, nil
}

// measure runs one timed phase on a freshly set-up daemon, then the
// verification gate, and returns the phase's end-to-end readings and its
// operation count.
func (s *session) measure(seconds float64) (map[string]float64, int, error) {
	// Bytes stored per byte uploaded, read at the one point of the run
	// where the operation count is fixed: after seeding, before timing.
	disk, err := dirBytes(filepath.Join(s.dir, "jobs"))
	if err != nil {
		return nil, 0, err
	}
	uploaded := s.upload

	ph := s.timed(seconds, 0, nil)
	if _, err := s.verify(); err != nil {
		return nil, 0, err
	}
	lat := latencies(ph.results)
	opsPerS := ph.roundRates()
	if len(lat) == 0 || len(opsPerS) == 0 {
		return nil, 0, fmt.Errorf("%s: no round completed in the timed phase", s.w.name)
	}
	return map[string]float64{
		"latency_p50_ms":            quantile(lat, 0.50),
		"throughput_ops_s":          median(opsPerS),
		"daemon_cpu_s_per_op":       ph.cpuPerOp(),
		"disk_bytes_per_input_byte": float64(disk) / float64(uploaded),
	}, len(lat), nil
}
