package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the contract shape of BENCHMARK.json: exactly these
// keys, nothing else.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesLedger pins BENCHMARK.json to the tables the
// harness prints from, and both to the limits of the benchmark contract.
func TestBenchmarkJSONMatchesLedger(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command has %d parts", len(b.Command))
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	// 4 + 22 × workloads runs, each with three set-ups and a restart, must
	// fit 3420 s; 30 s per run leaves room for two cold builds.
	if runs := 4 + 22*len(b.Workloads); runs*30 > 3420 {
		t.Errorf("%d runs cannot fit the time cap", runs)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json {%s, %q} differs from harness {%s, %q}", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, harness %d", len(b.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range b.EndToEnd {
		name("end_to_end", m.Name)
		def := endToEnd[i]
		if m.Bound == nil || m.Name != def.Name || m.Unit != def.Unit || m.Better != def.Better || *m.Bound != def.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v differs from harness %+v", i, m, def)
			continue
		}
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, other := range endToEnd {
				if other.Bound > def.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", other.Name, other.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s (unit s, better lower)")
	}

	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, harness %d (limit 128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		name("per_layer", m.Name)
		def := perLayer[i]
		if m.Name != def.Name || m.Unit != def.Unit || m.Better != def.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v differs from harness {%s %s %s}", i, m, def.Name, def.Unit, def.Better)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if def.Layer == "" || def.How == "" || def.Moves == "" {
			t.Errorf("%s: ledger entry lacks layer, how or moves", def.Name)
		}
	}
}

// TestSmoke builds the daemon and runs all four workloads, both modes, at
// a fiftieth of their size: every metric the ledger names must come back
// with its unit, every check must pass, and no daemon or directory may be
// left behind.
func TestSmoke(t *testing.T) {
	cfg, err := newConfig(1, 10*0.02, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanupAll()
	res := results{Host: hostRecord(cfg.root, cfg.tmpRoot), Seconds: cfg.seconds, Scale: cfg.scale}
	rr := resultRun{Seed: cfg.seed, Workloads: map[string]*workloadResult{}}
	for i := range workloads {
		w := &workloads[i]
		wr := &workloadResult{}
		for _, mode := range []struct {
			traced bool
			defs   []metricDef
		}{{false, endToEnd}, {true, perLayer}} {
			m, tl, err := runOne(cfg, w, mode.traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, mode.traced, err)
			}
			if tl.failed != 0 || tl.attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d checks failed: %v", w.name, mode.traced, tl.failed, tl.attempted, tl.failures)
			}
			if len(m) != len(mode.defs) {
				t.Errorf("%s traced=%v: %d metrics, ledger names %d", w.name, mode.traced, len(m), len(mode.defs))
			}
			for _, def := range mode.defs {
				v, ok := m[def.Name]
				if !ok {
					t.Errorf("%s: metric %s not reported", w.name, def.Name)
				} else if v.Unit != def.Unit {
					t.Errorf("%s: %s has unit %q, ledger says %q", w.name, def.Name, v.Unit, def.Unit)
				}
			}
			if mode.traced {
				wr.PerLayer = m
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			} else {
				wr.EndToEnd = m
				for _, def := range mode.defs {
					// CPU time ticks in 10 ms; a round at this scale can
					// honestly read 0.
					if def.Name == "daemon_cpu_s_per_op" {
						continue
					}
					if m[def.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, def.Name, m[def.Name].Value)
					}
				}
			}
		}
		rr.Workloads[w.name] = wr
	}
	res.Runs = append(res.Runs, rr)

	live.mu.Lock()
	daemons, dirs := len(live.daemons), len(live.dirs)
	live.mu.Unlock()
	if daemons != 0 || dirs != 0 {
		t.Errorf("%d daemons and %d directories left behind", daemons, dirs)
	}
	if left, _ := os.ReadDir(cfg.tmpRoot); len(left) != 0 {
		t.Errorf("%d entries left under %s", len(left), cfg.tmpRoot)
	}

	// A set of runs compared with itself is clean; with a slower copy it
	// regresses.
	dir := t.TempDir()
	write := func(name string, r results) string {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	same := write("old.json", res)
	var out bytes.Buffer
	if clean, err := compare(&out, same, same); err != nil || !clean {
		t.Errorf("self-compare: clean=%v err=%v\n%s", clean, err, out.String())
	}
	slow := res
	slow.Runs = []resultRun{{Seed: rr.Seed, Workloads: map[string]*workloadResult{}}}
	for name, wr := range rr.Workloads {
		e2e := map[string]value{}
		for k, v := range wr.EndToEnd {
			e2e[k] = v
		}
		v := e2e["latency_p50_ms"]
		v.Value *= 2
		e2e["latency_p50_ms"] = v
		slow.Runs[0].Workloads[name] = &workloadResult{EndToEnd: e2e, PerLayer: wr.PerLayer}
	}
	out.Reset()
	if clean, err := compare(&out, same, write("new.json", slow)); err != nil || clean {
		t.Errorf("compare with doubled latency: clean=%v err=%v", clean, err)
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Errorf("compare output names no regression:\n%s", out.String())
	}
}
