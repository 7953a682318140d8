package induce_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"affidavit/internal/blocking"
	"affidavit/internal/datasets"
	"affidavit/internal/gen"
	"affidavit/internal/induce"
	"affidavit/internal/metafunc"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenDatasets are the shape-diverse registry datasets the candidate
// lists are pinned on: tiny numeric, low-cardinality categorical, decimal
// measurements, mixed census, string-heavy, sparse, and a 75-attribute
// schema.
var goldenDatasets = []string{"iris", "chess", "abalone", "adult", "ncvoter-1k", "horse", "flight-1k"}

// goldenStates returns the two blocking results candidates are pinned at:
// the root (one block holding everything) and the root refined by the
// reference function of the first non-key attribute that is not an explicit
// value mapping (medium-sized blocks).
func goldenStates(t *testing.T, name string) (*gen.Problem, map[string]*blocking.Result) {
	t.Helper()
	spec, err := datasets.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	rows := spec.Rows
	if rows > 1000 {
		rows = 1000
	}
	if spec.DataAttrs > 40 {
		rows = 300
	}
	tab, err := spec.BuildRows(rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	root := blocking.New(p.Inst)
	states := map[string]*blocking.Result{"root": root}
	for a, f := range p.Reference.Funcs {
		if _, isMap := f.(*metafunc.Mapping); a != p.KeyAttr && !isMap {
			states["refined"] = root.Refine(a, f)
			break
		}
	}
	if states["refined"] == nil {
		t.Fatalf("%s: no refinable attribute", name)
	}
	return p, states
}

// TestCandidatesGolden compares this commit with its parent: every
// attribute's full ranked candidate list (top = 0) as "Generated Overlap
// Score Key", at the root blocking and at one refined state of each golden
// dataset, must equal testdata/candidates_golden.json, so a speed change to
// induction, blocking or search cannot move a ranking unnoticed. Regenerate with `go test -run
// TestCandidatesGolden -update ./internal/induce/` only after an
// intentional behaviour change.
func TestCandidatesGolden(t *testing.T) {
	golden := filepath.Join("testdata", "candidates_golden.json")
	want := map[string][]string{}
	if !*updateGolden {
		raw, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string][]string{}
	for _, name := range goldenDatasets {
		p, states := goldenStates(t, name)
		for _, state := range []string{"root", "refined"} {
			r := states[state]
			for attr := 0; attr < p.Inst.NumAttrs(); attr++ {
				key := fmt.Sprintf("%s/%s/%03d", name, state, attr)
				got[key] = describe(induce.Candidates(r, attr, p.Inst.Metas, induce.Defaults, 0, rand.New(rand.NewSource(int64(attr)+1))))
			}
		}
	}
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(got) != len(want) {
		t.Errorf("%d candidate lists computed, %d pinned", len(got), len(want))
	}
	for key, g := range got {
		if w := want[key]; !reflect.DeepEqual(g, w) {
			t.Errorf("%s: ranked list drifted from golden:\n got %q\nwant %q", key, g, w)
		}
	}
}
