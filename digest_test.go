package affidavit_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"affidavit"
	"affidavit/internal/datasets"
	"affidavit/internal/gen"
)

// pinnedRun is one pinned run, in two parts checked apart. The explanation
// part is the SHA-256 and length of Result.JSON("t") with Stats zeroed, and
// the cost. The effort part is the run's search counters, compared exactly:
// a count that falls fails too, until the file is re-recorded, so every
// effort change shows in the diff as effort lines beside unchanged digests.
type pinnedRun struct {
	SHA256 string              `json:"sha256"`
	Len    int                 `json:"len"`
	Cost   float64             `json:"cost"`
	Effort affidavit.JSONStats `json:"effort"`
}

// pin records res as a pinnedRun.
func pin(t *testing.T, res *affidavit.Result) pinnedRun {
	t.Helper()
	answer := *res
	answer.Stats = affidavit.Stats{}
	b, err := answer.JSON("t")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return pinnedRun{SHA256: hex.EncodeToString(sum[:]), Len: len(b), Cost: res.Cost, Effort: affidavit.StatsJSON(res.Stats)}
}

// sameExplanation reports whether p and q pin the same explanation.
func (p pinnedRun) sameExplanation(q pinnedRun) bool {
	return p.SHA256 == q.SHA256 && p.Len == q.Len && p.Cost == q.Cost
}

// effortRose reports whether any counter of got exceeds its pinned value.
func effortRose(got, pinned affidavit.JSONStats) bool {
	return got.Polls > pinned.Polls || got.StatesGenerated > pinned.StatesGenerated ||
		got.Enqueued > pinned.Enqueued || got.Evicted > pinned.Evicted ||
		got.StartLevel > pinned.StartLevel ||
		got.WarmEscalated && !pinned.WarmEscalated || got.Cancelled && !pinned.Cancelled
}

// TestExplainDigests compares this commit with its parent: it pins every
// registry dataset × 2 generator seeds against testdata/explain_digests.json,
// so a speed change to blocking, induction, search or matching can neither
// move an explanation nor change the search's effort unnoticed. Regenerate
// with `go test -run TestExplainDigests . -update` only after an intended
// change, and say in the change which part moved.
func TestExplainDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 36 full explanations; skipped in -short")
	}
	ex, err := affidavit.New(affidavit.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]pinnedRun{}
	for _, spec := range datasets.All() {
		rows := spec.Rows
		if rows > 1000 {
			rows = 1000
		}
		tab, err := spec.BuildRows(rows, 1)
		if err != nil {
			t.Fatal(err)
		}
		for genSeed := int64(1); genSeed <= 2; genSeed++ {
			p, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: genSeed})
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/gen%d", spec.Name, genSeed)
			res, err := ex.Explain(context.Background(), p.Inst.Source, p.Inst.Target)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got[key] = pin(t, res)
		}
	}
	pinDigests(t, filepath.Join("testdata", "explain_digests.json"), got)
}

// pinDigests compares got with the runs pinned in the JSON file golden,
// key by key, or rewrites the file under -update. A moved explanation and
// a changed effort fail with different messages.
func pinDigests(t *testing.T, golden string, got map[string]pinnedRun) {
	t.Helper()
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]pinnedRun{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d runs computed, %d pinned", len(got), len(want))
	}
	keys := make([]string, 0, len(got))
	for key := range got {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		g := got[key]
		w, ok := want[key]
		switch {
		case !ok:
			t.Errorf("%s: not pinned", key)
		case !g.sameExplanation(w):
			t.Errorf("%s: explanation moved: got %s len %d cost %v, pinned %s len %d cost %v",
				key, g.SHA256, g.Len, g.Cost, w.SHA256, w.Len, w.Cost)
		case effortRose(g.Effort, w.Effort):
			t.Errorf("%s: effort rose: got %+v, pinned %+v", key, g.Effort, w.Effort)
		case g.Effort != w.Effort:
			t.Errorf("%s: effort fell; re-record with -update: got %+v, pinned %+v", key, g.Effort, w.Effort)
		}
	}
}

// TestWarmChainFamilyDigests pins every step of a chain family run through
// one warm session per chain: every registry dataset (at most 500 rows,
// build seed 1) × chain seeds 1–2 × stable and permuted keys × 5 steps
// (η 0.1, τ 0.5), explained with WithSeed(1). A change to the warm-start
// policy can then neither move an explanation, a cost or a compression
// ratio nor poll a different number of states unnoticed. Regenerate with
// `go test -run TestWarmChainFamilyDigests . -update` only after an
// intended change, and say in the change which part moved.
func TestWarmChainFamilyDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 360 warm chain steps; skipped in -short")
	}
	ex, err := affidavit.New(affidavit.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]pinnedRun{}
	for _, spec := range datasets.All() {
		tab, err := spec.BuildRows(min(spec.Rows, 500), 1)
		if err != nil {
			t.Fatal(err)
		}
		for chainSeed := int64(1); chainSeed <= 2; chainSeed++ {
			for _, permute := range []bool{false, true} {
				ch, err := gen.MakeChain(tab, gen.ChainConfig{
					Steps: 5, Eta: 0.1, Tau: 0.5, Seed: chainSeed, PermuteKeys: permute,
				})
				if err != nil {
					t.Fatal(err)
				}
				s := ex.Session(ch.Snapshots[0])
				for i := 1; i < len(ch.Snapshots); i++ {
					key := fmt.Sprintf("%s/chain%d/permute=%v/step%d", spec.Name, chainSeed, permute, i)
					res, err := s.ExplainNextContext(context.Background(), ch.Snapshots[i])
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					got[key] = pin(t, res)
				}
			}
		}
	}
	pinDigests(t, filepath.Join("testdata", "warm_chain_family.json"), got)
}
