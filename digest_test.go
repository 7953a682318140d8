package affidavit_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"affidavit"
	"affidavit/internal/datasets"
	"affidavit/internal/gen"
)

// explainDigest is one pinned explanation: the SHA-256 and length of its
// stable JSON encoding.
type explainDigest struct {
	SHA256 string `json:"sha256"`
	Len    int    `json:"len"`
}

// TestExplainDigests compares this commit with its parent: it pins the
// bytes of Result.JSON("t") on every registry dataset × 2 generator seeds
// against testdata/explain_digests.json, so a speed change to blocking,
// induction, search or matching cannot move an explanation unnoticed. Keys
// end in "/w1", as they were recorded. Regenerate with `go test -run
// TestExplainDigests -update .` only after an intentional behaviour
// change.
func TestExplainDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 36 full explanations; skipped in -short")
	}
	ex, err := affidavit.New(affidavit.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]explainDigest{}
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
			key := fmt.Sprintf("%s/gen%d/w1", spec.Name, genSeed)
			res, err := ex.Explain(context.Background(), p.Inst.Source, p.Inst.Target)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			b, err := res.JSON("t")
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			got[key] = explainDigest{SHA256: hex.EncodeToString(sum[:]), Len: len(b)}
		}
	}
	pinDigests(t, filepath.Join("testdata", "explain_digests.json"), got)
}

// pinDigests compares got with the digests pinned in the JSON file golden,
// key by key, or rewrites the file under -update.
func pinDigests[D comparable](t *testing.T, golden string, got map[string]D) {
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
	want := map[string]D{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d digests computed, %d pinned", len(got), len(want))
	}
	for key, g := range got {
		if w, ok := want[key]; !ok || g != w {
			t.Errorf("%s: got %+v, pinned %+v", key, g, w)
		}
	}
}

// chainStepDigest is one pinned warm chain step: the SHA-256 and length of
// its Result.JSON with stats zeroed, and its cost.
type chainStepDigest struct {
	SHA256 string  `json:"sha256"`
	Len    int     `json:"len"`
	Cost   float64 `json:"cost"`
}

// TestWarmChainFamilyDigests pins the explanation of every step of a
// chain family run through one warm session per chain: every registry
// dataset (at most 500 rows, build seed 1) × chain seeds 1–2 × stable and
// permuted keys × 5 steps (η 0.1, τ 0.5), explained with WithSeed(1).
// Stats are zeroed before hashing, so a change to the warm-start policy
// may poll fewer states but cannot move an explanation, a cost or a
// compression ratio unnoticed. Regenerate with `go test -run
// TestWarmChainFamilyDigests -update .` only after an intentional
// behaviour change.
func TestWarmChainFamilyDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 360 warm chain steps; skipped in -short")
	}
	ex, err := affidavit.New(affidavit.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]chainStepDigest{}
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
					res.Stats = affidavit.Stats{}
					b, err := res.JSON("t")
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(b)
					got[key] = chainStepDigest{SHA256: hex.EncodeToString(sum[:]), Len: len(b), Cost: res.Cost}
				}
			}
		}
	}
	pinDigests(t, filepath.Join("testdata", "warm_chain_family.json"), got)
}
