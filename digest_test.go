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
	golden := filepath.Join("testdata", "explain_digests.json")
	want := map[string]explainDigest{}
	if !*updateGolden {
		raw, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
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
	if len(got) != len(want) {
		t.Errorf("%d digests computed, %d pinned", len(got), len(want))
	}
	for key, g := range got {
		if w, ok := want[key]; !ok || g != w {
			t.Errorf("%s: Result.JSON is %d bytes sha256 %s, pinned %d bytes sha256 %s", key, g.Len, g.SHA256, w.Len, w.SHA256)
		}
	}
}
