package affidavit_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"affidavit"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestResultJSONGolden pins the stable encoding shared by cmd/affidavit
// -json and affidavitd's /explain responses: field order, stats subset,
// and the guarded compression ratio must not drift. Regenerate with
// `go test -run TestResultJSONGolden -update .` after an intentional
// change.
func TestResultJSONGolden(t *testing.T) {
	src, tgt := figure1Tables(t)
	res := explainWith(t, src, tgt, affidavit.WithSeed(1))
	got, err := res.JSON("accounts")
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "result_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, append(got, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got)+"\n" != string(want) {
		t.Errorf("JSON drifted from golden:\n%s\nwant:\n%s", got, want)
	}

	// Structural invariants independent of the golden bytes.
	var decoded affidavit.JSONResult
	if err := json.Unmarshal(got, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Table != "accounts" || decoded.SQL == "" {
		t.Error("table name or SQL script missing")
	}
	if decoded.Compression == 0 || decoded.Compression != decoded.Cost/decoded.TrivialCost {
		t.Errorf("compression = %v, want cost/trivial", decoded.Compression)
	}
	if decoded.Stats.Polls != res.Stats.Polls || decoded.Stats.StatesGenerated != res.Stats.StatesGenerated {
		t.Error("stats subset does not match the run")
	}

	// Without a table name, the table and SQL fields are omitted entirely.
	bare, err := res.JSON("")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(bare, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["table"]; ok {
		t.Error("empty table name still encoded")
	}
	if _, ok := m["sql"]; ok {
		t.Error("SQL emitted without a table name")
	}
}

// TestResultJSONDeterministic: equal runs encode byte-identically.
func TestResultJSONDeterministic(t *testing.T) {
	src, tgt := figure1Tables(t)
	a := explainWith(t, src, tgt, affidavit.WithSeed(1))
	b := explainWith(t, src, tgt, affidavit.WithSeed(1))
	aj, err := a.JSON("t")
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.JSON("t")
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Error("equal runs encoded differently")
	}
}
