package affidavit

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"affidavit/internal/delta"
	"affidavit/internal/metafunc"
	"affidavit/internal/table"
)

// hostileTable is a table name no encoder may take at face value: both
// quote characters, a backslash, HTML specials, the two JavaScript line
// separators, invalid UTF-8 and control characters.
const hostileTable = "t\"a'b\\c<>&  \xff\b\f\x01"

// hostileResult builds, by hand, an explanation whose identifiers and
// values carry every byte class the JSON and SQL encoders treat
// specially. Nothing in it comes from a search, so the bytes it encodes
// to depend on the encoders alone.
func hostileResult(t *testing.T) *Result {
	t.Helper()
	schema := table.MustSchema(
		"id",
		"na\"me'",
		"v\\al<>&",
		"ctl\b\f\x01\x1f",
		"uni  é",
		"bad\xff\xfe",
		"mask",
	)
	src := table.MustFromRows(schema, []table.Record{
		{"k1", "o'neil", "a\\b", "x\by", "line sep", "\xffraw", "1234"},
		{"k2", "\"q\"", "<b>&amp;", "\f\t\n\r", "ü ", "ok", "99"},
		{"k3", "plain", "", "\x00nul", "日本", "\xc3", "5678"},
	})
	tgt := table.MustFromRows(schema, []table.Record{
		{"K'1", "O'NEIL", "pre<a\\b", "tab\tc", "line sep", "\xffraw", "**34"},
		{"K\"3", "PLAIN", "pre<", "\x00nul", "日本", "\xc3", "**78"},
		{"new ", "ins'\"\\", "<>&", "\b\f\x7f", " ", "\xfe\xff", "x"},
	})
	inst, err := delta.NewInstance(src, tgt, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := &delta.Explanation{
		Inst: inst,
		Funcs: delta.FuncTuple{
			metafunc.NewMapping(map[string]string{"k1": "K'1", "k3": "K\"3", " \b": "<&>\xff"}),
			metafunc.Upper{},
			metafunc.Prefix{Y: "pre<"},
			metafunc.PrefixReplace{Y: "x%_'", Z: "tab\t\""},
			metafunc.Identity{},
			metafunc.Constant{C: "\xff' \\"},
			metafunc.FrontMask{M: "**"},
		},
		CoreSrc:  []int{0, 2},
		CoreTgt:  []int{0, 1},
		Deleted:  []int{1},
		Inserted: []int{2},
	}
	return &Result{
		Explanation: e,
		Cost:        1e21,
		TrivialCost: 3e-7,
		Stats:       Stats{Polls: 3, StatesGenerated: 17, Enqueued: 9, Evicted: 2, StartLevel: 1, WarmEscalated: true},
		alpha:       0.5,
	}
}

// TestResultEncodingHostileGolden pins Result.SQL and Result.JSON on the
// hostile explanation against bytes recorded with the parent commit's
// encoders (json.MarshalIndent over JSONResult, fmt-built SQL): the
// populated explanation with and without a table name, and its degenerate
// twin whose core is empty (encoded "core": null) and whose deleted and
// inserted lists are empty but present ("[]"). Regenerate with
// `go test -run TestResultEncodingHostileGolden . -update` only for an
// intended change of the encoding.
func TestResultEncodingHostileGolden(t *testing.T) {
	res := hostileResult(t)
	empty := *res
	e := *res.Explanation
	e.CoreSrc, e.CoreTgt, e.Deleted, e.Inserted = nil, nil, []int{}, []int{}
	empty.Explanation = &e
	empty.TrivialCost = 0 // compression guarded to 0

	for _, tc := range []struct {
		file   string
		encode func() ([]byte, error)
	}{
		{"sql.sql", func() ([]byte, error) { return []byte(res.SQL(hostileTable)), nil }},
		{"json_table.json", func() ([]byte, error) { return res.JSON(hostileTable) }},
		{"json_notable.json", func() ([]byte, error) { return res.JSON("") }},
		{"empty_sql.sql", func() ([]byte, error) { return []byte(empty.SQL(hostileTable)), nil }},
		{"empty_json.json", func() ([]byte, error) { return empty.JSON(hostileTable) }},
	} {
		got, err := tc.encode()
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		golden := filepath.Join("testdata", "hostile", tc.file)
		// -update is registered by the external test package, which shares
		// this test binary.
		if f := flag.Lookup("update"); f != nil && f.Value.String() == "true" {
			if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from the recorded bytes:\n got %q\nwant %q", tc.file, got, want)
		}
	}
}
