package affidavit_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"affidavit"
	"affidavit/internal/datasets"
	"affidavit/internal/gen"
)

// equivRows caps dataset sizes so the three-way ingest sweep stays fast
// (mirrors the parallel-equivalence sweep's budget).
func equivRows(spec datasets.Spec) int {
	rows := spec.Rows
	if rows > 300 {
		rows = 300
	}
	if spec.DataAttrs > 40 && rows > 100 {
		rows = 100
	}
	return rows
}

// jsonlOf renders a table as JSON Lines, keys in schema order (the first
// record's key order becomes the JSONL schema).
func jsonlOf(t *testing.T, tab *affidavit.Table) string {
	t.Helper()
	var sb strings.Builder
	attrs := tab.Schema().Attrs()
	for i := 0; i < tab.Len(); i++ {
		rec := tab.Record(i)
		sb.WriteByte('{')
		for a, name := range attrs {
			if a > 0 {
				sb.WriteByte(',')
			}
			k, err := json.Marshal(name)
			if err != nil {
				t.Fatal(err)
			}
			v, err := json.Marshal(rec[a])
			if err != nil {
				t.Fatal(err)
			}
			sb.Write(k)
			sb.WriteByte(':')
			sb.Write(v)
		}
		sb.WriteString("}\n")
	}
	return sb.String()
}

func csvBytes(t *testing.T, tab *affidavit.Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestSourceEquivalenceRegistry: on every registry dataset, streaming the
// snapshot pair through CSVSource and JSONLSource must produce
// byte-identical explanations (report and JSON encoding) to the buffered
// ReadCSV + Explain path.
func TestSourceEquivalenceRegistry(t *testing.T) {
	for _, spec := range datasets.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			tab, err := spec.BuildRows(equivRows(spec), 7)
			if err != nil {
				t.Fatal(err)
			}
			p, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			srcCSV := csvBytes(t, p.Inst.Source)
			tgtCSV := csvBytes(t, p.Inst.Target)

			// Buffered reference path.
			src, err := affidavit.ReadCSV(strings.NewReader(srcCSV))
			if err != nil {
				t.Fatal(err)
			}
			tgt, err := affidavit.ReadCSV(strings.NewReader(tgtCSV))
			if err != nil {
				t.Fatal(err)
			}
			ref := explainWith(t, src, tgt, affidavit.WithSeed(7))
			refReport, refJSON := ref.Report(), mustJSON(t, ref)

			ex, err := affidavit.New(affidavit.WithSeed(7))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()

			fromCSV, err := ex.ExplainSources(ctx,
				affidavit.NewCSVSource(strings.NewReader(srcCSV)),
				affidavit.NewCSVSource(strings.NewReader(tgtCSV)))
			if err != nil {
				t.Fatal(err)
			}
			if got := fromCSV.Report(); got != refReport {
				t.Errorf("CSVSource report differs from buffered path")
			}
			if got := mustJSON(t, fromCSV); got != refJSON {
				t.Errorf("CSVSource JSON differs from buffered path")
			}

			fromJSONL, err := ex.ExplainSources(ctx,
				affidavit.NewJSONLSource(strings.NewReader(jsonlOf(t, p.Inst.Source))),
				affidavit.NewJSONLSource(strings.NewReader(jsonlOf(t, p.Inst.Target))))
			if err != nil {
				t.Fatal(err)
			}
			if got := fromJSONL.Report(); got != refReport {
				t.Errorf("JSONLSource report differs from buffered path")
			}
			if got := mustJSON(t, fromJSONL); got != refJSON {
				t.Errorf("JSONLSource JSON differs from buffered path")
			}
		})
	}
}

func mustJSON(t *testing.T, r *affidavit.Result) string {
	t.Helper()
	b, err := r.JSON("t")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRowsAndTableSource: the iterator-backed sources feed the same
// pipeline.
func TestRowsAndTableSource(t *testing.T) {
	src, tgt := figure1Tables(t)
	ref := explainWith(t, src, tgt, affidavit.WithSeed(1))
	ex, err := affidavit.New(affidavit.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.ExplainSources(context.Background(),
		affidavit.TableSource(src), affidavit.TableSource(tgt))
	if err != nil {
		t.Fatal(err)
	}
	if res.Report() != ref.Report() {
		t.Error("TableSource report differs from buffered path")
	}

	// A bare RowsSource with an explicit iterator.
	i := 0
	rows := affidavit.NewRowsSource(src.Schema(), func() (affidavit.Record, error) {
		if i >= src.Len() {
			return nil, io.EOF
		}
		r := src.Record(i)
		i++
		return r, nil
	})
	res2, err := ex.ExplainSources(context.Background(), rows, affidavit.TableSource(tgt))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Report() != ref.Report() {
		t.Error("RowsSource report differs from buffered path")
	}
}

// TestSourceErrors: malformed inputs fail with useful errors instead of
// being silently coerced.
func TestSourceErrors(t *testing.T) {
	ex, err := affidavit.New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []struct {
		name string
		src  affidavit.Source
		want string
	}{
		{"empty csv", affidavit.NewCSVSource(strings.NewReader("")), "no header"},
		{"ragged csv", affidavit.NewCSVSource(strings.NewReader("a,b\n1,2,3\n")), "fields"},
		{"empty jsonl", affidavit.NewJSONLSource(strings.NewReader("\n\n")), "no records"},
		{"nested jsonl", affidavit.NewJSONLSource(strings.NewReader(`{"a":{"x":1}}` + "\n")), "nested"},
		{"bad jsonl", affidavit.NewJSONLSource(strings.NewReader("not json\n")), "line 1"},
		{"unknown key", affidavit.NewJSONLSource(strings.NewReader("{\"a\":\"1\"}\n{\"b\":\"2\"}\n")), "not in schema"},
		{"missing file", affidavit.CSVFileSource("/definitely/not/here.csv"), "no such file"},
	}
	for _, c := range cases {
		if _, err := ex.ReadSource(ctx, c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}

	// Schema mismatch across the pair.
	_, err = ex.ExplainSources(ctx,
		affidavit.NewCSVSource(strings.NewReader("a,b\n1,2\n")),
		affidavit.NewCSVSource(strings.NewReader("a,c\n1,2\n")))
	if err == nil || !strings.Contains(err.Error(), "schemas differ") {
		t.Errorf("schema mismatch: err = %v", err)
	}
}

// TestJSONLErrorDeterminism: when a line carries several out-of-schema
// keys, the error always names the lexicographically-smallest one. The
// mapiter analyzer flagged the original map-order iteration in
// jsonlSource.record — with eight bad keys the reported key would vary
// between runs; this pins the sorted-key fix.
func TestJSONLErrorDeterminism(t *testing.T) {
	ex, err := affidavit.New()
	if err != nil {
		t.Fatal(err)
	}
	const doc = `{"a":"1"}` + "\n" +
		`{"z8":"1","z5":"1","z2":"1","z7":"1","z1":"1","z4":"1","z6":"1","z3":"1"}` + "\n"
	for i := 0; i < 25; i++ {
		_, err := ex.ReadSource(context.Background(), affidavit.NewJSONLSource(strings.NewReader(doc)))
		if err == nil {
			t.Fatal("out-of-schema keys accepted")
		}
		if !strings.Contains(err.Error(), `key "z1"`) {
			t.Fatalf("run %d: err = %v, want the smallest key z1", i, err)
		}
	}
}

// TestJSONLValueSpelling: numbers keep their literal spelling, bools and
// nulls map stably — the cells must round-trip exactly like CSV cells.
func TestJSONLValueSpelling(t *testing.T) {
	ex, err := affidavit.New()
	if err != nil {
		t.Fatal(err)
	}
	jsonl := `{"n":1.50,"b":true,"s":"x","z":null}` + "\n" + `{"n":-0.07,"b":false,"s":"","z":"v"}` + "\n"
	tab, err := ex.ReadSource(context.Background(), affidavit.NewJSONLSource(strings.NewReader(jsonl)))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(tab.Schema().Attrs()); got != "[n b s z]" {
		t.Fatalf("schema = %s, want document key order [n b s z]", got)
	}
	want := [][]string{{"1.50", "true", "x", ""}, {"-0.07", "false", "", "v"}}
	for i, w := range want {
		for a, v := range w {
			if tab.Value(i, a) != v {
				t.Errorf("cell %d,%d = %q, want %q", i, a, tab.Value(i, a), v)
			}
		}
	}
}
