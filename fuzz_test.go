package affidavit_test

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"unicode/utf8"

	"affidavit"
)

// drain reads a source to exhaustion and renders everything observable —
// schema, every record, and the terminal error — into one string, so two
// reads of the same bytes can be compared for determinism.
func drain(src affidavit.Source) string {
	var b strings.Builder
	schema, err := src.Open()
	if err != nil {
		fmt.Fprintf(&b, "open: %v", err)
		src.Close()
		return b.String()
	}
	fmt.Fprintf(&b, "schema: %v\n", schema.Attrs())
	for i := 0; ; i++ {
		rec, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			fmt.Fprintf(&b, "next: %v", err)
			break
		}
		if len(rec) != schema.Len() {
			fmt.Fprintf(&b, "record %d: arity %d, schema %d", i, len(rec), schema.Len())
			break
		}
		fmt.Fprintf(&b, "%d: %q\n", i, []string(rec))
		if i > 4096 {
			b.WriteString("truncated\n")
			break
		}
	}
	if err := src.Close(); err != nil {
		fmt.Fprintf(&b, "close: %v", err)
	}
	return b.String()
}

// FuzzCSVSource: arbitrary bytes through the CSV ingest boundary must not
// panic, must yield only schema-arity records, and must read identically
// twice — streamed ingest is part of the deterministic pipeline.
func FuzzCSVSource(f *testing.F) {
	for _, seed := range csvSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		first := drain(affidavit.NewCSVSource(bytes.NewReader(data)))
		second := drain(affidavit.NewCSVSource(bytes.NewReader(data)))
		if first != second {
			t.Errorf("two reads of the same CSV bytes diverge:\n--- first\n%s\n--- second\n%s", first, second)
		}
	})
}

// csvSeeds seed both CSV fuzzers.
var csvSeeds = []string{
	"a,b\n1,2\n3,4\n",
	"a,b\n1,2,3\n",
	`a,"b c"` + "\n" + `"x""y",2` + "\n",
	"",
	"héç,∆\nä,ß\n",
	"a\n\"unterminated\n",
}

// FuzzCSVIngest: the CSV reader both ingest paths share — the record view
// (Next) and the drain that feeds rows' bytes straight to codes
// (ReadSource) — must read arbitrary bytes exactly as encoding/csv does:
// the same schema and records, and the same error, position included.
func FuzzCSVIngest(f *testing.F) {
	for _, seed := range csvSeeds {
		f.Add([]byte(seed))
	}
	f.Add([]byte("a,b\r\n1,2\r\n\r\n3,4\r\n"))                       // CRLF, a blank CRLF line
	f.Add([]byte("a,b\n\"line\r\nbreak\",\"x\ny\"\n"))               // quoted newlines
	f.Add([]byte("a,b\n\"say \"\"hi\"\"\",\"\"\"\"\n"))              // "" escapes
	f.Add([]byte("a,b\n1,x\"y\n"))                                   // a bare quote
	f.Add([]byte("a,b\n\"q\"x,1\n"))                                 // text after a closing quote
	f.Add([]byte("a,b,c\n1,2\n"))                                    // a short row
	f.Add([]byte("\ufeffa,b\n1,2\n"))                                // a BOM
	f.Add([]byte("a,b\n1,2\r"))                                      // a trailing \r before EOF
	f.Add([]byte("a,b\n\"" + strings.Repeat("x", 70000) + "\",2\n")) // a line past the read buffer
	ex, err := affidavit.New()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want := csvOracle(data, "affidavit", "reading csv header")
		if got := drain(affidavit.NewCSVSource(bytes.NewReader(data))); got != want.drained() {
			t.Errorf("Next disagrees with encoding/csv:\n--- got\n%s\n--- want\n%s", got, want.drained())
		}
		tab, err := ex.ReadSource(context.Background(), affidavit.NewCSVSource(bytes.NewReader(data)))
		if got := renderRead(tab, err); got != want.read() {
			t.Errorf("ReadSource disagrees with encoding/csv:\n--- got\n%s\n--- want\n%s", got, want.read())
		}
		checkParseError(t, err, want.err)
	})
}

// csvRead is what reading CSV bytes yields: the header, the rows read
// before any error, and the error, worded as the named package words it.
type csvRead struct {
	header []string
	rows   [][]string
	err    error
	open   bool // err came from reading the header
}

// csvOracle reads data with encoding/csv (FieldsPerRecord = -1) under the
// ingest rules: the first row is the header, every row must be as wide.
func csvOracle(data []byte, pkg, headerVerb string) csvRead {
	var out csvRead
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err == io.EOF {
		out.err, out.open = fmt.Errorf("%s: csv has no header row", pkg), true
		return out
	}
	if err != nil {
		out.err, out.open = fmt.Errorf("%s: %s: %w", pkg, headerVerb, err), true
		return out
	}
	if _, err := affidavit.NewSchema(header...); err != nil {
		out.err, out.open = err, true
		return out
	}
	out.header = header
	for row := 2; ; row++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return out
		}
		if err != nil {
			out.err = fmt.Errorf("%s: reading csv: %w", pkg, err)
			return out
		}
		if len(rec) != len(header) {
			out.err = fmt.Errorf("%s: csv row %d has %d fields, header has %d", pkg, row, len(rec), len(header))
			return out
		}
		out.rows = append(out.rows, rec)
	}
}

// drained renders the oracle's read as drain renders a source.
func (c csvRead) drained() string {
	var b strings.Builder
	if c.open {
		fmt.Fprintf(&b, "open: %v", c.err)
		return b.String()
	}
	fmt.Fprintf(&b, "schema: %v\n", c.header)
	for i, rec := range c.rows {
		fmt.Fprintf(&b, "%d: %q\n", i, rec)
		if i > 4096 {
			b.WriteString("truncated\n")
			return b.String()
		}
	}
	if c.err != nil {
		fmt.Fprintf(&b, "next: %v", c.err)
	}
	return b.String()
}

// read renders the oracle's read as renderRead renders a table read.
func (c csvRead) read() string {
	if c.err != nil {
		return "error: " + c.err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "schema: %v\n", c.header)
	for i, rec := range c.rows {
		fmt.Fprintf(&b, "%d: %q\n", i, rec)
	}
	return b.String()
}

// renderRead renders a whole-table read: its error, or its schema and
// records.
func renderRead(tab *affidavit.Table, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "schema: %v\n", tab.Schema().Attrs())
	for i := 0; i < tab.Len(); i++ {
		fmt.Fprintf(&b, "%d: %q\n", i, []string(tab.Record(i)))
	}
	return b.String()
}

// checkParseError fails unless got carries the same *csv.ParseError as
// want, or neither carries one.
func checkParseError(t *testing.T, got, want error) {
	t.Helper()
	var g, w *csv.ParseError
	gotOK, wantOK := errors.As(got, &g), errors.As(want, &w)
	if gotOK != wantOK || gotOK && *g != *w {
		t.Errorf("parse error = %#v, want %#v", g, w)
	}
}

// FuzzJSONLSource: arbitrary bytes through the JSONL ingest boundary must
// not panic and must read identically twice. This locks in the sorted-key
// error determinism the mapiter analyzer forced onto jsonlSource.record.
func FuzzJSONLSource(f *testing.F) {
	f.Add([]byte(`{"a":"1","b":"2"}` + "\n" + `{"b":"4","a":"3"}` + "\n"))
	f.Add([]byte(`{"a":1.50,"b":true,"c":null}` + "\n"))
	f.Add([]byte(`{"a":{"nested":1}}` + "\n"))
	f.Add([]byte(`{"z8":"1","z5":"1","z2":"1","z1":"1"}` + "\n" + `{"q":"0"}` + "\n"))
	f.Add([]byte("not json\n"))
	f.Add([]byte("\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		first := drain(affidavit.NewJSONLSource(bytes.NewReader(data)))
		second := drain(affidavit.NewJSONLSource(bytes.NewReader(data)))
		if first != second {
			t.Errorf("two reads of the same JSONL bytes diverge:\n--- first\n%s\n--- second\n%s", first, second)
		}
	})
}

// fuzzTable parses CSV fuzz bytes into a bounded table: small enough that
// an explanation run stays cheap, nil when the bytes don't describe one.
func fuzzTable(data []byte) (*affidavit.Table, bool) {
	src := affidavit.NewCSVSource(bytes.NewReader(data))
	defer src.Close()
	schema, err := src.Open()
	if err != nil || schema.Len() > 6 {
		return nil, false
	}
	var rows []affidavit.Record
	for {
		rec, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil || len(rows) >= 24 {
			return nil, false
		}
		rows = append(rows, rec)
	}
	if len(rows) == 0 {
		return nil, false
	}
	tab, err := affidavit.NewTable(schema, rows)
	if err != nil {
		return nil, false
	}
	return tab, true
}

// FuzzResultJSON: explain a pair of fuzzed snapshots and encode the result
// under a fuzzed table name. Result.JSON must equal its oracle,
// json.MarshalIndent over JSONResult, byte for byte; the encoding must stay
// valid, decode onto JSONResult without loss of the deterministic fields,
// and re-encode byte-identically (Result.JSON promises a stable field
// order).
func FuzzResultJSON(f *testing.F) {
	f.Add([]byte("a,b\n1,x\n2,y\n"), []byte("a,b\n1,x\n2,z\n"), "snapshots")
	f.Add([]byte("v\n10\n20\n30\n"), []byte("v\n11\n21\n31\n"), "")
	f.Add([]byte("s\nfoo\nbar\n"), []byte("s\nFOO\nBAR\n"), "t\"'\\<>&\b\f\x01\xff")
	f.Add([]byte("s\n\"a\b\"\n\"<&>\"\n"), []byte("s\n\"a\f\"\n\xe2\x80\xa8\n"), "\xe2\x80\xa9")
	f.Fuzz(func(t *testing.T, srcData, tgtData []byte, table string) {
		src, ok := fuzzTable(srcData)
		if !ok {
			t.Skip()
		}
		tgt, ok := fuzzTable(tgtData)
		if !ok {
			t.Skip()
		}
		ex := newExplainer(t, affidavit.WithSeed(7))
		res, err := ex.Explain(context.Background(), src, tgt)
		if err != nil {
			t.Skip() // schema mismatch etc. — not this fuzzer's concern
		}
		raw, err := res.JSON(table)
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		want := res.JSONResult(table)
		oracle, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, oracle) {
			t.Fatalf("Result.JSON differs from MarshalIndent of JSONResult:\n got %q\nwant %q", raw, oracle)
		}
		if !json.Valid(raw) {
			t.Fatalf("Result.JSON emitted invalid JSON:\n%s", raw)
		}
		var decoded affidavit.JSONResult
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatalf("round-trip decode: %v\n%s", err, raw)
		}
		if decoded.Cost != want.Cost || decoded.TrivialCost != want.TrivialCost ||
			decoded.Stats != want.Stats || (decoded.Table != want.Table && utf8.ValidString(want.Table)) {
			t.Errorf("round-trip lost fields:\n got %+v\nwant %+v", decoded, want)
		}
		again, err := res.JSON(table)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, again) {
			t.Error("two encodings of the same Result differ")
		}
	})
}
