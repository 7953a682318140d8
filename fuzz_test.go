package affidavit_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

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
	f.Add([]byte("a,b\n1,2\n3,4\n"))
	f.Add([]byte("a,b\n1,2,3\n"))
	f.Add([]byte(`a,"b c"` + "\n" + `"x""y",2` + "\n"))
	f.Add([]byte(""))
	f.Add([]byte("héç,∆\nä,ß\n"))
	f.Add([]byte("a\n\"unterminated\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		first := drain(affidavit.NewCSVSource(bytes.NewReader(data)))
		second := drain(affidavit.NewCSVSource(bytes.NewReader(data)))
		if first != second {
			t.Errorf("two reads of the same CSV bytes diverge:\n--- first\n%s\n--- second\n%s", first, second)
		}
	})
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

// FuzzResultJSON: explain a pair of fuzzed snapshots and round-trip the
// result's JSON — the encoding must stay valid, decode onto JSONResult
// without loss of the deterministic fields, and re-encode byte-identically
// (Result.JSON promises a stable field order).
func FuzzResultJSON(f *testing.F) {
	f.Add([]byte("a,b\n1,x\n2,y\n"), []byte("a,b\n1,x\n2,z\n"))
	f.Add([]byte("v\n10\n20\n30\n"), []byte("v\n11\n21\n31\n"))
	f.Add([]byte("s\nfoo\nbar\n"), []byte("s\nFOO\nBAR\n"))
	f.Fuzz(func(t *testing.T, srcData, tgtData []byte) {
		src, ok := fuzzTable(srcData)
		if !ok {
			t.Skip()
		}
		tgt, ok := fuzzTable(tgtData)
		if !ok {
			t.Skip()
		}
		ex := newExplainer(t, affidavit.WithSeed(7), affidavit.WithMaxExpansions(50))
		res, err := ex.Explain(context.Background(), src, tgt)
		if err != nil {
			t.Skip() // schema mismatch etc. — not this fuzzer's concern
		}
		raw, err := res.JSON("snapshots")
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		if !json.Valid(raw) {
			t.Fatalf("Result.JSON emitted invalid JSON:\n%s", raw)
		}
		var decoded affidavit.JSONResult
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatalf("round-trip decode: %v\n%s", err, raw)
		}
		want := res.JSONResult("snapshots")
		if decoded.Cost != want.Cost || decoded.TrivialCost != want.TrivialCost ||
			decoded.Stats != want.Stats || decoded.Table != want.Table {
			t.Errorf("round-trip lost fields:\n got %+v\nwant %+v", decoded, want)
		}
		again, err := res.JSON("snapshots")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, again) {
			t.Error("two encodings of the same Result differ")
		}
	})
}
