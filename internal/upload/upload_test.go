package upload_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"affidavit"
	"affidavit/internal/jobs"
	"affidavit/internal/upload"
)

// part is one multipart part of a test upload.
type part struct{ name, body string }

// request builds a multipart POST carrying parts in order.
func request(t *testing.T, parts ...part) *http.Request {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, p := range parts {
		w, err := mw.CreateFormField(p.name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(w, p.body); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := http.NewRequest(http.MethodPost, "/explain?table=q", &buf)
	if err != nil {
		t.Fatal(err)
	}
	r.Header.Set("Content-Type", mw.FormDataContentType())
	return r
}

// rawRequest builds a POST of a hand-written body under ctype.
func rawRequest(t *testing.T, ctype, body string) *http.Request {
	t.Helper()
	r, err := http.NewRequest(http.MethodPost, "/explain?table=q", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r.Header.Set("Content-Type", ctype)
	return r
}

// lfBody writes parts as a multipart body whose delimiter lines end in a
// bare LF, as hand-rolled clients send them.
func lfBody(boundary string, parts ...part) string {
	var s strings.Builder
	for _, p := range parts {
		fmt.Fprintf(&s, "--%s\nContent-Disposition: form-data; name=%q\n\n%s\n", boundary, p.name, p.body)
	}
	fmt.Fprintf(&s, "--%s--\n", boundary)
	return s.String()
}

// blobStore opens a durable job store in a fresh directory and returns its
// blob store and the directory blobs and spools land in.
func blobStore(t testing.TB) (*jobs.BlobStore, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := jobs.Open(jobs.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st.Blobs(), filepath.Join(dir, "blobs")
}

// entries lists the blob directory: committed blobs and open spools.
func entries(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

// fields returns n distinct form fields.
func fields(n int) []part {
	ps := make([]part, n)
	for i := range ps {
		ps[i] = part{fmt.Sprintf("f%02d", i), "v"}
	}
	return ps
}

const (
	srcCSV = "id,v\n1,a\n2,b\n"
	tgtCSV = "id,v\n1,A\n2,B\n"
)

// TestSpool is Spool's contract over one table of bodies: parts in any
// order, a repeated file part keeps the last, and each cap accepts exactly
// its limit and rejects one more. So do the limits the multipart reader
// sets itself: a header block must fit in its 64 KiB window, and the
// Content-Type must be multipart with a boundary. A successful Spool holds
// one spool per file part and nothing else; a failed one — which the
// daemon answers 400 — leaves the blob directory empty: no committed blob
// and no spool.
func TestSpool(t *testing.T) {
	const capN = 16
	lim := upload.Limits{FieldBytes: capN, SnapshotBytes: 64}
	src, tgt := part{"source", srcCSV}, part{"target", tgtCSV}
	const lfType = "multipart/form-data; boundary=lf"
	bigHeader := "--lf\nContent-Disposition: form-data; name=\"source\"\nX-Pad: " + strings.Repeat("x", 64<<10) +
		"\n\n" + srcCSV + "\n" + lfBody("lf", tgt)
	cases := []struct {
		name    string
		parts   []part
		ctype   string // with raw: a hand-written body in place of parts
		raw     string
		lim     upload.Limits
		wantErr string            // substring of the error; "" = success
		files   map[string]string // success: each file part's spooled bytes
		form    map[string]string // success: form values read back
	}{
		{name: "files first", parts: []part{src, tgt, {"seed", "7"}}, lim: lim,
			files: map[string]string{"source": srcCSV, "target": tgtCSV}, form: map[string]string{"seed": "7"}},
		{name: "fields first, files reversed", parts: []part{{"seed", "7"}, tgt, src}, lim: lim,
			files: map[string]string{"source": srcCSV, "target": tgtCSV}, form: map[string]string{"seed": "7"}},
		{name: "file part twice keeps the last", parts: []part{{"source", "id\n9\n"}, tgt, src}, lim: lim,
			files: map[string]string{"source": srcCSV, "target": tgtCSV}},
		{name: "field at the cap", parts: []part{src, tgt, {"note", strings.Repeat("x", capN)}}, lim: lim,
			files: map[string]string{"source": srcCSV, "target": tgtCSV}, form: map[string]string{"note": strings.Repeat("x", capN)}},
		{name: "field over the cap", parts: []part{src, {"note", strings.Repeat("x", capN+1)}, tgt}, lim: lim,
			wantErr: "exceeds 16 bytes"},
		{name: "64 form fields", parts: append([]part{src, tgt}, fields(64)...), lim: lim,
			files: map[string]string{"source": srcCSV, "target": tgtCSV}, form: map[string]string{"f63": "v"}},
		{name: "65th form field", parts: append([]part{src, tgt}, fields(65)...), lim: lim,
			wantErr: "too many form fields"},
		{name: "snapshot at the cap", parts: []part{src, tgt},
			lim:   upload.Limits{FieldBytes: capN, SnapshotBytes: int64(len(srcCSV))},
			files: map[string]string{"source": srcCSV, "target": tgtCSV}},
		{name: "snapshot over the cap", parts: []part{src, tgt},
			lim:     upload.Limits{FieldBytes: capN, SnapshotBytes: int64(len(srcCSV)) - 1},
			wantErr: "byte limit"},
		{name: "missing file part", parts: []part{src, {"seed", "7"}}, lim: lim,
			wantErr: `missing "target" file`},
		{name: "LF-only body", ctype: lfType, raw: lfBody("lf", part{"seed", "7"}, src, tgt), lim: lim,
			files: map[string]string{"source": srcCSV, "target": tgtCSV}, form: map[string]string{"seed": "7"}},
		{name: "snapshot over the cap, LF-only body", ctype: lfType, raw: lfBody("lf", src, tgt),
			lim:     upload.Limits{FieldBytes: capN, SnapshotBytes: int64(len(srcCSV)) - 1},
			wantErr: "byte limit"},
		{name: "header block over the window", ctype: lfType, raw: bigHeader, lim: lim,
			wantErr: "header block exceeds 64 KiB"},
		{name: "not multipart", ctype: "text/csv", raw: srcCSV, lim: lim,
			wantErr: "isn't multipart"},
		{name: "missing boundary", ctype: "multipart/form-data", raw: lfBody("lf", src, tgt), lim: lim,
			wantErr: "no multipart boundary"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			blobs, dir := blobStore(t)
			r := request(t, c.parts...)
			if c.raw != "" {
				r = rawRequest(t, c.ctype, c.raw)
			}
			b, err := upload.Spool(r, blobs, c.lim, "source", "target")
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, c.wantErr)
				}
				if left := entries(t, dir); len(left) != 0 {
					t.Errorf("failed Spool left %v behind", left)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if left := entries(t, dir); len(left) != len(c.files) {
				t.Errorf("blob directory holds %v, want one spool per file part", left)
			}
			for name, want := range c.files {
				rd, err := b.Files[name].Rewind()
				if err != nil {
					t.Fatal(err)
				}
				got, err := io.ReadAll(rd)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != want {
					t.Errorf("%s spooled %q, want %q", name, got, want)
				}
			}
			for key, want := range c.form {
				if got := b.Value(key); got != want {
					t.Errorf("Value(%q) = %q, want %q", key, got, want)
				}
			}
			if got := b.Value("table"); got != "q" {
				t.Errorf("query value table = %q, want q", got)
			}
			b.Discard()
			if left := entries(t, dir); len(left) != 0 {
				t.Errorf("Discard left %v behind", left)
			}
		})
	}
}

// TestIngestRecordCap: Ingest interns a snapshot of exactly Records
// records and rejects one more.
func TestIngestRecordCap(t *testing.T) {
	const capN = 3
	ex, err := affidavit.New()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		records int
		ok      bool
	}{{capN, true}, {capN + 1, false}} {
		t.Run(fmt.Sprintf("%d records", c.records), func(t *testing.T) {
			csv := "id,v\n"
			for i := 0; i < c.records; i++ {
				csv += fmt.Sprintf("%d,x\n", i)
			}
			blobs, dir := blobStore(t)
			b, err := upload.Spool(request(t, part{"source", csv}), blobs, upload.Limits{FieldBytes: 16, Records: capN}, "source")
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				b.Discard()
				if left := entries(t, dir); len(left) != 0 {
					t.Errorf("Discard left %v behind", left)
				}
			}()
			tab, err := b.Ingest(context.Background(), ex.ReadSourceNamed, "source")
			if !c.ok {
				if err == nil || !strings.Contains(err.Error(), "record limit") {
					t.Fatalf("err = %v, want the record limit", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tab.Len() != c.records {
				t.Errorf("ingested %d records, want %d", tab.Len(), c.records)
			}
		})
	}
}

// BenchmarkSpool times Spool over one file part — the whole cost of a
// duplicate upload before its content address is known — for 200 KB and
// 800 KB CSV bodies with LF and with CRLF line ends.
func BenchmarkSpool(b *testing.B) {
	for _, size := range []int{200_000, 800_000} {
		for _, nl := range []struct{ name, s string }{{"LF", "\n"}, {"CRLF", "\r\n"}} {
			var csv bytes.Buffer
			csv.WriteString("id,name,amount" + nl.s)
			for i := 0; csv.Len() < size; i++ {
				fmt.Fprintf(&csv, "%d,customer-%d,%d.%02d%s", i, i%977, i*37%100000, i%100, nl.s)
			}
			var body bytes.Buffer
			mw := multipart.NewWriter(&body)
			w, err := mw.CreateFormFile("snapshot", "snapshot.csv")
			if err != nil {
				b.Fatal(err)
			}
			w.Write(csv.Bytes())
			mw.Close()
			b.Run(fmt.Sprintf("%dKB/%s", size/1000, nl.name), func(b *testing.B) {
				blobs, _ := blobStore(b)
				b.SetBytes(int64(body.Len()))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r, err := http.NewRequest(http.MethodPost, "/tables/t/snapshots", bytes.NewReader(body.Bytes()))
					if err != nil {
						b.Fatal(err)
					}
					r.Header.Set("Content-Type", mw.FormDataContentType())
					up, err := upload.Spool(r, blobs, upload.Limits{FieldBytes: 1 << 10}, "snapshot")
					if err != nil {
						b.Fatal(err)
					}
					up.Discard()
				}
			})
		}
	}
}
