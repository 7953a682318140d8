package upload

import (
	"bytes"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"affidavit/internal/jobs"
)

// formPart is one part as both readers see it: its form name and its
// decoded bytes.
type formPart struct{ name, data string }

// stdlibParts reads body with mime/multipart, the oracle, until the
// first error.
func stdlibParts(ctype string, body []byte) ([]formPart, error) {
	r := bodyRequest(ctype, bytes.NewReader(body))
	mr, err := r.MultipartReader()
	if err != nil {
		return nil, err
	}
	var parts []formPart
	for {
		p, err := mr.NextPart()
		if err == io.EOF {
			return parts, nil
		}
		if err != nil {
			return parts, err
		}
		data, err := io.ReadAll(p)
		if err != nil {
			return parts, err
		}
		parts = append(parts, formPart{p.FormName(), string(data)})
	}
}

// ownParts reads body from rd with multipartReader until the first error.
func ownParts(ctype string, rd io.Reader) ([]formPart, error) {
	mr, err := newMultipartReader(bodyRequest(ctype, rd))
	if err != nil {
		return nil, err
	}
	var parts []formPart
	for {
		name, p, err := mr.next()
		if err == io.EOF {
			return parts, nil
		}
		if err != nil {
			return parts, err
		}
		data, err := io.ReadAll(p)
		if err != nil {
			return parts, err
		}
		parts = append(parts, formPart{name, string(data)})
	}
}

func bodyRequest(ctype string, rd io.Reader) *http.Request {
	r, err := http.NewRequest(http.MethodPost, "/explain", rd)
	if err != nil {
		panic(err)
	}
	r.Header.Set("Content-Type", ctype)
	return r
}

// fuzzLimits leaves the field cap out of reach of fuzzed bodies, so a
// rejection comes from the body's structure or the field count.
var fuzzLimits = Limits{FieldBytes: 1 << 20}

// wantSpool applies Spool's rules to the oracle's parts: the last
// "source" part is the one file, every other part a form value, and the
// field count is capped. ok is false when Spool must fail.
func wantSpool(parts []formPart) (file string, form map[string]string, ok bool) {
	form = map[string]string{}
	seen := false
	for _, p := range parts {
		if p.name == "source" {
			file, seen = p.data, true
			continue
		}
		if len(form) >= maxFormFields || int64(len(p.data)) > fuzzLimits.FieldBytes {
			return "", nil, false
		}
		form[p.name] = p.data
	}
	return file, form, seen
}

// headerBlockOverWindow reports whether a header block of body may not fit
// in the window: some line starting "--boundary" is followed by more than
// windowSize bytes without a blank line. It over-approximates, since such
// a line may sit inside a part's data.
func headerBlockOverWindow(body []byte, boundary string) bool {
	dash := []byte("--" + boundary)
	for off := 0; ; {
		i := bytes.Index(body[off:], dash)
		if i < 0 {
			return false
		}
		off += i + len(dash)
		eol := bytes.IndexByte(body[off:], '\n')
		if eol < 0 {
			return false
		}
		rest := body[off+eol+1:]
		end := -1
		for at := 0; at <= len(rest); {
			j := bytes.IndexByte(rest[at:], '\n')
			if j < 0 {
				break
			}
			if line := rest[at : at+j]; len(line) == 0 || string(line) == "\r" {
				end = at + j + 1
				break
			}
			at += j + 1
		}
		if end < 0 && len(rest) > windowSize || end > windowSize {
			return true
		}
	}
}

// validBoundary reports whether b is an RFC 2046 boundary: 1 to 70
// characters from bchars, not ending in a space. Only over such
// boundaries are mime/multipart's parts independent of how its reads
// fall, which makes it an oracle.
func validBoundary(b string) bool {
	if len(b) == 0 || len(b) > 70 || b[len(b)-1] == ' ' {
		return false
	}
	for _, c := range []byte(b) {
		ok := 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || strings.IndexByte("'()+_,-./:=? ", c) >= 0
		if !ok {
			return false
		}
	}
	return true
}

// FuzzSpool holds the package's multipart reader to mime/multipart over
// the same content type and body. Both must accept or reject it alike
// and yield the same (form name, bytes) sequence of parts before any
// error — the reader fed whole and, below 8 KiB, one byte per read; Spool must
// keep what the oracle's parts and Spool's rules say; and a rejected body
// must leave no spool in the blob directory.
//
// Bodies where a header block may exceed the window are excluded by size:
// there the reader refuses a block mime/multipart accepts up to 10 MiB,
// its one deliberate divergence, and a stricter one. So are content types
// whose boundary is not an RFC 2046 boundary, which no HTTP header
// carries in the cases that matter (a CR or LF in it).
func FuzzSpool(f *testing.F) {
	for _, s := range spoolSeeds() {
		f.Add(s.ctype, s.body)
	}
	dir := f.TempDir()
	st, err := jobs.Open(jobs.Options{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { st.Close() })
	blobDir := filepath.Join(dir, "blobs")

	f.Fuzz(func(t *testing.T, ctype string, body []byte) {
		_, params, err := mime.ParseMediaType(ctype)
		if boundary, ok := params["boundary"]; err == nil && ok {
			if !validBoundary(boundary) || headerBlockOverWindow(body, boundary) {
				t.Skip()
			}
		}
		want, wantErr := stdlibParts(ctype, body)
		readers := []io.Reader{bytes.NewReader(body)}
		if len(body) < 8<<10 { // larger bodies would slow the fuzzer down
			readers = append(readers, iotest.OneByteReader(bytes.NewReader(body)))
		}
		for _, rd := range readers {
			got, gotErr := ownParts(ctype, rd)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("reader err = %v, mime/multipart err = %v", gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("reader parts:\n%q\nmime/multipart parts:\n%q", got, want)
			}
		}

		file, form, ok := wantSpool(want)
		ok = ok && wantErr == nil
		b, err := Spool(bodyRequest(ctype, bytes.NewReader(body)), st.Blobs(), fuzzLimits, "source")
		if (err == nil) != ok {
			t.Fatalf("Spool err = %v, want success %v (mime/multipart err %v)", err, ok, wantErr)
		}
		if err == nil {
			rd, err := b.Files["source"].Rewind()
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(rd)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != file {
				t.Errorf("spooled %q, want %q", got, file)
			}
			if !reflect.DeepEqual(b.form, form) {
				t.Errorf("form values %q, want %q", b.form, form)
			}
			b.Discard()
		}
		des, err := os.ReadDir(blobDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range des {
			t.Errorf("blob directory holds %s after the upload ended", de.Name())
		}
	})
}

type spoolSeed struct {
	ctype string
	body  []byte
}

// spoolSeeds are FuzzSpool's starting bodies: what uploads look like,
// what sits next to a delimiter, and where the window ends.
func spoolSeeds() []spoolSeed {
	const b = "fuzzboundary"
	ctype := "multipart/form-data; boundary=" + b
	lfCSV := "id,v\n1,a\n2,b\n"
	crlfCSV := "id,v\r\n1,a\r\n2,b\r\n"
	disp := func(name string) string {
		return "Content-Disposition: form-data; name=\"" + name + "\"\r\n"
	}
	seeds := []spoolSeed{
		written(b, "source", lfCSV, "target", lfCSV, "table", "t"),
		written(b, "source", crlfCSV, "target", crlfCSV),
		// LF-only delimiters throughout.
		{ctype, []byte("--" + b + "\nContent-Disposition: form-data; name=\"source\"\n\n" + lfCSV + "\n--" + b + "--\n")},
		// Look-alikes inside the data: a longer boundary, a delimiter
		// with one dash, a bare delimiter with no newline before it.
		{ctype, []byte("--" + b + "\r\n" + disp("source") + "\r\nid\r\n--" + b + "X\r\n--" + b + "-y\n--" + b + "\nz\r\n--" + b + "--\r\n")},
		// Preamble and epilogue.
		{ctype, []byte("preamble line\r\n\r\n--" + b + "\r\n" + disp("source") + "\r\n" + lfCSV + "\r\n--" + b + "--\r\nepilogue\r\n")},
		// An empty part, then one whose data starts with the delimiter.
		{ctype, []byte("--" + b + "\r\n" + disp("note") + "\r\n\r\n--" + b + "\r\n" + disp("source") + "\r\n--" + b + "--\r\n")},
		// Quoted-printable.
		{ctype, []byte("--" + b + "\r\n" + disp("source") + "Content-Transfer-Encoding: quoted-printable\r\n\r\nid,v=\r\n=3D1,caf=C3=A9\r\n--" + b + "--\r\n")},
		// A 70-character boundary, quoted because it holds a space.
		written(strings.Repeat("ab:d ", 11)+"x-_'()+,./=?xyz", "source", lfCSV),
		// The closing delimiter missing: data then EOF, and EOF right
		// after a delimiter line.
		{ctype, []byte("--" + b + "\r\n" + disp("source") + "\r\n" + lfCSV)},
		{ctype, []byte("--" + b + "\r\n" + disp("source") + "\r\n" + lfCSV + "\r\n--" + b + "\r\n")},
		// A header line cut off by the body's end: without its colon it
		// fails to parse, unless it fills mime/multipart's 4 KiB reads
		// exactly, which then end the parts.
		{ctype, []byte("--" + b + "\n0000000000000000")},
		{ctype, []byte("--" + b + "\r\n" + disp("source") + "\r\n" + lfCSV + "\r\n--" + b + "\r\n" + strings.Repeat("0", 4096))},
		// Content types the reader must refuse.
		{"text/csv", []byte(lfCSV)},
		{"multipart/form-data", []byte(lfCSV)},
		{"multipart/mixed; boundary=" + b, []byte("--" + b + "\r\n" + disp("source") + "\r\n" + lfCSV + "\r\n--" + b + "--\r\n")},
	}
	// mime/multipart's limits that a window holds: 4 KiB per line between
	// parts, 10000 header lines per part — each at and one over.
	for _, n := range []int{maxLineBytes - 1, maxLineBytes} {
		body := strings.Repeat("p", n) + "\n--" + b + "\r\n" + disp("source") + "\r\n" + lfCSV + "\r\n--" + b + "--\r\n"
		seeds = append(seeds, spoolSeed{ctype, []byte(body)})
	}
	for _, n := range []int{maxPartHeaders - 1, maxPartHeaders} {
		body := "--" + b + "\r\n" + disp("source") + strings.Repeat("A: b\r\n", n) + "\r\n" + lfCSV + "\r\n--" + b + "--\r\n"
		seeds = append(seeds, spoolSeed{ctype, []byte(body)})
	}
	// A delimiter straddling every offset around the first window's end.
	head := "--" + b + "\r\n" + disp("source") + "\r\n"
	delim := "\r\n--" + b + "--\r\n"
	row := "1234567,abcdefgh,xyz\n"
	for end := windowSize - len(delim) - 2; end <= windowSize+2; end++ {
		n := end - len(head)
		data := strings.Repeat(row, n/len(row)+1)[:n]
		seeds = append(seeds, spoolSeed{ctype, []byte(head + data + delim)})
	}
	return seeds
}

// written encodes name/value pairs as mime/multipart's writer would.
func written(boundary string, kv ...string) spoolSeed {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	if err := mw.SetBoundary(boundary); err != nil {
		panic(fmt.Sprintf("boundary %q: %v", boundary, err))
	}
	for i := 0; i < len(kv); i += 2 {
		w, err := mw.CreateFormField(kv[i])
		if err != nil {
			panic(err)
		}
		io.WriteString(w, kv[i+1])
	}
	mw.Close()
	return spoolSeed{mw.FormDataContentType(), buf.Bytes()}
}
