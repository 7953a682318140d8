package affidavit

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"affidavit/internal/table"
)

// Source yields one snapshot's records incrementally, so an Explainer can
// intern them into the columnar backend chunk-by-chunk — a streamed
// snapshot never exists in memory as a [][]string. Implementations are
// single-use: Open prepares iteration and returns the schema, Next returns
// records until io.EOF, Close releases resources (and must be safe to call
// even after an error).
//
// Built-in sources cover the common transports — NewCSVSource (RFC 4180,
// header row = schema) and NewJSONLSource (one JSON object per line).
// Anything else, an in-memory table or a database/sql result set, just
// implements the three methods.
type Source interface {
	// Open prepares iteration and returns the snapshot's schema.
	Open() (*Schema, error)
	// Next returns the next record, or io.EOF when the snapshot is
	// exhausted. Returned records are owned by the caller.
	Next() (Record, error)
	// Close releases underlying resources.
	Close() error
}

// csvSource streams records out of CSV: the header row becomes the schema,
// every subsequent row one record, read row-at-a-time off the underlying
// reader. Next is the record view; an ingest drain feeds the rows' bytes
// straight into its table builder instead (Feed).
type csvSource struct {
	open   func() (io.Reader, io.Closer, error)
	cr     *table.CSVReader
	closer io.Closer
	schema *Schema
	row    int
}

// NewCSVSource returns a streaming Source over CSV content (first row =
// header). The reader is consumed incrementally; it is never buffered
// whole.
func NewCSVSource(r io.Reader) Source {
	return &csvSource{open: func() (io.Reader, io.Closer, error) { return r, nil, nil }}
}

// csvFileSource returns a streaming Source over the CSV file at path. The
// file is opened lazily by Open and closed by Close.
func csvFileSource(path string) Source {
	return &csvSource{open: func() (io.Reader, io.Closer, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		return f, f, nil
	}}
}

func (s *csvSource) Open() (*Schema, error) {
	r, closer, err := s.open()
	if err != nil {
		return nil, err
	}
	s.closer = closer
	s.cr = table.NewCSVReader(r)
	header, err := s.cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("affidavit: csv has no header row")
	}
	if err != nil {
		return nil, fmt.Errorf("affidavit: reading csv header: %w", err)
	}
	s.schema, err = NewSchema(header...)
	if err != nil {
		return nil, err
	}
	s.row = 1
	return s.schema, nil
}

func (s *csvSource) Next() (Record, error) {
	rec, err := s.cr.Read()
	if err := s.check(len(rec), err); err != nil {
		return nil, err
	}
	return rec, nil
}

// Feed appends the next row to b without making a Record: its fields go
// from the reader's bytes straight to codes. Errors read as Next's.
func (s *csvSource) Feed(b *table.Builder) error {
	return s.check(b.AppendCSV(s.cr))
}

// check turns the outcome of reading one row of n fields into Next's
// error: io.EOF, a read error, or a row of the wrong width.
func (s *csvSource) check(n int, err error) error {
	if err == io.EOF {
		return io.EOF
	}
	if err != nil {
		return fmt.Errorf("affidavit: reading csv: %w", err)
	}
	s.row++
	if n != s.schema.Len() {
		return fmt.Errorf("affidavit: csv row %d has %d fields, header has %d", s.row, n, s.schema.Len())
	}
	return nil
}

func (s *csvSource) Close() error {
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}

// jsonlSource streams records out of JSON Lines: one object per line, the
// schema derived from the first object's keys in document order (so the
// producer's column order is preserved, like a CSV header). Later objects
// may omit keys (empty string) but must not introduce new ones. Values may
// be strings, numbers (kept in their literal spelling), bools, or null
// (empty string).
type jsonlSource struct {
	r       io.Reader
	sc      *bufio.Scanner
	schema  *Schema
	pending Record // first record, decoded while deriving the schema
	line    int
	keybuf  []string // reused per record for sorted-key iteration
}

// NewJSONLSource returns a streaming Source over JSON Lines content.
func NewJSONLSource(r io.Reader) Source {
	return &jsonlSource{r: r}
}

func (s *jsonlSource) Open() (*Schema, error) {
	s.sc = bufio.NewScanner(s.r)
	s.sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	first, raw, err := s.nextObject()
	if err == io.EOF {
		return nil, fmt.Errorf("affidavit: jsonl has no records")
	}
	if err != nil {
		return nil, err
	}
	attrs, err := orderedKeys(raw)
	if err != nil {
		return nil, fmt.Errorf("affidavit: jsonl line %d: %w", s.line, err)
	}
	s.schema, err = NewSchema(attrs...)
	if err != nil {
		return nil, err
	}
	s.pending, err = s.record(first)
	if err != nil {
		return nil, err
	}
	return s.schema, nil
}

// orderedKeys extracts an object's keys in document order, so the first
// record's key order becomes the schema order (values must be scalars).
func orderedKeys(line []byte) ([]string, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return nil, fmt.Errorf("record is not a JSON object")
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		keys = append(keys, tok.(string))
		val, err := dec.Token()
		if err != nil {
			return nil, err
		}
		if _, nested := val.(json.Delim); nested {
			return nil, fmt.Errorf("key %q: nested values are not snapshot cells", keys[len(keys)-1])
		}
	}
	return keys, nil
}

// nextObject scans to the next non-blank line and decodes it, returning
// both the decoded object and the raw line (for ordered-key extraction).
func (s *jsonlSource) nextObject() (map[string]json.RawMessage, []byte, error) {
	for s.sc.Scan() {
		s.line++
		line := bytes.TrimSpace(s.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(line, &obj); err != nil {
			return nil, nil, fmt.Errorf("affidavit: jsonl line %d: %w", s.line, err)
		}
		return obj, line, nil
	}
	if err := s.sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("affidavit: reading jsonl: %w", err)
	}
	return nil, nil, io.EOF
}

// record flattens one decoded object onto the schema. Keys are visited in
// sorted order so that when several keys are invalid, the error always
// names the same one — map-order iteration would make failure messages
// (and therefore logs and test goldens) vary between runs.
func (s *jsonlSource) record(obj map[string]json.RawMessage) (Record, error) {
	keys := s.keybuf[:0]
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s.keybuf = keys

	rec := make(Record, s.schema.Len())
	for _, k := range keys {
		a := s.schema.Index(k)
		if a < 0 {
			return nil, fmt.Errorf("affidavit: jsonl line %d: key %q not in schema %v",
				s.line, k, s.schema.Attrs())
		}
		v, err := scalarString(obj[k])
		if err != nil {
			return nil, fmt.Errorf("affidavit: jsonl line %d, key %q: %w", s.line, k, err)
		}
		rec[a] = v
	}
	return rec, nil
}

// scalarString renders a JSON scalar as its snapshot value: strings
// verbatim, numbers in their literal spelling (no float round-trip), bools
// as true/false, null as the empty string.
func scalarString(raw json.RawMessage) (string, error) {
	b := bytes.TrimSpace(raw)
	if len(b) == 0 {
		return "", fmt.Errorf("empty value")
	}
	switch b[0] {
	case '"':
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return "", err
		}
		return s, nil
	case '{', '[':
		return "", fmt.Errorf("nested values are not snapshot cells")
	}
	if string(b) == "null" {
		return "", nil
	}
	// Numbers and booleans keep their literal spelling.
	return string(b), nil
}

func (s *jsonlSource) Next() (Record, error) {
	if s.pending != nil {
		rec := s.pending
		s.pending = nil
		return rec, nil
	}
	obj, _, err := s.nextObject()
	if err != nil {
		return nil, err
	}
	return s.record(obj)
}

func (s *jsonlSource) Close() error { return nil }
