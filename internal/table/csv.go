package table

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"io"
	"io/fs"
	"os"
)

// CSVReader is the one CSV parser. It reads RFC 4180 CSV exactly as
// encoding/csv does with its defaults and FieldsPerRecord = -1: the same
// records, blank lines skipped, \r\n read as \n, a trailing \r before EOF
// dropped, and the same *csv.ParseError texts and positions. Unlike
// encoding/csv it leaves a record's fields as bytes, so a Builder interns
// them in place and makes a string only for a value its dictionary lacks.
type CSVReader struct {
	br      *bufio.Reader
	long    []byte // a line longer than br's buffer, reassembled
	numLine int
	size    int64  // input bytes when the reader knows them, else -1
	offset  int64  // input bytes consumed as lines so far
	raw     []byte // Read's record, laid out as readRecord lays it out
	ends    []int
}

// csvBufferSize is the reader's buffer: one read call per 64 KiB of input.
const csvBufferSize = 64 << 10

// NewCSVReader returns a reader over r.
func NewCSVReader(r io.Reader) *CSVReader {
	return &CSVReader{br: bufio.NewReaderSize(r, csvBufferSize), size: inputSize(r)}
}

// inputSize returns how many bytes r will yield when it can tell: the rest
// of an in-memory reader, or the size of a regular file. It is -1 otherwise.
func inputSize(r io.Reader) int64 {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size()
		}
	}
	return -1
}

// Read returns the next record as fresh strings, or io.EOF at the end of
// the input.
func (cr *CSVReader) Read() (Record, error) {
	var err error
	cr.raw, cr.ends, err = cr.readRecord(cr.raw[:0], cr.ends[:0])
	if err != nil {
		return nil, err
	}
	s := string(cr.raw) // one allocation for the whole record
	rec := make(Record, len(cr.ends))
	start := 0
	for i, end := range cr.ends {
		rec[i], start = s[start:end], end+1
	}
	return rec, nil
}

// expected extrapolates the input's record count from n records read so
// far; it is 0 when the input size is unknown.
func (cr *CSVReader) expected(n int) int {
	if cr.size <= 0 || cr.offset <= 0 {
		return 0
	}
	return int(int64(n) * cr.size / cr.offset)
}

// readLine returns the next input line, \r\n normalised to \n.
func (cr *CSVReader) readLine() ([]byte, error) {
	line, err := cr.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		cr.long = append(cr.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = cr.br.ReadSlice('\n')
			cr.long = append(cr.long, line...)
		}
		line = cr.long
	}
	n := len(line)
	if n > 0 && err == io.EOF {
		err = nil
		if line[n-1] == '\r' { // a trailing \r before EOF is dropped
			line = line[:n-1]
		}
	}
	cr.numLine++
	cr.offset += int64(n)
	if n := len(line); n >= 2 && line[n-2] == '\r' && line[n-1] == '\n' {
		line[n-2] = '\n'
		line = line[:n-1]
	}
	return line, err
}

// lengthNL is 1 when b ends in a newline, 0 otherwise.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// readRecord appends the next record's fields to raw, each followed by
// one separator byte, and the offset of each field's separator to ends:
// field i is raw[ends[i−1]+1 : ends[i]], from 0 for the first field in
// raw. On an error other than io.EOF the record read so far stays
// appended; the caller drops it.
func (cr *CSVReader) readRecord(raw []byte, ends []int) ([]byte, []int, error) {
	var line []byte
	var errRead error
	for errRead == nil {
		line, errRead = cr.readLine()
		if errRead == nil && len(line) == lengthNL(line) {
			continue // blank line
		}
		break
	}
	if errRead == io.EOF {
		return raw, ends, io.EOF
	}
	if body := line[:len(line)-lengthNL(line)]; bytes.IndexByte(body, '"') < 0 {
		// A line without quotes is its fields as they stand: copy it
		// whole, its commas as the separators.
		base := len(raw)
		raw = append(raw, body...)
		for i, c := range body {
			if c == ',' {
				ends = append(ends, base+i)
			}
		}
		ends, raw = append(ends, len(raw)), append(raw, ',')
		return raw, ends, errRead
	}
	var err error
	recLine, posLine, col := cr.numLine, cr.numLine, 1
parseField:
	for {
		if len(line) == 0 || line[0] != '"' {
			// An unquoted field runs to the next comma or the line's end
			// and may hold no quote.
			i := bytes.IndexByte(line, ',')
			field := line
			if i >= 0 {
				field = field[:i]
			} else {
				field = field[:len(field)-lengthNL(field)]
			}
			if j := bytes.IndexByte(field, '"'); j >= 0 {
				err = &csv.ParseError{StartLine: recLine, Line: cr.numLine, Column: col + j, Err: csv.ErrBareQuote}
				break parseField
			}
			raw = append(raw, field...)
			ends, raw = append(ends, len(raw)), append(raw, ',')
			if i < 0 {
				break parseField
			}
			line = line[i+1:]
			col += i + 1
			continue parseField
		}
		// A quoted field runs to the quote before a comma or the line's
		// end, across lines; "" is one quote.
		line = line[1:]
		col++
		for {
			i := bytes.IndexByte(line, '"')
			switch {
			case i >= 0:
				raw = append(raw, line[:i]...)
				line = line[i+1:]
				col += i + 1
				switch {
				case len(line) > 0 && line[0] == '"':
					raw = append(raw, '"')
					line = line[1:]
					col++
				case len(line) > 0 && line[0] == ',':
					line = line[1:]
					col++
					ends, raw = append(ends, len(raw)), append(raw, ',')
					continue parseField
				case lengthNL(line) == len(line):
					ends, raw = append(ends, len(raw)), append(raw, ',')
					break parseField
				default:
					err = &csv.ParseError{StartLine: recLine, Line: cr.numLine, Column: col - 1, Err: csv.ErrQuote}
					break parseField
				}
			case len(line) > 0:
				// The field goes on past this line.
				raw = append(raw, line...)
				if errRead != nil {
					break parseField
				}
				col += len(line)
				line, errRead = cr.readLine()
				if len(line) > 0 {
					posLine++
					col = 1
				}
				if errRead == io.EOF {
					errRead = nil
				}
			default:
				// The input ended inside the field.
				if errRead == nil {
					err = &csv.ParseError{StartLine: recLine, Line: posLine, Column: col, Err: csv.ErrQuote}
					break parseField
				}
				ends, raw = append(ends, len(raw)), append(raw, ',')
				break parseField
			}
		}
	}
	if err == nil {
		err = errRead
	}
	return raw, ends, err
}

// A Feeder appends its records straight into a Builder: the ingest path of
// a source whose records never need to exist as a Record.
type Feeder interface {
	// Feed appends the next record to b, or returns io.EOF when there is
	// none.
	Feed(b *Builder) error
}

// WriteCSV renders the table as CSV, header first.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.schema.attrs); err != nil {
		return err
	}
	rec := make(Record, len(t.cols))
	for i := 0; i < t.n; i++ {
		if err := cw.Write(t.decode(rec, i)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the table to the CSV file at path.
func (t *Table) WriteCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
