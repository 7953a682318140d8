package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
)

// ReadCSV parses a table from CSV, interning row by row. The first row is
// the header and becomes the schema. Rows must be rectangular.
func ReadCSV(r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // validate ourselves for a better message
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("table: csv has no header row")
	}
	if err != nil {
		return nil, fmt.Errorf("table: reading csv: %w", err)
	}
	schema, err := NewSchema(header...)
	if err != nil {
		return nil, err
	}
	t := New(schema)
	for {
		row, err := cr.Read()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, fmt.Errorf("table: reading csv: %w", err)
		}
		if len(row) != schema.Len() {
			return nil, fmt.Errorf("table: csv row %d has %d fields, header has %d", t.n+2, len(row), schema.Len())
		}
		t.intern(row)
	}
}

// ReadCSVFile parses a table from the CSV file at path.
func ReadCSVFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f)
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
