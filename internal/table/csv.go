package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
)

// WriteCSV writes the table to w as RFC 4180 CSV with a header row.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(t.schema))
	for i, f := range t.schema {
		header[i] = f.Name
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("table: writing header: %w", err)
	}
	rec := make([]string, len(t.schema))
	for r := 0; r < t.rows; r++ {
		for c, f := range t.schema {
			switch f.Type {
			case Int64:
				rec[c] = strconv.FormatInt(t.cols[c].ints[r], 10)
			case Float64:
				rec[c] = strconv.FormatFloat(t.cols[c].floats[r], 'g', -1, 64)
			case String:
				rec[c] = t.cols[c].strings[r]
			case Bool:
				rec[c] = strconv.FormatBool(t.cols[c].bools[r])
			}
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("table: writing row %d: %w", r, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the table to the named file, creating or truncating it.
func (t *Table) WriteCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		_ = f.Close() // the write error is the one worth returning
		return err
	}
	return f.Close()
}

// ReadCSVFile reads the named CSV file into a new table.
func ReadCSVFile(path string, schema Schema) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f, schema)
}
