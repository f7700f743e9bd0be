package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
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

// ReadCSV reads a CSV stream with a header row into a new table. The schema
// gives the expected columns; the header must contain every schema column
// (extra CSV columns are ignored), in any order. Values failing to parse as
// the declared type, and NaN or infinite values in a Float64 column, produce
// an error naming the row (counted from 0, after the header) and column.
func ReadCSV(r io.Reader, schema Schema) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("table: reading header: %w", err)
	}
	colPos := make([]int, len(schema))
	for i, f := range schema {
		colPos[i] = -1
		for j, h := range header {
			if h == f.Name {
				colPos[i] = j
				break
			}
		}
		if colPos[i] < 0 {
			return nil, fmt.Errorf("table: CSV missing column %q", f.Name)
		}
	}

	t := New(schema)
	row := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("table: reading row %d: %w", row, err)
		}
		for i, f := range schema {
			raw := rec[colPos[i]]
			switch f.Type {
			case Int64:
				v, err := strconv.ParseInt(raw, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("table: row %d column %q: %w", row, f.Name, err)
				}
				t.cols[i].ints = append(t.cols[i].ints, v)
			case Float64:
				v, err := strconv.ParseFloat(raw, 64)
				if err != nil {
					return nil, fmt.Errorf("table: row %d column %q: %w", row, f.Name, err)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("table: row %d column %q: non-finite value %q", row, f.Name, raw)
				}
				t.cols[i].floats = append(t.cols[i].floats, v)
			case String:
				t.cols[i].strings = append(t.cols[i].strings, raw)
			case Bool:
				v, err := strconv.ParseBool(raw)
				if err != nil {
					return nil, fmt.Errorf("table: row %d column %q: %w", row, f.Name, err)
				}
				t.cols[i].bools = append(t.cols[i].bools, v)
			}
		}
		t.rows++
		row++
	}
	return t, nil
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
