package table

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
)

// readBufferSize is the line buffer of ReadCSV's byte-level fast path. A
// longer line is handed to encoding/csv, which has no line limit.
const readBufferSize = 64 << 10

// chunkRows is how many rows of one column a chunk holds while ReadCSV
// builds the table.
const chunkRows = 16 << 10

// ReadCSV reads a CSV stream with a header row into a new table. The schema
// gives the expected columns; the header must contain every schema column
// (extra CSV columns are ignored), in any order. Values failing to parse as
// the declared type, and NaN or infinite values in a Float64 column, produce
// an error naming the row (counted from 0, after the header) and column.
//
// ReadCSV accepts and rejects exactly what encoding/csv with default
// settings does, and its CSV syntax errors are encoding/csv's *ParseError
// with the same lines and columns. It splits lines without quotes itself
// and hands the rest of the stream to encoding/csv from the first line that
// holds a quote or outgrows its buffer; FuzzReadCSV pins the two paths to
// a plain encoding/csv reader.
func ReadCSV(r io.Reader, schema Schema) (*Table, error) {
	return readCSV(r, schema, readBufferSize)
}

// readCSV is ReadCSV with a line buffer of bufSize bytes.
func readCSV(r io.Reader, schema Schema, bufSize int) (*Table, error) {
	rr := &recordReader{br: bufio.NewReaderSize(r, bufSize)}
	header, err := rr.next()
	if err != nil {
		return nil, fmt.Errorf("table: reading header: %w", err)
	}
	colPos := make([]int, len(schema))
	for i, f := range schema {
		colPos[i] = -1
		for j, h := range header {
			if string(h) == f.Name {
				colPos[i] = j
				break
			}
		}
		if colPos[i] < 0 {
			return nil, fmt.Errorf("table: CSV missing column %q", f.Name)
		}
	}

	t := New(schema)
	cols := make([]columnChunks, len(schema))
	for {
		rec, err := rr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("table: reading row %d: %w", t.rows, err)
		}
		for i, f := range schema {
			if err := cols[i].add(f.Type, rec[colPos[i]]); err != nil {
				return nil, fmt.Errorf("table: row %d column %q: %w", t.rows, f.Name, err)
			}
		}
		t.rows++
	}
	for i, f := range schema {
		cols[i].flatten(f.Type, &t.cols[i])
	}
	return t, nil
}

// recordReader yields the records of a CSV stream as field byte slices,
// valid until the next call. It splits each line at the byte level,
// mirroring encoding/csv's reader: a "\n" ends a line, one "\r" before it
// or before EOF is dropped, empty lines are skipped, and every record must
// have the header's field count. The first line that holds a quote, or that
// does not fit the buffer, hands the rest of the stream to encoding/csv.
type recordReader struct {
	br     *bufio.Reader
	lines  int // input lines the byte-level path consumed
	width  int // fields per record, set by the header
	fields [][]byte

	// After the hand-off, cr reads the stream and buf holds the bytes of
	// its current record's fields.
	cr  *csv.Reader
	buf []byte
}

func (rr *recordReader) next() ([][]byte, error) {
	if rr.cr != nil {
		return rr.nextHandedOff()
	}
	for {
		line, err := rr.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull || bytes.IndexByte(line, '"') >= 0 {
			rr.handOff(line, err)
			return rr.nextHandedOff()
		}
		if err != nil && err != io.EOF {
			return nil, err
		}
		if len(line) == 0 {
			return nil, io.EOF
		}
		rr.lines++
		if line[len(line)-1] == '\n' {
			line = line[:len(line)-1]
		}
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		if len(line) == 0 {
			continue
		}

		rr.fields = rr.fields[:0]
		for {
			j := bytes.IndexByte(line, ',')
			if j < 0 {
				break
			}
			rr.fields = append(rr.fields, line[:j])
			line = line[j+1:]
		}
		rr.fields = append(rr.fields, line)
		if rr.width == 0 {
			rr.width = len(rr.fields)
		} else if len(rr.fields) != rr.width {
			return nil, &csv.ParseError{StartLine: rr.lines, Line: rr.lines, Column: 1, Err: csv.ErrFieldCount}
		}
		return rr.fields, nil
	}
}

// handOff gives encoding/csv the stream from line on. err is what reading
// line returned; a read error other than EOF is passed on after line, as
// the underlying reader may not return it again.
func (rr *recordReader) handOff(line []byte, err error) {
	var rest io.Reader = rr.br
	if err != nil && err != bufio.ErrBufferFull && err != io.EOF {
		rest = errReader{err}
	}
	rr.cr = csv.NewReader(io.MultiReader(bytes.NewReader(bytes.Clone(line)), rest))
	rr.cr.FieldsPerRecord = rr.width // 0 before the header: csv sets it
	rr.cr.ReuseRecord = true
}

// nextHandedOff reads the next record through encoding/csv. Its lines count
// from the hand-off, so a *csv.ParseError is moved by the lines read before.
func (rr *recordReader) nextHandedOff() ([][]byte, error) {
	rec, err := rr.cr.Read()
	if err != nil {
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			pe.StartLine += rr.lines
			pe.Line += rr.lines
		}
		return nil, err
	}
	rr.buf = rr.buf[:0]
	for _, f := range rec {
		rr.buf = append(rr.buf, f...)
	}
	rr.fields = rr.fields[:0]
	off := 0
	for _, f := range rec {
		rr.fields = append(rr.fields, rr.buf[off:off+len(f)])
		off += len(f)
	}
	return rr.fields, nil
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// columnChunks accumulates one column's parsed values; only the chunks of
// the column's type are used.
type columnChunks struct {
	ints    chunks[int64]
	floats  chunks[float64]
	strings chunks[string]
	bools   chunks[bool]
}

// add parses raw as typ and appends it.
func (c *columnChunks) add(typ Type, raw []byte) error {
	switch typ {
	case Int64:
		v, err := parseInt(raw)
		if err != nil {
			return err
		}
		c.ints.add(v)
	case Float64:
		v, err := parseFloat(raw)
		if err != nil {
			return err
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite value %q", raw)
		}
		c.floats.add(v)
	case String:
		c.strings.add(string(raw))
	case Bool:
		v, err := parseBool(raw)
		if err != nil {
			return err
		}
		c.bools.add(v)
	}
	return nil
}

// flatten moves the values into dst's slice of typ.
func (c *columnChunks) flatten(typ Type, dst *column) {
	switch typ {
	case Int64:
		dst.ints = c.ints.flatten()
	case Float64:
		dst.floats = c.floats.flatten()
	case String:
		dst.strings = c.strings.flatten()
	case Bool:
		dst.bools = c.bools.flatten()
	}
}

// chunks grows a column in fixed chunks of chunkRows values, so growing it
// never copies what it already holds; flatten copies it once.
type chunks[T any] struct {
	full [][]T
	cur  []T
}

func (c *chunks[T]) add(v T) {
	if len(c.cur) == chunkRows {
		c.full = append(c.full, c.cur)
		c.cur = make([]T, 0, chunkRows)
	}
	c.cur = append(c.cur, v)
}

// flatten returns the values as one slice, of exactly their number once
// there is more than one chunk, and drops each chunk as it is copied.
func (c *chunks[T]) flatten() []T {
	if len(c.full) == 0 {
		return c.cur
	}
	out := make([]T, 0, len(c.full)*chunkRows+len(c.cur))
	for i, ch := range c.full {
		out = append(out, ch...)
		c.full[i] = nil
	}
	out = append(out, c.cur...)
	c.cur = nil
	return out
}
