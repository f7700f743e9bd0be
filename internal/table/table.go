// Package table implements a small in-memory columnar table engine with CSV
// encoding and decoding, filtering, projection, sorting, and grouping.
//
// The LC-spatial-fairness pipeline is a data pipeline: it loads loan-
// application registers and point-of-interest files, filters them, joins them
// spatially against census tracts, and aggregates them by grid cell. This
// package is the storage and relational layer under that pipeline, in the
// spirit of the "thin geospatial/data libraries" the paper's implementation
// needed to build.
package table

import (
	"fmt"
)

// Type enumerates the column types the engine supports.
type Type int

// Supported column types.
const (
	Int64 Type = iota
	Float64
	String
	Bool
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Field describes one column: its name and type.
type Field struct {
	Name string
	Type Type
}

// Schema is an ordered list of fields.
type Schema []Field

// ColumnIndex returns the position of the named column, or -1 when absent.
func (s Schema) ColumnIndex(name string) int {
	for i, f := range s {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// column holds the values of one column in a dense typed slice; only the
// slice matching the field's type is non-nil.
type column struct {
	ints    []int64
	floats  []float64
	strings []string
	bools   []bool
}

// Table is an immutable-schema, append-only columnar table.
type Table struct {
	schema Schema
	cols   []column
	rows   int
}

// New returns an empty table with the given schema. It panics on a schema
// with duplicate column names, which is a programming error.
func New(schema Schema) *Table {
	seen := make(map[string]bool, len(schema))
	for _, f := range schema {
		if seen[f.Name] {
			panic(fmt.Sprintf("table: duplicate column %q", f.Name))
		}
		seen[f.Name] = true
	}
	return &Table{schema: append(Schema(nil), schema...), cols: make([]column, len(schema))}
}

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return t.rows }

// mustCol returns the index of the named column with the given type, and
// panics otherwise: column access by wrong name or type is a programming
// error in this codebase, not a runtime condition.
func (t *Table) mustCol(name string, typ Type) int {
	i := t.schema.ColumnIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("table: no column %q", name))
	}
	if t.schema[i].Type != typ {
		panic(fmt.Sprintf("table: column %q is %s, not %s", name, t.schema[i].Type, typ))
	}
	return i
}

// Int64s returns the backing slice of an int64 column. The caller must not
// append to it; reading and in-place mutation are allowed.
func (t *Table) Int64s(name string) []int64 { return t.cols[t.mustCol(name, Int64)].ints }

// Floats returns the backing slice of a float64 column.
func (t *Table) Floats(name string) []float64 { return t.cols[t.mustCol(name, Float64)].floats }

// Strings returns the backing slice of a string column.
func (t *Table) Strings(name string) []string { return t.cols[t.mustCol(name, String)].strings }

// Bools returns the backing slice of a bool column.
func (t *Table) Bools(name string) []bool { return t.cols[t.mustCol(name, Bool)].bools }

// AppendRow appends one row. vals must have one entry per column, each of the
// column's Go type (int64, float64, string, or bool). It returns an error on
// arity or type mismatch so that data-loading code can surface malformed
// input rather than crash.
func (t *Table) AppendRow(vals ...any) error {
	if len(vals) != len(t.schema) {
		return fmt.Errorf("table: AppendRow got %d values for %d columns", len(vals), len(t.schema))
	}
	for i, v := range vals {
		f := t.schema[i]
		switch f.Type {
		case Int64:
			x, ok := v.(int64)
			if !ok {
				return fmt.Errorf("table: column %q wants int64, got %T", f.Name, v)
			}
			t.cols[i].ints = append(t.cols[i].ints, x)
		case Float64:
			x, ok := v.(float64)
			if !ok {
				return fmt.Errorf("table: column %q wants float64, got %T", f.Name, v)
			}
			t.cols[i].floats = append(t.cols[i].floats, x)
		case String:
			x, ok := v.(string)
			if !ok {
				return fmt.Errorf("table: column %q wants string, got %T", f.Name, v)
			}
			t.cols[i].strings = append(t.cols[i].strings, x)
		case Bool:
			x, ok := v.(bool)
			if !ok {
				return fmt.Errorf("table: column %q wants bool, got %T", f.Name, v)
			}
			t.cols[i].bools = append(t.cols[i].bools, x)
		}
	}
	t.rows++
	return nil
}
