package table

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"strconv"
	"strings"
	"testing"

	"lcsf/internal/stats"
)

// readCSVReference is the plain encoding/csv + strconv reader ReadCSV
// replaced, kept as the oracle FuzzReadCSV holds it to: one csv.Reader
// record at a time, strconv on every field, columns grown by append.
func readCSVReference(r io.Reader, schema Schema) (*Table, error) {
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

// sameTable reports where got and want differ, comparing floats bit for
// bit; "" means they are identical.
func sameTable(got, want *Table) string {
	if got.rows != want.rows {
		return fmt.Sprintf("rows %d, want %d", got.rows, want.rows)
	}
	for i, f := range want.schema {
		g, w := got.cols[i], want.cols[i]
		for r := 0; r < want.rows; r++ {
			var same bool
			switch f.Type {
			case Int64:
				same = g.ints[r] == w.ints[r]
			case Float64:
				same = math.Float64bits(g.floats[r]) == math.Float64bits(w.floats[r])
			case String:
				same = g.strings[r] == w.strings[r]
			case Bool:
				same = g.bools[r] == w.bools[r]
			}
			if !same {
				return fmt.Sprintf("row %d column %q differs", r, f.Name)
			}
		}
	}
	return ""
}

// checkAgainstReference reads in with readCSV at line buffer bufSize and
// with the reference, and fails unless both accept with identical tables
// or both reject with the same error text.
func checkAgainstReference(t *testing.T, in []byte, bufSize int) {
	t.Helper()
	got, gotErr := readCSV(bytes.NewReader(in), sampleSchema(), bufSize)
	want, wantErr := readCSVReference(bytes.NewReader(in), sampleSchema())
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("ReadCSV error %v, reference error %v, input %q", gotErr, wantErr, in)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("ReadCSV error %q, reference error %q, input %q", gotErr, wantErr, in)
		}
	default:
		if d := sameTable(got, want); d != "" {
			t.Fatalf("ReadCSV and reference tables differ: %s, input %q", d, in)
		}
	}
}

// readHeaders are FuzzReadCSV's header choices: none (the fuzzer writes
// its own), plain, reordered with an extra column and CRLF, and quoted.
var readHeaders = []string{
	"",
	"id,income,race,approved\n",
	"approved,extra,race,income,id\r\n",
	`"id",income,"race",approved` + "\n",
}

// smallBuffer is bufio's smallest line buffer: FuzzReadCSV reads every
// input with it as well as with ReadCSV's, so lines that outgrow the
// buffer and hand off to encoding/csv are routine.
const smallBuffer = 16

// FuzzReadCSV holds ReadCSV to the plain encoding/csv reader it replaced:
// the same accept/reject verdict, the same error text — CSV syntax errors
// keep their line and column across the hand-off — and the same cells,
// floats bit for bit.
func FuzzReadCSV(f *testing.F) {
	long := "1,2.5," + strings.Repeat("x", 2*smallBuffer) + ",true\n"
	for _, body := range []string{
		"1,50000,white,true\n2,-42000.25,black,false\n",
		"1,1.5,\"quoted, with comma\",true\n",
		"1,1.5,\"embedded\nnewline\",true\n2,3,y,false\n",
		"1,1.5,x,true\r\n2,2.5,y,false\r\n",
		"1,1.5,x,true\r",
		"1,1.5,x,true\n\n\r\n2,2.5,y,false\n\n",
		"1,1.5,x,true\n2,2.5,y\n",
		"1,1.5,x,true,extra\n",
		"1,1.5,ba\"re,true\n",
		"1,1,a,true\n2,2,b,false\n3,3,c,true\n4,4,\"q\",false\n5,5,e\n",
		"1,1,a,true\n" + long + "3,3,c,true\n",
		"1,1e400,x,true\n",
		"1,NaN,x,true\n",
		"99999999999999999999,1,x,T\n",
		"-7,0.1,x,F\n+8,-0,y,1\n",
		"1,9007199254740993,x,true\n2,0.30000000000000004,y,false\n",
		"1,.5,x,true\n2,5.,y,false\n3,1_0,z,true\n",
	} {
		for h := range readHeaders {
			f.Add(uint8(h), []byte(body))
		}
	}
	f.Add(uint8(0), []byte("id,income,race,approved"))
	f.Add(uint8(0), []byte(""))
	f.Add(uint8(0), []byte("\n\nid,income,race,approved\n1,1,x,true\n"))
	f.Fuzz(func(t *testing.T, header uint8, body []byte) {
		in := append([]byte(readHeaders[int(header)%len(readHeaders)]), body...)
		checkAgainstReference(t, in, readBufferSize)
		checkAgainstReference(t, in, smallBuffer)
	})
}

// FuzzParseNumber pins the field parsers to strconv: the same error or
// not, the same error text, and the same value, floats bit for bit.
func FuzzParseNumber(f *testing.F) {
	for _, s := range []string{
		"", "0", "-0", "-0.0", "1", "-1", "+1", "42000", "-97.123456789012345",
		"38.5", "5.", ".5", "-.5", "1e5", "1.2e+06", "0x1p-2", "1_000", "inf",
		"NaN", "9007199254740991", "9007199254740992", "9007199254740993",
		"0.30000000000000004", "0.0000000000000000000001", "123456789012345678",
		"1234567890123456789", "9223372036854775807", "9223372036854775808",
		"-9223372036854775808", "00000000000000000000000001", "true", "false",
		"True", "FALSE", "t", "0", "yes", "1.7976931348623157e308",
		// 17-significant-digit LAR shortest forms, which take Eisel–Lemire.
		"-97.12345678901234", "38.123456789012345", "-124.99999999999999",
		"54321.123456789015", "0.12345678901234568",
		// 19 and 20 digits: the last mantissa the fast path holds, and the
		// first it hands to strconv.
		"9999999999999999999", "999999999.9999999999", "-1.234567890123456789",
		"99999999999999999999", "1.2345678901234567890",
		// 2^53±1 with fraction digits, and halfway cases that Eisel–Lemire
		// cannot decide and strconv must.
		"9007199254740991.0", "9007199254740993.0", "9007199254740993.00",
		"900719925474099.35", "18014398509481986.0", "9007199254740995",
		"1.00000000000000011102230246251565404", "0.000000000000000001",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		b := []byte(s)
		gf, gerr := parseFloat(b)
		wf, werr := strconv.ParseFloat(s, 64)
		if !sameErr(gerr, werr) || math.Float64bits(gf) != math.Float64bits(wf) {
			t.Fatalf("parseFloat(%q) = %v (%#x), %v; strconv: %v (%#x), %v",
				s, gf, math.Float64bits(gf), gerr, wf, math.Float64bits(wf), werr)
		}
		gi, gerr := parseInt(b)
		wi, werr := strconv.ParseInt(s, 10, 64)
		if !sameErr(gerr, werr) || gi != wi {
			t.Fatalf("parseInt(%q) = %v, %v; strconv: %v, %v", s, gi, gerr, wi, werr)
		}
		gb, gerr := parseBool(b)
		wb, werr := strconv.ParseBool(s)
		if !sameErr(gerr, werr) || gb != wb {
			t.Fatalf("parseBool(%q) = %v, %v; strconv: %v, %v", s, gb, gerr, wb, werr)
		}
	})
}

// TestParseFloatMatchesStrconv holds parseFloat to strconv on a million
// shortest forms: floats in a LAR's lon, lat and income ranges, most of
// them 17 significant digits, and finite random bit patterns.
func TestParseFloatMatchesStrconv(t *testing.T) {
	rng := stats.NewRNG(23)
	var x float64
	for i := 0; i < 1_000_000; i++ {
		switch i % 4 {
		case 0:
			x = -125 + 59*rng.Float64()
		case 1:
			x = 24 + 26*rng.Float64()
		case 2:
			x = 1e6 * rng.Float64()
		default:
			if x = math.Float64frombits(rng.Uint64()); math.IsNaN(x) || math.IsInf(x, 0) {
				x = float64(i)
			}
		}
		s := strconv.FormatFloat(x, 'g', -1, 64)
		got, err := parseFloat([]byte(s))
		if err != nil || math.Float64bits(got) != math.Float64bits(x) {
			t.Fatalf("parseFloat(%q) = %v (%#x), %v; strconv: %v (%#x)",
				s, got, math.Float64bits(got), err, x, math.Float64bits(x))
		}
	}
}

// TestPow10Neg128 checks the generated table against its definition: for
// each k, E has its top bit set and E·10^k ≤ 2^s < (E+1)·10^k.
func TestPow10Neg128(t *testing.T) {
	for k, e := range pow10Neg128 {
		if e[0]>>63 != 1 {
			t.Errorf("k=%d: top bit clear in %#x", k, e[0])
		}
		m := new(big.Int).Lsh(new(big.Int).SetUint64(e[0]), 64)
		m.Or(m, new(big.Int).SetUint64(e[1]))
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(k)), nil)
		two := new(big.Int).Lsh(big.NewInt(1), pow10NegShift(k))
		lo := new(big.Int).Mul(m, p)
		hi := new(big.Int).Add(lo, p)
		if lo.Cmp(two) > 0 || two.Cmp(hi) >= 0 {
			t.Errorf("k=%d: %#x·10^k does not bracket 2^%d", k, m, pow10NegShift(k))
		}
	}
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// TestReadCSVErrorLineAfterHandOff checks that a CSV syntax error after the
// hand-off to encoding/csv names the input line counted from the top of
// the stream, not from the hand-off.
func TestReadCSVErrorLineAfterHandOff(t *testing.T) {
	in := "id,income,race,approved\n" +
		"1,1,a,true\n2,2,b,false\n3,3,c,true\n" +
		"4,4,\"quoted\",false\n" +
		"5,5,ragged\n"
	_, err := ReadCSV(strings.NewReader(in), sampleSchema())
	var pe *csv.ParseError
	if !errors.As(err, &pe) || !errors.Is(err, csv.ErrFieldCount) {
		t.Fatalf("error %v, want a field-count *csv.ParseError", err)
	}
	if !strings.Contains(err.Error(), "reading row 4") || pe.Line != 6 || pe.StartLine != 6 {
		t.Errorf("error %q (line %d), want row 4 on input line 6", err, pe.Line)
	}
	checkAgainstReference(t, []byte(in), readBufferSize)
}

// TestReadCSVChunks reads a table spanning several column chunks and
// checks every value and the exact column sizes.
func TestReadCSVChunks(t *testing.T) {
	n := 2*chunkRows + 7
	var buf bytes.Buffer
	buf.WriteString("id,income,race,approved\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&buf, "%d,%d.%d,r%d,%t\n", i, i, i%10, i%3, i%2 == 0)
	}
	tb, err := ReadCSV(bytes.NewReader(buf.Bytes()), sampleSchema())
	if err != nil {
		t.Fatal(err)
	}
	ids, inc := tb.Int64s("id"), tb.Floats("income")
	if tb.NumRows() != n || len(ids) != n || cap(ids) != n || cap(inc) != n {
		t.Fatalf("rows %d, id len %d cap %d, income cap %d; want %d", tb.NumRows(), len(ids), cap(ids), cap(inc), n)
	}
	for i := 0; i < n; i++ {
		want, _ := strconv.ParseFloat(fmt.Sprintf("%d.%d", i, i%10), 64)
		if ids[i] != int64(i) || inc[i] != want || tb.Strings("race")[i] != fmt.Sprintf("r%d", i%3) ||
			tb.Bools("approved")[i] != (i%2 == 0) {
			t.Fatalf("row %d read back wrong", i)
		}
	}
	checkAgainstReference(t, buf.Bytes(), readBufferSize)
}

// TestReadCSVLongLine reads a line longer than ReadCSV's buffer, which
// hands the stream to encoding/csv mid-file.
func TestReadCSVLongLine(t *testing.T) {
	long := strings.Repeat("x", readBufferSize+100)
	in := "id,income,race,approved\n1,1,a,true\n2,2," + long + ",false\n3,3,c,true\n4,4\n"
	checkAgainstReference(t, []byte(in), readBufferSize)
	tb, err := ReadCSV(strings.NewReader(in[:strings.LastIndex(in, "4,4")]), sampleSchema())
	if err != nil || tb.NumRows() != 3 || tb.Strings("race")[1] != long || tb.Int64s("id")[2] != 3 {
		t.Fatalf("long line: %v", err)
	}
}

// TestReadCSVReadError checks that a read error mid-stream surfaces
// wrapped, on the byte-level path and after the hand-off alike.
func TestReadCSVReadError(t *testing.T) {
	boom := errors.New("boom")
	for _, in := range []string{
		"id,income,race,approved\n1,1,a,true\n2,2",
		"id,income,race,approved\n1,1,a,true\n2,2,\"b",
		"id,income,race,approved\n",
		"id,inc",
	} {
		r := io.MultiReader(strings.NewReader(in), errReader{boom})
		_, err := ReadCSV(r, sampleSchema())
		_, want := readCSVReference(io.MultiReader(strings.NewReader(in), errReader{boom}), sampleSchema())
		if !errors.Is(err, boom) || err.Error() != want.Error() {
			t.Errorf("input %q: error %v, want %v wrapping the read error", in, err, want)
		}
	}
}
