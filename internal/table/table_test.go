package table

import (
	"strings"
	"testing"
)

func sampleSchema() Schema {
	return Schema{
		{Name: "id", Type: Int64},
		{Name: "income", Type: Float64},
		{Name: "race", Type: String},
		{Name: "approved", Type: Bool},
	}
}

func sampleTable(t *testing.T) *Table {
	t.Helper()
	tb := New(sampleSchema())
	rows := []struct {
		id       int64
		income   float64
		race     string
		approved bool
	}{
		{1, 50000, "white", true},
		{2, 42000, "black", false},
		{3, 71000, "white", true},
		{4, 39000, "asian", true},
		{5, 65000, "black", false},
	}
	for _, r := range rows {
		if err := tb.AppendRow(r.id, r.income, r.race, r.approved); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestAppendAndAccess(t *testing.T) {
	tb := sampleTable(t)
	if tb.NumRows() != 5 || tb.NumCols() != 4 {
		t.Fatalf("dims = %dx%d", tb.NumRows(), tb.NumCols())
	}
	if got := tb.Int64s("id")[2]; got != 3 {
		t.Errorf("id[2] = %d", got)
	}
	if got := tb.Floats("income")[0]; got != 50000 {
		t.Errorf("income[0] = %v", got)
	}
	if got := tb.Strings("race")[1]; got != "black" {
		t.Errorf("race[1] = %q", got)
	}
	if got := tb.Bools("approved")[4]; got {
		t.Errorf("approved[4] = %v", got)
	}
	if got := tb.Value(3, 1); got.(float64) != 39000 {
		t.Errorf("Value(3,1) = %v", got)
	}
}

func TestAppendRowErrors(t *testing.T) {
	tb := New(sampleSchema())
	if err := tb.AppendRow(int64(1), 2.0, "x"); err == nil {
		t.Error("arity mismatch should error")
	}
	if err := tb.AppendRow(1, 2.0, "x", true); err == nil {
		t.Error("int (not int64) should error")
	}
	if err := tb.AppendRow(int64(1), "oops", "x", true); err == nil {
		t.Error("type mismatch should error")
	}
	if tb.NumRows() != 0 {
		// Note: a failed AppendRow may leave partial column state; the
		// engine's contract is that callers abandon the table on error.
		t.Log("rows after failed appends:", tb.NumRows())
	}
}

func TestDuplicateColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Schema{{Name: "a", Type: Int64}, {Name: "a", Type: Float64}})
}

func TestWrongColumnAccessPanics(t *testing.T) {
	tb := sampleTable(t)
	for _, fn := range []func(){
		func() { tb.Floats("nope") },
		func() { tb.Floats("race") }, // wrong type
		func() { tb.Select("id", "nope") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestFilter(t *testing.T) {
	tb := sampleTable(t)
	approved := tb.Bools("approved")
	out := tb.Filter(func(r int) bool { return approved[r] })
	if out.NumRows() != 3 {
		t.Fatalf("filtered rows = %d, want 3", out.NumRows())
	}
	for _, v := range out.Bools("approved") {
		if !v {
			t.Error("filter kept a non-approved row")
		}
	}
	// Original unchanged.
	if tb.NumRows() != 5 {
		t.Error("filter mutated source")
	}
}

func TestSelect(t *testing.T) {
	tb := sampleTable(t)
	out := tb.Select("race", "id")
	if out.NumCols() != 2 || out.NumRows() != 5 {
		t.Fatalf("select dims = %dx%d", out.NumRows(), out.NumCols())
	}
	if out.Schema()[0].Name != "race" || out.Schema()[1].Name != "id" {
		t.Errorf("select order wrong: %v", out.Schema())
	}
	if out.Strings("race")[0] != "white" || out.Int64s("id")[4] != 5 {
		t.Error("select copied wrong data")
	}
}

func TestSortByFloat(t *testing.T) {
	tb := sampleTable(t)
	asc := tb.SortByFloat("income", false)
	incomes := asc.Floats("income")
	for i := 1; i < len(incomes); i++ {
		if incomes[i-1] > incomes[i] {
			t.Fatalf("not ascending: %v", incomes)
		}
	}
	desc := tb.SortByFloat("income", true)
	if desc.Floats("income")[0] != 71000 {
		t.Errorf("descending first = %v", desc.Floats("income")[0])
	}
	// Row integrity: id follows income.
	if asc.Int64s("id")[0] != 4 {
		t.Errorf("row integrity broken: id[0] = %d, want 4", asc.Int64s("id")[0])
	}
}

func TestGroupCountsAndMeans(t *testing.T) {
	tb := sampleTable(t)
	counts := tb.GroupCountsByString("race")
	if counts["white"] != 2 || counts["black"] != 2 || counts["asian"] != 1 {
		t.Errorf("counts = %v", counts)
	}
	means := tb.MeanByGroup("race", "income")
	if means["white"] != 60500 {
		t.Errorf("white mean = %v, want 60500", means["white"])
	}
	if means["black"] != 53500 {
		t.Errorf("black mean = %v, want 53500", means["black"])
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb := sampleTable(t)
	var buf strings.Builder
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(buf.String()), sampleSchema())
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != tb.NumRows() {
		t.Fatalf("round trip rows = %d, want %d", back.NumRows(), tb.NumRows())
	}
	for r := 0; r < tb.NumRows(); r++ {
		for c := 0; c < tb.NumCols(); c++ {
			if tb.Value(r, c) != back.Value(r, c) {
				t.Errorf("cell (%d,%d): %v != %v", r, c, tb.Value(r, c), back.Value(r, c))
			}
		}
	}
}

func TestReadCSVColumnSubsetAndReorder(t *testing.T) {
	csvData := "race,id,extra,income,approved\nwhite,1,zzz,50000,true\n"
	tb, err := ReadCSV(strings.NewReader(csvData), sampleSchema())
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 1 || tb.Int64s("id")[0] != 1 || tb.Strings("race")[0] != "white" {
		t.Errorf("reordered read failed: %+v", tb)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("id\n1\n"), sampleSchema()); err == nil {
		t.Error("missing columns should error")
	}
	bad := "id,income,race,approved\nnotanint,1.5,x,true\n"
	if _, err := ReadCSV(strings.NewReader(bad), sampleSchema()); err == nil {
		t.Error("bad int should error")
	}
	badBool := "id,income,race,approved\n1,1.5,x,maybe\n"
	if _, err := ReadCSV(strings.NewReader(badBool), sampleSchema()); err == nil {
		t.Error("bad bool should error")
	}
	if _, err := ReadCSV(strings.NewReader(""), sampleSchema()); err == nil {
		t.Error("empty input should error on header")
	}
}

// TestReadCSVRejectsNonFinite asserts every spelling strconv.ParseFloat
// accepts for NaN or an infinity is refused in a Float64 column, with an
// error naming the row and column, while finite values around it parse.
func TestReadCSVRejectsNonFinite(t *testing.T) {
	for _, raw := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity", "-Infinity"} {
		in := "id,income,race,approved\n1,1.5,x,true\n2," + raw + ",y,false\n"
		_, err := ReadCSV(strings.NewReader(in), sampleSchema())
		if err == nil {
			t.Errorf("income %q: accepted, want an error", raw)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, `row 1 column "income"`) || !strings.Contains(msg, "non-finite") {
			t.Errorf("income %q: error %q does not name row 1, the column and the cause", raw, msg)
		}
	}
	ok := "id,income,race,approved\n1,-0,x,true\n2,1e308,y,false\n3,-4.5e-320,z,true\n"
	if _, err := ReadCSV(strings.NewReader(ok), sampleSchema()); err != nil {
		t.Errorf("finite extremes rejected: %v", err)
	}
}

func TestCSVQuotedStrings(t *testing.T) {
	tb := New(Schema{{Name: "s", Type: String}})
	if err := tb.AppendRow(`with,comma and "quotes"`); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(buf.String()), tb.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Strings("s")[0]; got != `with,comma and "quotes"` {
		t.Errorf("round trip = %q", got)
	}
}
