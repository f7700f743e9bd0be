package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lcsf/internal/census"
	"lcsf/internal/core"
	"lcsf/internal/geo"
	"lcsf/internal/hmda"
	"lcsf/internal/partition"
	"lcsf/internal/report"
	"lcsf/internal/stats"
	"lcsf/internal/table"
)

// larBody renders a synthetic LAR as the CSV a client would post.
func larBody(t *testing.T, n int, bias float64) *bytes.Buffer {
	t.Helper()
	model := census.Generate(census.Config{NumTracts: 1500, Seed: 42})
	recs := hmda.Generate(model, hmda.Lender{Name: "T", Decisioned: n, Bias: bias, Seed: 7})
	tbl, err := hmda.ToTable(recs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func newTestServer() http.Handler { return New(Config{}) }

func TestHealthz(t *testing.T) {
	srv := newTestServer()
	req := httptest.NewRequest("GET", "/healthz", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Errorf("healthz = %d %q", rec.Code, rec.Body.String())
	}
}

func TestAuditEndpoint(t *testing.T) {
	srv := newTestServer()
	req := httptest.NewRequest("POST", "/audit?cols=30&rows=15&seed=1", larBody(t, 40000, 0.15))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	doc, err := report.ReadJSON(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Grid != "30x15" {
		t.Errorf("grid = %q", doc.Grid)
	}
	if doc.UnfairPairs == 0 {
		t.Error("planted bias should produce unfair pairs")
	}
	if doc.GlobalRate < 0.5 || doc.GlobalRate > 0.75 {
		t.Errorf("global rate = %v", doc.GlobalRate)
	}
}

func TestAuditGeoJSONEndpoint(t *testing.T) {
	srv := newTestServer()
	req := httptest.NewRequest("POST", "/audit/geojson?cols=20&rows=10", larBody(t, 30000, 0.15))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/geo+json" {
		t.Errorf("content type = %q", ct)
	}
	var fc struct {
		Type     string            `json:"type"`
		Features []json.RawMessage `json:"features"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &fc); err != nil {
		t.Fatal(err)
	}
	if fc.Type != "FeatureCollection" {
		t.Errorf("type = %q", fc.Type)
	}
	if len(fc.Features) == 0 {
		t.Error("no flagged regions in GeoJSON")
	}
}

func TestAuditBadInputs(t *testing.T) {
	srv := newTestServer()
	cases := []struct {
		name string
		url  string
		body string
		want int
	}{
		{"garbage csv", "/audit", "not,a,lar\n1,2,3\n", http.StatusBadRequest},
		{"truncated row", "/audit", "id,lon,lat,tract,income,minority,action\n1,-100,40\n", http.StatusBadRequest},
		{"empty body", "/audit", "", http.StatusBadRequest},
		{"bad cols", "/audit?cols=zero", validHeaderOnly(), http.StatusBadRequest},
		{"zero cols", "/audit?cols=0", validHeaderOnly(), http.StatusBadRequest},
		{"negative rows", "/audit?rows=-5", validHeaderOnly(), http.StatusBadRequest},
		{"bad epsilon", "/audit?epsilon=tiny", validHeaderOnly(), http.StatusBadRequest},
		{"bad delta", "/audit?delta=x", validHeaderOnly(), http.StatusBadRequest},
		{"bad eta", "/audit?eta=ten", validHeaderOnly(), http.StatusBadRequest},
		{"bad alpha", "/audit?alpha=nope", validHeaderOnly(), http.StatusBadRequest},
		{"bad min_region", "/audit?min_region=small", validHeaderOnly(), http.StatusBadRequest},
		{"zero min_region", "/audit?min_region=0", validHeaderOnly(), http.StatusBadRequest},
		{"huge grid", "/audit?cols=2000&rows=2000", validHeaderOnly(), http.StatusBadRequest},
		{"bad seed", "/audit?seed=-1", validHeaderOnly(), http.StatusBadRequest},
		{"fractional seed", "/audit?seed=1.5", validHeaderOnly(), http.StatusBadRequest},
		{"no decisioned rows", "/audit", noDecisionedCSV(), http.StatusBadRequest},
		{"geojson garbage csv", "/audit/geojson", "not,a,lar\n1,2,3\n", http.StatusBadRequest},
		{"geojson bad param", "/audit/geojson?cols=zero", validHeaderOnly(), http.StatusBadRequest},
		// Audit-config validation failures surface through the same path.
		{"alpha out of range", "/audit?alpha=2", validHeaderOnly(), http.StatusBadRequest},
	}
	for _, c := range cases {
		req := httptest.NewRequest("POST", c.url, strings.NewReader(c.body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != c.want {
			t.Errorf("%s: status = %d, want %d (%s)", c.name, rec.Code, c.want, rec.Body.String())
		}
		var e map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error payload missing: %s", c.name, rec.Body.String())
		}
	}
}

// validHeaderOnly is a LAR CSV with a header and a single decisioned row, so
// parameter validation (not CSV validation) is exercised.
func validHeaderOnly() string {
	return "id,lon,lat,tract,income,minority,action\n1,-100,40,0,50000,false,1\n"
}

// noDecisionedCSV has only withdrawn applications.
func noDecisionedCSV() string {
	return "id,lon,lat,tract,income,minority,action\n1,-100,40,0,50000,false,4\n"
}

func TestMethodRouting(t *testing.T) {
	srv := newTestServer()
	req := httptest.NewRequest("GET", "/audit", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /audit = %d, want 405", rec.Code)
	}
}

// TestBodyLimit cuts the body inside the first row, right after the
// header, and inside the last row, on the sync and the async route: every
// cut must answer 413 with a JSON error payload.
func TestBodyLimit(t *testing.T) {
	body := larBody(t, 1000, 0.1).Bytes()
	afterHeader := bytes.IndexByte(body, '\n') + 1
	for _, limit := range []int{64, afterHeader, len(body) - 5} {
		srv := New(Config{MaxBodyBytes: int64(limit)})
		for _, route := range []string{"/audit", "/jobs"} {
			req := httptest.NewRequest("POST", route, bytes.NewReader(body))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("%s with limit %d: status %d, want 413", route, limit, rec.Code)
			}
			var e map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
				t.Errorf("%s with limit %d: 413 must carry a JSON error payload: %s", route, limit, rec.Body.String())
			}
		}
	}
}

// TestEthicalFlag asserts ethical=1 applies the ethical use case's
// thresholds on top of the operator's base configuration: the report equals
// core.Audit run on the base with only Epsilon, Delta and Eta taken from
// core.EthicalConfig, so the base's Monte-Carlo budget, region floor and
// FDR level survive the flag.
func TestEthicalFlag(t *testing.T) {
	base := cheapAudit()
	base.FDR = 0.1
	srv := New(Config{Audit: base})
	body := larBody(t, 20000, 0.15).Bytes()
	req := httptest.NewRequest("POST", "/audit?cols=20&rows=10&ethical=1", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}

	want := base
	ethical := core.EthicalConfig()
	want.Epsilon, want.Delta, want.Eta = ethical.Epsilon, ethical.Delta, ethical.Eta
	tbl, err := table.ReadCSV(bytes.NewReader(body), hmda.Schema())
	if err != nil {
		t.Fatal(err)
	}
	grid := geo.NewGrid(geo.ContinentalUS, 20, 10)
	part := partition.ByGrid(grid, hmda.ToObservations(hmda.FromTable(tbl)), partition.Options{Seed: want.Seed})
	res, err := core.Audit(part, want)
	if err != nil {
		t.Fatal(err)
	}
	var wantBody bytes.Buffer
	if err := report.Build(part, grid, res).WriteJSON(&wantBody); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), wantBody.Bytes()) {
		t.Errorf("ethical=1 report differs from core.Audit on the base config with the ethical thresholds:\n got %.300s\nwant %.300s", rec.Body.String(), wantBody.String())
	}
}

// unreadBody fails the test if the server reads it.
type unreadBody struct{ t *testing.T }

func (b unreadBody) Read([]byte) (int, error) {
	b.t.Error("request body read for a request its parameters already refuse")
	return 0, io.EOF
}

// TestBadParamsRefusedUnread checks the synchronous routes refuse a bad
// parameter, malformed or failing core.Config.Validate, before reading
// any of the body.
func TestBadParamsRefusedUnread(t *testing.T) {
	srv := newTestServer()
	for _, url := range []string{
		"/audit?cols=0", "/audit?alpha=2", "/audit?epsilon=NaN", "/audit?epsilon=-1", "/audit?min_region=0",
		"/audit/geojson?cols=0", "/audit/geojson?alpha=2", "/audit/geojson?seed=-1",
		"/audit?cols=4294967296&rows=4294967296", // cell count wraps int to 0
	} {
		req := httptest.NewRequest("POST", url, unreadBody{t})
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", url, rec.Code, rec.Body.String())
		}
	}
}

// TestAuditIgnoresRowOrder posts a full-volume Loan Depot LAR and then the
// same data rows permuted: the response bytes must be identical. Regions
// over the income-sample cap are where row order used to leak into the
// verdict, so the test first checks that the body has some.
func TestAuditIgnoresRowOrder(t *testing.T) {
	ld, err := hmda.LenderByName("Loan Depot")
	if err != nil {
		t.Fatal(err)
	}
	recs := hmda.Generate(census.Generate(census.Config{Seed: 2020}), ld) // lcsf-datagen's defaults
	tbl, err := hmda.ToTable(recs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	grid := geo.NewGrid(geo.ContinentalUS, 100, 50) // the route's default grid
	over := 0
	for _, r := range partition.ByGrid(grid, hmda.ToObservations(recs), partition.Options{}).Regions {
		if r.N > partition.DefaultIncomeSampleCap {
			over++
		}
	}
	if over == 0 {
		t.Fatalf("no region holds more than %d records; the test is vacuous", partition.DefaultIncomeSampleCap)
	}

	body := buf.Bytes()
	header := bytes.IndexByte(body, '\n') + 1
	rows := bytes.SplitAfter(body[header:], []byte("\n"))
	rows = rows[:len(rows)-1] // the empty tail after the last newline
	stats.NewRNG(5).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	permuted := append(bytes.Clone(body[:header]), bytes.Join(rows, nil)...)
	if len(permuted) != len(body) {
		t.Fatalf("permuted body is %d bytes, original %d", len(permuted), len(body))
	}

	srv := newTestServer()
	post := func(b []byte) []byte {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/audit", bytes.NewReader(b)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}
	want, got := post(body), post(permuted)
	if !bytes.Equal(got, want) {
		t.Fatalf("permuting the %d data rows changed the response (%d regions over the cap): %d bytes vs %d",
			len(rows), over, len(got), len(want))
	}
	t.Logf("%d rows, %d regions over the cap, %d response bytes", len(rows), over, len(want))
}
