package geo

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestWKTPointMarshal(t *testing.T) {
	if s := Pt(-118.2437, 34.0522).MarshalWKT(); s != "POINT (-118.2437 34.0522)" {
		t.Errorf("WKT = %q", s)
	}
}

func TestGeoJSONPointRoundTrip(t *testing.T) {
	p := Pt(-87.63, 41.88)
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"type":"Point"`) {
		t.Errorf("json = %s", data)
	}
	var back Point
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != p {
		t.Errorf("round trip = %v", back)
	}
	if err := json.Unmarshal([]byte(`{"type":"Polygon","coordinates":[]}`), &back); err == nil {
		t.Error("wrong geometry type should fail")
	}
}

func TestGeoJSONPolygonRoundTrip(t *testing.T) {
	pg := Polygon{Ring: []Point{Pt(0, 0), Pt(3, 0), Pt(3, 2), Pt(0, 2)}}
	data, err := json.Marshal(pg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"type":"Polygon"`) {
		t.Errorf("json = %s", data)
	}
	// The encoded ring must be closed per RFC 7946.
	var wire struct {
		Coordinates [][][2]float64 `json:"coordinates"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	ring := wire.Coordinates[0]
	if len(ring) != 5 || ring[0] != ring[4] {
		t.Errorf("encoded ring not closed: %v", ring)
	}
	var back Polygon
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Ring) != 4 {
		t.Fatalf("decoded ring = %v", back.Ring)
	}
	for i := range pg.Ring {
		if back.Ring[i] != pg.Ring[i] {
			t.Errorf("vertex %d differs", i)
		}
	}
}

func TestFeatureCollection(t *testing.T) {
	polys := []Polygon{
		NewRect(NewBBox(Pt(0, 0), Pt(1, 1))),
		NewRect(NewBBox(Pt(2, 2), Pt(3, 3))),
	}
	props := []map[string]any{
		{"name": "a", "rate": 0.5},
		nil,
	}
	data, err := FeatureCollection(polys, props)
	if err != nil {
		t.Fatal(err)
	}
	var fc struct {
		Type     string `json:"type"`
		Features []struct {
			Type       string         `json:"type"`
			Properties map[string]any `json:"properties"`
		} `json:"features"`
	}
	if err := json.Unmarshal(data, &fc); err != nil {
		t.Fatal(err)
	}
	if fc.Type != "FeatureCollection" || len(fc.Features) != 2 {
		t.Fatalf("collection = %+v", fc)
	}
	if fc.Features[0].Properties["name"] != "a" {
		t.Errorf("properties lost: %v", fc.Features[0].Properties)
	}
	if fc.Features[1].Properties == nil {
		t.Error("nil properties should encode as empty object")
	}
	if _, err := FeatureCollection(polys, props[:1]); err == nil {
		t.Error("property length mismatch should error")
	}
}
