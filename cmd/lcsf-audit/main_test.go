package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lcsf/internal/census"
	"lcsf/internal/hmda"
	"lcsf/internal/poi"
)

// runCmd invokes run with captured output and reports (exit code, stdout,
// stderr).
func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// writePlacesFixture generates a points-of-interest file against model and
// writes it where the audit's -places flag can read it.
func writePlacesFixture(model *census.Model, path string) error {
	return poi.WriteCSV(path, poi.Generate(model, poi.Config{Seed: 2021}))
}

// larFixture writes a small synthetic LAR file and returns its path. The
// fixture reuses the repository's own generator at reduced volume, so the
// CLI is tested against exactly the file format it documents.
func larFixture(t *testing.T) string {
	t.Helper()
	model := census.Generate(census.Config{Seed: 11, NumTracts: 400})
	recs := hmda.Generate(model, hmda.Lender{Name: "Fixture Bank", Decisioned: 4000, Bias: 0.3, Seed: 5})
	path := filepath.Join(t.TempDir(), "lar.csv")
	if err := hmda.WriteCSV(path, recs); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // a text stderr must contain, if set
	}{
		{"neither input", nil, ""},
		{"both inputs", []string{"-lar", "a.csv", "-places", "b.csv"}, ""},
		{"unknown flag", []string{"-lar", "a.csv", "-definitely-not-a-flag"}, ""},
		// Grid and -top bounds are checked before any input is read, so the
		// missing a.csv never surfaces as a runtime failure.
		{"zero cols", []string{"-lar", "a.csv", "-cols", "0"}, ""},
		{"zero rows", []string{"-lar", "a.csv", "-rows", "0"}, ""},
		{"negative rows", []string{"-lar", "a.csv", "-rows", "-3"}, ""},
		{"grid over the cell bound", []string{"-lar", "a.csv", "-cols", "2000", "-rows", "2000"}, ""},
		{"negative top", []string{"-lar", "a.csv", "-top", "-1"}, ""},
		// So are the audit's settings: each names the Config field it sets.
		{"zero worlds", []string{"-lar", "a.csv", "-worlds", "0"}, "MCWorlds"},
		{"zero alpha", []string{"-lar", "a.csv", "-alpha", "0"}, "Alpha"},
		{"NaN alpha", []string{"-lar", "a.csv", "-alpha", "NaN"}, "Alpha"},
		{"zero min-region", []string{"-lar", "a.csv", "-min-region", "0"}, "MinRegionSize"},
		{"NaN epsilon", []string{"-lar", "a.csv", "-epsilon", "NaN"}, "Epsilon"},
		{"negative epsilon", []string{"-lar", "a.csv", "-epsilon", "-1"}, "Epsilon"},
		{"delta above one", []string{"-lar", "a.csv", "-delta", "2"}, "Delta"},
		{"infinite eta", []string{"-lar", "a.csv", "-eta", "Inf"}, "Eta"},
		{"unknown dissimilarity", []string{"-lar", "a.csv", "-dissimilarity", "nope"}, `-dissimilarity "nope"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCmd(t, tc.args...)
			if code != 2 {
				t.Errorf("run(%v) = %d, want exit 2; stderr: %s", tc.args, code, stderr)
			}
			if stderr == "" {
				t.Errorf("run(%v) exited 2 without a message", tc.args)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("run(%v): stderr does not name %s: %s", tc.args, tc.want, stderr)
			}
		})
	}
}

func TestRuntimeErrors(t *testing.T) {
	t.Run("missing input file", func(t *testing.T) {
		code, _, stderr := runCmd(t, "-lar", filepath.Join(t.TempDir(), "absent.csv"))
		if code != 1 {
			t.Errorf("exit = %d, want 1; stderr: %s", code, stderr)
		}
	})
}

func TestAuditLARPrintsFunnel(t *testing.T) {
	code, stdout, stderr := runCmd(t,
		"-lar", larFixture(t),
		"-cols", "8", "-rows", "5", "-min-region", "60", "-worlds", "99", "-map")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr)
	}
	for _, want := range []string{
		"audited 4000 observations",
		"eligible regions:",
		"gate funnel:",
		"monte carlo:",
		"unfair regions ('1'):",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
}

func TestAuditWritesReports(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "report.json")
	csvPath := filepath.Join(dir, "pairs.csv")
	code, stdout, stderr := runCmd(t,
		"-lar", larFixture(t),
		"-cols", "8", "-rows", "5", "-min-region", "60", "-worlds", "99",
		"-out-json", jsonPath, "-out-csv", csvPath)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "wrote "+jsonPath) {
		t.Errorf("stdout does not report the JSON file:\n%s", stdout)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("-out-json wrote invalid JSON: %v", err)
	}
	if _, err := os.Stat(csvPath); err != nil {
		t.Errorf("-out-csv file: %v", err)
	}
}

// TestAuditPlaces drives the food-access path end to end: generate the
// places file with the datagen package APIs, audit it with the same census
// seed, and require a clean exit.
func TestAuditPlaces(t *testing.T) {
	dir := t.TempDir()
	model := census.Generate(census.Config{Seed: 2020, NumTracts: 300})
	placesPath := filepath.Join(dir, "places.csv")
	if err := writePlacesFixture(model, placesPath); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCmd(t,
		"-places", placesPath, "-census-seed", "2020", "-tracts", "300",
		"-ethical", "-cols", "8", "-rows", "5", "-min-region", "60", "-worlds", "99")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "gate funnel:") {
		t.Errorf("stdout missing funnel:\n%s", stdout)
	}
}

func TestAuditPlacesWrongModel(t *testing.T) {
	dir := t.TempDir()
	model := census.Generate(census.Config{Seed: 2020, NumTracts: 300})
	placesPath := filepath.Join(dir, "places.csv")
	if err := writePlacesFixture(model, placesPath); err != nil {
		t.Fatal(err)
	}
	// A smaller -tracts than the file was generated against must be caught
	// by the tract-reference validation, not crash the audit.
	code, _, stderr := runCmd(t,
		"-places", placesPath, "-census-seed", "2020", "-tracts", "50")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "outside the census model") {
		t.Errorf("stderr does not explain the mismatch: %s", stderr)
	}
}
