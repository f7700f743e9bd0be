package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunDeltaBenchSmall smokes the delta benchmark at a small size: the
// returned row must carry positive timings, the single-region dirty funnel,
// and — enforced inside runDeltaBench before it returns — a delta result
// byte-identical to the cold batch audit.
func TestRunDeltaBenchSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark driver run")
	}
	res, err := runDeltaBench(40)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regions != 40 || res.BatchUpdates != 2*deltaBenchBatch {
		t.Fatalf("row shape wrong: %+v", res)
	}
	if res.UpdatesPerSec <= 0 || res.DeltaNsPerOp <= 0 || res.ColdNsPerOp <= 0 || res.DeltaOverCold <= 0 {
		t.Fatalf("non-positive timings: %+v", res)
	}
	if res.DirtyRegions != 1 {
		t.Fatalf("single-region batch dirtied %d regions", res.DirtyRegions)
	}
	if res.ReusedPairs == 0 {
		t.Fatalf("no cached pairs reused; the workload exercises nothing incremental: %+v", res)
	}
}

// TestBenchFileMerge checks that the two writers share BENCH_audit.json
// without clobbering each other's section: cold rows survive -delta-bench,
// delta rows survive -audit-bench.
func TestBenchFileMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark driver run")
	}
	path := filepath.Join(t.TempDir(), "BENCH_audit.json")

	defer func(a, d []int) { auditBenchSizes, deltaBenchSizes = a, d }(auditBenchSizes, deltaBenchSizes)
	auditBenchSizes = []int{40}
	deltaBenchSizes = []int{40}

	if err := writeAuditBench(path, false); err != nil {
		t.Fatalf("audit-bench: %v", err)
	}
	if err := writeDeltaBench(path); err != nil {
		t.Fatalf("delta-bench: %v", err)
	}

	read := func() auditBenchFile {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var f auditBenchFile
		if err := json.Unmarshal(data, &f); err != nil {
			t.Fatal(err)
		}
		return f
	}
	f := read()
	if len(f.Benchmarks) != 1 || len(f.DeltaBenchmarks) != 1 {
		t.Fatalf("after delta-bench: %d cold rows, %d delta rows; want 1 and 1", len(f.Benchmarks), len(f.DeltaBenchmarks))
	}

	// Regenerating the cold section must keep the delta rows.
	if err := writeAuditBench(path, false); err != nil {
		t.Fatalf("audit-bench rerun: %v", err)
	}
	f = read()
	if len(f.Benchmarks) != 1 || len(f.DeltaBenchmarks) != 1 {
		t.Fatalf("audit-bench rerun dropped a section: %d cold rows, %d delta rows", len(f.Benchmarks), len(f.DeltaBenchmarks))
	}
}

// TestDeltaBenchKeepsOtherMembers runs -delta-bench over a copy of a fixture
// bench file and diffs the result against the fixture: with its
// delta_benchmarks section put back, the rewritten file must equal the
// fixture byte for byte, so the cold rows keep every field — the null-store
// prewarm counts included — and a member neither writer knows stays in
// place.
func TestDeltaBenchKeepsOtherMembers(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark driver run")
	}
	fixture, err := os.ReadFile(filepath.Join("testdata", "bench_audit.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_audit.json")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	defer func(d []int) { deltaBenchSizes = d }(deltaBenchSizes)
	deltaBenchSizes = []int{40}
	if err := writeDeltaBench(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows struct {
		Delta []deltaBenchResult `json:"delta_benchmarks"`
	}
	if err := json.Unmarshal(got, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows.Delta) != 1 || rows.Delta[0].Regions != 40 {
		t.Fatalf("delta section holds %+v, want the one R=40 row", rows.Delta)
	}
	var members map[string]json.RawMessage
	if err := json.Unmarshal(fixture, &members); err != nil {
		t.Fatal(err)
	}
	restored, err := setJSONMember(got, "delta_benchmarks", members["delta_benchmarks"])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored, fixture) {
		t.Errorf("-delta-bench changed more than its section; with it restored the file reads\n%s\nwant\n%s", restored, fixture)
	}
}
