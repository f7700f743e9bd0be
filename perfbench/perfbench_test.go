package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"lcsf/internal/obs"
)

// tinySizes shrink every workload to a fraction of a second per op.
func tinySizes() sizes {
	return sizes{
		larVolume:    0.02,
		warmVolume:   0.01,
		larChecks:    1,
		tenantVolume: 0.01,
		jobRate:      4,
		deltaRegions: 60,
		denseRegions: 120,
		setupRepeats: 1,
	}
}

func tinyConfig(trace bool) runConfig {
	return runConfig{seed: 7, seconds: time.Second, trace: trace, sizes: tinySizes()}
}

// TestCatalogueMatchesBenchmarkJSON pins the metric names and units the
// benchmark prints to the ones BENCHMARK.json declares.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metricDef, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: the benchmark prints %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: benchmark %s (%s), BENCHMARK.json %s (%s)",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no run function", w.Name)
		}
	}
}

// TestEveryMetricEmitted runs each workload at tiny size in both modes and
// checks the result line names every metric of that mode, all outputs
// check out, and the trace closes on the op latency it explains.
func TestEveryMetricEmitted(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(trace)
			out, err := workloads[name](context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var buf bytes.Buffer
			res := summarize(&buf, name, cfg, out)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					name, trace, res.Correct, res.Attempted, res.Failed, buf.String())
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or not in %s: %+v", name, trace, d.name, d.unit, m)
				}
			}
			if trace && out.tr.spans == nil {
				t.Errorf("%s: traced run recorded no spans", name)
			}
			if !trace && res.Metrics["setup_s"].Value <= 0 {
				t.Errorf("%s: setup_s is %v", name, res.Metrics["setup_s"].Value)
			}
		}
	}
}

// corruptors damage one workload's reference after setup.
var corruptors = map[string]func(t *testing.T, cfg runConfig) (measure func() (*outcome, error), closeFn func() error){
	"sync_lar": func(t *testing.T, cfg runConfig) (func() (*outcome, error), func() error) {
		st, err := setupSyncLAR(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st.reference = func(ctx context.Context, tr *tracer, op, parent int, body []byte) ([]byte, *ingested, obs.Snapshot, error) {
			doc, in, snap, err := replay(ctx, tr, op, parent, body)
			if err == nil {
				doc = append([]byte(nil), doc...)
				doc[len(doc)/2] ^= 1
			}
			return doc, in, snap, err
		}
		return func() (*outcome, error) { return st.measure(context.Background(), cfg) }, st.close
	},
	"jobs_tenants": func(t *testing.T, cfg runConfig) (func() (*outcome, error), func() error) {
		st, err := setupJobsTenants(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		st.refs[1] = append([]byte(nil), st.refs[1]...)
		st.refs[1][len(st.refs[1])/2] ^= 1
		return func() (*outcome, error) { return st.measure(context.Background(), cfg) }, st.close
	},
	"delta_churn": func(t *testing.T, cfg runConfig) (func() (*outcome, error), func() error) {
		st, err := setupDeltaChurn(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := *st.ref
		ref.Candidates++
		st.ref = &ref
		return func() (*outcome, error) { return st.measure(context.Background(), cfg) }, func() error { return nil }
	},
	"dense_sweep": func(t *testing.T, cfg runConfig) (func() (*outcome, error), func() error) {
		st, err := setupDenseSweep(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		st.funnel[obs.MAuditPairsScanned]++
		return func() (*outcome, error) { return st.measure(context.Background(), cfg) }, func() error { return nil }
	},
}

// TestCorruptedReferenceFails feeds each workload a damaged reference and
// checks the run counts the mismatch as a failure and is not correct.
func TestCorruptedReferenceFails(t *testing.T) {
	if len(corruptors) != len(workloads) {
		t.Fatalf("%d corruptors for %d workloads", len(corruptors), len(workloads))
	}
	for name, corrupt := range corruptors {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(trace)
			measure, closeFn := corrupt(t, cfg)
			out, err := measure()
			if cerr := closeFn(); cerr != nil {
				t.Errorf("%s: closing: %v", name, cerr)
			}
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			out.setup = []float64{1}
			res := summarize(&bytes.Buffer{}, name, cfg, out)
			if res.Correct || res.Failed == 0 {
				t.Errorf("%s trace=%v: corrupted reference not caught: correct=%v failed=%d of %d",
					name, trace, res.Correct, res.Failed, res.Attempted)
			}
		}
	}
}

// TestTailPercentile pins the tail rule: the declared percentile when ten
// samples lie beyond it, else the highest rung that has ten beyond it.
func TestTailPercentile(t *testing.T) {
	cases := []struct {
		declared float64
		n        int
		want     float64
	}{
		{95, 400, 95},
		{95, 150, 90},
		{75, 40, 75},
		{75, 39, 50},
		{50, 8, 50},
	}
	for _, c := range cases {
		if got := tailPercentile(c.declared, c.n); got != c.want {
			t.Errorf("tailPercentile(%v, %d) = %v, want %v", c.declared, c.n, got, c.want)
		}
	}
}

// TestSelfTimes checks a parent's self time excludes its children.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := tr.epoch
	root := tr.add(0, -1, "op", at, at.Add(10*time.Second), false)
	tr.add(0, root, "a", at, at.Add(3*time.Second), false)
	tr.add(0, root, "a", at.Add(3*time.Second), at.Add(5*time.Second), false)
	if v, _ := tr.median("op", true); v != 5 {
		t.Errorf("op self time %v, want 5", v)
	}
	if v, _ := tr.median("a", false); v != 5 {
		t.Errorf("a total %v, want 5", v)
	}
	if _, ok := tr.median("b", true); ok {
		t.Error("an unrecorded layer reports a time")
	}
}
