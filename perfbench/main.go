// Command perfbench is the repository benchmark: it drives the LC-SF audit
// through its public entry points — the HTTP service and the library — on
// seeded synthetic inputs, checks every output it times, and prints the
// metrics named in BENCHMARK.json.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it measures the end-to-end metrics with no tracing. With
// --trace 1 it records a span around every call it makes into a layer and
// reports per-layer metrics, alternating traced and untraced ops so the
// tracing overhead is measured in the same run. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics. The
// exit code is non-zero when an output check failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics reported with tracing off on every workload:
// what a run of the service costs its operator in CPU, memory and set-up,
// and how many ops succeeded. They are CPU-based because CPU time leaves out
// hypervisor steal: on a shared host, wall-clock medians drift further
// between runs than any bound allows. Wall-clock latency and throughput are
// printed beside them and reported per layer, unbounded. So no bounded metric
// sees a loss of parallel scaling (work serialized costs the same CPU) or a
// rise in jobs_tenants' queue wait or dispatch delay.
var endToEnd = []metricDef{
	{"cpu_s_per_op", "s"},
	{"success_ratio", "ratio"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. Every one is reported on every
// workload; a layer a workload does not reach reads 0.
var perLayer = []metricDef{
	{"server.overhead_s", "s"},
	{"server.status_2xx", "count"},
	{"server.status_4xx", "count"},
	{"server.status_5xx", "count"},
	{"server.write_failed", "count"},
	{"table.read_csv_s", "s"},
	{"table.rows", "count"},
	{"table.mb_per_s", "MB/s"},
	{"hmda.decode_s", "s"},
	{"hmda.decisioned_ratio", "ratio"},
	{"partition.by_grid_s", "s"},
	{"partition.regions_nonempty", "count"},
	{"partition.dropped_out_of_grid", "count"},
	{"partition.delta_apply_s", "s"},
	{"partition.snapshot_s", "s"},
	{"core.audit_s", "s"},
	{"core.index_s", "s"},
	{"core.prepare_s", "s"},
	{"core.prewarm_s", "s"},
	{"core.sweep_s", "s"},
	{"core.fdr_s", "s"},
	{"core.eligible_regions", "count"},
	{"core.window_candidates", "count"},
	{"core.pairs_scanned", "count"},
	{"core.candidates", "count"},
	{"core.flagged", "count"},
	{"core.pruning_ratio", "ratio"},
	{"core.ns_per_scanned_pair", "ns"},
	{"core.null_prewarm_keys", "count"},
	{"core.null_prewarm_worlds", "count"},
	{"core.null_cache_hit_rate", "ratio"},
	{"core.sweep_steals", "count"},
	{"core.delta_audit_s", "s"},
	{"core.delta_dirty_regions", "count"},
	{"core.delta_invalidated_pairs", "count"},
	{"core.delta_reused_pairs", "count"},
	{"core.delta_rescored_pairs", "count"},
	{"core.delta_full_sweeps", "count"},
	{"core.delta_us_per_rescored_pair", "us"},
	{"core.delta_over_cold", "ratio"},
	{"report.build_s", "s"},
	{"report.encode_s", "s"},
	{"report.bytes", "bytes"},
	{"jobs.submit_s", "s"},
	{"jobs.queue_wait_s", "s"},
	{"jobs.run_s", "s"},
	{"jobs.fetch_lag_s", "s"},
	{"jobs.shard_s", "s"},
	{"jobs.merge_s", "s"},
	{"jobs.shard_cpu_over_audit", "ratio"},
	{"jobs.rejected", "count"},
	{"jobs.retried", "count"},
	{"jobs.backlog_at_end", "count"},
	{"tenant.rate_limited", "count"},
	{"tenant.job_limit_rejections", "count"},
	{"tenant.budget_rejections", "count"},
	{"tenant.unauthorized", "count"},
	{"gen.lag_p99_s", "s"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_cycles_per_op", "count"},
	{"wall.latency_p50_s", "s"},
	{"wall.latency_tail_s", "s"},
	{"wall.throughput_ops_s", "1/s"},
	{"trace.traced_p50_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.layer_sum_s", "s"},
	{"shape.rows", "count"},
	{"shape.bytes", "bytes"},
	{"shape.eligible_regions", "count"},
	{"shape.scanned_pairs", "count"},
	{"shape.rescored_pairs", "count"},
}

// spanMetrics are the per-layer times read off the spans: the median over
// ops of each op's total time in spans of that name.
var spanMetrics = []struct{ metric, span string }{
	{"server.overhead_s", "server.overhead"},
	{"table.read_csv_s", "table.read_csv"},
	{"hmda.decode_s", "hmda.decode"},
	{"partition.by_grid_s", "partition.by_grid"},
	{"partition.delta_apply_s", "partition.delta_apply"},
	{"partition.snapshot_s", "partition.snapshot"},
	{"core.audit_s", "core.audit"},
	{"core.index_s", "core.index"},
	{"core.prepare_s", "core.prepare"},
	{"core.prewarm_s", "core.prewarm"},
	{"core.sweep_s", "core.sweep"},
	{"core.fdr_s", "core.fdr"},
	{"core.delta_audit_s", "core.delta_audit"},
	{"report.build_s", "report.build"},
	{"report.encode_s", "report.encode"},
	{"jobs.submit_s", "jobs.submit"},
	{"jobs.queue_wait_s", "jobs.queue_wait"},
	{"jobs.run_s", "jobs.run"},
	{"jobs.fetch_lag_s", "jobs.fetch_lag"},
	{"jobs.merge_s", "core.merge_shards"},
}

// runConfig is one run's parameters.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	sizes   sizes
}

// sizes fixes the inputs' dimensions. defaultSizes are the benchmark's;
// the package tests shrink them.
type sizes struct {
	// larVolume scales Loan Depot's decisioned volume for sync_lar bodies;
	// warmVolume scales the warm-up body sync_lar's setup sends.
	larVolume, warmVolume float64
	// larChecks is how many sync_lar ops of an untraced run are re-audited
	// in-process and compared byte for byte; traced runs check every
	// traced op that way.
	larChecks int
	// tenantVolume scales each jobs_tenants lender's decisioned volume.
	tenantVolume float64
	// jobRate is the jobs_tenants arrival rate in jobs per second.
	jobRate float64
	// deltaRegions and denseRegions size the two library universes.
	deltaRegions, denseRegions int
	// setupRepeats is how many times setup runs; setup_s is the median.
	setupRepeats int
}

func defaultSizes() sizes {
	return sizes{
		larVolume:    1,
		warmVolume:   0.1,
		larChecks:    2,
		tenantVolume: 0.05,
		jobRate:      0.55,
		deltaRegions: 1000,
		denseRegions: 3000,
		setupRepeats: 3,
	}
}

// outcome is what a workload measured.
type outcome struct {
	setup     []float64 // wall seconds per setup repetition
	setupCPU  []float64 // CPU seconds per setup repetition
	lat       []float64 // untraced op latencies, seconds
	tracedLat []float64 // traced op latencies, seconds
	// throughput is ops completed per second of timed wall time: the sum
	// of op latencies in a closed loop, first due time to last result in
	// the open one.
	throughput float64
	// cpu is the process CPU time the untraced ops used, seconds; the whole
	// loop's on jobs_tenants, whose ops overlap.
	cpu float64
	// rssMB is the peak RSS when the timed loop ended, before any
	// after-the-loop output checks could raise it.
	rssMB             float64
	attempted, failed int
	// tailAt is the workload's declared tail percentile (see
	// tailPercentile).
	tailAt float64
	// layers holds per-op samples of per-layer metrics not read off spans;
	// each reports its median.
	layers series
	// critical names the span layers whose self times make up one op: an
	// op's self times in them add up to its latency.
	critical []string
	tr       *tracer
	notes    []string
	// invalid, when set, says why the run's numbers cannot be trusted; the
	// run then reports correct=false.
	invalid string
}

// series collects per-op samples by metric name.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, runConfig) (*outcome, error){
	"sync_lar":     runSyncLAR,
	"jobs_tenants": runJobsTenants,
	"delta_churn":  runDeltaChurn,
	"dense_sweep":  runDenseSweep,
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: sync_lar, jobs_tenants, delta_churn or dense_sweep")
	seed := flag.Uint64("seed", 1, "seed every input is generated from")
	secs := flag.Int("seconds", 10, "how long the measured loop runs")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *secs < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*secs) * time.Second,
		trace:   *traceFlag == 1,
		sizes:   defaultSizes(),
	}
	out, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	res := summarize(os.Stdout, *workload, cfg, out)
	if cfg.trace {
		name := fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed)
		path, err := out.tr.write(".bench_build/trace", name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %d written to %s\n", len(out.tr.spans), path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// summarize turns an outcome into the result line, printing every metric
// by name with its unit, and the notes a reader needs beside them.
func summarize(w io.Writer, workload string, cfg runConfig, out *outcome) result {
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0 && out.invalid == "",
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue),
	}
	fmt.Fprintf(w, "workload %s seed %d: %d ops attempted, %d failed, fail_ratio %.4g\n",
		workload, cfg.seed, out.attempted, out.failed, ratio(float64(out.failed), float64(out.attempted)))
	for _, n := range out.notes {
		fmt.Fprintln(w, n)
	}
	sh := func(name string) float64 { return median(out.layers[name]) }
	fmt.Fprintf(w, "input shape (median per op): rows %.0f, bytes %.0f, eligible regions %.0f, scanned pairs %.0f, rescored pairs %.0f\n",
		sh("shape.rows"), sh("shape.bytes"), sh("shape.eligible_regions"), sh("shape.scanned_pairs"), sh("shape.rescored_pairs"))
	if out.invalid != "" {
		fmt.Fprintf(w, "run invalid: %s\n", out.invalid)
	}

	values := make(map[string]float64)
	tailAt := tailPercentile(out.tailAt, len(out.lat))
	values["wall.latency_p50_s"] = median(out.lat)
	values["wall.latency_tail_s"] = percentile(out.lat, tailAt)
	values["wall.throughput_ops_s"] = out.throughput
	fmt.Fprintf(w, "wall clock over %d untraced ops: latency p50 %.4g s, p%g %.4g s, throughput %.4g ops/s\n",
		len(out.lat), values["wall.latency_p50_s"], tailAt, values["wall.latency_tail_s"], values["wall.throughput_ops_s"])
	fmt.Fprintf(w, "setup runs: %.3g s wall, %.3g s CPU\n", out.setup, out.setupCPU)

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		layerValues(w, out, values)
	} else {
		values["cpu_s_per_op"] = ratio(out.cpu, float64(len(out.lat)))
		values["success_ratio"] = 1 - ratio(float64(out.failed), float64(out.attempted))
		values["setup_s"] = median(out.setupCPU)
		values["max_rss_mb"] = out.rssMB
	}
	for _, d := range defs {
		v := values[d.name]
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res
}

// layerValues fills the per-layer metrics: span medians, the workload's own
// per-op samples, and the trace's closure against the op latency.
func layerValues(w io.Writer, out *outcome, values map[string]float64) {
	for name, xs := range out.layers {
		values[name] = median(xs)
	}
	for _, m := range spanMetrics {
		if v, ok := out.tr.median(m.span, false); ok {
			values[m.metric] = v
		}
	}
	untraced, traced := median(out.lat), median(out.tracedLat)
	values["trace.traced_p50_s"] = traced
	values["trace.overhead_s"] = traced - untraced

	var parts []string
	largest, largestS := "", -1.0
	for _, name := range out.critical {
		v, _ := out.tr.median(name, true)
		parts = append(parts, fmt.Sprintf("%s %.4g", name, v))
		if v > largestS {
			largest, largestS = name, v
		}
	}
	var sums []float64
	for _, v := range out.tr.perOp(out.critical, true) {
		sums = append(sums, v)
	}
	sum := median(sums)
	values["trace.layer_sum_s"] = sum
	fmt.Fprintf(w, "layer self times (median s): %s\n", strings.Join(parts, ", "))
	fmt.Fprintf(w, "per-op layer sum (median) %.4g s vs untraced p50 %.4g s + tracing overhead %.4g s = %.4g s\n",
		sum, untraced, traced-untraced, traced)
	fmt.Fprintf(w, "largest layer: %s (median self time %.4g s, %.0f%% of the per-op layer sum)\n",
		largest, largestS, 100*ratio(largestS, sum))
}
