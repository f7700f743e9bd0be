GO ?= go

.PHONY: all build test race vet bench bench-smoke bench-gate lint check \
	check-nolint examples-smoke fuzz-smoke cover loadtest-smoke calibrate \
	perfbench-test

all: check

build:
	$(GO) build ./...

# -shuffle=on randomizes test and subtest order so accidental order
# dependencies surface; on failure the test binary prints its
# `-test.shuffle <seed>` line, which reproduces the failing order exactly.
test:
	$(GO) test -shuffle=on ./...

# Race-verify the concurrent collector and everything that records into it,
# plus internal/stats for the sharded null store's lock discipline,
# and the job service's manager/tenancy layers. The big concurrent load test
# is skipped here because loadtest-smoke runs it race-enabled on its own.
race:
	$(GO) test -race -skip TestJobServiceLoad ./internal/obs/... ./internal/core/... ./internal/partition/... ./internal/server/... ./internal/stats/... ./internal/jobs/... ./internal/tenant/...

# The concurrent load-test battery for the async job service: 1000 clients
# through submit -> poll -> fetch under the race detector, asserting no lost
# or duplicated jobs, exact backpressure accounting, byte-identical reports,
# and a clean drain. Bounded (~1 min on a small machine) so it runs on every
# check.
loadtest-smoke:
	$(GO) test -race -run 'TestJobServiceLoad' -count=1 ./internal/server

vet:
	$(GO) vet ./...

# One pass over every benchmark; use -benchtime/-count via BENCHFLAGS.
BENCHFLAGS ?= -benchtime 1x
bench:
	$(GO) test -run '^$$' -bench . $(BENCHFLAGS) .

# One -race pass over the dense-audit benchmarks in both candidate-generation
# modes, over one incremental delta re-audit, and over one full-volume LAR
# CSV read: cheap enough for every check run, and it exercises the audit's
# parallel precompute phase, dynamic row scheduler, zero-alloc pair kernel,
# sorted-index window join, Monte-Carlo null store, the delta auditor's
# plan repair, rescore, per-region cache commit and match against a cold
# audit, and the CSV reader's byte-level path under the race detector.
bench-smoke:
	$(GO) test -run '^$$' -bench 'AuditDense/R=[0-9]+/(dense|indexed)|DeltaAudit|ReadCSV' -benchtime 1x -race .

# CI perf-regression gate: re-run the dense-audit benchmark at the committed
# trajectory's reference row — matched by region count AND worker count so
# the comparison is like-for-like — and fail if pair throughput dropped more
# than 20% below the committed BENCH_audit.json row. Machine noise sits well
# inside the tolerance; a >20% drop means the engine regressed. The same
# invocation then runs the worker-scaling check: fresh workers=1 vs
# workers=4 audits must reach >=0.7x the machine's ideal speedup (the ideal
# is min(workers, cpus), so single-core runners gate fan-out overhead
# instead of demanding impossible parallel speedup).
BENCHGATE_REGIONS ?= 3000
BENCHGATE_WORKERS ?= 1
bench-gate:
	$(GO) run ./cmd/lcsf-bench -bench-gate BENCH_audit.json \
		-bench-gate-regions $(BENCHGATE_REGIONS) \
		-bench-gate-workers $(BENCHGATE_WORKERS) \
		-bench-gate-scaling

# The repository benchmark's own tests: its metric catalogue against
# BENCHMARK.json, every declared metric emitted by a short run, and a
# corrupted reference failing the comparison. perfbench is a module of its
# own, so `go test ./...` at the root never reaches it, and a change to the
# internal APIs it calls would otherwise break it unseen. About 17 s on
# 2 vCPUs.
perfbench-test:
	cd perfbench && $(GO) test ./...

# Project-specific static analysis (see internal/lint and README's "Static
# analysis" section): determinism, RNG discipline, float safety, nil-safe
# observability, unchecked errors, plus the dataflow analyzers — hot-path
# allocation, seed provenance, lock discipline, cancellation polling — and
# deadexport, which flags internal exports no production code uses. The
# perfbench module is loaded read-only, through its own go.mod, as a caller
# of the internal packages; without it deadexport stays silent.
lint:
	$(GO) run ./cmd/lcsf-lint ./... ./perfbench/...

# Build and run every example at reduced size (LCSF_EXAMPLE_FAST, see
# examples/internal/exenv) so example drift against the library API fails
# the check run instead of rotting silently. Output is discarded; only the
# exit status matters.
examples-smoke:
	@for d in examples/*/; do \
		case $$d in examples/internal/) continue;; esac; \
		echo "example $$d"; \
		LCSF_EXAMPLE_FAST=1 $(GO) run ./$$d >/dev/null || exit 1; \
	done

# A bounded pass of every fuzz target: each first replays its checked-in
# corpus, then mutates for FUZZTIME. FUZZ_TARGETS pairs each target with its
# package, because the go tool accepts one -fuzz pattern and one package per
# invocation. internal/verify's targets are differential checks of the
# audit kernels and the binomial sampler; internal/table's pin the CSV reader and its number parsers
# to encoding/csv and strconv; FuzzIngestAudit takes arbitrary CSV bytes
# through the service's ingest into an audit under a wall-time bound.
FUZZTIME ?= 4s
FUZZ_TARGETS = \
	FuzzMannWhitneySorted:./internal/verify \
	FuzzMannWhitneyBucketed:./internal/verify \
	FuzzKolmogorovSmirnovSorted:./internal/verify \
	FuzzWelchTFromMoments:./internal/verify \
	FuzzPairNullCache:./internal/verify \
	FuzzFillPairNull:./internal/verify \
	FuzzBinomialSampler:./internal/verify \
	FuzzNormalRoundTrip:./internal/verify \
	FuzzFDR:./internal/verify \
	FuzzDeltaPartition:./internal/verify \
	FuzzReadCSV:./internal/table \
	FuzzParseNumber:./internal/table \
	FuzzIngestAudit:./internal/server
fuzz-smoke:
	@for tp in $(FUZZ_TARGETS); do \
		t=$${tp%%:*}; p=$${tp#*:}; \
		echo "fuzz $$t ($$p)"; \
		$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) $$p || exit 1; \
	done

# The calibration judge: for a grid of null-store keys, the Monte-Carlo
# tail at the exact alpha = 0.05 and 0.2 critical values must lie within a
# binomial band around the exact tail, summed over both binomial pmfs with
# no simulator (internal/verify/calibration_test.go). It prints every key's
# rates and z-score. Budget: about 4 s on 2 vCPUs; the timeout stops a
# run at 60 s. It is fast enough to run in `make test` too.
calibrate:
	$(GO) test -count=1 -timeout 60s -run '^TestNullCalibration$$' -v ./internal/verify

# Statement-coverage gate over the numerical heart of the framework. The
# floor lives in COVERAGE.txt; ratchet it up when coverage improves, never
# down. (Coverage of a fixed tree is deterministic, so a small safety margin
# below the measured value absorbs legitimate refactors, not regressions.)
cover:
	@$(GO) test -coverprofile=coverage.out ./internal/core ./internal/stats
	@actual=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	floor=$$(cat COVERAGE.txt); \
	echo "coverage: $$actual% of statements (floor $$floor%)"; \
	awk -v a="$$actual" -v f="$$floor" 'BEGIN { exit !(a+0 >= f+0) }' || \
		{ echo "coverage $$actual% is below the $$floor% floor in COVERAGE.txt"; exit 1; }

check: build vet test race loadtest-smoke bench-smoke lint examples-smoke calibrate cover fuzz-smoke perfbench-test

# Everything in check except lint — CI runs lint as its own job (with its own
# cache key) so analyzer findings surface as annotations, not a buried log.
check-nolint: build vet test race loadtest-smoke bench-smoke examples-smoke calibrate cover fuzz-smoke perfbench-test
