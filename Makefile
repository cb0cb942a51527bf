GO ?= go

.PHONY: build test vet race flake loc check api-snapshot api-check bench bench-compare bench-smoke bench-obs bench-dataplane bench-dataplane-short bench-elastic bench-elastic-multi bench-cache

# Packages whose exported surface is frozen under docs/api/ — changing
# their API requires regenerating the snapshot in the same change.
API_PKGS := \
	repro/internal/driver \
	repro/internal/config \
	repro/internal/head \
	repro/internal/cluster \
	repro/internal/jobs \
	repro/internal/protocol \
	repro/internal/core \
	repro/internal/apps \
	repro/internal/elastic

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Flake hunt over the packages whose tests race goroutines against the
# head's locking: many plain repetitions, then fewer under the race
# detector; then the daemon binaries' end-of-session ordering (Shutdown
# notice → worker exit → Head.Close, and SIGTERM on a parked worker), three
# times over real processes. Any failure here is a bug in a test or in the
# code; target 0.
FLAKE_PKGS := ./internal/cluster ./internal/head ./internal/driver
flake:
	$(GO) test -count=20 $(FLAKE_PKGS)
	$(GO) test -race -count=5 $(FLAKE_PKGS)
	$(GO) test -count=3 -run TestEndToEndDaemons .

# The size of the tree, outside the benchmark: ROADMAP's "success is a
# negative line count" as a number to quote in every PR.
loc:
	@printf 'non-test Go lines outside bench/: '; \
		find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l
	@printf 'test Go lines outside bench/:     '; \
		find . -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

# Regenerate the exported-API snapshots. Run after an intentional API
# change and commit the diff alongside it.
api-snapshot:
	@mkdir -p docs/api
	@for p in $(API_PKGS); do \
		$(GO) doc -all $$p > docs/api/$$(basename $$p).txt || exit 1; \
	done
	@echo "api snapshots written to docs/api/"

# Fail when any frozen package's `go doc -all` output drifts from its
# snapshot: API changes must be explicit, reviewed diffs.
api-check:
	@fail=0; for p in $(API_PKGS); do \
		snap=docs/api/$$(basename $$p).txt; \
		if ! $(GO) doc -all $$p | diff -u $$snap - ; then \
			echo "exported API of $$p drifted from $$snap (run 'make api-snapshot' and review)"; \
			fail=1; \
		fi; \
	done; exit $$fail

# The CI gate: static checks, the API freeze, and the full suite under
# the race detector.
check: vet api-check race

# The live loopback benchmark (bench/README.md): RUNS fresh processes of
# WORKLOAD (one of the six names, or all), records written to OUT for
# bench-compare. `make bench-compare A=parent.json B=change.json` prints
# quartiles and deltas against the bounds and exits 1 on a regression.
WORKLOAD ?= all
RUNS ?= 1
OUT ?= bench.json
bench:
	$(GO) run ./bench -workload $(WORKLOAD) -runs $(RUNS) -out $(OUT)

bench-compare:
	$(GO) run ./bench compare $(A) $(B)

# CI smoke: all six workloads at -scale tiny, every result checked, under
# the race detector. Numbers are not gated on shared runners.
bench-smoke:
	$(GO) test -race -count=1 -run TestTinyWorkloads ./bench

# Guard the near-free-when-disabled observability promise. The automated
# gate (TestObsOverheadGate) asserts the disabled-Obs alloc overhead on the
# Fig 3 KNN sweep stays under 2%; the benchmarks print the wall-clock
# numbers for human comparison.
bench-obs:
	BENCH_OBS_GATE=1 $(GO) test -count=1 -run TestObsOverheadGate -v .
	$(GO) test -run=NONE -bench 'BenchmarkFig3_KNN$$|BenchmarkFig3_KNN_Obs' -benchtime 50x -count 5 .

# Data-plane numbers for PR 3: the wire-codec chunk roundtrip (gob vs
# binary side by side, with the ≥2× throughput / ≥10× fewer-allocs
# acceptance gates) plus Fig1 real-engine ns/op. Writes BENCH_3.json.
bench-dataplane:
	BENCH_DATAPLANE_OUT=BENCH_3.json $(GO) test -run TestEmitBenchDataplane -v .
	$(GO) test -run=NONE -bench 'BenchmarkWire_ChunkRoundtrip' ./internal/transport

# CI variant: same gates, skips the slower Fig1 engine benchmarks.
bench-dataplane-short:
	BENCH_DATAPLANE_OUT=BENCH_3.json $(GO) test -short -run TestEmitBenchDataplane -v .

# Elasticity must be free when off: TestElasticOverheadGate asserts an inert
# arbiter hook adds <2% heap allocations to the Fig 3 KNN workload. Then
# the deadline×budget sweep regenerates the cost-vs-makespan frontier on the
# compute-bound app; the CSV lands at ELASTIC_SWEEP_OUT (default
# elastic_sweep.csv) so CI can archive it when the frontier gates fail.
ELASTIC_SWEEP_OUT ?= elastic_sweep.csv
bench-elastic:
	BENCH_ELASTIC_GATE=1 $(GO) test -count=1 -run TestElasticOverheadGate -v .
	$(GO) run ./cmd/cloudburst elastic -app kmeans -short -csv $(ELASTIC_SWEEP_OUT)

# Multi-query arbiter numbers for PR 9: the mixed-policy 3-query workload
# under one session-wide fleet, with the arbiter-vs-simulator cost-agreement
# and deterministic-rerun gates. Writes BENCH_9.json.
bench-elastic-multi:
	BENCH_ELASTIC_MULTI_OUT=BENCH_9.json $(GO) test -count=1 -run TestEmitBenchElasticMulti -v .

# Cache-tier numbers for PR 8: the burst-side partition cache's sim warm
# speedup (≥3× vs an uncached cold pass), warm-pass hit rate, and the
# <2% live-data-plane overhead when the cache is disabled or inert.
# Writes BENCH_8.json.
bench-cache:
	BENCH_CACHE_OUT=BENCH_8.json $(GO) test -count=1 -run TestEmitBenchCache -v .
