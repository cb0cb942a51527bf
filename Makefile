GO ?= go

.PHONY: build test vet race flake fuzz examples results loc layout sim-bench control-bench kernel-bench datagen-bench check api-snapshot api-check bench bench-compare bench-smoke bench-obs bench-elastic bench-elastic-multi bench-cache

# Packages whose exported surface is frozen under docs/api/ — changing
# their API requires regenerating the snapshot in the same change.
API_PKGS := \
	repro/internal/driver \
	repro/internal/config \
	repro/internal/head \
	repro/internal/cluster \
	repro/internal/jobs \
	repro/internal/protocol \
	repro/internal/transport \
	repro/internal/core \
	repro/internal/apps \
	repro/internal/elastic \
	repro/internal/fault \
	repro/internal/costmodel \
	repro/internal/hybridsim \
	repro/internal/estimate

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static checks: go vet, and gofmt over every Go file outside testdata/
# (a listed file fails the target).
vet:
	$(GO) vet ./...
	@unformatted=$$(find . -name '*.go' -not -path '*/testdata/*' | xargs gofmt -l); \
		if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

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

# Run every fuzz target for FUZZTIME, one `go test -fuzz` per target (the
# flag takes one target at a time). A finding fails the run and leaves its
# input under the package's testdata/fuzz/ for the regression suite.
FUZZTIME ?= 15s
FUZZ_TARGETS := \
	FuzzDecodeFrame:./internal/protocol \
	FuzzDecodeFloat64Vector:./internal/core \
	FuzzPageRankParams:./internal/apps \
	FuzzKNNParams:./internal/apps \
	FuzzKMeansParams:./internal/apps \
	FuzzReadIndex:./internal/chunk \
	FuzzParsePlan:./internal/fault \
	FuzzObjstoreRequest:./internal/objstore \
	FuzzQueryFlag:./cmd/cloudburst
fuzz:
	@for t in $(FUZZ_TARGETS); do \
		name=$${t%%:*}; pkg=$${t#*:}; \
		echo "fuzz $$name in $$pkg for $(FUZZTIME)"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
	done

# Build and run every program under examples/ once, in turn; one that
# fails to build or exits non-zero fails the target. They have no tests,
# so this is what keeps them running against the packages they show.
EXAMPLES := $(notdir $(patsubst %/,%,$(dir $(wildcard examples/*/main.go))))
examples:
	@dir=$$(mktemp -d) && for ex in $(EXAMPLES); do \
		echo "example $$ex"; \
		$(GO) build -o $$dir/$$ex ./examples/$$ex && $$dir/$$ex || { rm -rf $$dir; echo "example $$ex failed"; exit 1; }; \
	done; rm -rf $$dir

# Regenerate the paper-table snapshot that TestPaperTablesMatchResults pins
# (every section but Figure 1's wall-clock timings) and the fault-sweep
# goldens TestFaultTableMatchesGolden pins. Run after an intended change to
# a simulated table and commit the diff alongside it.
results:
	$(GO) run ./cmd/cloudburst all > results_all.txt
	@for app in knn kmeans pagerank; do \
		$(GO) run ./cmd/cloudburst faults -app $$app | sed '$$d' > internal/experiments/testdata/faults_$$app.golden || exit 1; \
	done

# The size of the tree, outside the benchmark: ROADMAP's "success is a
# negative line count" as a number to quote in every PR.
loc:
	@printf 'non-test Go lines outside bench/: '; \
		find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l
	@printf 'test Go lines outside bench/:     '; \
		find . -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

# Where the linker put (*KMeansReducer).search, which holds the kmeans hot
# loop, and runtime.memmove in the bench binary, and each address mod 64:
# kmeans-compute's speed has followed them (the loop's older homes were
# nearest, and LocalReduce, which was fast at ≡ 0 and slow at ≡ 32; a
# memmove move alone has coincided with a kmeans-compute shift), so every
# change reports both until the build is layout-stable.
layout:
	@dir=$$(mktemp -d) && $(GO) build -o $$dir/bench ./bench && \
		$(GO) tool nm $$dir/bench > $$dir/nm && rm -f $$dir/bench && \
		for sym in 'repro/internal/apps.(*KMeansReducer).search' runtime.memmove; do \
			addr=$$(awk -v s="$$sym" '$$3 == s && $$2 == "T" { print $$1 }' $$dir/nm); \
			test -n "$$addr" || { rm -rf $$dir; echo "layout: $$sym not found"; exit 1; }; \
			echo "$${sym#repro/internal/} 0x$$addr mod64=$$((0x$$addr % 64))"; \
		done; rm -rf $$dir

# The simulator's speed and allocations on the paper-scale evaluation:
# ten samples of BenchmarkPaperScaleRun, for comparing a change against its
# parent (alternate the two trees; run nothing else meanwhile); then five
# samples each of the fleet estimator (BenchmarkMakespanRemaining, two data
# sites with 0, 16 and 64 burst workers) and of one arbiter tick over eight
# policied queries (BenchmarkArbiterStep).
sim-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkPaperScaleRun$$' -benchmem -count=10 ./internal/hybridsim
	$(GO) test -run '^$$' -bench 'BenchmarkMakespanRemaining$$' -benchmem -count=5 ./internal/estimate
	$(GO) test -run '^$$' -bench 'BenchmarkArbiterStep$$' -benchmem -count=5 ./internal/elastic

# The head's grant path: five samples each of the fair-share drain (ns and
# allocs per granted job) and the single-pool assign/commit cycle; then the
# head's poll with the last grant's commit riding on it against a poll plus
# its own commit, and riding polls over 4 KiB jobs with a 1 MiB byte floor
# (ns, allocs and polls per committed job).
control-bench:
	$(GO) test -run '^$$' -bench 'Benchmark(FairShareAssign|PoolAssignComplete)$$' -benchmem -count=5 ./internal/jobs
	$(GO) test -run '^$$' -bench 'BenchmarkPollCommit$$' -benchmem -count=5 ./internal/head

# The application kernels' fold throughput and allocations: five samples
# each of the kNN, k-means (worst case and clustered), PageRank and
# histogram local reductions on the real engine (bytes folded per second,
# allocations per pass), and of building the k-means search's tables at K
# 32 and 1024.
kernel-bench:
	$(GO) test -run '^$$' -bench 'Benchmark((KNN|KMeans|KMeansClustered|PageRank|Histogram)Kernel|NewKMeansReducer)$$' -benchmem -count=5 ./internal/apps

# Dataset generation, the bulk of the live benchmark's set-up: five samples
# each of Build over 32 MiB at the benchmark's uniform, clustered and graph
# shapes (the graph's init included) and of the 1 M-node graph's init
# alone, at one and two procs (MB/s, allocations).
datagen-bench:
	$(GO) test -run '^$$' -bench 'Benchmark(Build|PowerLawGraphInit)$$' -benchmem -cpu 1,2 -count=5 ./internal/workload

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
