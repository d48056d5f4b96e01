# Local mirror of .github/workflows/ci.yml: each target matches one CI
# job, so `make ci` reproduces exactly what CI runs.

GO ?= go

.PHONY: build test benchmark-module race bench bench-allocs kernel-equivalence lint chaos crash resume fleet-soak fuzz-smoke sketch-smoke topo-smoke cover ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# benchmark/ is its own module, out of reach of `go test ./...`; its
# smoke test builds the repository benchmark against this tree and runs
# every workload at -quick scale. Matches the CI benchmark-module job.
benchmark-module:
	$(GO) test -C benchmark .

# The race target certifies the deterministic parallel replication
# engine (internal/parallel) and every fan-out built on it. The
# experiments package re-runs whole artifact suites under the detector
# and sits near go test's default 10-minute per-package timeout, so the
# limit is raised explicitly. The striped limiter and the journal lanes
# are shared by every deciding goroutine; their concurrent tests run ten
# times over, since one pass sees one interleaving.
race:
	$(GO) test -race -timeout 30m ./...
	$(GO) test -race -count=10 -timeout 10m -run 'Concurrent|Parallel|UnderTraffic' ./internal/core ./internal/durable

# One iteration per benchmark: a smoke run that keeps bench_test.go
# compiling and completing, matching the CI bench-smoke job. Full
# measurement runs are `go test -bench=. -benchmem` at the repo root.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# bench-allocs holds the one contract the repository benchmark
# (benchmark/README.md) cannot express: the internet-scale run, its
# population rebuild, the wheel's deep-churn benchmarks and the heap's
# shallow one recycle every arena, and the exact limiter decides a known
# host from its table slot, so their steady state must record 0
# allocs/op. One "package:pattern"
# pair per row (-bench splits its pattern at every slash, so the rows
# cannot share one); a row that matches no benchmark fails too. Matches
# the CI bench-smoke job's second step.
ALLOC_FREE ?= sim:BenchmarkSimRun10M$$ addr:BenchmarkRepopulate10M$$ \
	des:BenchmarkEventKernelChurn/kernel=wheel \
	des:BenchmarkEventKernelChurn/kernel=heap/pending=1k$$ \
	core:BenchmarkObserveParallel/backend=exact,mix=uniform
bench-allocs:
	@for row in $(ALLOC_FREE); do \
		$(GO) test -run '^$$' -bench "$${row#*:}" -benchmem ./internal/$${row%%:*} | awk ' \
			{ print } \
			/^(--- FAIL|FAIL)/ { bad = 1 } \
			/^Benchmark/ { n++; for (i = 2; i <= NF; i++) if ($$i == "allocs/op" && $$(i-1) != 0) { print "allocates: " $$1; bad = 1 } } \
			END { exit (bad || !n) }' || { echo "bench-allocs: $$row failed" >&2; exit 1; }; \
	done

# kernel-equivalence proves the timing-wheel kernel observationally
# identical to the heap reference: randomized kernel fire-sequence
# equality, golden-scenario fingerprint parity, and byte-identical
# experiment artifacts across backends and worker counts.
kernel-equivalence:
	$(GO) test -run 'Kernel|Wheel' -count=1 \
		./internal/des ./internal/sim ./internal/experiments

# The gateway and fleet chaos suites under the race detector across the
# same fault seeds CI sweeps. Override with CHAOS_SEEDS="42" for a
# single seed.
CHAOS_SEEDS ?= 1 7 1905
chaos:
	@for s in $(CHAOS_SEEDS); do \
		echo "chaos seed $$s"; \
		WORMGATE_CHAOS_SEED=$$s $(GO) test -race -run 'Chaos' -count=1 ./internal/gateway ./internal/fleet || exit 1; \
	done

# The crash suites under the race detector: every WAL write/fsync/
# snapshot/rename point is crashed in turn and recovery must reproduce
# an acknowledged prefix of the limiter's history (internal/durable),
# a fleet peer killed mid-gossip must restart from its WAL still
# enforcing and re-serving every alert it had acknowledged
# (internal/fleet), and the shared storage layer crashed at every
# filesystem operation must recover exactly the last published content
# or an acknowledged record prefix (internal/crashsafe: publish and
# append log; internal/simstate: checkpoint generations). The pattern
# also takes the journal-ordering tests (cycle rolls and
# snapshot cuts under concurrent observers, gap-free drains, the
# degraded store). Seeds
# match the CI matrix; override with CRASH_SEEDS="42" for a single
# seed.
CRASH_SEEDS ?= 1 7 1905
crash:
	@for s in $(CRASH_SEEDS); do \
		echo "crash seed $$s"; \
		WORMGATE_CRASH_SEED=$$s $(GO) test -race -run 'Crash|UnderTraffic|DrainGapFree|Degraded' -count=1 ./internal/crashsafe ./internal/durable ./internal/fleet ./internal/simstate || exit 1; \
	done

# The resume-equivalence suite: checkpointed runs, kernel-crossing
# resumes and the sim-layer seed sweep (goldenSeeds 1/7/1905 × both
# kernels live inside the tests), the simstate directory and crashsafe
# append-log contracts, the Monte-Carlo progress journal, and the wormsim CLI
# end-to-end resume — swept across extra trajectory seeds to match the
# CI resume matrix. Override with RESUME_SEEDS="42" for a single seed.
RESUME_SEEDS ?= 1 7 1905
resume:
	$(GO) test -run 'Checkpoint|Resume|Journal|Log|Dir' -count=1 \
		./internal/sim ./internal/crashsafe ./internal/simstate ./internal/experiments
	@for s in $(RESUME_SEEDS); do \
		echo "resume seed $$s"; \
		WORMSIM_RESUME_SEED=$$s $(GO) test -run 'RunCheckpoint' -count=1 ./cmd/wormsim || exit 1; \
	done

# The fleet soak: a seeded workload of randomized traffic, partitions
# and heals across a (seed × fleet size) matrix; every cell must
# converge to a byte-identical immunization set on every peer, twice,
# with identical final state both times. Matches the CI fleet-soak
# matrix; override either axis, e.g. FLEET_SIZES="8".
FLEET_SEEDS ?= 1 7 1905
FLEET_SIZES ?= 2 4 8
fleet-soak:
	@for s in $(FLEET_SEEDS); do \
		for n in $(FLEET_SIZES); do \
			echo "fleet soak seed $$s size $$n"; \
			WORMGATE_FLEET_SEED=$$s WORMGATE_FLEET_SIZE=$$n \
				$(GO) test -race -run 'FleetSoak' -count=1 ./internal/fleet || exit 1; \
		done; \
	done

# The sketch estimator's accuracy study in smoke mode, matching the CI
# sketch-accuracy job: the golden fingerprints in
# internal/experiments/testdata/golden_sketch.json pin the artifact's
# output byte-for-byte at fixed seeds, and the worker-invariance test
# re-runs it across worker counts. Regenerate the goldens only for an
# intentional sample-path change:
#   go test -run TestSketchAccuracyGolden -update-sketch ./internal/experiments
sketch-smoke:
	$(GO) test -run 'Sketch' -count=1 ./internal/experiments

# The topology suite in smoke mode, matching the CI topo-smoke job:
# graph-generation goldens, the spectral-threshold property tests, the
# infection-tree validators, and the topology-containment artifact's
# golden fingerprints plus worker invariance. Regenerate the goldens
# only for an intentional sample-path change:
#   go test -run TestTopo -update-topo ./internal/topo ./internal/experiments
topo-smoke:
	$(GO) test -run 'Topo' -count=1 ./internal/topo ./internal/sim ./internal/experiments

# Ten seconds of native fuzzing per target, matching the CI fuzz-smoke
# job.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzPrometheusWriter -fuzztime 10s ./internal/telemetry
	$(GO) test -run '^$$' -fuzz FuzzReportLine -fuzztime 10s ./internal/gateway
	$(GO) test -run '^$$' -fuzz FuzzScan -fuzztime 10s ./internal/crashsafe
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 10s ./internal/durable
	$(GO) test -run '^$$' -fuzz FuzzAdjacencyParser -fuzztime 10s ./internal/topo
	$(GO) test -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzLimiterSnapshotDecode -fuzztime 10s ./internal/core

# Coverage floors, one "package:floor%" pair per row: the deployable
# network path, the crash-safe storage layer and the durability layer on
# top of it, the containment policy plus sketch estimator, and the graph
# topology layer. .github/workflows/ci.yml carries the same table.
# Profiles are written into the gitignored coverage/ dir, never the repo
# root.
COVER_FLOORS ?= gateway:88.8 crashsafe:85 durable:85 core:94 topo:90
cover:
	@mkdir -p coverage
	@for row in $(COVER_FLOORS); do \
		pkg=$${row%%:*}; floor=$${row##*:}; \
		$(GO) test -count=1 -coverprofile=coverage/cover-$$pkg.out ./internal/$$pkg || exit 1; \
		total=$$($(GO) tool cover -func=coverage/cover-$$pkg.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
		echo "internal/$$pkg coverage: $$total% (floor $$floor%)"; \
		awk -v t="$$total" -v f="$$floor" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || \
			{ echo "internal/$$pkg coverage $$total% is below the $$floor% floor" >&2; exit 1; }; \
	done

lint:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi
	$(GO) vet ./...

ci: lint build test benchmark-module race chaos crash resume fleet-soak sketch-smoke topo-smoke kernel-equivalence cover bench bench-allocs
