# Jinjing reproduction — common development targets.

GO ?= go

.PHONY: all build test test-full race fuzz fuzz-backends fuzz-snapshots faults daemon-test daemon-chaos lint bench bench-check bench-shard experiments examples vet fmt clean

all: build vet test

build:
	$(GO) build ./...

# perfbench/ is its own module (replace jinjing => ../), so the root
# ./... never compiles it; vet it explicitly so a core API change that
# breaks the benchmark harness fails here.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

fmt:
	gofmt -l -w .

# Default suite: vet, the fast (-short) tier, then a race-detector pass
# over the concurrency-bearing packages (worker pool, parallel fix, obs
# sinks). Stays well under the ~9 min full-suite budget.
test: vet
	$(GO) test -short ./...
	$(GO) test -race -short ./internal/core ./internal/sat ./internal/smt

# Full suite: everything, including the §8 experiment tables with the
# large WAN (tens of minutes on a single-core machine).
test-full:
	JINJING_EXPERIMENTS_LARGE=1 $(GO) test -timeout 30m ./...

# Race-detector pass over the fast suite (check worker pool, obs sinks).
race:
	$(GO) test -race -short ./...

# Bounded differential-fuzz corpus: the full (non-short) randomized
# harness pinning Check at every worker count == monolithic, plus the
# sequential-vs-parallel fix agreement corpus.
fuzz:
	$(GO) test -count=1 -run 'TestFuzz|TestFixParallelMatchesSequential' ./internal/core

# Three-way backend lane: the fixed 160-case differential corpus
# (forced SAT vs forced pset vs auto-parallel vs monolithic, witness
# replay included), then 30 seconds of open-ended native fuzzing over
# random networks, edits, and option toggles.
fuzz-backends:
	$(GO) test -count=1 -run TestFuzzBackendThreeWay ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzBackendAgreement -fuzztime 30s ./internal/core

# Snapshot-codec lane: the committed corpus plus the structured
# mutation sweep (flags, lengths, pair refs, checksum, truncation) and
# 30 seconds of open-ended native fuzzing over Decode — every accepted
# input must round-trip byte-identically through Encode.
fuzz-snapshots:
	$(GO) test -count=1 -run 'TestSnapshotRestoreMutationSweep|TestFuzzSnapshotEditSequences' ./internal/store ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzSnapshotRestore -fuzztime 30s ./internal/store

# Fault-injection lane: every TestFault* scenario (solver timeouts,
# transient faults, worker panics, pool collapse, deadline
# cancellation, snapshot write/restore crashes) under the race
# detector. The faultinject registry is process-global, so these tests
# never run in parallel with each other.
faults:
	$(GO) test -race -short -count=1 -run 'TestFault' ./internal/core ./internal/faultinject ./internal/store ./internal/serve

# jinjingd daemon lane: the end-to-end warm-session suite (including
# the warm-daemon vs cold-CLI byte-identity check, which builds the
# jinjing binary — hence no -short), the concurrency/admission tests,
# the restart-recovery suite, and the serve.job fault scenarios, all
# under the race detector.
daemon-test:
	$(GO) test -race -count=1 ./internal/serve ./internal/obs/serve

# jinjingd chaos lane: crash-and-restart cycles under the race
# detector — kill-during-snapshot, kill-during-drain, and repeated
# crash/restore loops driven by the store fault-injection sites.
daemon-chaos:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/serve

# Formatting + static checks; fails when any file needs gofmt.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

# The Figure 4a–4d benchmark harness.
bench:
	$(GO) test -bench=. -benchmem ./...

# Bench regression gate: rerun the incremental, shard, and backend
# figures (medium size) and fail if a speedup (or sharding-overhead)
# ratio regresses >25% against the committed BENCH_incremental.json /
# BENCH_shard.json / BENCH_backend.json baselines or the
# identical-output invariant breaks. Part of the weekly CI lane.
bench-check:
	JINJING_BENCH_CHECK=1 $(GO) test -count=1 -v -run TestBenchCheck ./internal/experiments

# Regenerate the shard-scaling baseline (BENCH_shard.json): the full
# small→xlarge grid with the xlarge tier opted in. The xlarge
# monolithic arm is the multi-minute, memory-heavy cell the figure
# exists to demonstrate against — budget several minutes.
bench-shard:
	JINJING_EXPERIMENTS_LARGE=1 $(GO) run ./cmd/jinjing-experiments \
		-figures shard -large -json BENCH_shard.json

# Regenerate the evaluation tables (small+medium; add -large manually)
# plus the machine-readable BENCH_experiments.json artifact.
experiments:
	$(GO) run ./cmd/jinjing-experiments -json BENCH_experiments.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/migration
	$(GO) run ./examples/isolation

clean:
	$(GO) clean ./...
