# Local targets mirror .github/workflows/ci.yml one-for-one, so "it passes
# locally" and "it passes in CI" are the same command. REPRO_SCALE bounds
# simulation effort (small|default|paper); REPRO_WORKERS bounds the grid
# scheduler's fan-out.

REPRO_SCALE ?= small
export REPRO_SCALE

# COVER_FLOOR is the minimum total statement coverage `make cover` accepts.
# The measured baseline is ~79%; the floor leaves a little slack so small
# refactors don't flake, while a test-less subsystem still fails the gate.
COVER_FLOOR ?= 75.0

# FUZZTIME bounds each fuzz target's run in `make fuzz` (CI uses 10s).
FUZZTIME ?= 10s

.PHONY: all build test race bench bench-json bench-micro bench-compare bench-serve serve-smoke store-smoke fleet-smoke sample-smoke fmt vet lint cover fuzz examples ci

all: build test

build:
	go build ./...

test:
	go test ./...

# The second command pins the detailed pipeline against testdata/golden.json,
# the pipelined fast-forward against the serial schedule, the concurrent
# restore skip, snapshot restore, the LRU buffers against their
# linear-scan references, AirBTB against its bundle-map reference, the
# L1-I slot path and the fused BTB Predict against the Lookup/Insert and
# Lookup-then-Resolve they replace, the resident-block invariant and the
# stream/weave cache-line split, whatever the machine's core count: at
# -cpu 1 the stage, stepping and skipping goroutines share the weave's or
# the replay's CPU, at -cpu 4 they run beside it.
race:
	go test -race ./...
	go test -race -count=1 -cpu 1,4 -run 'TestGoldenStats|TestStaged|FastForward|TestIntra|SkipRecords|Restore|Victim|BundleMapReference|MatchesLookup|ResidentBlockNeverInFlight|AirBTBStepsBitIdentical|StreamFieldsOffWeaveLines' . ./internal/cmp ./internal/core ./internal/cache ./internal/airbtb ./internal/btb ./internal/phantom ./internal/frontend

bench:
	go test -run '^$$' -bench=. -benchtime=1x ./...

# bench-json records a machine-readable benchmark snapshot (BENCH_OUT) for
# committing perf trajectories alongside PRs; see BENCH_pr3_*.json. The
# test run streams into benchjson, which records GOMAXPROCS and the CPU
# steal share over the run from /proc/stat, and which exits non-zero on
# any FAIL line so a failing benchmark fails the target despite the pipe.
# Snapshots take the median of 5 separate runs (-count=5; benchjson merges
# repeated lines per benchmark): a scheduler spike on a loaded or small
# machine contaminates one run, never the middle of five, whereas the old
# mean-of-3-iterations carried a third of every spike straight into
# bench-compare's 10% gate and made the committed trajectory a coin flip.
BENCH_OUT ?= bench.json
bench-json:
	go test -run '^$$' -bench=. -benchtime=1x -count=5 -benchmem ./... | go run ./cmd/benchjson > $(BENCH_OUT)

# bench-micro records the per-structure micro-benchmarks — the caches and
# LRU buffers, AirBTB, the frontend step paths, the branch predictor, the
# flat map, trace decode, and cmp's fast-forward phase — at a real
# -benchtime (one second per run, five runs, median kept) into
# MICRO_OUT. bench-json's one-iteration runs time a single ~100ns call,
# which says nothing about these layers; see BENCH_pr23_micro_*.json.
MICRO_OUT ?= bench_micro.json
bench-micro:
	{ go test -run '^$$' -bench=. -benchtime=1s -count=5 -benchmem ./internal/cache ./internal/airbtb ./internal/frontend ./internal/bpu ./internal/flatmap ./internal/trace; \
	  go test -run '^$$' -bench='^BenchmarkFastForward$$' -benchtime=1s -count=5 -benchmem ./internal/cmp; } | go run ./cmd/benchjson > $(MICRO_OUT)

# bench-compare gates the committed perf trajectory: per-benchmark ns/op
# deltas between the PR's before/after snapshots, failing on >10%
# regressions among benchmarks present in both. The floor exempts
# sub-100µs micro-benchmarks from gating (still printed): at the
# snapshots' -benchtime=1x a single ~100ns call cannot be timed reliably,
# and gating on it would flag a random set every run.
BENCH_BEFORE ?= BENCH_pr22_before.json
BENCH_AFTER  ?= BENCH_pr22_after.json
bench-compare:
	go run ./cmd/benchjson -compare -floor 100000 $(BENCH_BEFORE) $(BENCH_AFTER)

# bench-serve snapshots the serving layer's job latency (p50/p99 at 1, 8,
# and 64 concurrent clients) as a benchjson artifact; the committed
# baseline is BENCH_pr6_serve.json.
SERVE_BENCH_OUT ?= BENCH_serve.json
bench-serve:
	go test ./internal/serve -run '^$$' -bench BenchmarkServeLatency -benchtime=20x > $(SERVE_BENCH_OUT).txt
	go run ./cmd/benchjson < $(SERVE_BENCH_OUT).txt > $(SERVE_BENCH_OUT)
	@rm -f $(SERVE_BENCH_OUT).txt

# serve-smoke boots the real confluence-serve binary (race-enabled),
# submits the golden design point over HTTP, compares the served stats
# against testdata/golden.json, and SIGTERMs it expecting a clean drain.
serve-smoke:
	SERVE_SMOKE=1 go test ./cmd/confluence-serve -run TestServeSmoke -count=1 -v

# store-smoke exercises durable resume end to end with the real binary:
# run a small sweep with -store, SIGKILL it after its first completed
# cell, re-run the same command (must hit the store), and diff its stdout
# byte-for-byte against a from-scratch run with an empty store.
store-smoke:
	STORE_SMOKE=1 go test ./cmd/confluence-sim -run TestStoreSmoke -count=1 -v

# fleet-smoke proves the fleet protocol preemption-proof with the real
# race-enabled binary: a coordinator plus three workers share one sweep,
# two workers SIGKILL themselves mid-cell (chaos kill-after-claims) and
# their cells are reclaimed via lease expiry; the coordinator's stdout
# must be byte-identical to a serial run. A second grid with a poison
# cell must quarantine it after the retry budget and exit non-zero. A
# third, a mixstudy (2 workloads on Confluence, shared and private
# history plus baselines), runs on a coordinator and one worker; its
# stdout must match the serial -job run's and the coordinator must print
# its fleet report.
fleet-smoke:
	FLEET_SMOKE=1 go test ./cmd/confluence-sim -run TestFleetSmoke -count=1 -v -timeout 15m

# sample-smoke pins sampled mode's acceptance bound with the real binary:
# the Figure 1 BTB capacity sweep (a full figure of prefetcherless cells,
# where sampled full-coverage MPKI is event-exact) run exact and with
# -sample must agree within 1% on every cell while the sampled plan
# details at least 10x fewer instructions; the sampled sweep's stdout must
# also be byte-identical run one cell at a time at GOMAXPROCS=4 (-workers
# 1, so each cell steps four cores at once) and fully serial at
# GOMAXPROCS=1.
sample-smoke:
	SAMPLE_SMOKE=1 go test ./cmd/confluence-sim -run TestSampleSmoke -count=1 -v -timeout 15m

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needs to run on:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

# lint runs the confluence-lint determinism suite (maprange, wallclock,
# seededrand, baregoroutine) over every package; see README "Static
# analysis". Exit 1 means findings — fix them or justify each with a
# //confluence:allow <analyzer> <reason> directive.
lint:
	go run ./cmd/confluence-lint ./...

cover:
	go test -coverprofile=cover.out ./...
	@total=$$(go tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; }

# Warm-snapshot seeds are real snapshots of a few hundred KB: minimizing
# one such input for the default 60s would eat the whole fuzz budget, so
# FuzzRestoreWarmSnapshot bounds minimization by executions instead.
fuzz:
	go test ./internal/trace -run '^$$' -fuzz FuzzTraceRoundTrip -fuzztime=$(FUZZTIME)
	go test ./internal/trace -run '^$$' -fuzz FuzzReaderCorrupt -fuzztime=$(FUZZTIME)
	go test ./internal/store -run '^$$' -fuzz FuzzStoreEntry -fuzztime=$(FUZZTIME)
	go test . -run '^$$' -fuzz FuzzParseJobSpec -fuzztime=$(FUZZTIME)
	go test ./internal/serve -run '^$$' -fuzz FuzzServeHandlers -fuzztime=$(FUZZTIME)
	go test ./internal/fleet -run '^$$' -fuzz FuzzReadManifest -fuzztime=$(FUZZTIME)
	go test ./internal/fleet -run '^$$' -fuzz FuzzLeaseFiles -fuzztime=$(FUZZTIME)
	go test ./internal/core -run '^$$' -fuzz FuzzRestoreWarmSnapshot -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x

# examples runs every runnable example end to end (tiny scales), the smoke
# test that keeps them honest; mirrors the CI examples step.
examples:
	go run ./examples/quickstart
	go run ./examples/consolidation_study
	go run ./examples/serve_job

# `cover` runs the full `go test ./...` suite itself, so ci does not also
# depend on the plain `test` target (race is the only second full pass).
ci: fmt vet lint build cover examples race bench fuzz serve-smoke store-smoke fleet-smoke sample-smoke
