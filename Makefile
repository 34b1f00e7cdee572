# Convenience targets for the dplearn reproduction.

GO ?= go

.PHONY: all build test vet lint lint-json certify race cover bench bench-json bench-serve servebench-check serve-test experiments experiments-check quick-experiments fmt fmt-check fuzz-smoke chaos chaos-restart loc cross

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Cross-build for arm64: vet the tree and compile every package's test
# binary into a throwaway directory. Nothing runs; running the goldens
# on arm64 needs arm64 hardware or an emulator.
cross:
	GOARCH=arm64 $(GO) vet ./...
	@dir=$$(mktemp -d); GOARCH=arm64 $(GO) test -c -o $$dir/ ./...; status=$$?; \
	  echo "arm64 test binaries: $$(ls $$dir | wc -l)"; rm -rf $$dir; exit $$status

# Run the privacy-correctness linter (cmd/dplearn-lint) over the module.
# Exits non-zero when any error-severity finding survives suppression.
lint:
	$(GO) run ./cmd/dplearn-lint ./...

# Machine-readable lint report: newline-delimited JSON, one finding per
# line, including suppressed findings with their stated reasons. Always
# writes dplint.json; the exit status still reflects unsuppressed errors.
lint-json:
	$(GO) run ./cmd/dplearn-lint -json ./... > dplint.json; \
	status=$$?; wc -l < dplint.json | xargs -I{} echo "dplint.json: {} finding(s) recorded"; exit $$status

# Regenerate the NDJSON budget certificates: one symbolic worst-case
# (ε, δ) bound per exported entry point, with charge-site witnesses.
# The file is golden-pinned — CI and TestBudgetCertificatesMatchCommitted
# fail when it drifts from the code, so bound changes land in the same
# commit that caused them.
certify:
	@mkdir -p results
	$(GO) run ./cmd/dplearn-lint -certify ./... > results/budget_certificates.ndjson
	@wc -l < results/budget_certificates.ndjson | xargs -I{} echo "results/budget_certificates.ndjson: {} certificate(s)"

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzzing pass over the log-domain primitives, the exact float64
# accumulator, the zero-one risk's counting loop, the W3C traceparent
# parser, the WAL's torn-tail repair and its one-pass line decoder,
# checked against encoding/json (one -fuzz target per invocation, as
# `go test` requires).
# Override FUZZTIME for longer campaigns, e.g.
# `make fuzz-smoke FUZZTIME=2m`.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/mathx -run '^$$' -fuzz '^FuzzLogAddExp$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mathx -run '^$$' -fuzz '^FuzzLogSumExp$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mathx -run '^$$' -fuzz '^FuzzLogNormalize$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mathx -run '^$$' -fuzz '^FuzzExactSum$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/learn -run '^$$' -fuzz '^FuzzZeroOneRisk$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs -run '^$$' -fuzz '^FuzzTraceparent$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzWALRepair$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime $(FUZZTIME)

# Chaos battery: deterministic fault injection (worker panics, budget
# denials, NaN risks, checkpoint-write failures) plus the robustness
# test surfaces it leans on, all under the race detector. The fault
# schedule is a pure function of (seed, class, key), so a failure here
# reproduces exactly with the same seed.
chaos:
	$(GO) test -race -run 'TestChaos' ./internal/faults
	$(GO) test -race ./internal/faults ./internal/checkpoint ./internal/parallel ./internal/mechanism
	$(GO) test -race -run 'TestSweep|TestGoldenDeterminismCheckpointResume|TestBudgetedLedgerMatchesAccountant' ./internal/experiments .

# Serving battery: the multi-tenant release service's integration,
# race, chaos, and drain suites — all under the race detector.
serve-test:
	$(GO) test -race ./internal/serve ./internal/serve/client

# Crash-restart battery: seeded hard-aborts at every WAL phase boundary
# plus kill/restart cycles over one surviving WAL directory, under the
# race detector. Proves spent ε is monotone across reboots and never
# exceeds budget, every request either commits durably or surfaces a
# 5xx, and idempotent retries of crashed requests charge exactly once.
# CHAOS_ARTIFACTS names a directory to receive the final cycle's WAL
# segment and recovery report (CI uploads it).
chaos-restart:
	$(GO) test -race -run 'TestWALCrashChaosEveryBoundary|TestWALKillRestartCycles|TestWALRecoveryRoundTrip' ./internal/serve
	$(GO) test -race ./internal/wal

# Serving benchmark, then the budget-exhaustion check, in two parts.
# 1. Measure: a short _servebench durable-mix run (the real dplearn-serve
#    binary with a write-ahead log, 10^6-ε budgets so admission never
#    refuses, every request sent once; see _servebench/README.md). It
#    prints goodput, p50/p99 latency and the rest, its result line
#    becomes BENCH_serve.json, and a failed run fails the target.
# 2. Check: boot a traced dplearn-serve with an access log and a
#    write-ahead log in a fresh temporary directory, run both tenants out
#    of budget with dplearn-loadgen through the retry client, SIGINT the
#    server (the drain audits every tenant's accountant against its log),
#    and verify the trace/ledger/access join with dplearn-trace -check,
#    leaving serve_trace.ndjson and serve_access.ndjson.
# SERVE_SEED seeds both parts; SERVE_REQUESTS sizes part 2.
SERVE_REQUESTS ?= 1000
SERVE_SEED ?= 1
bench-serve:
	@out=$$(mktemp); \
	bash _servebench/run.sh --workload durable-mix --seed $(SERVE_SEED) --seconds 4 --trace 0 > "$$out"; \
	status=$$?; cat "$$out"; tail -n 1 "$$out" > BENCH_serve.json; rm -f "$$out"; \
	[ $$status -eq 0 ] || { echo "bench-serve: the _servebench run failed (exit $$status)"; exit 1; }
	$(GO) build -o bin/dplearn-serve ./cmd/dplearn-serve
	$(GO) build -o bin/dplearn-loadgen ./cmd/dplearn-loadgen
	$(GO) build -o bin/dplearn-trace ./cmd/dplearn-trace
	@rm -f serve.addr; \
	wal_dir=$$(mktemp -d); \
	./bin/dplearn-serve -addr localhost:0 -addr-file serve.addr \
	  -tenants "alpha=6,beta=2.5" -degrade refuse -timeout 300s -wal-dir "$$wal_dir" \
	  -trace serve_trace.ndjson -access-log serve_access.ndjson & \
	serve_pid=$$!; \
	for i in $$(seq 1 100); do [ -s serve.addr ] && break; sleep 0.1; done; \
	[ -s serve.addr ] || { echo "bench-serve: server never published its address"; kill $$serve_pid; rm -rf "$$wal_dir"; exit 1; }; \
	./bin/dplearn-loadgen -addr "$$(cat serve.addr)" -tenants alpha,beta \
	  -requests $(SERVE_REQUESTS) -seed $(SERVE_SEED) -concurrency 8; \
	load_status=$$?; \
	kill -INT $$serve_pid; wait $$serve_pid; serve_status=$$?; \
	rm -f serve.addr; rm -rf "$$wal_dir"; \
	./bin/dplearn-trace -check serve_trace.ndjson serve_access.ndjson; check_status=$$?; \
	exit $$((load_status + serve_status + check_status))

# Vet and test the serving benchmark's driver. _servebench is a module
# of its own (see its go.mod), so `./...` never compiles it, yet it
# imports the serve, wal and mechanism packages layer by layer.
servebench-check:
	cd _servebench && $(GO) vet . && $(GO) test .

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark artifacts: runs the parallel-engine,
# mechanism, linter, risk-grid and WAL (recovery and per-line decode)
# benchmark suites and writes BENCH_parallel.json, BENCH_mechanism.json,
# BENCH_lint.json, BENCH_learn.json and BENCH_wal.json (CI uploads
# them). Each benchmark
# runs for a time budget, not one iteration: a single iteration reads
# cold caches and first-call allocations, so its numbers cannot show a
# regression.
# Override BENCHTIME for longer measurements, e.g.
# `make bench-json BENCHTIME=2s`.
BENCHTIME ?= 200ms
bench-json:
	$(GO) run ./cmd/dplearn-bench -benchtime $(BENCHTIME)

# Regenerate every reproduction table at full size (EXPERIMENTS.md data).
experiments:
	$(GO) run ./cmd/dplearn-experiments -seed 42 -parallel 4

# Pin the reproduction tables (E1–E12, A1–A11): rerun the full suite at
# the committed seed and fail on any byte of drift from the committed
# run, so a change that moves a table lands with the regenerated file.
experiments-check:
	$(GO) run ./cmd/dplearn-experiments -seed 42 -parallel 4 | diff -u results/full_run_seed42.txt -

quick-experiments:
	$(GO) run ./cmd/dplearn-experiments -seed 42 -quick -parallel 4

fmt:
	gofmt -w .

# Fail (listing the offenders) if any file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Go line counts of the tracked tree, without the lint fixtures
# (internal/analysis/testdata) and the benchmark module (_servebench):
# the before/after numbers a change that deletes code reports. Only
# files git tracks count, so `git add` new files first.
loc:
	@files=$$(git ls-files '*.go' | grep -v -e '^internal/analysis/testdata/' -e '^_servebench/'); \
	echo "non-test Go lines: $$(echo "$$files" | grep -v '_test\.go$$' | xargs cat | wc -l)"; \
	echo "test Go lines:     $$(echo "$$files" | grep '_test\.go$$' | xargs cat | wc -l)"
