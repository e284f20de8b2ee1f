GO ?= go
BENCH_HEAD ?= /tmp/bench_head.json
STATICCHECK ?= staticcheck
# Pinned staticcheck release: CI installs exactly this version so a new
# upstream release cannot break the build unreviewed. Bump deliberately.
STATICCHECK_VERSION ?= 2025.1.1
FUZZTIME ?= 10s
# Load-smoke knobs: CI runs the full 16x30s profile; local `make check`
# inherits these shorter defaults.
LOADTIME ?= 10s
LOADSESSIONS ?= 8
LOADWORKERS ?= 1
LOADP99 ?= 2s
LOAD_OUT ?= /tmp/easyboload.json
LOAD_OUT_DURABLE ?= /tmp/easyboload-durable.json

.PHONY: check vet fmt lint staticcheck build test perfbench race cover fuzz-smoke load-smoke bench-smoke bench bench-json bench-gate smoke crash-smoke cluster-smoke

check: vet fmt lint staticcheck build test perfbench race bench-smoke fuzz-smoke load-smoke

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Project-specific analyzers (cmd/easybolint): determinism and durability
# invariants vet cannot express — map-iteration order, wall-clock and
# global-rand use in replayed packages, raw float ==, dropped errors on
# durability calls, and suppression-directive hygiene. Zero dependencies,
# so it always runs, everywhere.
lint:
	$(GO) run ./cmd/easybolint ./...

# Static analysis beyond vet. The tool is not vendored; when it is absent
# (e.g. a hermetic build container) the target skips with a notice instead
# of failing — CI installs it explicitly (pinned) and always runs it.
staticcheck:
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck: not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# perfbench is its own module, so the root `./...` never compiles it, yet it
# builds on core.NewAskTell and bo.Run. Vet it and run its tests without
# -short (about 7 s): TestWorkloadsTiny runs the sync driver with its
# correctness checks.
perfbench:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test -count=1 .

# Every package that spawns goroutines outside tests runs under the race
# detector: the executor slot pool, the ask/tell machine, the session-actor
# service and its WAL syncLoop, the cluster peer layer (heartbeats, forward
# retries, handoffs), parallel AC sweeps (circuit), the multistart
# optimizer's worker pool, the experiment harness, the client retrier
# (cmd/easybo), and the daemon's serve/shutdown paths (cmd/easybod).
race:
	$(GO) test -race ./internal/sched/... ./internal/core/... ./internal/serve/... \
		./internal/cluster/... ./internal/loadgen/... \
		./internal/circuit/... ./internal/optimize/... ./internal/harness/... \
		./cmd/easybo/... ./cmd/easybod/... ./cmd/easyboload/...

# Coverage with a ratchet: scripts/coverage.sh fails if the durability
# stack (./internal/serve/...) drops below its recorded floor.
cover:
	GO=$(GO) ./scripts/coverage.sh

# Short fuzz legs over the two untrusted parsers — the WAL frame/record
# decoder plus session scanner, and the netlist parser — so CI keeps
# probing them beyond the seeded corpora. FUZZTIME=2s makes a quick local
# run; each target needs its own invocation (go test allows one -fuzz
# pattern per run).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseRecord$$' -fuzztime $(FUZZTIME) ./internal/serve/wal
	$(GO) test -run '^$$' -fuzz '^FuzzScanSession$$' -fuzztime $(FUZZTIME) ./internal/serve/wal
	$(GO) test -run '^$$' -fuzz '^FuzzScanSessionWithSnapshot$$' -fuzztime $(FUZZTIME) ./internal/serve/wal
	$(GO) test -run '^$$' -fuzz '^FuzzParseValue$$' -fuzztime $(FUZZTIME) ./internal/circuit
	$(GO) test -run '^$$' -fuzz '^FuzzParseNetlist$$' -fuzztime $(FUZZTIME) ./internal/circuit

# Serving-path throughput smoke: first the shed-equivalence test (admission
# control loses no tells, history bitwise-identical to unthrottled), then a
# real easyboload run against an in-process daemon asserting zero errors,
# nonzero cache traffic on its repeated-point workload, and a p99 ceiling,
# then the same harness against a real fsync=always WAL so the group-commit
# serving path is smoke-gated too (distinct seeds, cache off: every tell
# rides the committer). The benchjson-shaped results land in LOAD_OUT and
# LOAD_OUT_DURABLE (uploaded as CI artifacts).
load-smoke:
	$(GO) test -race -run TestShedEquivalence -v ./cmd/easyboload
	$(GO) run ./cmd/easyboload -sessions $(LOADSESSIONS) -workers $(LOADWORKERS) \
		-duration $(LOADTIME) -out $(LOAD_OUT) \
		-assert-max-errors 0 -assert-min-cache-hits 1 -assert-min-asks 1 \
		-assert-max-p99 $(LOADP99)
	$(GO) run ./cmd/easyboload -sessions $(LOADSESSIONS) -workers $(LOADWORKERS) \
		-duration $(LOADTIME) -fsync always -bench-suffix Durable \
		-seed-groups $(LOADSESSIONS) -testbench "" -init-points 4096 \
		-out $(LOAD_OUT_DURABLE) \
		-assert-max-errors 0 -assert-min-asks 1

# Smoke-run the incremental-engine and surrogate-backend benchmarks so a
# regression on the hot path (or a compile error in a bench file) fails CI
# loudly.
bench-smoke:
	$(GO) test -run XXX -bench 'GPExtend|GPRefit|Hallucinate' -benchtime 1x .
	$(GO) test -run XXX -bench 'SurrogateExtend|SurrogatePredict' -benchtime 1x ./internal/surrogate/

bench:
	$(GO) test -run XXX -bench 'GPExtend|GPRefit|Hallucinate|SuggestHotPath' -benchtime 20x .

# Machine-readable hot-path benchmark results: newton-iteration, tran-step,
# AC-sweep, full testbench evaluations (sparse vs. dense), the
# exact-vs-feature-space surrogate scaling suite, the WAL append, the
# end-to-end 40-eval EasyBO-A run, and the easyboload serving-path rows
# (in-memory and fsync=always legs), with speedups derived.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_6.json

# CI bench-regression gate: measure a short fresh report and compare it to
# the committed BENCH_6.json baseline. Gated hot-path benchmarks
# (newton-iteration, testbench evals, feature-space surrogate updates, the
# WAL append, and the serving-path throughput/latency rows — durable leg
# included) fail CI on a >2x slowdown; everything else only warns, since
# shared runners are noisy.
bench-gate:
	$(GO) run ./cmd/benchjson -out $(BENCH_HEAD) -benchtime 0.3s -count 2 -loadtime 5s
	$(GO) run ./cmd/benchcmp -baseline BENCH_6.json -head $(BENCH_HEAD)

# Build every cmd/* and examples/* binary, run each example on a tiny
# budget, and drive a live easybod daemon through an ask/tell round trip,
# so binaries and examples cannot rot unnoticed.
smoke:
	GO=$(GO) ./scripts/smoke.sh

# Kill-9 fault injection: the Go harness SIGKILLs a real easybod subprocess
# mid-session (fixed points for every fsync policy, plus an async racing
# kill) and requires the recovered history to be bitwise identical to an
# uninterrupted run; the shell loop then does the same through curl for
# every fsync policy.
crash-smoke:
	$(GO) test -run TestCrashRecovery -v ./cmd/easybod
	GO=$(GO) FSYNC=always ./scripts/crashloop.sh
	GO=$(GO) FSYNC=interval ./scripts/crashloop.sh
	GO=$(GO) FSYNC=off ./scripts/crashloop.sh

# Multi-node fault injection: the Go harness boots a 3-node easybod cluster
# over a shared -data-dir, drives 200 concurrent sessions through arbitrary
# nodes, SIGKILLs a random node mid-traffic, and requires every completed
# history to be bitwise identical to a single-node reference run (no
# acknowledged tell lost); the shell loop repeats the kill through curl for
# every fsync policy, healing the revived node back in.
cluster-smoke:
	$(GO) test -run TestCluster -v ./cmd/easybod
	GO=$(GO) FSYNC=always ./scripts/clusterloop.sh
	GO=$(GO) FSYNC=interval ./scripts/clusterloop.sh
	GO=$(GO) FSYNC=off ./scripts/clusterloop.sh
