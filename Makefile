# Tier-1 verification (see ROADMAP.md): build, tests, vet, the race
# detector over the packages with concurrent machinery, short
# fixed-budget smokes of the fuzz targets and the differential oracle,
# the end-to-end telemetry smoke (docs/observability.md), the
# semantic-coverage gate (docs/coverage.md), the chaos smoke of the
# fault-isolation layer (docs/robustness.md), the compiled-vs-
# interpreted equivalence smoke (docs/compile.md), and the analysis-
# service smoke with its persistent cross-run solver cache
# (docs/service.md), the exploration-profiler smoke against a live
# daemon, the run-ledger regression-gate smoke, the live-progress
# SSE smoke (docs/observability.md), and the kill-9 crash-recovery
# smoke of the durable job journal and exploration checkpoints
# (docs/service.md).

.PHONY: check build test vet race bench loc fuzz-smoke difftest-smoke difftest obs-smoke cover-smoke chaos-smoke compile-smoke service-smoke profile-smoke ledger-smoke progress-smoke crash-smoke

check: build test vet race fuzz-smoke difftest-smoke obs-smoke cover-smoke chaos-smoke compile-smoke service-smoke profile-smoke ledger-smoke progress-smoke crash-smoke

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

race:
	go test -race ./internal/core ./internal/smt ./internal/difftest ./internal/obs ./internal/cover ./internal/faultinject ./internal/rtl ./internal/conc ./internal/service ./internal/profile ./internal/ledger ./internal/wal

bench:
	go test -bench=. -benchmem

# Production line count per package (ROADMAP aim 2): every line of the
# non-test Go files under internal/ and cmd/, skipping generated files
# ("// Code generated ... DO NOT EDIT."). Diff two trees' output for a
# change's net production LoC.
loc:
	@go list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./internal/... ./cmd/... | \
	while read pkg files; do \
		n=0; \
		for f in $$files; do \
			grep -q '^// Code generated .* DO NOT EDIT\.$$' $$f || n=$$((n + $$(wc -l < $$f))); \
		done; \
		printf '%-28s %7d\n' "$$pkg" $$n; \
	done | awk '{ print; t += $$2 } END { printf "%-28s %7d\n", "total", t }'

# Coverage-guided fuzz targets, a few seconds each (go test allows one
# -fuzz pattern per invocation).
fuzz-smoke:
	go test -run='^$$' -fuzz=FuzzExprCompile -fuzztime=5s ./internal/minic
	go test -run='^$$' -fuzz=FuzzDifferentialTiny32 -fuzztime=5s ./internal/core
	go test -run='^$$' -fuzz=FuzzExprWireRoundTrip -fuzztime=5s ./internal/expr

# Differential oracle (docs/difftest.md): CI smoke with a fixed seed,
# and a longer soak for local use.
difftest-smoke:
	go run ./cmd/difftest -rounds 40 -seed 1

difftest:
	go run ./cmd/difftest -duration 120s -seed 42 -v -corpus difftest-corpus

# End-to-end telemetry smoke (docs/observability.md): a real exploration
# runs with -obs-addr semantics — live /metrics, expvar and a 1s CPU
# profile are fetched over HTTP and validated, and the Chrome trace is
# checked for the per-path lifecycle events.
obs-smoke:
	go test -run 'TestObsSmoke' -count=1 ./internal/obs

# Chaos smoke (docs/robustness.md): a differential run with the fault
# injector armed at every site must finish with zero divergences and
# exact fault accounting, under the race detector.
chaos-smoke:
	go test -race -run 'TestChaosSmoke' -count=1 ./internal/difftest

# Compiled-vs-interpreted smoke (docs/compile.md): a fixed-budget run of
# the oracle's compile layer over every embedded ADL — the compiled
# concrete machine, engine replay and full exploration must each agree
# exactly with the interpreted concrete machine, including one run under
# chaos injection.
compile-smoke:
	go test -run 'TestCompileSmoke' -count=1 ./internal/difftest

# Analysis-service smoke (docs/service.md): boot symexd on loopback,
# run the four embedded ADLs' programs concurrently over HTTP with
# results matched against direct library runs, then boot a second
# daemon generation against the persisted solver cache and require a
# nonzero cross-run hit rate on /metrics with zero corruption counters.
service-smoke:
	go test -run 'TestServiceSmoke' -count=1 ./internal/service

# Exploration-profiler smoke (docs/observability.md): boot symexd on
# loopback, run a job, and fetch its per-PC cost profile in all three
# formats — the pprof bytes must parse and attribute solver time.
profile-smoke:
	go test -run 'TestProfileSmoke' -count=1 ./internal/service

# Run-ledger smoke (docs/observability.md): build the symex binary and
# run the same image against the same ledger three times — the clean
# repeat run must gate green, and a -ledger-fake-slowdown run must exit
# 5 naming the regressed metric.
ledger-smoke:
	go test -run 'TestLedgerSmoke' -count=1 ./internal/ledger

# Live-progress smoke (docs/observability.md): boot symexd on loopback
# with a run ledger, stream >= 2 SSE snapshots plus the terminal done
# event during a real job, and require the completed job to appear at
# GET /v1/runs with a green per-config trend.
progress-smoke:
	go test -run 'TestProgressSmoke' -count=1 ./internal/service

# Crash smoke (docs/service.md): build the symexd binary, SIGKILL a
# live daemon mid-job, restart it against the same -state-dir, and
# require the resumed job's canonical report to be bit-identical to an
# uninterrupted daemon's, zero queued jobs lost, and the recovery
# visible at GET /v1/runs.
crash-smoke:
	go test -run 'TestCrashSmoke' -count=1 ./internal/service

# Semantic-coverage gate (docs/coverage.md): a brief coverage-guided
# differential run over every embedded ADL must keep instruction
# coverage in decode, translate and the best execution layer above the
# floor, and the JSON report must roundtrip.
cover-smoke:
	go test -run 'TestCoverSmoke' -count=1 ./internal/cover
