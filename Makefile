GO ?= go

.PHONY: build vet test test-race bench bench-guard check lint staticcheck tfcheck tfstatic staticlock staticmem serve-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-check the packages that run on pool.ForEach, pool.Memo or pool.Sem: the
# per-warp replay workers (including the fusion A/B equivalence suite in
# internal/simt), the parallel thread validation and the concurrent
# analyses of one trace in internal/core, the parallel section fill in
# internal/trace, the session cache, the experiment cells, the sweep, the
# divergence pass's per-function walks in internal/analysis, the pool
# itself, and the tfserve concurrency suite (admission shedding,
# singleflight dedup, tenant budgets, drain).
test-race:
	$(GO) test -race ./internal/simt/... ./internal/core/... ./internal/trace/... ./internal/report/... ./internal/pool/... ./internal/gpusim/... ./internal/analysis/... ./internal/serve/...

# Static sanity: go vet plus the tflint engine over workloads that must stay
# clean. The trace passes must produce zero findings of any severity; the
# static oracle pass always emits an informational summary, so the full pass
# list is held to warning-and-above instead.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/tflint -severity info -passes sanitize,lockset,divergence,locks,deadlock -workload vectoradd,uncoalesced
	$(GO) run ./cmd/tflint -severity warning -workload vectoradd,uncoalesced

# staticcheck, when installed (CI installs its own copy; locally run
# `go install honnef.co/go/tools/cmd/staticcheck@latest`). Checks are
# configured in staticcheck.conf.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Verify the analyzer's invariant catalog: tfcheck over every built-in
# workload plus a batch of generated traces, and the Table-I golden-snapshot
# comparison (regenerate intentionally changed numbers with
# `go test ./internal/check -run TestGoldenTableI -update`).
tfcheck:
	$(GO) run ./cmd/tfcheck -all -gen 10 -q
	$(GO) test ./internal/check -run TestGoldenTableI -count=1

# Run the static SIMT oracle over the whole workload catalog, plus the
# dynamic replay cross-check on two workloads (exits nonzero if a branch
# classified uniform ever diverges). Also the CI smoke step for cmd/tfstatic.
# The golden pin hashes every static oracle's result per workload and opt
# level (regenerate intentionally changed results with
# `go test ./internal/analysis -run TestStaticOracleGolden -update`).
tfstatic:
	$(GO) run ./cmd/tfstatic -all -q
	$(GO) run ./cmd/tfstatic -workload vectoradd,seededrace -verify
	$(GO) test ./internal/analysis -run TestStaticOracleGolden -count=1

# Static concurrency oracle smoke: the lock/race projection over the whole
# catalog, plus the dynamic cross-check on the seeded-defect workloads (exits
# nonzero if any soundness-class finding survives).
staticlock:
	$(GO) run ./cmd/tfstatic -all -locks -q
	$(GO) run ./cmd/tfstatic -workload seededrace,leakedlock,seededcycle,seededspin -locks -races -verify

# Static memory oracle smoke: per-site stride classes and transaction bounds
# over the whole catalog, plus the dynamic replay cross-check on a coalesced
# and an uncoalesced workload (exits nonzero if any replay execution exceeds
# a static bound or contradicts a segment claim).
staticmem:
	$(GO) run ./cmd/tfstatic -all -mem -q
	$(GO) run ./cmd/tfstatic -workload vectoradd,uncoalesced -mem -verify

# End-to-end smoke of the analysis service: start a real tfserve, prove the
# -server CLIs round-trip byte-identical reports against local runs, check
# the dedup/cache headers over raw HTTP, and drain it with SIGTERM.
serve-smoke:
	scripts/serve_smoke.sh

# The analyzer's micro benchmarks in one sweep: scripts/bench.sh writes
# BENCH_analyzer.json and fails on a row missing, without a limit, or past
# its limit in scripts/bench_baseline.json. `bench` records numbers only
# from a tree that passes `check`; `bench-guard` (and CI) skip that gate.
bench: check
	scripts/bench.sh

bench-guard:
	scripts/bench.sh

check: build vet test test-race lint staticcheck tfcheck tfstatic staticlock staticmem serve-smoke
