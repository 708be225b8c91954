# Developer entry points. `make check` is the PR gate: it builds, vets,
# and runs the full suite under the race detector so every concurrent
# path (parallel sampling, sharded covers, worker pool) is exercised.

GO ?= go

.PHONY: check build vet lint lint-sarif test race bench-smoke bench-check bench-sampling bench-afd bench-kernels bench-ensemble bench-incremental bench-quality regress regress-record serve-smoke

check: build vet lint race regress

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific invariants (determinism, AttrSet aliasing, pool-callback
# confinement, context flow, hot-path allocation, lock discipline, float
# determinism) enforced by the analyzers in internal/analysis. Strict
# ignores keep the //fdlint:ignore inventory honest: a suppression that
# no longer matches a finding fails the build instead of rotting. Also
# runnable through the vet driver: go vet -vettool=$$(which fdlint) ./...
lint:
	$(GO) run ./cmd/fdlint -strict-ignores ./...

# Machine-readable lint report for code scanning (CI uploads this).
lint-sarif:
	$(GO) run ./cmd/fdlint -strict-ignores -sarif fdlint.sarif ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short-mode benchmark smoke: compiles and runs every benchmark once so
# bit-rot in the bench harness is caught without paying full bench time.
bench-smoke:
	$(GO) test -short -run=^$$ -bench=. -benchtime=1x ./...

# Vets and smoke-tests the repository benchmark (perfbench/, a module of
# its own that the root build and tests never compile), so an internal API
# change that breaks the benchmark fails here instead of at benchmark time.
bench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Boots fdserve on a random loopback port and drives the end-to-end
# client flow against it: submit CSV, per-cycle SSE progress, queries,
# mutation batches behind version barriers, mid-run cancel (499 + slot
# reclaim, 409 for a batch on the cancelled session), graceful drain.
serve-smoke:
	$(GO) run ./cmd/fdserve -smoke

# Regenerates the committed machine-readable sampling benchmark.
bench-sampling:
	$(GO) run ./cmd/fdbench -json BENCH_sampling.json

# Regenerates the committed machine-readable AFD scoring benchmark.
bench-afd:
	$(GO) run ./cmd/fdbench -afd-json BENCH_afd.json

# Regenerates the committed hot-path kernel micro-benchmark.
bench-kernels:
	$(GO) run ./cmd/fdbench -kernels-json BENCH_kernels.json

# Regenerates the committed ensemble confidence-voting benchmark.
bench-ensemble:
	$(GO) run ./cmd/fdbench -ensemble-json BENCH_ensemble.json

# Regenerates the committed incremental-maintenance benchmark (delta
# batches through the mutation log vs full rediscovery per batch).
bench-incremental:
	$(GO) run ./cmd/fdbench -incremental-json BENCH_incremental.json

# Regenerates the committed data-quality report benchmark (the full
# Analyze pipeline: ranking, violations, repairs, normalization).
bench-quality:
	$(GO) run ./cmd/fdbench -quality-json BENCH_quality.json

# Regression gate: runs the canonical suite and diffs against the
# committed BASELINE.json. Accuracy is exact-match gated; wall times are
# threshold gated only when the machine shape matches the baseline's
# (see README "Regression workflow").
regress:
	$(GO) run ./cmd/fdregress check

# Re-records BASELINE.json. Run after an intentional behavior change,
# then commit the new baseline with the change that explains it.
regress-record:
	$(GO) run ./cmd/fdregress record -runs 5
