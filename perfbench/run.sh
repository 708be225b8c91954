#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on.
# Run from the repository root, e.g.
#
#   bash perfbench/run.sh --workload cover-dense --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and traced-run span files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0 PERFBENCH_OUT="$out"
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
