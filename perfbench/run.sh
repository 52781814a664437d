#!/usr/bin/env bash
# Builds cqa-serve and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-fo --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# span dumps go to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/cqa-serve" ./cmd/cqa-serve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -serve "$out/cqa-serve" -out "$out" "$@"
