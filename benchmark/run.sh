#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, from the repository root:
#
#   bash benchmark/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays in one output directory
# inside the checkout ($CARGO_TARGET_DIR when set, else .bench_build): the
# Go build cache, the benchmark and snoopd binaries, journals and span
# dumps. Outside a full checkout the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd benchmark && go build -o "$out/benchmark" .)
exec "$out/benchmark" -work "$out" "$@"
