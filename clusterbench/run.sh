#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
# Run it from the root of a checkout:
#
#   bash clusterbench/run.sh --workload firehose --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build=$(cd "$build" && pwd)
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
# The go command keeps telemetry counters under the user's config
# directory; point it inside the build directory too.
export HOME="$build/home" XDG_CONFIG_HOME="$build/config"
(cd clusterbench && go build -o "$build/clusterbench-bin" .) >&2
exec "$build/clusterbench-bin" "$@"
