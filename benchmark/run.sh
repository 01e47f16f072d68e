#!/usr/bin/env bash
# The command BENCHMARK.json names. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload ingest_burst --seed 1 --seconds 15 --trace 0
#
# Builds the harness, and through it navarchos-serve, from source with
# every Go cache inside the checkout (.bench_build/), so a run reads and
# writes nothing outside it; then hands its arguments to the harness.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/harness" ./benchmark
exec "$build/harness" -build-dir "$build" "$@"
