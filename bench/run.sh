#!/usr/bin/env bash
# Builds the openbi CLI and the benchmark from the tree it is run in, then
# runs the benchmark. Run it from the repository root:
#
#   bash bench/run.sh --workload grid --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare base.jsonl new.jsonl
#
# Every build artefact, Go cache and scratch file stays under .bench_build/
# in the repository root, so a run reads and writes nothing outside it.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$build/openbi" ./cmd/openbi
go -C bench build -o "$build/bench" .
exec "$build/bench" -openbi "$build/openbi" -work "$build/work" -out bench/out -spec BENCHMARK.json "$@"
