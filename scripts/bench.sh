#!/usr/bin/env bash
# bench.sh — refresh the committed benchmark snapshot.
#
# Runs the canonical perf suite (the Phase-1 experiment grid per
# criterion, the serving hot paths, and the sharded scale-out grid) and
# writes BENCH_experiments.json at the repo root. Commit the refreshed
# snapshot with any PR that plausibly moves these numbers, so the perf
# trajectory stays reviewable as a diff.
#
#   make bench                 # default: -benchtime 1s
#   BENCHTIME=3x make bench    # quick and dirty; the 1s default is steadier
#   BENCH='BenchmarkServeAdvise' make bench   # subset
#
# Both go test runs pin -cpu 1: the committed snapshots were taken at one
# CPU, so their benchmark names carry no -N suffix, and a run at any other
# GOMAXPROCS would share no name with them.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
BENCH="${BENCH:-BenchmarkF2_Phase1_|BenchmarkServeAdvise|BenchmarkF2_ShardedGrid|BenchmarkDQMeasure|BenchmarkKNNKernel|BenchmarkTreeKernel|BenchmarkOLAPRollUp|BenchmarkCleanPipeline|BenchmarkServeProfile}"
OUT="${OUT:-BENCH_experiments.json}"

go test -run '^$' -bench "$BENCH" -benchtime "$BENCHTIME" -benchmem -cpu 1 . \
  | go run ./scripts/benchjson > "$OUT"
echo "wrote $OUT"

# Streaming LOD ingestion scaling snapshot (stream vs batch at 1x/10x
# triples; B/triple must stay flat for the streaming path).
INGEST_BENCH="${INGEST_BENCH:-BenchmarkIngestLOD}"
INGEST_OUT="${INGEST_OUT:-BENCH_ingest.json}"
go test -run '^$' -bench "$INGEST_BENCH" -benchtime "$BENCHTIME" -benchmem -cpu 1 . \
  | go run ./scripts/benchjson > "$INGEST_OUT"
echo "wrote $INGEST_OUT"

# Serving saturation curve (openbi loadgen): seed a small KB, start an
# in-process server over real TCP, and step offered load geometrically
# (100/400/1600/... rps) until p99 blows the 50ms budget. Each fixed level
# keeps a stable benchmark name across runs, so benchcmp pairs them up and
# gates the p99 (encoded as ns/op); the detected knee is reported ungated.
SERVE_OUT="${SERVE_OUT:-BENCH_serve.json}"
SERVE_KB="${SERVE_KB:-/tmp/openbi_bench_kb.json}"
SERVE_DURATION="${SERVE_DURATION:-3s}"
BIN="$(mktemp -t openbi.XXXXXX)"
trap 'rm -f "$BIN"' EXIT
go build -o "$BIN" ./cmd/openbi
if ! [ -s "$SERVE_KB" ]; then
  "$BIN" experiments -rows 120 -folds 3 -seed 42 -out "$SERVE_KB" > /dev/null
fi
"$BIN" loadgen -selfserve -kb "$SERVE_KB" \
  -sweep -sweep-start 100 -sweep-factor 4 -sweep-min-levels 3 -sweep-max-levels 6 \
  -duration "$SERVE_DURATION" -warmup 500ms -p99-budget 50ms \
  -out "$SERVE_OUT"
echo "wrote $SERVE_OUT"
