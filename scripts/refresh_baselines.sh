#!/usr/bin/env bash
# Rebuilds the Release benches, reruns every CI-gated benchmark with
# the exact flags bench-smoke uses, and rewrites all committed
# baselines under bench/baselines/. This is THE way to refresh after
# an intentional perf change - the per-bench one-liners that used to
# live in ci.yml comments are retired in favor of this script, so the
# baseline provenance can never drift from what CI actually runs.
#
# Usage (from anywhere inside the repo):
#   scripts/refresh_baselines.sh [build-dir]
#
# The default build dir is build-baseline/ to avoid clobbering a
# developer's Debug tree. Inspect `git diff bench/baselines/` before
# committing - a baseline refresh is a reviewable claim, not a chore.
#
# Keep the benchmark list and flags in sync with the bench-smoke job
# in .github/workflows/ci.yml (which points back at this script).
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
BUILD_DIR="${1:-build-baseline}"

REPS_FLAGS=(--benchmark_repetitions=3
            --benchmark_report_aggregates_only=true
            --benchmark_format=json)

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DLPS_WERROR=ON -DLPS_BUILD_TESTS=OFF
cmake --build "$BUILD_DIR" -j --target \
  bench_fixpoint bench_storage bench_magic bench_grouping \
  bench_serving bench_incremental bench_planner bench_ingest

run() {  # run <bench-binary> <output-json> [extra flags...]
  local bin="$1" out="$2"
  shift 2
  echo "== $bin -> $out"
  "$BUILD_DIR/bench/$bin" "$@" > "$out"
}

run bench_fixpoint BENCH_fixpoint.json \
  --benchmark_filter='Threads|SemiNaive' "${REPS_FLAGS[@]}"
run bench_storage BENCH_storage.json \
  --benchmark_min_time=0.01 --benchmark_format=json
run bench_magic BENCH_magic.json "${REPS_FLAGS[@]}"
run bench_grouping BENCH_grouping.json "${REPS_FLAGS[@]}"
# The probe route (BM_ServeProbe*) and copy-on-write republication.
run bench_serving BENCH_serving.json "${REPS_FLAGS[@]}"
# Includes BM_ChurnDrift: 2,000 drift commits per repetition (~10s).
run bench_incremental BENCH_incremental.json "${REPS_FLAGS[@]}"
run bench_planner BENCH_planner.json "${REPS_FLAGS[@]}"
# One iteration per lane count by design (a 10M-edge load runs tens
# of seconds; the gate consumes the 1-vs-8-lane ratio, not noise).
run bench_ingest BENCH_ingest.json --benchmark_format=json

python3 scripts/check_bench.py --refresh \
  --pair BENCH_fixpoint.json=bench/baselines/BENCH_fixpoint.json \
  --pair BENCH_storage.json=bench/baselines/BENCH_storage.json \
  --pair BENCH_magic.json=bench/baselines/BENCH_magic.json \
  --pair BENCH_grouping.json=bench/baselines/BENCH_grouping.json \
  --pair BENCH_serving.json=bench/baselines/BENCH_serving.json \
  --pair BENCH_incremental.json=bench/baselines/BENCH_incremental.json \
  --pair BENCH_planner.json=bench/baselines/BENCH_planner.json \
  --pair BENCH_ingest.json=bench/baselines/BENCH_ingest.json

rm -f BENCH_fixpoint.json BENCH_storage.json BENCH_magic.json \
  BENCH_grouping.json BENCH_serving.json BENCH_incremental.json \
  BENCH_planner.json BENCH_ingest.json

echo
echo "Baselines rewritten. Review with: git diff bench/baselines/"
