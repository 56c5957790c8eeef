#!/usr/bin/env bash
# Perf-trajectory recorder: runs the benchmark drivers below with JSON
# output and folds the reports into BENCH_wmc.json, so successive PRs have
# hard numbers to compare against. Each report's context records the
# commit and the build type next to the library's own num_cpus.
#
# Usage: scripts/bench.sh [build-dir]
#   BENCH_MIN_TIME=0.01 scripts/bench.sh       # CI smoke: one iteration each
#   BENCH_OUT=/tmp/b.json scripts/bench.sh     # write elsewhere
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
MIN_TIME="${BENCH_MIN_TIME:-0.5}"
OUT="${BENCH_OUT:-BENCH_wmc.json}"

BENCHES=(bench_wmc_ablation bench_table1 bench_sweep bench_nnf
         bench_lifted_nnf bench_numeric bench_budget bench_serve
         bench_obs bench_fo2)

COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [[ -n "$(git status --porcelain --untracked-files=no 2>/dev/null)" ]]; then
  COMMIT="$COMMIT-dirty"
fi
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' "$BUILD_DIR/CMakeCache.txt" 2>/dev/null)"

# bench_serve's cold-process row spawns the real CLI per iteration.
export SWFOMC_CLI="${SWFOMC_CLI:-$BUILD_DIR/tools/swfomc}"

for bench in "${BENCHES[@]}"; do
  if [[ ! -x "$BUILD_DIR/bench/$bench" ]]; then
    echo "error: $BUILD_DIR/bench/$bench not built (run cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

for bench in "${BENCHES[@]}"; do
  echo "running $bench (min_time=${MIN_TIME}s)..."
  "$BUILD_DIR/bench/$bench" \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_context="commit=$COMMIT,build_type=${BUILD_TYPE:-unknown}" \
    --benchmark_out="$tmp/$bench.json" \
    --benchmark_out_format=json >/dev/null
done

{
  printf '{\n'
  first=1
  for bench in "${BENCHES[@]}"; do
    if [[ $first -eq 0 ]]; then printf ',\n'; fi
    first=0
    printf '"%s":\n' "$bench"
    cat "$tmp/$bench.json"
  done
  printf '}\n'
} > "$OUT"

echo "wrote $OUT"
