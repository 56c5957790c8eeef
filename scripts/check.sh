#!/usr/bin/env bash
# Local + CI verification wrapper: configure, build, run the tier-1 suite.
#
# Usage: scripts/check.sh [build-dir]
#   CXX=clang++ scripts/check.sh        # pick a compiler
#   CHECK_LABELS="tier1|example" scripts/check.sh   # add the example smoke tests
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
LABELS="${CHECK_LABELS:-tier1}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

cmake -B "$BUILD_DIR" -S . -DSWFOMC_WERROR=ON
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" -L "$LABELS" --output-on-failure -j "$JOBS"
