#!/usr/bin/env bash
# Build the benchmark (Release, into .bench_build/ under the current
# directory) and run it with the given arguments. Run from the root of
# a checkout:
#
#   bash flexbench/run.sh --workload paper-grid --seed 1 --seconds 18 --trace 0
#
# Build output goes to stderr so the result stays the last stdout line.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build=.bench_build
jobs="$(nproc 2>/dev/null || echo 2)"
# Configure on every run: it re-stamps the git revision and source
# hash, which key the recorded digests, whenever the sources changed.
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$jobs" --target flexbench >&2
exec "$build/flexbench" "$@"
