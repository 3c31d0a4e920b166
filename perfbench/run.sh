#!/usr/bin/env bash
# Build the benchmark from the sources in this checkout, then run it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build output goes to stderr, so the
# last line on stdout is the benchmark's result object.
set -euo pipefail
build_dir=.bench_build
if [ ! -f "$build_dir/CMakeCache.txt" ]; then
    cmake -S perfbench -B "$build_dir" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build_dir" -j4 >&2
exec "$build_dir/cosa_perfbench" --out-dir "$build_dir/perfbench" "$@"
