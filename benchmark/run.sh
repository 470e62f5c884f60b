#!/usr/bin/env bash
# The benchmark's one command. Builds the harness (offline, release) and
# hands it the arguments:
#
#   benchmark/run.sh                       every workload, untraced then traced
#   benchmark/run.sh --repeat N            run-to-run spread of each end-to-end metric
#   benchmark/run.sh --smoke               the same at toy scale, seconds in total
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run; the result is the last line
#
# Run it from the repository root (BENCHMARK.json names it that way).
set -euo pipefail
here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$here/target}"
# Cargo's own output goes to stderr so the result stays the last stdout line.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" 1>&2
export SKNN_BENCH_OUT="$here/out"
exec "$target/release/sknn-benchmark" "$@"
