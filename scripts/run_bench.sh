#!/usr/bin/env bash
# Build (if needed) and run the self-checking benchmark drivers, writing
# their records to JSON files at the repo root:
#
#   BENCH_micro.json   bench_pool: sequential vs pooled simulation wall time
#                      of the per-occurrence hash-table insert, a load-factor
#                      sweep and the supermer pipeline. Self-checks that
#                      modeled seconds are identical across pool sizes.
#   BENCH_qps.json     bench_qps: Zipf-traffic query throughput. Self-checks
#                      that every answer is bit-identical to the flat counts
#                      dump and that caching beats the uncached modeled QPS
#                      at skew >= 1.0. Its distributed sweep (the qps-dist/...
#                      records) also checks that every tier answers like the
#                      single-rank engine, that 8 ranks reach >= 4x the
#                      single-rank modeled QPS, and that --overlap-batches
#                      strictly lowers modeled serve seconds.
#   BENCH_spill.json   bench_spill: peak footprint, spill volume and disk vs
#                      compute time. Self-checks that every streamed or
#                      spilled run counts like the in-memory run, that
#                      spilled bytes equal reloaded bytes, and that the
#                      streamed peak footprint is monotone in batch size.
#   BENCH_sketch.json  bench_sketch: count-min error and memory. Self-checks
#                      that every estimate is >= the exact count, that the
#                      sketches undercut the exact table's memory, and that
#                      heavy-hitter recall is exactly 1.0.
#
# A serving, out-of-core or approximate-counting regression therefore fails
# this script.
#
# Usage: scripts/run_bench.sh [build-dir] [--threads=1,2,4] [--repeats=N]
# Extra flags are passed through to bench_pool.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
if [[ $# -gt 0 && "${1:0:2}" != "--" ]]; then shift; fi

if [[ ! -x "$build_dir/bench/bench_pool" || \
      ! -x "$build_dir/bench/bench_qps" || \
      ! -x "$build_dir/bench/bench_spill" || \
      ! -x "$build_dir/bench/bench_sketch" ]]; then
  cmake -B "$build_dir" -S "$repo_root"
  cmake --build "$build_dir" -j \
    --target bench_pool bench_qps bench_spill bench_sketch
fi

"$build_dir/bench/bench_pool" \
  --threads=1,2,4 \
  --json="$repo_root/BENCH_micro.json" \
  "$@"

"$build_dir/bench/bench_qps" \
  --json="$repo_root/BENCH_qps.json"

"$build_dir/bench/bench_spill" \
  --json="$repo_root/BENCH_spill.json"

"$build_dir/bench/bench_sketch" \
  --json="$repo_root/BENCH_sketch.json"

echo "results: $repo_root/BENCH_micro.json $repo_root/BENCH_qps.json" \
  "$repo_root/BENCH_spill.json $repo_root/BENCH_sketch.json"
