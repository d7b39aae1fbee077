#!/usr/bin/env bash
# Reproduce the paper end to end: build, run the full test suite, then run
# every per-figure/table benchmark driver. Outputs land in ./reproduction/.
#
# Flags:
#   --trace <dir>   also record a Chrome/Perfetto trace per benchmark,
#                   dropped as <dir>/<bench>.trace.json (open in
#                   https://ui.perfetto.dev or chrome://tracing) with the
#                   aggregated metrics next to it as
#                   <bench>.trace.metrics.json.
set -euo pipefail
cd "$(dirname "$0")/.."

trace_dir=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --trace)
      [[ $# -ge 2 ]] || { echo "--trace needs a directory" >&2; exit 1; }
      trace_dir="$2"
      shift 2
      ;;
    *)
      echo "unknown flag: $1" >&2
      exit 1
      ;;
  esac
done

cmake -B build -G Ninja
cmake --build build

mkdir -p reproduction
[[ -n "${trace_dir}" ]] && mkdir -p "${trace_dir}"
ctest --test-dir build 2>&1 | tee reproduction/tests.txt

for b in build/bench/bench_*; do
  name="$(basename "$b")"
  echo "== ${name}"
  args=()
  if [[ -n "${trace_dir}" ]]; then
    args+=("--trace=${trace_dir}/${name}.trace.json")
  fi
  "$b" "${args[@]}" 2>&1 | tee "reproduction/${name}.txt"
done

echo
echo "Done. The ctest run above already checked every table: its 'figures'"
echo "cases compare each driver's stdout with tests/figures/<driver>.txt"
echo "(ctest --test-dir build -L figures), and EXPERIMENTS.md quotes them."
if [[ -n "${trace_dir}" ]]; then
  echo "Per-benchmark traces are in ${trace_dir}/ — load the .trace.json"
  echo "files in https://ui.perfetto.dev (one track per simulated rank and"
  echo "device; timeline is the modeled Summit clock)."
fi
