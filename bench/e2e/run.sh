#!/usr/bin/env bash
# End-to-end benchmark: application event -> runtime decision.
#
#   bash bench/e2e/run.sh [--workload NAME] [--seed N] [--trace [0|1]]
#                         [--smoke] [--seconds S]
#
# Builds the benchmark in Release into build-e2e/ (see targets.cmake), then
# runs each workload in a fresh process. Each process prints
# `metric workload value unit` lines and, last, one JSON object with
# correct / attempted / failed / metrics. --trace reports the per-layer
# metrics instead of the end-to-end ones and writes the spans to
# build-e2e/run/<workload>-spans.tsv. --smoke runs every workload for
# about a second with every correctness gate on. Without --workload all
# four workloads run. The measured phase lasts 25 s, BENCHMARK.json's
# run_seconds; --seconds is accepted because the BENCHMARK.json command
# interface passes run_seconds to every run. Exit status is non-zero when
# the build fails or a correctness gate does.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/../.."

workloads=(lulesh-inproc quicksilver-diverge lulesh-daemon kripke-online)
selected=()
seed=1
trace=0
extra=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) selected+=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) extra+=(--seconds "$2"); shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    --smoke) extra+=(--smoke); shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
[[ ${#selected[@]} -gt 0 ]] || selected=("${workloads[@]}")

build=build-e2e
mkdir -p "$build"
log="$build/build.log"
if ! {
  { [[ -f "$build/CMakeCache.txt" ]] ||
    cmake -S . -B "$build" -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_PROJECT_INCLUDE="$PWD/bench/e2e/targets.cmake"; } &&
    cmake --build "$build" --target pythia_e2e -j "$(nproc)"
} >"$log" 2>&1; then
  tail -n 30 "$log" >&2
  echo "run.sh: build failed (full log: $log)" >&2
  exit 1
fi

# Address-space randomization splits in-process throughput into bimodal
# per-process results; run without it where the kernel allows.
launch=()
if setarch "$(uname -m)" -R true 2>/dev/null; then
  launch=(setarch "$(uname -m)" -R)
fi

args=(--seed "$seed" --trace "$trace" --dir "$build/run" "${extra[@]}")
status=0
for workload in "${selected[@]}"; do
  "${launch[@]}" "$build/pythia_e2e" --workload "$workload" "${args[@]}" ||
    status=1
done
exit "$status"
