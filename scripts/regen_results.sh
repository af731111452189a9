#!/usr/bin/env bash
# Regenerate the deterministic files under results/: one .txt (human-readable
# tables) and one .json (machine-readable, see src/sim/reporting.hpp) per
# bench binary, plus the ptb-stats golden. results/bench_micro.txt (wall-clock
# timings, the bench gate's baseline) is left alone.
#
# Usage: scripts/regen_results.sh [-j N] [build-dir]
#   -j N       worker threads per bench binary (default: all hardware threads)
#   build-dir  CMake build tree containing bench/ (default: build)
#
# Output is deterministic: the same sources produce byte-identical .txt and
# .json files at any -j value, so a clean `git diff` after running this
# script means the results are up to date.
set -euo pipefail

jobs=""
while getopts "j:" opt; do
  case "$opt" in
    j) jobs="$OPTARG" ;;
    *) echo "usage: $0 [-j N] [build-dir]" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
bench_dir="$build_dir/bench"
results_dir="$repo_root/results"

if [[ ! -d "$bench_dir" ]]; then
  echo "error: $bench_dir not found; build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

jobs_flag=()
if [[ -n "$jobs" ]]; then
  jobs_flag=(--jobs "$jobs")
fi

mkdir -p "$results_dir"

# Simulation-table benches: text tables to stdout, structured JSON via --json.
benches=(
  bench_table2_workloads
  bench_fig02_naive
  bench_fig03_breakdown
  bench_fig04_spinpower
  bench_fig06_spintrace
  bench_fig09_scaling
  bench_fig10_toall
  bench_fig11_toone
  bench_fig12_dynamic
  bench_fig13_perf
  bench_fig14_relaxed
  bench_ivd_tdp
  bench_ext_variance
  bench_ext_thermal
  bench_ext_spingate
  bench_ext_baselines
  bench_ext_cluster
  bench_abl_tokens
  bench_abl_substrate
)

for b in "${benches[@]}"; do
  echo "== $b"
  "$bench_dir/$b" "${jobs_flag[@]}" \
      --json "$results_dir/$b.json" > "$results_dir/$b.txt"
done

# The ptb-stats regression golden: the Fig. 10 reference stats dump (fft,
# PTB+2Level(dyn), 16 cores, sampled every 4096 cycles) with the volatile
# wall-clock gauges stripped, so the golden is machine-independent. CI's
# stats smoke step gates fresh dumps against it with ptb-stats regress.
echo "== stats_fig10 (ptb-stats regression golden)"
"$bench_dir/bench_fig10_toall" --only fft --jobs 2 \
    --stats /tmp/ptb_stats_fig10.json:4096 > /dev/null
"$build_dir/tools/ptb-stats" dump /tmp/ptb_stats_fig10.json --json \
    --no-volatile > "$results_dir/stats_fig10.json"

# results/bench_micro.txt is not regenerated here: it is the baseline
# scripts/bench_gate.sh compares against, and a short timing run from
# whatever host runs this script would silently replace it. Refresh it
# deliberately with a plain Release bench_micro run (EXPERIMENTS.md).

echo "done: $(ls "$results_dir" | wc -l) files in results/"
