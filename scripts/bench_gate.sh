#!/usr/bin/env bash
# Benchmark-regression smoke gate: reruns the simulator-throughput
# microbenchmark and fails when it regresses more than PTB_BENCH_GATE_FRAC
# (default 0.20, i.e. >20% slower) against the checked-in baseline in
# results/bench_micro.txt.
#
# Usage: scripts/bench_gate.sh [build-dir]   (default: build-release)
#
# Knobs:
#   PTB_BENCH_GATE=off        skip entirely (noisy/shared runners)
#   PTB_BENCH_GATE_FRAC=0.30  allow a larger regression fraction
#
# The baseline is a wall-clock snapshot from one machine, so this is a
# smoke gate against order-of-magnitude regressions (an accidental debug
# build, a new per-cycle allocation), not a precision benchmark: refresh
# results/bench_micro.txt on the machine that recorded it when the hot
# path intentionally changes (see EXPERIMENTS.md).
set -euo pipefail

if [[ "${PTB_BENCH_GATE:-on}" == "off" ]]; then
  echo "bench gate: skipped (PTB_BENCH_GATE=off)"
  exit 0
fi

build_dir="${1:-build-release}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
baseline_file="$repo_root/results/bench_micro.txt"
bench="$repo_root/$build_dir/bench/bench_micro"
filter='BM_SimulatorThroughput/16'
frac="${PTB_BENCH_GATE_FRAC:-0.20}"

[[ -x "$bench" ]] || { echo "bench gate: $bench not built" >&2; exit 1; }

extract_rate() {  # file -> items_per_second in M/s for $filter
  awk -v name="$filter" '$1 == name {
    for (i = 2; i <= NF; ++i) if ($i ~ /^items_per_second=/) {
      sub(/^items_per_second=/, "", $i); sub(/M\/s$/, "", $i); print $i
    }
  }' "$1"
}

base_rate="$(extract_rate "$baseline_file")"
[[ -n "$base_rate" ]] || {
  echo "bench gate: no $filter baseline in $baseline_file" >&2; exit 1
}

# Best of three repetitions: the max is the least noisy statistic for a
# throughput measurement on a shared runner.
out="$(mktemp)"
"$bench" --benchmark_filter="$filter" --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=false > "$out" 2>/dev/null
new_rate="$(extract_rate "$out" | sort -g | tail -1)"
rm -f "$out"
[[ -n "$new_rate" ]] || { echo "bench gate: no benchmark output" >&2; exit 1; }

awk -v base="$base_rate" -v new="$new_rate" -v frac="$frac" 'BEGIN {
  floor = base * (1.0 - frac)
  printf "bench gate: %s baseline %.3fM/s, measured %.3fM/s, floor %.3fM/s\n",
         "'"$filter"'", base, new, floor
  if (new < floor) {
    printf "bench gate: FAIL — >%.0f%% regression; if the slowdown is " \
           "intentional, refresh results/bench_micro.txt (or set " \
           "PTB_BENCH_GATE_FRAC / PTB_BENCH_GATE=off for noisy runners)\n",
           frac * 100.0
    exit 1
  }
  print "bench gate: OK"
}'

