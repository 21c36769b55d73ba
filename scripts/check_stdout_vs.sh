#!/usr/bin/env bash
# Stdout gate against another build: the figure benches below must print
# byte-identical stdout from both builds (bench_fig12_overhead: its
# "state digest" lines only, the rest being wall-clock timings). Shows that a
# change leaves every figure as it was: build the parent commit in one tree
# and the change in another, then run from the repository root
#
#   scripts/check_stdout_vs.sh <parent-build> [build]
#
# Names each bench whose stdout differs (or that fails to run) and exits 1 if
# any does. Heavy benches run at the CI knobs.
set -euo pipefail

PARENT=${1:?usage: check_stdout_vs.sh <parent-build> [build]}
BUILD=${2:-build}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# bench|knobs (space-separated VAR=value assignments; empty = defaults).
RUNS=(
  "bench_table1_workloads|"
  "bench_fig1_motivation|"
  "bench_fig2_utilization|"
  "bench_fig5_model_fit|"
  "bench_fig13_failures|"
  "bench_validation|"
  "bench_fig8_testbed|SABA_SETUPS=2"
  "bench_fig10_simulation|SABA_FIG10_INSTANCES=2"
  "bench_fig11_controller|SABA_FIG11_INSTANCES=4"
  "bench_fig11_scale|SABA_FIG11_SCALE=1 SABA_FIG11_SCALE_FLOWS=5000 SABA_FIG11_SCALE_EVENTS=10"
  "bench_fig12_overhead|SABA_SCENARIOS=4"
)

status=0
for run in "${RUNS[@]}"; do
  bench=${run%%|*}
  read -r -a knobs <<< "${run#*|}"
  ran=1
  for side in parent build; do
    dir=$PARENT
    if [[ $side == build ]]; then
      dir=$BUILD
    fi
    if ! env "${knobs[@]}" "$dir/bench/$bench" > "$TMP/$bench.$side" 2>/dev/null; then
      echo "FAILED: $bench ($side build: $dir)"
      ran=0
    fi
  done
  if [[ $ran == 0 ]]; then
    status=1
    continue
  fi
  if [[ $bench == bench_fig12_overhead ]]; then
    for side in parent build; do
      if ! grep '^state digest' "$TMP/$bench.$side" > "$TMP/$bench.$side.digest"; then
        echo "FAILED: $bench ($side build printed no state digest)"
        ran=0
      fi
      mv "$TMP/$bench.$side.digest" "$TMP/$bench.$side"
    done
    if [[ $ran == 0 ]]; then
      status=1
      continue
    fi
  fi
  if diff -q "$TMP/$bench.parent" "$TMP/$bench.build" > /dev/null; then
    echo "ok: $bench ${run#*|}"
  else
    echo "DIFFERS: $bench ${run#*|}"
    diff "$TMP/$bench.parent" "$TMP/$bench.build" | head -20 || true
    status=1
  fi
done
exit $status
