#!/usr/bin/env bash
# Builds the SBON benchmark and runs every workload: K untraced runs with
# seeds S..S+K-1, then one traced run each at seed S. Every metric is
# printed as `name value unit`; results go to build-bench/results/.
# Exits non-zero when any correctness check fails.
#
#   bench/suite/run.sh [--runs=K] [--seed=S] [--seconds=T] [--no-trace] [--smoke]
#
# --smoke runs tiny workloads once each, through every code path.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
build="$root/build-bench"
runs=5
seed=1
seconds=10
trace=1
smoke=()
for arg in "$@"; do
  case "$arg" in
    --runs=*) runs=${arg#*=} ;;
    --seed=*) seed=${arg#*=} ;;
    --seconds=*) seconds=${arg#*=} ;;
    --no-trace) trace=0 ;;
    --smoke) smoke=(--smoke); runs=1; seconds=0 ;;
    *)
      echo "usage: $0 [--runs=K] [--seed=S] [--seconds=T] [--no-trace] [--smoke]" >&2
      exit 2
      ;;
  esac
done

cmake -S "$root/bench/suite" -B "$build" -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "$build" --target sbon_bench -j "$(nproc)" > /dev/null
mkdir -p "$build/results"

status=0
for w in maintain place soak chaos; do
  for ((i = 0; i < runs; i++)); do
    s=$((seed + i))
    echo "== $w seed=$s"
    "$build/sbon_bench" --workload="$w" --seed="$s" --seconds="$seconds" \
      --json="$build/results/$w-$s.json" "${smoke[@]}" || status=1
  done
  if ((trace)); then
    echo "== $w seed=$seed traced"
    "$build/sbon_bench" --workload="$w" --seed="$seed" \
      --json="$build/results/$w-$seed.traced.json" \
      --trace="$build/results/$w-$seed.traced.csv" "${smoke[@]}" || status=1
  fi
done
exit "$status"
