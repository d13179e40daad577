#!/usr/bin/env bash
# Builds the benchmark package and runs one workload, or all five when
# --workload is absent. Every workload runs in a process of its own.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#
# The last line a workload prints is its result object; see README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/persephone-benchmark"

# The single-threaded workloads are pinned to the last core, away from
# core 0's interrupts; bimodal_live needs both cores for its ten threads.
run_one() {
    local workload=$1
    shift
    local pin=()
    local core=$(($(nproc) - 1))
    if [ "$workload" != bimodal_live ] && taskset -c "$core" true 2>/dev/null; then
        pin=(taskset -c "$core")
    fi
    ${pin[@]+"${pin[@]}"} "$bin" --workload "$workload" "$@"
}

workload=""
rest=()
while [ $# -gt 0 ]; do
    if [ "$1" = --workload ] && [ $# -ge 2 ]; then
        workload=$2
        shift 2
    else
        rest+=("$1")
        shift
    fi
done

if [ -n "$workload" ]; then
    run_one "$workload" ${rest[@]+"${rest[@]}"}
else
    for w in pipe_loopback pipe_udp pipe_churn xbimodal_sim bimodal_live; do
        run_one "$w" ${rest[@]+"${rest[@]}"}
    done
fi
