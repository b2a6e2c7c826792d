#!/usr/bin/env bash
# Perf-regression harness.
#
# Default mode: build perfbench in release mode and run its two fixed,
# seeded scenarios (a full profiled run and the materializer-shaped
# ingest loop; see PERFORMANCE.md). Results are merged into BENCH_pr10.json
# by (name, metric) — pass a label to record a named variant:
#
#   scripts/bench.sh                 # unlabelled rows (ad-hoc runs)
#   scripts/bench.sh after           # perfbench.*.after rows
#   scripts/bench.sh after --epochs 20000
#
# Fleet mode: sweep the fleetd collector daemon over host counts and
# record hosts, epochs/s, points/s, scrape p99 and resident bytes into
# BENCH_pr7.json (see FLEET.md). Every round performs a live /metrics
# self-scrape over TCP, so scrape latency is measured with real data:
#
#   scripts/bench.sh fleet                    # 100 / 1k / 10k hosts
#   scripts/bench.sh fleet 100 1000           # custom host counts
#
# Extra arguments after the label are forwarded to the binary verbatim.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -gt 0 && "$1" == fleet ]]; then
    shift
    cargo build --release -p fleetd --bin pathfinder-fleetd
    hosts=()
    while [[ $# -gt 0 && "$1" != --* ]]; do
        hosts+=("$1")
        shift
    done
    if [[ ${#hosts[@]} -eq 0 ]]; then
        hosts=(100 1000 10000)
    fi
    for n in "${hosts[@]}"; do
        # Shards sized for the box; rounds kept short so the sweep stays
        # minutes, not hours, at 10k hosts on one core.
        ./target/release/pathfinder-fleetd --bench \
            --hosts "$n" --shards 4 --rounds 3 \
            --listen 127.0.0.1:0 --out BENCH_pr7.json "$@"
    done
    exit 0
fi

cargo build --release -p bench --bin perfbench

args=()
if [[ $# -gt 0 && "$1" != --* ]]; then
    args+=(--label "$1")
    shift
fi
./target/release/perfbench "${args[@]}" "$@"
