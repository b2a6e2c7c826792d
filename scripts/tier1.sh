#!/usr/bin/env bash
# Tier-1 gate: everything CI (and a reviewer) requires before merge.
# Runs the release build, the full test suite, formatting, clippy over all
# targets with warnings denied (the root clippy.toml and the workspace
# lints; STATIC_ANALYSIS.md), and rustdoc with warnings denied.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release
run cargo test -q
# Scheduler differential gate (DESIGN.md §2.2.3): the core step order
# (earliest pending core first, lowest index on a tie) must reproduce the
# committed counter digests of 29 seeded scenario × fault-plan × topology
# tuples. Already part of the workspace suite above; named here so a
# failure is unmistakable in CI logs.
run cargo test -q -p simarch --test scheduler_digests
# Benchmark smoke runs (benchmark/README.md): the standalone benchmark
# crate builds against the workspace crates and runs every workload for
# about a second, untraced and traced, with its correctness checks on.
# Any crate API change that breaks the benchmark fails here.
run cargo test -q --manifest-path benchmark/Cargo.toml
run cargo fmt --check
run cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc gate: every intra-doc link resolves and no public doc links a
# private item, so a deleted or renamed item cannot leave a dangling link.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

obs_out="$(mktemp -d)"
trap 'rm -rf "$obs_out"' EXIT

# Deterministic cost gate (ROADMAP item 1(a), PERFORMANCE.md): a traced
# smoke run of every benchmark workload on seed 1 prints per-layer rows
# that repeat exactly for a seed, because each counts a fixed number of
# epochs: simulated ops and allocator calls per epoch, tsdb points, rows
# and bytes, fleet round rows and samples, and the simulation digest.
# They must equal scripts/deterministic_rows.txt, so one added allocation
# or simulated op per epoch fails here with no timing involved. A change
# that moves a row on purpose updates the file and gives the reason in
# CHANGES.md. Wall-clock rows stay advisory.
echo "==> benchmark deterministic rows vs scripts/deterministic_rows.txt"
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
    run --smoke --trace 1 --seed 1 --out "$obs_out/smoke.jsonl" > "$obs_out/smoke.txt"
awk '
    /^== / { workload = $2; next }
    $1 == "simarch.ops_per_epoch" || $1 ~ /\.allocs_per_epoch$/ || $1 == "sim_digest" ||
    $1 ~ /^core\.materializer\.(points_per_epoch|rows_scanned|query_allocs)$/ ||
    $1 ~ /^tsdb\.(footprint|resident)_bytes$/ || $1 ~ /^fleetd\.round\.(rows|samples)$/ {
        print workload, $1, $2
    }
' "$obs_out/smoke.txt" | diff -u scripts/deterministic_rows.txt -

# Observability acceptance (OBSERVABILITY.md): a figure run with
# --timings-json must emit valid pathfinder-obs-v1 JSON containing the two
# mandatory top-level phases. The same run regenerates the full-size fig6
# golden, which must be byte-identical: timing the run must not change it.
# The other figure runs are the golden gate at the end, and
# crates/bench/tests/golden_identity.rs compares serial and --jobs 2 runs.
run cargo run --release -p bench -- fig6_stall_breakdown \
    --timings-json "$obs_out/timings.json"
run git diff --exit-code crates/bench/out/fig6_stall_breakdown.csv
run cargo run --release -p obs --bin obs_validate -- \
    "$obs_out/timings.json" epoch.machine epoch.profiler

# Fleet-mode smoke (FLEET.md): a sharded fleet of the benchmark's 128
# hosts serves a live /metrics scrape (about 120 KB) whose Prometheus
# exposition validates (TYPE lines, pathfinder_* mangling, no duplicate
# samples, the contract families present), and whose timings JSON names
# the fleet phases: the launch and each worker's host build as well as
# the rounds.
run cargo run --release -p fleetd --bin pathfinder-fleetd -- \
    --hosts 128 --shards 2 --rounds 2 --listen 127.0.0.1:0 \
    --scrape-out "$obs_out/fleet_metrics.txt" \
    --timings-json "$obs_out/fleet_timings.json"
run cargo run --release -p obs --bin obs_validate -- --prom \
    "$obs_out/fleet_metrics.txt" \
    pathfinder_fleetd_rounds pathfinder_fleetd_points \
    pathfinder_fleetd_round_ns pathfinder_fleetd_scrape_ns \
    pathfinder_fleetd_shard_lag_ns pathfinder_tsdb_resident_bytes \
    pathfinder_obs_dropped_events pathfinder_fleet_inst_retired_any \
    pathfinder_host_inst_retired_any
run cargo run --release -p obs --bin obs_validate -- \
    "$obs_out/fleet_timings.json" fleet.round fleet.shard_round \
    fleet.launch fleet.shard_build

# Golden gate (EXPERIMENTS.md): every row of the figure table reruns at
# full size (`bench all --jobs 2`), and the CSVs under crates/bench/out,
# plus the captured stdout in all_figures.txt, must regenerate
# byte-identical to the committed files, with none added or missing.
run scripts/refresh_goldens.sh

echo "tier1: all gates passed"
