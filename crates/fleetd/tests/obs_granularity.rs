//! Observability granularity: no obs call sits below epoch granularity.
//!
//! fleetd always records (`obs::enable()` in `main.rs`), so a span per
//! simulated op would cost two clock reads and a turn on the recorder
//! mutex per op, contended by every shard thread; a metric update per op
//! would take the registry mutex per op. This test turns obs on, drives a
//! small fleet and a profiled machine, and bounds the spans recorded and
//! the metric updates taken per host-epoch by constants: the per-epoch,
//! per-stage and per-round calls fit under them, anything per op or per
//! request does not. It is a test binary of its own, so the process-wide
//! recorder and registry hold only what is recorded here.

use fleetd::shard::Fleet;
use fleetd::FleetConfig;
use pathfinder::profiler::{ProfileSpec, Profiler};
use simarch::{Machine, MachineConfig, MemPolicy, Workload};

/// Spans one host-epoch may record: the machine's epoch and per-stage
/// spans, the profiler's technique spans, and a host's share of the
/// per-round fleet spans.
const MAX_SPANS_PER_HOST_EPOCH: u64 = 32;

/// Metric updates one host-epoch may take: the epoch audit's timing and a
/// host's share of the per-round fleet metrics.
const MAX_UPDATES_PER_HOST_EPOCH: u64 = 8;

fn recorded_spans() -> u64 {
    obs::span::phases().iter().map(|p| p.count).sum()
}

fn metric_updates() -> u64 {
    obs::metrics::snapshot().updates
}

#[test]
fn spans_per_host_epoch_stay_bounded() {
    obs::enable();

    let (hosts, rounds) = (4u64, 3u64);
    let mut fleet = Fleet::launch(FleetConfig {
        hosts: hosts as u32,
        shards: 2,
        seed: 7,
        epochs_per_round: 1,
        retention_rounds: 2,
        record_streams: false,
    })
    .expect("launch fleet");
    for _ in 0..rounds {
        fleet.run_round().expect("round");
    }
    fleet.shutdown();
    let fleet_spans = recorded_spans();
    let fleet_updates = metric_updates();
    assert!(
        fleet_spans <= MAX_SPANS_PER_HOST_EPOCH * hosts * rounds,
        "fleet recorded {fleet_spans} spans over {} host-epochs",
        hosts * rounds
    );
    assert!(
        fleet_updates <= MAX_UPDATES_PER_HOST_EPOCH * hosts * rounds,
        "fleet took {fleet_updates} metric updates over {} host-epochs",
        hosts * rounds
    );

    let mut cfg = MachineConfig::tiny();
    cfg.epoch_cycles = 20_000;
    let mut machine = Machine::new(cfg);
    for (core, app) in ["505.mcf_r", "519.lbm_r"].into_iter().enumerate() {
        let trace = workloads::build(app, u64::MAX / 2, core as u64 + 1).expect("registry app");
        machine.attach(core, Workload::new(app, trace, MemPolicy::Cxl));
    }
    let mut profiler = Profiler::new(machine, ProfileSpec::default());
    let epochs = 300u64;
    let mut ops = 0u64;
    for _ in 0..epochs {
        ops += profiler.profile_epoch().ops_per_core.iter().sum::<u64>();
    }
    // Enough ops that one span per op would blow the bound many times over.
    assert!(
        ops >= 10 * MAX_SPANS_PER_HOST_EPOCH * epochs,
        "only {ops} ops ran"
    );
    let profiled_spans = recorded_spans() - fleet_spans;
    assert!(
        profiled_spans <= MAX_SPANS_PER_HOST_EPOCH * epochs,
        "profiled machine recorded {profiled_spans} spans over {epochs} epochs"
    );
    let profiled_updates = metric_updates() - fleet_updates;
    assert!(
        profiled_updates <= MAX_UPDATES_PER_HOST_EPOCH * epochs,
        "profiled machine took {profiled_updates} metric updates over {epochs} epochs"
    );
    assert_eq!(obs::span::dropped_events(), 0);
}
