//! Steady-state allocator calls, pinned. A counting global allocator (the
//! workspace's one `GlobalAlloc`) counts every allocation and
//! reallocation the calling thread makes. After warm-up, the epoch loops
//! of the benchmark's two machine shapes, through `Machine::run_epoch`
//! with snapshot recycling and through `Profiler::profile_epoch`, a
//! machine under every fault class, a machine running software prefetches
//! over a pointer chase, a faulted two-host `Fabric` epoch and the
//! materializer's analysis pass under retention each make an exact,
//! repeatable number of calls, pinned below; a reserved `tsdb::Db::ingest`
//! batch and building a pointer chase make none. The scrape path is
//! pinned too: `obs::prom::validate` on fleet bodies, and one fleetd
//! `render_metrics` call at two fleet sizes. An allocation added
//! anywhere under these loops, callees included, moves a pin. A change
//! that moves one on purpose updates it and gives the reason.
//!
//! Counters are thread-local (const-initialised TLS, so reading them never
//! allocates): the libtest harness runs tests on threads of their own, and
//! a process-global count would pick up their allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use pathfinder::model::HitLevel;
use pathfinder::profiler::{ProfileSpec, Profiler};
use pathfinder::Materializer;
use simarch::{
    Fabric, FabricConfig, FaultClass, FaultPlan, FaultWindow, Machine, MachineConfig, MemPolicy,
    StageId, TraceSource, Workload,
};
use tsdb::Db;
use workloads::{PointerChase, SwPrefetchAhead};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

#[expect(
    unsafe_code,
    reason = "a GlobalAlloc impl cannot be written without unsafe"
)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.set(ALLOCS.get() + 1);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.set(ALLOCS.get() + 1);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls made by `epochs` calls of `step` after `warmup` calls.
fn steady_allocs(warmup: u64, epochs: u64, mut step: impl FnMut()) -> u64 {
    for _ in 0..warmup {
        step();
    }
    let before = ALLOCS.get();
    for _ in 0..epochs {
        step();
    }
    ALLOCS.get() - before
}

/// `app` as an effectively endless workload: no trace drains within a
/// test.
fn endless(app: &str, policy: MemPolicy, seed: u64) -> Workload {
    let trace = workloads::build(app, u64::MAX >> 1, seed).expect("registry app");
    Workload::new(app, trace, policy)
}

fn machine(mut cfg: MachineConfig, epoch_cycles: u64, apps: &[(&str, MemPolicy)]) -> Machine {
    cfg.epoch_cycles = epoch_cycles;
    let mut m = Machine::new(cfg);
    for (core, &(app, policy)) in apps.iter().enumerate() {
        m.attach(core, endless(app, policy, core as u64 + 1));
    }
    m
}

// The apps of the benchmark's two machine shapes: the tiny machine with
// 500-cycle epochs of `profile-short-epoch`, and the SPR machine with
// 100 000-cycle epochs of `sim-cxl-contended`.
const TINY_APPS: &[(&str, MemPolicy)] = &[
    ("519.lbm_r", MemPolicy::Cxl),
    ("505.mcf_r", MemPolicy::Local),
];
const SPR_APPS: &[(&str, MemPolicy)] = &[
    ("GUPS", MemPolicy::Cxl),
    ("GUPS", MemPolicy::Cxl),
    ("STREAM", MemPolicy::Cxl),
    ("505.mcf_r", MemPolicy::Local),
];

/// Every window of `faults`, open over the whole run.
fn plan(faults: &[(FaultClass, StageId, u64)]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for &(class, stage, severity) in faults {
        plan.push(FaultWindow {
            class,
            stage,
            start_epoch: 0,
            end_epoch: u64::MAX,
            severity,
        })
        .expect("a valid fault window");
    }
    plan
}

/// Allocator calls over `epochs` epochs of `m` after `warmup`, each
/// epoch's snapshot handed back for reuse.
fn run_epoch_allocs(mut m: Machine, warmup: u64, epochs: u64) -> u64 {
    steady_allocs(warmup, epochs, || {
        let e = m.run_epoch();
        m.recycle_snapshot(e.snapshot);
    })
}

/// Allocator calls over `epochs` profiled epochs of `m` after `warmup`.
fn profile_epoch_allocs(m: Machine, warmup: u64, epochs: u64) -> u64 {
    let mut p = Profiler::new(m, ProfileSpec::default());
    steady_allocs(warmup, epochs, || {
        p.profile_epoch();
    })
}

#[test]
fn tiny_machine_epochs_make_pinned_allocator_calls() {
    let tiny = || machine(MachineConfig::tiny(), 500, TINY_APPS);
    assert_eq!(run_epoch_allocs(tiny(), 200, 2_000), 3_999);
    assert_eq!(profile_epoch_allocs(tiny(), 200, 2_000), 30_225);
}

#[test]
fn spr_machine_epochs_make_pinned_allocator_calls() {
    let spr = || machine(MachineConfig::spr(), 100_000, SPR_APPS);
    assert_eq!(run_epoch_allocs(spr(), 3, 12), 44);
    assert_eq!(profile_epoch_allocs(spr(), 3, 12), 390);
}

/// The branches the benchmark's shapes never take: every machine fault
/// class, remote-socket and interleaved placement.
#[test]
fn faulted_machine_epochs_make_pinned_allocator_calls() {
    use FaultClass::*;
    let apps = [
        ("519.lbm_r", MemPolicy::Interleave { cxl_fraction: 0.5 }),
        ("505.mcf_r", MemPolicy::RemoteNuma),
    ];
    let mut m = machine(MachineConfig::tiny(), 500, &apps);
    m.set_fault_plan(plan(&[
        (LinkDegrade, StageId::cxl(0), 2),
        (DevThrottle, StageId::cxl(0), 2),
        (PoisonedLine, StageId::cxl(0), 16),
        (QueueStall, StageId::cha(), 200),
        (QueueStall, StageId::imc(), 200),
        (PmuDropout, StageId::imc(), 0),
    ]));
    assert_eq!(run_epoch_allocs(m, 200, 2_000), 3_926);
}

/// `SwPrefetchAhead`'s look-ahead window fills once; after that a chase
/// under software prefetch allocates only what the machine does.
#[test]
fn software_prefetch_epochs_make_pinned_allocator_calls() {
    let mut cfg = MachineConfig::tiny();
    cfg.epoch_cycles = 500;
    let mut m = Machine::new(cfg);
    let chase = PointerChase::new(32 << 20, u64::MAX >> 1, 3);
    let trace = Box::new(SwPrefetchAhead::new(chase, 8));
    m.attach(0, Workload::new("chase+swpf", trace, MemPolicy::Cxl));
    assert_eq!(run_epoch_allocs(m, 200, 2_000), 4_001);
}

/// mcf's 623 k lines: the chase keeps its order in a few words, not a
/// table of one entry per line.
#[test]
fn building_a_pointer_chase_makes_no_allocator_calls() {
    let ws = workloads::suite::spec("505.mcf_r")
        .expect("registry app")
        .ws_bytes();
    let before = ALLOCS.get();
    let chase = PointerChase::new(ws, 1, 1);
    assert_eq!(ALLOCS.get() - before, 0);
    assert_eq!(chase.footprint() / 64, 623_718);
}

/// The benchmark's analysis pass over cores 0 and 1 of the tiny machine.
fn analysis_pass(m: &Materializer) {
    let (l0, l1) = (HitLevel::CxlMemory, HitLevel::LocalDram);
    std::hint::black_box((
        m.locality_windows(0, l0),
        m.locality_windows(1, l1),
        m.burst_windows(0),
        m.burst_windows(1),
        m.orthogonality(0, 1),
        m.predictability(0, l0, 8),
        m.predictability(1, l1, 8),
        m.scope_stats(0, l0),
        m.scope_stats(1, l1),
    ));
}

/// Every 256 profiled epochs, a retention step keeps the last 1 024
/// epochs and an analysis pass reads the store. Once the window is full,
/// the pass's reads allocate nothing: queries keep no strings, matching
/// series are visited in place and the memoized series reuse their
/// buffers, and Holt-Winters smooths its seasonal terms in a buffer the
/// memo lends. What a pass still allocates is the four returned window
/// vectors as they grow (22 calls: 8 and 3 for the locality windows of
/// about 450 and 13 phases, the same for the burst windows).
#[test]
fn analysis_pass_makes_pinned_allocator_calls() {
    const EVERY: u64 = 256;
    const RETAIN: u64 = 4 * EVERY;
    let tiny = machine(MachineConfig::tiny(), 500, TINY_APPS);
    let epoch_cycles = tiny.config().epoch_cycles;
    let mut p = Profiler::new(tiny, ProfileSpec::default());
    let mut steady = 0;
    for pass in 0..12 {
        let mut end = 0;
        for _ in 0..EVERY {
            end = p.profile_epoch().delta.end_cycle;
        }
        let cutoff = end.saturating_sub(RETAIN * epoch_cycles);
        for measurement in ["path_set", "vertex", "app"] {
            p.materializer.db.delete_range(measurement, 0, cutoff);
        }
        let allocs = steady_allocs(0, 1, || analysis_pass(&p.materializer));
        if pass >= 8 {
            steady += allocs;
        }
    }
    assert_eq!(steady, 88);
}

/// A faulted two-host fabric: 39 calls per epoch, for the hosts' epoch
/// results with their fresh snapshots (handed to the caller), the fabric
/// snapshot and the per-epoch scratch vectors. The previous host
/// snapshots are overwritten in place, and each host's CXL demand is read
/// without building a delta.
#[test]
fn two_host_fabric_epochs_make_pinned_allocator_calls() {
    let cfg = MachineConfig::tiny();
    let mut f = Fabric::new(cfg.clone(), FabricConfig::balanced(2, &cfg));
    for (host, app) in ["519.lbm_r", "505.mcf_r"].into_iter().enumerate() {
        f.attach(host, 0, endless(app, MemPolicy::Cxl, host as u64 + 1));
    }
    f.set_fault_plan(plan(&[
        (FaultClass::SharedLinkDegrade, StageId::switch_port(0), 2),
        (FaultClass::SwitchPortStall, StageId::switch_port(1), 200),
    ]));
    let fabric = steady_allocs(20, 200, || {
        f.run_epoch();
    });
    assert_eq!(fabric, 7_800);
}

#[test]
fn steady_state_ingest_performs_zero_allocations() {
    const EPOCHS: usize = 1_024;

    let mut db = Db::new();
    // Cold path: resolve handles (interns strings, builds columns) and
    // reserve capacity for the whole batch up front.
    let paths = ["DRd", "RFO", "HW PF", "SW PF"];
    let mut handles = Vec::new();
    for core in 0..2u32 {
        let core_s = core.to_string();
        for p in &paths {
            handles.push(db.series_handle(
                "path_set",
                &[("core", core_s.as_str()), ("path", p), ("dst", "LLC")],
                &["hits"],
            ));
        }
    }
    for &id in &handles {
        db.reserve(id, EPOCHS);
    }

    // Hot path: the per-epoch grid the materializer emits. Must not touch
    // the allocator at all.
    let mut e = 0;
    let ingest = steady_allocs(0, EPOCHS as u64, || {
        let ts = e as u64 * 10_000;
        for (i, &id) in handles.iter().enumerate() {
            db.ingest(id, ts, &[(e * i) as f64]);
        }
        e += 1;
    });
    assert_eq!(ingest, 0, "steady-state ingest must be allocation-free");
    assert_eq!(db.len(), EPOCHS * handles.len());
}

/// A fleet snapshot of `hosts` hosts with ids 0, 1, …, their counters
/// growing with the host id, as the benchmark's fleet scrapes them.
fn fleet_snapshot(hosts: u32) -> fleetd::shard::FleetSnapshot {
    let names = fleetd::host::counter_names();
    let counters = (0..names.len() as u64)
        .map(|i| fleetd::aggregate::CounterStat {
            sum: 1_000 * i * u64::from(hosts),
            p50: 1_000 * i,
            p95: 1_900 * i,
            p99: 1_990 * i,
        })
        .collect();
    fleetd::shard::FleetSnapshot {
        round: 18,
        hosts: u64::from(hosts),
        epochs: 18 * u64::from(hosts),
        points: 18 * u64::from(hosts),
        resident_bytes: 1 << 21,
        text: Arc::new(fleetd::server::FleetText::new(&names)),
        counters,
        headline: (0..hosts)
            .map(|id| (id, [40_000 + u64::from(id), 100_000 + u64::from(id)]))
            .collect(),
    }
}

/// Allocator calls of one `validate` of `body`, and its sample count.
fn validate_allocs(body: &str) -> (u64, usize) {
    let before = ALLOCS.get();
    let stats = obs::prom::validate(body, &["pathfinder_fleet_inst_retired_any"]);
    let allocs = ALLOCS.get() - before;
    (allocs, stats.expect("a fleet body validates").samples)
}

/// The validator allocates per table growth, never per sample: on
/// fleetd's committed 7-host golden and on a 128-host body (1 374 and
/// 1 622 samples) it makes 16 calls each, for its family table (276
/// families: its first 64 slots and four doublings), its identity table
/// (its first 64 slots and six doublings) and the first growth of its
/// label and key buffers. Building a `String` identity per sample made
/// over one call per sample.
#[test]
fn prom_validate_makes_pinned_allocator_calls() {
    let golden = include_str!("../../fleetd/tests/golden/render_metrics.prom");
    let body = fleetd::server::render_metrics(&fleet_snapshot(128));
    let (golden_allocs, golden_samples) = validate_allocs(golden);
    let (allocs, samples) = validate_allocs(&body);
    assert_eq!((golden_samples, samples), (1_374, 1_622));
    assert_eq!((golden_allocs, allocs), (16, 16));
    assert!(10 * allocs < samples as u64);
}

/// One `render_metrics` makes 6 calls at 128 and at 1 024 hosts: one
/// for the body, reserved once at its bound, and the rest for the obs
/// registry part. The fleet part is written from text the fleet built
/// at launch.
#[test]
fn render_metrics_makes_pinned_allocator_calls() {
    let render = |snap: &fleetd::shard::FleetSnapshot| {
        let before = ALLOCS.get();
        let body = fleetd::server::render_metrics(snap);
        (ALLOCS.get() - before, body.len())
    };
    let (small, large) = (fleet_snapshot(128), fleet_snapshot(1_024));
    let ((small_allocs, small_bytes), (large_allocs, large_bytes)) =
        (render(&small), render(&large));
    assert!(
        large_bytes > small_bytes + 896 * 80,
        "{small_bytes} → {large_bytes} bytes"
    );
    assert_eq!((small_allocs, large_allocs), (6, 6));
}
