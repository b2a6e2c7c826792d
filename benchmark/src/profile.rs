//! The three profiled-machine workloads.
//!
//! Each repetition builds its machine and profiler afresh, warms up, then
//! times every profiled epoch. The untraced loop calls
//! `Profiler::profile_epoch`, exactly what a user runs. The traced loop
//! builds `Machine` and `Materializer` directly and repeats
//! `profile_epoch`'s calls, each wrapped in a span; its digest and point
//! count must equal the untraced loop's.

use pathfinder::model::HitLevel;
use pathfinder::profiler::{ProfileSpec, Profiler};
use pathfinder::{LatencyModel, Materializer, PfAnalyzer, PfBuilder, PfEstimator};
use pmu::{CoreEvent, SystemDelta, SystemSnapshot};
use simarch::arena::OpRing;
use simarch::{Invariants, Machine, MachineConfig, MemOp, MemPolicy, TraceSource, Workload};

use crate::result::{peak_rss_mb, Checks, Metric, Outcome};
use crate::span::{self, Layer, Trace};
use crate::stats::{derive_seed, Digest, Hist};

/// Retention window of `profile-analysis-retention`, in epochs.
const RETAIN_EPOCHS: u64 = 4_096;
/// Epochs between two retention steps (and analysis passes).
const ANALYSIS_EVERY: u64 = 256;
/// The hit level each analysed core's memory traffic lands on: core 0's
/// app runs from CXL memory, core 1's from local DRAM. The two cores share
/// no hit level, so the pass has no `correlate_cores`; `orthogonality` is
/// its cross-core read.
const LEVELS: [HitLevel; 2] = [HitLevel::CxlMemory, HitLevel::LocalDram];
/// Set-ups per untraced repetition; the last one is driven. A set-up takes
/// about 6 ms, so three per repetition give every run over 100 of them,
/// spread over the whole run, for `setup_s` to be the median of.
const SETUPS_PER_REP: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ShortEpoch,
    SimCxl,
    Retention,
}

/// Warm-up and timed epochs of one repetition. Both together stay under
/// `ProfileSpec::max_db_epochs`, so the profiler ingests every epoch.
#[derive(Clone, Copy)]
struct Plan {
    warmup: u64,
    epochs: u64,
}

impl Kind {
    fn plan(self, smoke: bool) -> Plan {
        let (warmup, epochs) = match (self, smoke) {
            (Kind::ShortEpoch, false) => (2_000, 16_000),
            (Kind::SimCxl, false) => (20, 250),
            // Warm up for a full retention window, so every timed pass
            // sees the steady-state store size.
            (Kind::Retention, false) => (RETAIN_EPOCHS, 16_384),
            (Kind::ShortEpoch, true) => (100, 1_000),
            (Kind::SimCxl, true) => (2, 10),
            (Kind::Retention, true) => (ANALYSIS_EVERY, 4 * ANALYSIS_EVERY),
        };
        Plan { warmup, epochs }
    }

    /// Build the workload's machine. Trace seeds derive from `seed` alone;
    /// `timed` wraps each trace source so its pulls record as a span.
    fn machine(self, seed: u64, timed: bool) -> Machine {
        use MemPolicy::{Cxl, Local};
        let (mut cfg, apps): (MachineConfig, &[(&str, MemPolicy)]) = match self {
            Kind::SimCxl => (
                MachineConfig::spr(),
                &[
                    ("GUPS", Cxl),
                    ("GUPS", Cxl),
                    ("STREAM", Cxl),
                    ("505.mcf_r", Local),
                ],
            ),
            Kind::ShortEpoch | Kind::Retention => (
                MachineConfig::tiny(),
                &[("519.lbm_r", Cxl), ("505.mcf_r", Local)],
            ),
        };
        cfg.epoch_cycles = if self == Kind::SimCxl { 100_000 } else { 500 };
        let mut m = Machine::new(cfg);
        for (core, &(app, policy)) in apps.iter().enumerate() {
            // Effectively endless: no trace drains within a repetition.
            let trace = workloads::build(app, u64::MAX / 2, derive_seed(seed, core as u64))
                .expect("the workloads registry has every benchmark app");
            let trace: Box<dyn TraceSource> = if timed {
                Box::new(TimedTrace(trace))
            } else {
                trace
            };
            m.attach(core, Workload::new(app, trace, policy));
        }
        m
    }
}

/// Forwards a trace source, timing each pull as the `workloads` layer.
struct TimedTrace(Box<dyn TraceSource>);

impl TraceSource for TimedTrace {
    fn next_op(&mut self) -> Option<MemOp> {
        span::time(Layer::Workloads, || self.0.next_op())
    }

    fn footprint(&self) -> usize {
        self.0.footprint()
    }

    fn fill_ops(&mut self, ring: &mut OpRing, max: usize) -> usize {
        span::time(Layer::Workloads, || self.0.fill_ops(ring, max))
    }
}

/// What `drive` needs from either loop.
trait Subject {
    /// One profiled epoch: its counter deltas and the ops it simulated.
    fn epoch(&mut self) -> (SystemDelta, u64);
    fn materializer(&mut self) -> &mut Materializer;
    fn machine(&self) -> &Machine;
    /// Warm-up is over: what follows is timed.
    fn start_timing(&mut self) {}
}

impl Subject for Profiler {
    fn epoch(&mut self) -> (SystemDelta, u64) {
        let e = self.profile_epoch();
        (e.delta, e.ops_per_core.iter().sum())
    }

    fn materializer(&mut self) -> &mut Materializer {
        &mut self.materializer
    }

    fn machine(&self) -> &Machine {
        Profiler::machine(self)
    }
}

/// `Profiler::profile_epoch`'s calls, one span per layer, plus the
/// simulated quantities of the timed epochs.
struct Traced {
    machine: Machine,
    lat: LatencyModel,
    prev: SystemSnapshot,
    mat: Materializer,
    apps: Vec<Option<String>>,
    cxl_hits: u64,
    all_hits: u64,
    culprit_sum: f64,
    culprit_epochs: u64,
}

impl Traced {
    fn new(machine: Machine) -> Traced {
        let apps = (0..machine.config().cores)
            .map(|c| machine.workload_name(c).map(str::to_string))
            .collect();
        Traced {
            lat: LatencyModel::from_config(machine.config()),
            prev: machine.pmu.snapshot(machine.now()),
            mat: Materializer::new(),
            apps,
            cxl_hits: 0,
            all_hits: 0,
            culprit_sum: 0.0,
            culprit_epochs: 0,
            machine,
        }
    }
}

impl Subject for Traced {
    fn epoch(&mut self) -> (SystemDelta, u64) {
        span::time(Layer::Epoch, || {
            let er = span::time(Layer::Simarch, || self.machine.run_epoch());
            let delta = span::time(Layer::Pmu, || {
                let d = er.snapshot.delta(&self.prev);
                self.machine
                    .recycle_snapshot(std::mem::replace(&mut self.prev, er.snapshot));
                d
            });
            let map = span::time(Layer::Builder, || PfBuilder::build(&delta));
            let stalls = span::time(Layer::Estimator, || {
                PfEstimator::breakdown(&delta, &self.lat)
            });
            let (queues, culprit) = span::time(Layer::Analyzer, || {
                let q = PfAnalyzer::analyze(&delta, &self.lat);
                let c = q.culprit();
                (q, c)
            });
            span::time(Layer::Ingest, || {
                let ts = delta.end_cycle;
                self.mat.ingest_path_map(ts, &map, &self.apps);
                self.mat.ingest_queues(ts, &queues);
                self.mat.ingest_progress(ts, &er.ops_per_core, &self.apps);
            });
            std::hint::black_box(stalls);
            self.cxl_hits += map.total.level_total(HitLevel::CxlMemory);
            self.all_hits += map.total.total();
            if let Some(c) = culprit {
                self.culprit_sum += c.queue_len;
                self.culprit_epochs += 1;
            }
            (delta, er.ops_per_core.iter().sum())
        })
    }

    fn start_timing(&mut self) {
        self.cxl_hits = 0;
        self.all_hits = 0;
        self.culprit_sum = 0.0;
        self.culprit_epochs = 0;
    }

    fn materializer(&mut self) -> &mut Materializer {
        &mut self.mat
    }

    fn machine(&self) -> &Machine {
        &self.machine
    }
}

/// One analysis pass of `profile-analysis-retention` over cores 0 and 1.
struct Analysis {
    windows: [usize; 4],
    values: [(&'static str, Option<f64>); 5],
}

impl Analysis {
    fn run(m: &Materializer) -> Analysis {
        let [l0, l1] = LEVELS;
        Analysis {
            windows: [
                m.locality_windows(0, l0).len(),
                m.locality_windows(1, l1).len(),
                m.burst_windows(0).len(),
                m.burst_windows(1).len(),
            ],
            values: [
                ("orthogonality", m.orthogonality(0, 1)),
                ("predictability core 0", m.predictability(0, l0, 8)),
                ("predictability core 1", m.predictability(1, l1, 8)),
                ("scope mean core 0", m.scope_stats(0, l0).map(|s| s.2)),
                ("scope mean core 1", m.scope_stats(1, l1).map(|s| s.2)),
            ],
        }
    }

    fn verify(&self) -> Result<(), String> {
        if self.windows.contains(&0) {
            return Err(format!("empty window list: {:?}", self.windows));
        }
        for (what, v) in self.values {
            match v {
                Some(x) if x.is_finite() => {}
                other => return Err(format!("{what} = {other:?}")),
            }
        }
        Ok(())
    }
}

/// Rows the analysis pass's queries read back from the store.
fn rows_scanned(m: &Materializer) -> u64 {
    let hits = |c: usize| {
        m.db.from("path_set")
            .filter("core", c.to_string())
            .filter("dst", LEVELS[c].label())
            .count()
    };
    let ops = |c: usize| m.db.from("app").filter("core", c.to_string()).count();
    // Per core: locality_windows, predictability and scope_stats each read
    // the hit series; burst_windows and orthogonality read the ops series.
    (3 * (hits(0) + hits(1)) + 2 * (ops(0) + ops(1))) as u64
}

/// Slide the retention window: drop every record older than
/// `RETAIN_EPOCHS` epochs from the three measurements the profiler writes.
fn retain(m: &mut Materializer, now_cycle: u64, epoch_cycles: u64) -> u64 {
    let cutoff = now_cycle.saturating_sub(RETAIN_EPOCHS * epoch_cycles);
    ["path_set", "vertex", "app"]
        .iter()
        .map(|meas| m.db.delete_range(meas, 0, cutoff) as u64)
        .sum()
}

/// Latencies (ns) of the timed operations, pooled over a run's
/// repetitions.
#[derive(Default)]
struct Latencies {
    epoch: Hist,
    analysis: Hist,
}

/// One repetition's measurements.
#[derive(Default)]
struct Rep {
    /// Host time of the timed operations: epochs, retention, analysis.
    busy_ns: u64,
    /// Host time of the timed epochs alone.
    epoch_ns: u64,
    epochs: u64,
    ops: u64,
    insts: u64,
    cycles: u64,
    digest: Digest,
    /// Points ingested during the timed epochs.
    points_ingested: u64,
    points_stored: usize,
    rows_deleted: u64,
    retention_steps: u64,
    rows_scanned: u64,
    resident_bytes: usize,
    footprint_bytes: usize,
    trace: Trace,
}

impl Rep {
    fn epoch_mean_ns(&self) -> f64 {
        self.epoch_ns as f64 / self.epochs.max(1) as f64
    }
}

fn now() -> u64 {
    obs::clock::now_ns()
}

/// Run warm-up plus timed epochs on `s`, recording the timed latencies in
/// `lat`; with `traced`, arm the span recorder for the timed part.
fn drive(
    kind: Kind,
    plan: Plan,
    s: &mut impl Subject,
    traced: bool,
    checks: &mut Checks,
    lat: &mut Latencies,
) -> Rep {
    let epoch_cycles = s.machine().config().epoch_cycles;
    let mut rep = Rep::default();
    let mut stored_at_start = 0usize;
    for i in 0..plan.warmup + plan.epochs {
        let timed = i >= plan.warmup;
        if i == plan.warmup {
            stored_at_start = s.materializer().db.len();
            s.start_timing();
            if traced {
                span::start();
            }
        }
        span::set_epoch(i);
        let t0 = now();
        let (d, ops) = s.epoch();
        let t1 = now();
        rep.digest.delta(&d);
        if timed {
            lat.epoch.record(t1 - t0);
            rep.epoch_ns += t1 - t0;
            rep.busy_ns += t1 - t0;
            rep.ops += ops;
            rep.insts += d.core_sum(CoreEvent::InstRetired);
            rep.cycles += d.core_sum(CoreEvent::CpuClkUnhalted);
        }
        if kind == Kind::Retention && (i + 1) % ANALYSIS_EVERY == 0 {
            let m = s.materializer();
            let t0 = now();
            let deleted = span::time(Layer::Delete, || retain(m, d.end_cycle, epoch_cycles));
            let t1 = now();
            let a = span::time(Layer::Query, || Analysis::run(m));
            let t2 = now();
            checks.check("analysis results are finite", a.verify());
            if timed {
                rep.busy_ns += t2 - t0;
                lat.analysis.record(t2 - t1);
                rep.rows_deleted += deleted;
                rep.retention_steps += 1;
                if traced {
                    rep.rows_scanned += rows_scanned(m);
                }
            }
        }
    }
    if traced {
        rep.trace = span::stop();
    }
    rep.epochs = plan.epochs;
    let m = s.materializer();
    rep.points_stored = m.db.len();
    rep.points_ingested = (rep.points_stored + rep.rows_deleted as usize - stored_at_start) as u64;
    rep.resident_bytes = m.db.resident_bytes();
    rep.footprint_bytes = m.db.footprint_bytes();
    let mut violations = Vec::new();
    s.machine().collect_violations(&mut violations);
    checks.check(
        "conservation invariants hold at the end of each repetition",
        match violations.first() {
            None => Ok(()),
            Some(v) => Err(format!("{} violation(s), first: {v}", violations.len())),
        },
    );
    rep
}

/// The simulated quantities a traced repetition observed.
struct Model {
    cxl_hit_share: f64,
    culprit_queue_len: f64,
}

/// Set up `SETUPS_PER_REP` times, pushing each set-up time (s) to
/// `setups`, and drive the last profiler built.
fn untraced_rep(
    kind: Kind,
    plan: Plan,
    seed: u64,
    checks: &mut Checks,
    setups: &mut Vec<f64>,
    lat: &mut Latencies,
) -> Rep {
    let mut setup = || {
        let t0 = now();
        let p = Profiler::new(kind.machine(seed, false), ProfileSpec::default());
        setups.push((now() - t0) as f64 / 1e9);
        p
    };
    for _ in 1..SETUPS_PER_REP {
        drop(setup());
    }
    let mut p = setup();
    drive(kind, plan, &mut p, false, checks, lat)
}

fn traced_rep(kind: Kind, plan: Plan, seed: u64, checks: &mut Checks) -> (Rep, Model) {
    let mut t = Traced::new(kind.machine(seed, true));
    let rep = drive(kind, plan, &mut t, true, checks, &mut Latencies::default());
    let model = Model {
        cxl_hit_share: t.cxl_hits as f64 / t.all_hits.max(1) as f64,
        culprit_queue_len: t.culprit_sum / t.culprit_epochs.max(1) as f64,
    };
    (rep, model)
}

/// Run one profile workload for `seconds`, alternating untraced and traced
/// repetitions when `trace` is set.
pub fn run(kind: Kind, seed: u64, seconds: u64, trace: bool, smoke: bool) -> Outcome {
    let plan = kind.plan(smoke);
    let mut checks = Checks::default();
    let deadline = now() + seconds * 1_000_000_000;
    let mut setups = Vec::new();
    let mut lat = Latencies::default();
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<(Rep, Model)> = Vec::new();
    while untraced.len() < 2 || now() < deadline {
        untraced.push(untraced_rep(
            kind,
            plan,
            seed,
            &mut checks,
            &mut setups,
            &mut lat,
        ));
        if trace {
            let (mut rep, model) = traced_rep(kind, plan, seed, &mut checks);
            // Only the first traced repetition feeds the Chrome trace.
            if !traced.is_empty() {
                rep.trace.spans = Vec::new();
            }
            traced.push((rep, model));
        }
    }
    let first = &untraced[0];
    for r in &untraced[1..] {
        checks.same_digest(first.digest, r.digest);
    }
    for (r, _) in &traced {
        checks.check(
            "the traced loop's digest and point count equal the untraced loop's",
            (r.digest == first.digest && r.points_stored == first.points_stored)
                .then_some(())
                .ok_or_else(|| {
                    format!(
                        "digest {:016x} vs {:016x}, points {} vs {}",
                        r.digest.0, first.digest.0, r.points_stored, first.points_stored
                    )
                }),
        );
    }

    let work = |f: fn(&Rep) -> u64| {
        untraced
            .iter()
            .map(|r| (f(r), r.busy_ns))
            .collect::<Vec<_>>()
    };
    // What the workload's user waits on: the analysis pass where there is
    // one, else the profiled epoch.
    let response = match kind {
        Kind::Retention => &lat.analysis,
        Kind::ShortEpoch | Kind::SimCxl => &lat.epoch,
    };
    let mut metrics = vec![
        Metric::median("setup_s", "s", &setups),
        Metric::rate("epochs_per_s", "epochs/s", &work(|r| r.epochs)),
        Metric::rate("sim_insts_per_s", "insts/s", &work(|r| r.insts)),
        Metric::pooled("epoch_p50_us", "us", &lat.epoch, 0.50, 1e3),
        Metric::pooled("epoch_p99_us", "us", &lat.epoch, 0.99, 1e3),
        Metric::pooled_mean("response_mean_ms", "ms", response, 1e6),
        Metric::pooled("response_p50_ms", "ms", response, 0.50, 1e6),
        Metric::pooled("response_p95_ms", "ms", response, 0.95, 1e6),
    ];
    if kind == Kind::SimCxl {
        let err = idle_latency_error();
        if let Ok(pct) = err {
            metrics.push(Metric::exact("idle_lat_err_pct", "%", pct));
        }
        checks.check(
            "idle latency matches the committed fig0 CSV",
            err.map(|_| ()),
        );
    }
    if trace {
        metrics.extend(per_layer(&untraced, &traced));
    }
    match peak_rss_mb() {
        Ok(mb) => metrics.push(Metric::exact("peak_rss_mb", "MB", mb)),
        Err(why) => checks.check("peak RSS is readable", Err(why)),
    }
    let artefacts = traced
        .first()
        .map(|(r, _)| {
            vec![
                ("trace.json".to_string(), span::chrome_trace(&[&r.trace])),
                (
                    "selftime.txt".to_string(),
                    span::self_time_table(&r.trace, "epoch", r.epochs),
                ),
            ]
        })
        .unwrap_or_default();
    Outcome {
        reps: untraced.len(),
        metrics,
        checks,
        digest: first.digest,
        artefacts,
    }
}

/// The per-layer metrics of the traced repetitions. The untraced ones ran
/// alternately with them, so the mean untraced epoch time, less the
/// layers' self times, leaves the residual.
fn per_layer(untraced: &[Rep], traced: &[(Rep, Model)]) -> Vec<Metric> {
    let mut t = Trace::default();
    for (r, _) in traced {
        t.absorb(&r.trace);
    }
    let (rep, model) = &traced[0];
    let epochs = (traced.len() as u64 * rep.epochs).max(1) as f64;
    let ops = (traced.len() as u64 * rep.ops).max(1) as f64;
    let untraced_epoch = untraced.iter().map(|r| r.epoch_ns).sum::<u64>() as f64
        / untraced.iter().map(|r| r.epochs).sum::<u64>().max(1) as f64;
    let per_epoch = |l: Layer| t.stat(l).self_ns as f64 / epochs;
    let allocs = |l: Layer| t.stat(l).self_allocs as f64 / epochs;
    let per_call = |l: Layer| {
        let s = t.stat(l);
        let calls = s.calls.max(1) as f64;
        (s.self_ns as f64 / calls, s.self_allocs as f64 / calls)
    };
    let layers = [
        Layer::Simarch,
        Layer::Workloads,
        Layer::Pmu,
        Layer::Builder,
        Layer::Estimator,
        Layer::Analyzer,
        Layer::Ingest,
    ];
    let layer_sum: f64 = layers.iter().map(|&l| per_epoch(l)).sum();
    // Adjacent untraced/traced repetitions ran in the same speed regime,
    // so their ratio cancels most of the host's drift.
    let overhead: Vec<f64> = untraced
        .iter()
        .zip(traced)
        .map(|(u, (t, _))| 100.0 * (t.epoch_mean_ns() / u.epoch_mean_ns() - 1.0))
        .collect();
    let (query_ns, query_allocs) = per_call(Layer::Query);
    let (delete_ns, _) = per_call(Layer::Delete);
    let steps = rep.retention_steps.max(1) as f64;
    let per_rep_epoch = |n: u64| n as f64 / rep.epochs as f64;
    vec![
        Metric::exact(
            "simarch.ns_per_op",
            "ns",
            t.stat(Layer::Simarch).self_ns as f64 / ops,
        ),
        Metric::exact("simarch.ops_per_epoch", "count", per_rep_epoch(rep.ops)),
        Metric::exact("simarch.allocs_per_epoch", "count", allocs(Layer::Simarch)),
        Metric::exact(
            "workloads.ns_per_op",
            "ns",
            t.stat(Layer::Workloads).self_ns as f64 / ops,
        ),
        Metric::exact("pmu.delta_ns", "ns", per_epoch(Layer::Pmu)),
        Metric::exact("pmu.allocs_per_epoch", "count", allocs(Layer::Pmu)),
        Metric::exact("core.builder.ns", "ns", per_epoch(Layer::Builder)),
        Metric::exact(
            "core.builder.allocs_per_epoch",
            "count",
            allocs(Layer::Builder),
        ),
        Metric::exact("core.estimator.ns", "ns", per_epoch(Layer::Estimator)),
        Metric::exact(
            "core.estimator.allocs_per_epoch",
            "count",
            allocs(Layer::Estimator),
        ),
        Metric::exact("core.analyzer.ns", "ns", per_epoch(Layer::Analyzer)),
        Metric::exact(
            "core.analyzer.allocs_per_epoch",
            "count",
            allocs(Layer::Analyzer),
        ),
        Metric::exact(
            "core.materializer.ingest_ns",
            "ns",
            per_epoch(Layer::Ingest),
        ),
        Metric::exact(
            "core.materializer.points_per_epoch",
            "count",
            per_rep_epoch(rep.points_ingested),
        ),
        Metric::exact(
            "core.materializer.allocs_per_epoch",
            "count",
            allocs(Layer::Ingest),
        ),
        Metric::exact("core.materializer.query_ns", "ns", query_ns),
        Metric::exact(
            "core.materializer.rows_scanned",
            "count",
            rep.rows_scanned as f64 / steps,
        ),
        Metric::exact("core.materializer.query_allocs", "count", query_allocs),
        Metric::exact(
            "core.profiler.residual_ns",
            "ns",
            untraced_epoch - layer_sum,
        ),
        Metric::exact("tsdb.delete_range_ns", "ns", delete_ns),
        Metric::exact(
            "tsdb.rows_deleted",
            "count",
            rep.rows_deleted as f64 / steps,
        ),
        Metric::exact("tsdb.resident_bytes", "bytes", rep.resident_bytes as f64),
        Metric::exact("tsdb.footprint_bytes", "bytes", rep.footprint_bytes as f64),
        Metric::exact(
            "model.ipc",
            "ratio",
            rep.insts as f64 / rep.cycles.max(1) as f64,
        ),
        Metric::exact("model.cxl_hit_share", "ratio", model.cxl_hit_share),
        Metric::exact(
            "model.culprit_queue_len",
            "entries",
            model.culprit_queue_len,
        ),
        Metric::exact("sim_digest", "hash", rep.digest.as_metric()),
        Metric::median("obs.trace_overhead_pct", "%", &overhead),
    ]
}

/// MLC-style idle latency of local DRAM, remote NUMA and CXL memory (the
/// `fig0_mlc` probe), as the mean |error| in percent against the paper's
/// 103.2, 163.6 and 355.3 ns. Errs unless every latency equals the
/// committed fig0 CSV to the printed digit.
fn idle_latency_error() -> Result<f64, String> {
    const PAPER_NS: [f64; 3] = [103.2, 163.6, 355.3];
    let committed: Vec<&str> = include_str!("../../crates/bench/out/fig0_mlc_spr.csv")
        .lines()
        .skip(1)
        .filter_map(|l| l.split(',').nth(1))
        .collect();
    let cfg = MachineConfig::spr();
    let mut err = 0.0;
    for (i, policy) in [MemPolicy::Local, MemPolicy::RemoteNuma, MemPolicy::Cxl]
        .into_iter()
        .enumerate()
    {
        let mut m = Machine::new(cfg.clone());
        let chase = workloads::PointerChase::new(32 << 20, 60_000, 3);
        m.attach(0, Workload::new("mlc-lat", Box::new(chase), policy));
        let start = m.pmu.snapshot(0);
        while !m.run_epoch().all_done {}
        let d = m.pmu.snapshot(m.now()).delta(&start);
        let cy = d.core_sum(CoreEvent::MemTransRetiredLoadLatency) as f64
            / d.core_sum(CoreEvent::MemTransRetiredLoadCount).max(1) as f64;
        let ns = format!("{:.1}", cfg.cycles_to_ns(cy.round() as u64));
        if committed.get(i) != Some(&ns.as_str()) {
            return Err(format!(
                "{policy:?}: measured {ns} ns, committed {:?}",
                committed.get(i)
            ));
        }
        let ns: f64 = ns.parse().map_err(|e| format!("{e}"))?;
        err += (ns - PAPER_NS[i]).abs() / PAPER_NS[i];
    }
    Ok(100.0 * err / 3.0)
}
