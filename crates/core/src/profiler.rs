//! The profiler driver: snapshot loop, technique dispatch, reports,
//! and overhead accounting.
//!
//! Mirrors the paper's workflow (Figure 5-c): the machine runs scheduling
//! epochs; at every boundary the profiler snapshots all PMUs, computes the
//! epoch digest (counter deltas), and feeds the four techniques according to
//! the profiling specification. §5.9's overhead claim (1.3% CPU, 38 MB) is
//! tracked by [`Overhead`].

// Wall-clock time is observed only through the `obs` crate's span recorder
// (§5.9 self-overhead accounting) and never feeds the simulation model or
// report ordering; with obs disabled no clock is read at all.
use crate::analyzer::{
    Anomaly, AnomalyDetector, Culprit, HealthyBaseline, PfAnalyzer, QueueEstimate,
};
use crate::builder::{PathMap, PfBuilder};
use crate::estimator::{PfEstimator, StallBreakdown};
use crate::materializer::Materializer;
use crate::model::{Component, LatencyModel, PathGroup};
use pmu::{SystemDelta, SystemSnapshot};
use simarch::Machine;

/// The profiling-task specification (Figure 5-a): which techniques run and
/// how much state the profiler may keep.
#[derive(Clone, Debug)]
pub struct ProfileSpec {
    /// Run PFBuilder each epoch.
    pub build_paths: bool,
    /// Run PFEstimator each epoch.
    pub estimate_stalls: bool,
    /// Run PFAnalyzer each epoch.
    pub analyze_queues: bool,
    /// Ingest digests into the PFMaterializer time-series DB.
    pub materialize: bool,
    /// Maximum digests retained (max resource consumption knob).
    pub max_db_epochs: usize,
}

impl Default for ProfileSpec {
    fn default() -> Self {
        ProfileSpec {
            build_paths: true,
            estimate_stalls: true,
            analyze_queues: true,
            materialize: true,
            max_db_epochs: 100_000,
        }
    }
}

/// Profiler self-overhead (§5.9).
///
/// Wall-time fields are populated from `obs` span measurements and stay
/// zero when observability is disabled (`obs::enable()` not called);
/// `memory_bytes` is always real retained state and never needs a clock.
#[derive(Clone, Copy, Debug, Default)]
pub struct Overhead {
    /// Wall time spent simulating the machine (the "application").
    pub machine_secs: f64,
    /// Wall time spent in PathFinder's own analysis.
    pub profiler_secs: f64,
    /// Resident bytes of profiler state (DB + retained snapshot).
    pub memory_bytes: usize,
}

impl Overhead {
    /// Profiler CPU overhead as a fraction of total work.
    pub fn cpu_fraction(&self) -> f64 {
        let total = self.machine_secs + self.profiler_secs;
        if total == 0.0 {
            0.0
        } else {
            self.profiler_secs / total
        }
    }

    /// Render the §5.9 overhead lines (CPU split + memory). Wall-clock
    /// derived, so this is kept out of [`Report::render`] and only shown
    /// when timings were requested.
    pub fn render(&self) -> String {
        format!(
            "overhead: {:.2}% CPU ({:.3} s machine + {:.3} s profiler), {:.1} MB profiler state\n",
            100.0 * self.cpu_fraction(),
            self.machine_secs,
            self.profiler_secs,
            self.memory_bytes as f64 / 1e6,
        )
    }
}

/// One profiled epoch's outputs.
pub struct ProfiledEpoch {
    pub epoch: u64,
    pub delta: SystemDelta,
    pub path_map: Option<PathMap>,
    pub stalls: Option<StallBreakdown>,
    pub queues: Option<QueueEstimate>,
    pub culprit: Option<Culprit>,
    /// Anomaly diagnosis for this epoch — only populated once a healthy
    /// baseline was recorded via [`Profiler::set_anomaly_baseline`].
    pub anomaly: Option<Anomaly>,
    pub page_heat: Vec<(u16, u64, u32)>,
    pub ops_per_core: Vec<u64>,
    pub all_done: bool,
}

/// The end-of-run report.
pub struct Report {
    pub epochs: u64,
    pub cycles: u64,
    /// Cumulative path map over the whole run.
    pub path_map: PathMap,
    /// Cumulative stall breakdown.
    pub stalls: StallBreakdown,
    /// Final-epoch queue estimate.
    pub queues: QueueEstimate,
    /// Mean queue estimate over the epochs that had any queueing activity —
    /// more robust than the final epoch when workloads drain at different
    /// times.
    pub mean_queues: QueueEstimate,
    /// Culprit of the final epoch with activity.
    pub culprit: Option<Culprit>,
    /// Last anomaly diagnosed against the recorded healthy baseline, if
    /// any. `None` when no baseline was set or every epoch was healthy.
    pub anomaly: Option<Anomaly>,
    pub overhead: Overhead,
    pub apps: Vec<Option<String>>,
    pub ops_per_core: Vec<u64>,
    pub freq_ghz: f64,
}

impl Report {
    /// Render the headline report: path map, stall breakdown, culprit.
    pub fn render(&self) -> String {
        // Deterministic by construction: nothing here derives from wall
        // time, so obs-enabled and obs-disabled runs render byte-identically
        // (wall-clock overhead lives in [`Overhead::render`], shown only
        // under `--timings`).
        let mut out = String::new();
        out.push_str(&format!(
            "PathFinder report: {} epochs, {:.2} ms simulated, {:.1} MB profiler state\n\n",
            self.epochs,
            self.cycles as f64 / self.freq_ghz / 1e6,
            self.overhead.memory_bytes as f64 / 1e6,
        ));
        out.push_str("== Path map (hits per level, all cores) ==\n");
        let cores: Vec<usize> = (0..self.path_map.per_core.len())
            .filter(|&c| self.path_map.per_core[c].total() > 0)
            .collect();
        out.push_str(&self.path_map.render(&cores));
        out.push_str("\n== CXL-induced stall breakdown (per path, %) ==\n");
        let rows: Vec<Vec<String>> = PathGroup::ALL
            .iter()
            .filter(|&&p| self.stalls.path_total(p) > 0.0)
            .map(|&p| {
                let pct = self.stalls.percentages(p);
                let mut row = vec![p.label().to_string()];
                row.extend(
                    Component::ALL
                        .iter()
                        .map(|c| crate::report::pct(pct[c.idx()])),
                );
                row
            })
            .collect();
        let mut headers = vec!["path"];
        headers.extend(Component::ALL.iter().map(|c| c.label()));
        out.push_str(&crate::report::table(&headers, &rows));
        if let Some(c) = self.culprit {
            out.push_str(&format!(
                "\nculprit: {} on {} (queue length {:.2})\n",
                c.path.label(),
                c.component.label(),
                c.queue_len
            ));
        }
        if let Some(a) = &self.anomaly {
            out.push_str(&format!("\nanomaly: {}\n", a.render()));
        }
        out
    }
}

/// The profiler: drives a machine and applies the four techniques.
pub struct Profiler {
    machine: Machine,
    spec: ProfileSpec,
    lat: LatencyModel,
    prev: SystemSnapshot,
    pub materializer: Materializer,
    cum_map: Option<PathMap>,
    cum_stalls: StallBreakdown,
    last_queues: QueueEstimate,
    queue_sum: QueueEstimate,
    queue_epochs: u64,
    last_culprit: Option<Culprit>,
    detector: Option<AnomalyDetector>,
    last_anomaly: Option<Anomaly>,
    epoch: u64,
    overhead: Overhead,
    total_ops: Vec<u64>,
    /// Cached per-core workload labels, refreshed only when the machine's
    /// workload generation changes — the epoch loop never re-allocates
    /// label strings (see PERFORMANCE.md).
    apps_cache: Vec<Option<String>>,
    apps_gen: u64,
}

impl Profiler {
    pub fn new(machine: Machine, spec: ProfileSpec) -> Profiler {
        let lat = LatencyModel::from_config(machine.config());
        let prev = machine.pmu.snapshot(machine.now());
        let cores = machine.config().cores;
        Profiler {
            machine,
            spec,
            lat,
            prev,
            materializer: Materializer::new(),
            cum_map: None,
            cum_stalls: StallBreakdown::default(),
            last_queues: QueueEstimate::default(),
            queue_sum: QueueEstimate::default(),
            queue_epochs: 0,
            last_culprit: None,
            detector: None,
            last_anomaly: None,
            epoch: 0,
            overhead: Overhead::default(),
            total_ops: vec![0; cores],
            apps_cache: Vec::new(),
            apps_gen: u64::MAX,
        }
    }

    /// Access the machine (to attach workloads, migrate pages, …).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Arm per-epoch anomaly diagnosis against a recorded healthy
    /// baseline (paper §6). Off by default: reports stay byte-identical
    /// unless a baseline is installed.
    pub fn set_anomaly_baseline(&mut self, baseline: HealthyBaseline) {
        self.detector = Some(AnomalyDetector::new(baseline));
    }

    /// Workload labels per core.
    pub fn apps(&self) -> Vec<Option<String>> {
        (0..self.machine.config().cores)
            .map(|c| self.machine.workload_name(c).map(|s| s.to_string()))
            .collect()
    }

    /// Refresh the cached per-core labels iff a workload was (re)attached
    /// since the last epoch.
    fn refresh_apps_cache(&mut self) {
        let gen = self.machine.workload_generation();
        if self.apps_gen != gen {
            self.apps_cache = self.apps();
            self.apps_gen = gen;
        }
    }

    /// Run one scheduling epoch and apply the enabled techniques.
    ///
    /// Each phase runs under an `obs` span (`epoch.machine`,
    /// `epoch.profiler`, and per-technique `technique.*` spans); the
    /// measured durations feed this profiler's own [`Overhead`] so that
    /// multiple profilers in one process never cross-contaminate.
    pub fn profile_epoch(&mut self) -> ProfiledEpoch {
        let span_machine = obs::span!("epoch.machine");
        let er = self.machine.run_epoch();
        if let Some(d) = span_machine.finish() {
            self.overhead.machine_secs += d.as_secs_f64();
        }

        let span_profiler = obs::span!("epoch.profiler");
        let delta = er.snapshot.delta(&self.prev);
        // Rotate the snapshot pool: the retired `prev` goes back to the
        // machine, which overwrites it in place next epoch.
        self.machine
            .recycle_snapshot(std::mem::replace(&mut self.prev, er.snapshot));
        self.epoch += 1;
        for (i, &n) in er.ops_per_core.iter().enumerate() {
            self.total_ops[i] += n;
        }

        self.refresh_apps_cache();
        let path_map = if self.spec.build_paths {
            let _t = obs::span!("technique.builder");
            Some(PfBuilder::build(&delta))
        } else {
            None
        };
        let stalls = if self.spec.estimate_stalls {
            let _t = obs::span!("technique.estimator");
            Some(PfEstimator::breakdown(&delta, &self.lat))
        } else {
            None
        };
        let queues = if self.spec.analyze_queues {
            let _t = obs::span!("technique.analyzer");
            Some(PfAnalyzer::analyze(&delta, &self.lat))
        } else {
            None
        };
        let culprit = queues.as_ref().and_then(|q| q.culprit());
        let anomaly = self.detector.as_ref().and_then(|det| {
            let _t = obs::span!("technique.anomaly");
            det.diagnose(&delta)
        });

        // Accumulate run-level state.
        if let Some(map) = &path_map {
            match &mut self.cum_map {
                None => self.cum_map = Some(map.clone()),
                Some(cum) => {
                    for (c, m) in map.per_core.iter().enumerate() {
                        for l in 0..crate::model::HitLevel::COUNT {
                            for p in 0..PathGroup::COUNT {
                                cum.per_core[c].hits[l][p] += m.hits[l][p];
                                cum.total.hits[l][p] =
                                    cum.total.hits[l][p].saturating_add(m.hits[l][p]);
                            }
                        }
                    }
                }
            }
        }
        if let Some(s) = &stalls {
            for p in 0..PathGroup::COUNT {
                for c in 0..Component::COUNT {
                    self.cum_stalls.cycles[p][c] += s.cycles[p][c];
                }
            }
        }
        if let Some(q) = &queues {
            self.last_queues = q.clone();
            let active = q.q.iter().flatten().any(|&v| v > 0.0);
            if active {
                self.queue_epochs += 1;
                for p in 0..PathGroup::COUNT {
                    for c in 0..Component::COUNT {
                        self.queue_sum.q[p][c] += q.q[p][c];
                    }
                }
            }
        }
        if culprit.is_some() {
            self.last_culprit = culprit;
        }
        if anomaly.is_some() {
            self.last_anomaly = anomaly.clone();
        }

        if self.spec.materialize && self.epoch as usize <= self.spec.max_db_epochs {
            let _t = obs::span!("technique.materializer");
            let ts = delta.end_cycle;
            if let Some(map) = &path_map {
                self.materializer.ingest_path_map(ts, map, &self.apps_cache);
            }
            if let Some(q) = &queues {
                self.materializer.ingest_queues(ts, q);
            }
            self.materializer
                .ingest_progress(ts, &er.ops_per_core, &self.apps_cache);
            self.materializer.db.publish_metrics();
        }
        if let Some(d) = span_profiler.finish() {
            self.overhead.profiler_secs += d.as_secs_f64();
        }

        ProfiledEpoch {
            epoch: self.epoch,
            delta,
            path_map,
            stalls,
            queues,
            culprit,
            anomaly,
            page_heat: er.page_heat,
            ops_per_core: er.ops_per_core,
            all_done: er.all_done,
        }
    }

    /// Run until all workloads finish or `max_epochs` elapse; produce the
    /// run report.
    pub fn run(&mut self, max_epochs: u64) -> Report {
        let mut epochs = 0;
        while epochs < max_epochs {
            let e = self.profile_epoch();
            epochs += 1;
            if e.all_done {
                break;
            }
        }
        self.report()
    }

    /// Real retained profiler state (§5.9): the time-series DB plus the
    /// one PMU snapshot kept for the next epoch digest. Deterministic —
    /// no clock involved — and mirrored into the `overhead.memory_bytes`
    /// obs gauge whenever observability is on. The columnar store's real
    /// heap (`tsdb::Db::resident_bytes`, allocator-side rather than the
    /// logical §5.9 accounting) rides along as `tsdb.resident_bytes`, the
    /// same gauge fleetd publishes on `/metrics`.
    fn retained_bytes(&self) -> usize {
        let bytes = self.materializer.footprint_bytes() + self.prev.footprint_bytes();
        obs::metrics::gauge_set("overhead.memory_bytes", bytes as f64);
        obs::metrics::gauge_set(
            "tsdb.resident_bytes",
            self.materializer.db.resident_bytes() as f64,
        );
        bytes
    }

    /// Snapshot the current run-level report.
    pub fn report(&self) -> Report {
        let cores = self.machine.config().cores;
        let mut overhead = self.overhead;
        overhead.memory_bytes = self.retained_bytes();
        Report {
            epochs: self.epoch,
            cycles: self.machine.now(),
            path_map: self.cum_map.clone().unwrap_or(PathMap {
                per_core: vec![Default::default(); cores],
                total: Default::default(),
            }),
            stalls: self.cum_stalls.clone(),
            queues: self.last_queues.clone(),
            mean_queues: {
                let mut m = self.queue_sum.clone();
                let n = self.queue_epochs.max(1) as f64;
                for row in m.q.iter_mut() {
                    for v in row.iter_mut() {
                        *v /= n;
                    }
                }
                m
            },
            culprit: self.last_culprit,
            anomaly: self.last_anomaly.clone(),
            overhead,
            apps: self.apps(),
            ops_per_core: self.total_ops.clone(),
            freq_ghz: self.machine.config().freq_ghz,
        }
    }

    /// Current overhead accounting.
    pub fn overhead(&self) -> Overhead {
        let mut o = self.overhead;
        o.memory_bytes = self.retained_bytes();
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simarch::trace::SeqReadTrace;
    use simarch::{MachineConfig, MemPolicy, Workload};

    fn profiler_with(policy: MemPolicy, ops: usize) -> Profiler {
        let mut m = Machine::new(MachineConfig::tiny());
        m.attach(
            0,
            Workload::new("t", Box::new(SeqReadTrace::new(1 << 20, ops)), policy),
        );
        Profiler::new(m, ProfileSpec::default())
    }

    #[test]
    fn profiles_to_completion_and_reports() {
        let mut p = profiler_with(MemPolicy::Cxl, 20_000);
        let r = p.run(300);
        assert!(r.epochs > 0);
        assert!(
            r.path_map
                .total
                .get(crate::model::HitLevel::CxlMemory, PathGroup::Drd)
                > 0
        );
        assert!(
            r.stalls.total() > 0.0,
            "CXL run must attribute stall cycles"
        );
        let text = r.render();
        assert!(text.contains("Path map"));
        assert!(text.contains("CXL Memory"));
        assert!(text.contains("culprit"));
    }

    #[test]
    fn local_run_attributes_no_cxl_stalls() {
        let mut p = profiler_with(MemPolicy::Local, 20_000);
        let r = p.run(300);
        assert_eq!(r.stalls.total(), 0.0);
        assert_eq!(
            r.path_map
                .total
                .get(crate::model::HitLevel::CxlMemory, PathGroup::Drd),
            0
        );
    }

    #[test]
    fn spec_disables_techniques() {
        let mut m = Machine::new(MachineConfig::tiny());
        m.attach(
            0,
            Workload::new(
                "t",
                Box::new(SeqReadTrace::new(1 << 20, 5_000)),
                MemPolicy::Cxl,
            ),
        );
        let spec = ProfileSpec {
            build_paths: false,
            estimate_stalls: false,
            analyze_queues: false,
            materialize: false,
            max_db_epochs: 0,
        };
        let mut p = Profiler::new(m, spec);
        let e = p.profile_epoch();
        assert!(e.path_map.is_none());
        assert!(e.stalls.is_none());
        assert!(e.queues.is_none());
        assert_eq!(p.materializer.db.len(), 0);
    }

    #[test]
    fn anomaly_detection_is_off_by_default_and_quiet_when_healthy() {
        let mut p = profiler_with(MemPolicy::Cxl, 10_000);
        let r = p.run(300);
        assert!(r.anomaly.is_none());
        assert!(!r.render().contains("anomaly:"));

        // Armed with a baseline recorded from an identical healthy run,
        // the detector must stay quiet.
        let mut healthy = profiler_with(MemPolicy::Cxl, 10_000);
        let baseline = HealthyBaseline::from_delta(&healthy.profile_epoch().delta);
        let mut armed = profiler_with(MemPolicy::Cxl, 10_000);
        armed.set_anomaly_baseline(baseline);
        let e = armed.profile_epoch();
        assert!(e.anomaly.is_none(), "identical run must diagnose healthy");
    }

    #[test]
    fn materializer_receives_records() {
        let mut p = profiler_with(MemPolicy::Cxl, 10_000);
        p.run(200);
        assert!(!p.materializer.db.is_empty());
    }

    #[test]
    fn overhead_is_tracked_when_obs_enabled() {
        obs::enable();
        let mut p = profiler_with(MemPolicy::Local, 10_000);
        p.run(200);
        let o = p.overhead();
        assert!(o.machine_secs > 0.0);
        assert!(o.memory_bytes > 0);
        assert!(o.cpu_fraction() < 1.0);
        assert!(o.render().contains("% CPU"));
    }

    #[test]
    fn memory_overhead_is_clock_free() {
        // memory_bytes must be real retained state, present even with obs
        // off (wall-time fields stay zero in that case).
        let mut p = profiler_with(MemPolicy::Local, 5_000);
        p.run(100);
        let o = p.report().overhead;
        assert!(o.memory_bytes > 0);
        assert!(
            o.memory_bytes >= p.materializer.footprint_bytes(),
            "retained state must cover the tsdb"
        );
    }
}
