//! The whole server as a stage graph, driven epoch by epoch.
//!
//! `Machine` composes the stage modules of Figure 1 — cores (SB/LFB/L1D/L2),
//! the CHA complex, the IMC, the remote socket, and the CXL ports — behind
//! the [`SimModule`] trait. Each epoch steps the cores up to the boundary,
//! earliest pending core first and lowest index on a tie
//! (`Machine::step_until`), then walks the stage list (`stage_modules`) in
//! ascending [`crate::module::StageId`] order, ticking and draining each
//! module into the system PMU. The intra-epoch demand walk (what a load
//! actually does between boundaries) lives in `datapath.rs`.
//!
//! At the end of each scheduling epoch (§4.2) the machine produces a
//! [`pmu::SystemSnapshot`] — the input to all four PathFinder techniques.

use crate::cha::ChaComplex;
use crate::config::MachineConfig;
use crate::core_model::CoreState;
use crate::cxl::CxlPort;
use crate::faults::{FaultClass, FaultPlan};
use crate::imc::Imc;
use crate::invariant;
use crate::invariants::{Invariants, QueueCensus, Violation};
use crate::mem::MemNode;
use crate::module::{SimModule, StageId, StageKind};
use crate::remote::RemoteSocket;
use crate::trace::Workload;
use pmu::{SystemPmu, SystemSnapshot};

/// Result of running one scheduling epoch.
pub struct EpochResult {
    /// All PMU counters at the epoch boundary.
    pub snapshot: SystemSnapshot,
    /// Page-access heat gathered this epoch: `(asid, vpage, accesses)`,
    /// sorted — the input to the tiering layer.
    pub page_heat: Vec<(u16, u64, u32)>,
    /// Ops executed per core during this epoch.
    pub ops_per_core: Vec<u64>,
    /// True when every attached workload has drained its trace.
    pub all_done: bool,
}

/// Summary of a complete run.
#[derive(Clone, Debug)]
pub struct RunSummary {
    pub epochs: u64,
    pub cycles: u64,
    pub ops_per_core: Vec<u64>,
}

/// No module made forward progress across enough consecutive epochs that
/// every pending core must have been eligible — the machine is wedged, and
/// [`Machine::run_to_completion`] reports it instead of spinning to the
/// epoch cap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StallError {
    /// Epochs executed when the stall was declared.
    pub epoch: u64,
    /// Cycle of the epoch boundary at the stall.
    pub cycle: u64,
    /// Cores still pending (workload attached, trace not drained).
    pub pending_cores: Vec<usize>,
}

impl std::fmt::Display for StallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no forward progress by epoch {} (cycle {}); pending cores: {:?}",
            self.epoch, self.cycle, self.pending_cores
        )
    }
}

impl std::error::Error for StallError {}

/// Watchdog for [`Machine::run_to_completion`].
///
/// A zero-progress epoch is legitimate while a pending core sits beyond the
/// epoch boundary (catching up after a long operation): the boundary gains
/// `epoch_cycles` per epoch and eventually overtakes every pending core.
/// Zero-progress epochs in which every pending core *was* eligible
/// (`horizon <= epoch_end`) mean eligible cores executed nothing — a
/// genuine stall.
#[derive(Clone, Copy, Debug, Default)]
struct ProgressGuard {
    stalled: u64,
}

impl ProgressGuard {
    /// Record one epoch; returns true when the machine is genuinely stuck.
    /// `progressed` = any op executed or any core newly finished; `horizon`
    /// = latest pending-core time (`None` when all cores are done).
    fn observe(&mut self, progressed: bool, horizon: Option<u64>, epoch_end: u64) -> bool {
        if progressed {
            self.stalled = 0;
            return false;
        }
        let Some(h) = horizon else {
            return false;
        };
        if h > epoch_end {
            // Pending cores sit beyond the boundary: they were not eligible
            // this epoch, so zero progress proves nothing yet.
            return false;
        }
        // Every pending core was eligible and still nothing moved. One such
        // epoch cannot happen in a correct machine (an eligible core always
        // executes an op or finishes); give two epochs of grace anyway.
        self.stalled += 1;
        self.stalled > 2
    }
}

/// The simulated server.
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    /// Live PMU counter state (the profiler snapshots this).
    pub pmu: SystemPmu,
    pub(crate) cores: Vec<CoreState>,
    pub(crate) cha: ChaComplex,
    pub(crate) imc: Imc,
    pub(crate) remote: RemoteSocket,
    pub(crate) ports: Vec<CxlPort>,
    pub(crate) epoch_end: u64,
    epochs_run: u64,
    /// Unsorted per-epoch (asid, page) → count entries; duplicates are
    /// merged by one sort at the epoch drain, which is far cheaper than an
    /// ordered-map walk per touched page.
    pub(crate) page_heat: Vec<((u16, u64), u32)>,
    /// Run-length cache in front of `page_heat`: consecutive ops to the same
    /// (core, page) accumulate here and flush in one push —
    /// sequential traces would otherwise pay an append per op.
    pub(crate) heat_run: Option<((u16, u64), u32)>,
    /// Reused scratch for the L2 stream prefetcher's output lines, so a
    /// confirmed stream never allocates per demand miss.
    pub(crate) pf_scratch: Vec<u64>,
    ops_at_last_epoch: Vec<u64>,
    /// Deterministic fault schedule (empty = healthy machine).
    faults: FaultPlan,
    /// Stages whose epoch-boundary PMU flush is suppressed this epoch.
    fault_dropout: Vec<StageId>,
    /// Poisoned-completion retries and containments the walk counted this
    /// epoch; `run_epoch` publishes them to obs once per epoch.
    pub(crate) poison_retries: u64,
    pub(crate) poisons_contained: u64,
    /// Bumped on every workload (re)attachment; consumers cache derived
    /// per-core state (e.g. the profiler's app labels) against it.
    workload_gen: u64,
    /// Which tenant host this machine is in a multi-host fabric.
    /// `HostId(0)` for a standalone machine.
    host: crate::request::HostId,
    /// Per-core op buffers, refilled chunk-wise from each trace by
    /// `step_core`; drained FIFO, so buffering never reorders a trace.
    pub(crate) rings: Vec<crate::arena::OpRing>,
    /// Snapshot pool: a retired end-of-epoch snapshot handed back via
    /// [`Machine::recycle_snapshot`]. The next `run_epoch` overwrites it in
    /// place instead of cloning every bank afresh.
    spare_snapshot: Option<SystemSnapshot>,
    /// The queues `Machine::new` built, all of which the audit visits.
    census: QueueCensus,
}

/// All stage modules in ascending stage-id (= drain) order, as trait
/// objects: the machine's one list of stages. Split borrows so the caller
/// keeps `pmu` free for draining.
fn stage_modules<'a>(
    cores: &'a mut [CoreState],
    cha: &'a mut ChaComplex,
    imc: &'a mut Imc,
    remote: &'a mut RemoteSocket,
    ports: &'a mut [CxlPort],
) -> impl Iterator<Item = &'a mut dyn SimModule> {
    cores
        .iter_mut()
        .map(|c| c as &mut dyn SimModule)
        .chain(std::iter::once(cha as &mut dyn SimModule))
        .chain(std::iter::once(imc as &mut dyn SimModule))
        .chain(std::iter::once(remote as &mut dyn SimModule))
        .chain(ports.iter_mut().map(|p| p as &mut dyn SimModule))
}

impl Machine {
    pub fn new(cfg: MachineConfig) -> Machine {
        cfg.validate().expect("invalid machine configuration");
        let pmu = SystemPmu::new(
            cfg.cores,
            1,
            cfg.dram_channels,
            cfg.cxl_devices,
            cfg.cxl_devices,
        );
        let mark = QueueCensus::mark();
        let machine = Machine {
            pmu,
            cores: (0..cfg.cores).map(|i| CoreState::new(i, &cfg)).collect(),
            cha: ChaComplex::new(&cfg),
            imc: Imc::new(&cfg),
            remote: RemoteSocket::new(cfg.remote_latency + cfg.dram_latency, cfg.remote_dram_gap),
            ports: (0..cfg.cxl_devices)
                .map(|d| CxlPort::new(&cfg, d))
                .collect(),
            epoch_end: 0,
            epochs_run: 0,
            page_heat: Vec::new(),
            heat_run: None,
            pf_scratch: Vec::new(),
            ops_at_last_epoch: vec![0; cfg.cores],
            faults: FaultPlan::new(),
            fault_dropout: Vec::new(),
            poison_retries: 0,
            poisons_contained: 0,
            workload_gen: 0,
            host: crate::request::HostId(0),
            rings: (0..cfg.cores)
                .map(|_| crate::arena::OpRing::new())
                .collect(),
            spare_snapshot: None,
            census: QueueCensus::default(),
            cfg,
        };
        Machine {
            census: QueueCensus::since(mark),
            ..machine
        }
    }

    /// Hand a retired snapshot back for reuse: the next `run_epoch`
    /// overwrites it in place (`SystemSnapshot::copy_from`) instead of
    /// cloning every bank. Purely an allocation-recycling hint — the
    /// returned snapshots are byte-identical either way.
    pub fn recycle_snapshot(&mut self, snapshot: SystemSnapshot) {
        self.spare_snapshot = Some(snapshot);
    }

    /// This machine's tenant identity within a fabric (`HostId(0)` when
    /// standalone).
    pub fn host(&self) -> crate::request::HostId {
        self.host
    }

    /// Assign the tenant identity. Called by `fabric::Fabric` at
    /// construction; identity only — no timing or counter effect.
    pub fn set_host(&mut self, host: crate::request::HostId) {
        self.host = host;
    }

    /// Impose fabric-attributed backpressure on every CXL port of this
    /// machine for the next epoch (see `CxlPort::set_fabric_backpressure`).
    pub fn set_fabric_backpressure(&mut self, extra_lat: u64, extra_gap: u64) {
        for p in &mut self.ports {
            p.set_fabric_backpressure(extra_lat, extra_gap);
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Pin a workload to a core. Panics if the core is occupied or out of
    /// range.
    pub fn attach(&mut self, core: usize, workload: Workload) {
        assert!(core < self.cores.len(), "core {core} out of range");
        assert!(self.cores[core].done, "core {core} already has a workload");
        assert!(
            (workload.cxl_device as usize) < self.cfg.cxl_devices.max(1),
            "cxl device out of range"
        );
        self.cores[core].attach(workload, core as u16);
        // A freshly attached core starts at the current epoch boundary
        // with an empty op buffer.
        self.cores[core].time = self.epoch_end;
        self.rings[core].clear();
        self.workload_gen += 1;
    }

    /// Name of the workload on `core`, if any.
    pub fn workload_name(&self, core: usize) -> Option<&str> {
        self.cores[core].workload.as_ref().map(|w| w.name.as_str())
    }

    /// Monotone counter of workload (re)attachments — cheap change
    /// detection for per-core caches derived from workload identity.
    pub fn workload_generation(&self) -> u64 {
        self.workload_gen
    }

    /// True when no core has trace ops left.
    pub fn all_done(&self) -> bool {
        self.cores.iter().all(|c| c.done)
    }

    /// Current cycle (last epoch boundary).
    pub fn now(&self) -> u64 {
        self.epoch_end
    }

    /// Epochs executed so far.
    pub fn epochs_run(&self) -> u64 {
        self.epochs_run
    }

    /// Ground-truth per-core statistics (not visible to real PMUs; used by
    /// the `ablation_attribution` figure).
    pub fn ground_truth(&self, core: usize) -> &crate::core_model::GroundTruth {
        &self.cores[core].truth
    }

    /// Current CXL QoS telemetry class (DevLoad) of device `d` — the
    /// CXL 3.0/3.1 capability §3.5 notes shipping DIMMs do not yet expose;
    /// the simulated device does, so the profiler can report it.
    pub fn dev_load(&self, d: usize) -> crate::cxl::DevLoad {
        self.ports[d].dev_load(self.epoch_end)
    }

    /// Pages of `core`'s space currently resident on CXL.
    pub fn cxl_resident_pages(&self, core: usize) -> usize {
        self.cores[core]
            .workload
            .as_ref()
            .map_or(0, |w| w.space.cxl_resident_pages())
    }

    /// Current residency of a virtual page of `core`'s address space
    /// (`None` if the core has no workload or the page is untouched).
    pub fn page_node(&self, core: usize, vpage: u64) -> Option<MemNode> {
        self.cores[core]
            .workload
            .as_ref()
            .and_then(|w| w.space.page_node(vpage))
    }

    /// Attach a deterministic fault schedule (see [`crate::faults`]).
    /// Windows are indexed by epoch number (`epochs_run`); replaces any
    /// previous plan. An empty plan restores the healthy machine.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Reset every fault knob to its calibrated baseline, then apply the
    /// windows covering the upcoming epoch. Re-applying from scratch each
    /// epoch makes windows compose and expire without order dependence.
    fn apply_faults_for_epoch(&mut self) {
        if self.faults.is_empty() {
            return;
        }
        let _f = obs::span!("fault.apply");
        for p in &mut self.ports {
            p.clear_faults();
        }
        self.fault_dropout.clear();
        let now = self.epoch_end;
        // Move the plan out for the loop instead of cloning the active
        // windows into a per-epoch scratch Vec — fault application mutates
        // ports/CHA/IMC but never the plan itself.
        let plan = std::mem::take(&mut self.faults);
        let mut active = 0usize;
        for w in plan.active(self.epochs_run) {
            active += 1;
            match w.class {
                FaultClass::LinkDegrade => {
                    if let Some(p) = self.ports.get_mut(w.stage.index as usize) {
                        p.degrade_link(w.severity);
                        obs::metrics::counter_add("fault.link_degrade", 1);
                    }
                }
                FaultClass::DevThrottle => {
                    if let Some(p) = self.ports.get_mut(w.stage.index as usize) {
                        p.throttle_device(w.severity);
                        obs::metrics::counter_add("fault.dev_throttle", 1);
                    }
                }
                FaultClass::PoisonedLine => {
                    if let Some(p) = self.ports.get_mut(w.stage.index as usize) {
                        p.set_poison_period(w.severity);
                        obs::metrics::counter_add("fault.poisoned_line", 1);
                    }
                }
                FaultClass::QueueStall => {
                    match w.stage.kind {
                        StageKind::Cha => self.cha.stall_slices(now + w.severity),
                        StageKind::Imc => self.imc.stall_channels(now + w.severity),
                        _ => {}
                    }
                    obs::metrics::counter_add("fault.queue_stall", 1);
                }
                FaultClass::PmuDropout => {
                    self.fault_dropout.push(w.stage);
                    obs::metrics::counter_add("fault.pmu_dropout", 1);
                }
                // Fabric classes target the shared switch, which lives
                // outside any single machine; `fabric::Fabric` applies
                // them. A machine-level plan carrying one is a no-op
                // (validate() already forbids machine stages as targets).
                FaultClass::SharedLinkDegrade | FaultClass::SwitchPortStall => {}
            }
        }
        obs::metrics::gauge_set("fault.active_windows", active as f64);
        self.faults = plan;
    }

    /// Spill the page-heat run-length cache into the accumulator. Must run
    /// before `page_heat` is read or drained.
    pub(crate) fn flush_heat_run(&mut self) {
        if let Some((key, n)) = self.heat_run.take() {
            self.page_heat.push((key, n));
        }
    }

    /// Execute one scheduling epoch: run every core up to the next epoch
    /// boundary, then tick + drain every stage in stage-id order and
    /// snapshot all PMUs.
    pub fn run_epoch(&mut self) -> EpochResult {
        self.apply_faults_for_epoch();
        let end = self.epoch_end + self.cfg.epoch_cycles;
        {
            let _step = obs::span!("epoch.step");
            self.step_until(end);
        }
        if self.poison_retries > 0 {
            obs::metrics::counter_add("fault.poison_retry", self.poison_retries);
            self.poison_retries = 0;
        }
        if self.poisons_contained > 0 {
            obs::metrics::counter_add("fault.poison_contained", self.poisons_contained);
            self.poisons_contained = 0;
        }
        {
            let _drain = obs::span!("epoch.drain");
            let ec = self.cfg.epoch_cycles;
            let Machine {
                cores,
                cha,
                imc,
                remote,
                ports,
                pmu,
                fault_dropout,
                ..
            } = self;
            // Each module advances to the boundary and flushes its own
            // banks. Stages touch disjoint state, so the walk order only has
            // to be deterministic, and `stage_modules` pins it.
            for stage in stage_modules(cores, cha, imc, remote, ports) {
                let _m = obs::span!(stage.name());
                stage.tick(end);
                if fault_dropout.contains(&stage.stage_id()) {
                    // PMU dropout: the stage still advances, but its epoch
                    // flush is lost — inline-incremented totals keep
                    // accumulating while clockticks (and NE syncs) freeze,
                    // exactly the signature a dead perf collector leaves.
                    obs::metrics::counter_add("fault.drain_suppressed", 1);
                } else {
                    stage.drain(pmu, ec);
                }
            }
        }
        self.epoch_end = end;
        self.epochs_run += 1;
        // Audit conservation across the whole Clos hierarchy at every epoch
        // boundary. Active in debug builds (so `cargo test` always checks)
        // and in release builds compiled with `--features invariants`.
        #[cfg(any(debug_assertions, feature = "invariants"))]
        {
            let audit = obs::span!("epoch.audit");
            crate::invariants::assert_invariants(self);
            if let Some(d) = audit.finish() {
                obs::metrics::observe("epoch.audit_ns", d.as_nanos() as u64);
            }
        }
        // The accumulator holds unsorted, possibly-duplicated keys; one sort
        // plus an in-place merge reproduces the (asid, page)-ordered list the
        // ordered-map implementation used to emit, byte for byte.
        self.flush_heat_run();
        self.page_heat.sort_unstable_by_key(|&(k, _)| k);
        let mut heat: Vec<(u16, u64, u32)> = Vec::with_capacity(self.page_heat.len());
        for &((a, p), n) in &self.page_heat {
            match heat.last_mut() {
                Some(last) if last.0 == a && last.1 == p => last.2 += n,
                _ => heat.push((a, p, n)),
            }
        }
        // Clear, don't take: the accumulator keeps its capacity across
        // epochs so steady-state heat tracking never re-allocates.
        self.page_heat.clear();
        let ops_per_core: Vec<u64> = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| c.ops_executed - self.ops_at_last_epoch[i])
            .collect();
        for (i, c) in self.cores.iter().enumerate() {
            self.ops_at_last_epoch[i] = c.ops_executed;
        }
        let snapshot = match self.spare_snapshot.take() {
            Some(mut s) => {
                s.copy_from(&self.pmu, end);
                s
            }
            None => self.pmu.snapshot(end),
        };
        EpochResult {
            snapshot,
            page_heat: heat,
            ops_per_core,
            all_done: self.all_done(),
        }
    }

    /// Step the cores up to the boundary `end` in the one order the
    /// epoch snapshots depend on: the earliest pending core runs next, and
    /// the lowest core index wins a tie. One scan finds that core and the
    /// earliest other pending core, both keyed `(time, index)`; the chosen
    /// core then keeps stepping for as long as it would be chosen next.
    /// The slice is exact because stepping a core never moves another
    /// core's time, so the scan's runner-up stays the runner-up until the
    /// chosen core passes it.
    // The simulator's innermost scheduling loop.
    fn step_until(&mut self, end: u64) {
        loop {
            let mut first: Option<(u64, usize)> = None;
            // The runner-up; `(end, 0)` when there is none, so no core
            // steps at or past the boundary.
            let mut next = (end, 0);
            for (i, core) in self.cores.iter().enumerate() {
                if core.done || core.time >= end {
                    continue;
                }
                let key = (core.time, i);
                if first.is_some_and(|f| f < key) {
                    next = next.min(key);
                } else if let Some(f) = first.replace(key) {
                    // A new earliest core demotes the old one to runner-up.
                    next = f;
                }
            }
            let Some((_, c)) = first else { break };
            loop {
                self.step_core(c);
                let core = &self.cores[c];
                if core.done || (core.time, c) >= next {
                    break;
                }
            }
        }
    }

    /// Run until all workloads finish or `max_epochs` elapse, one
    /// [`Machine::run_epoch`] at a time with the results discarded. Errors
    /// when no module makes forward progress across enough consecutive
    /// epochs that every pending core must have been eligible (a wedged
    /// machine).
    pub fn run_to_completion(&mut self, max_epochs: u64) -> Result<RunSummary, StallError> {
        let mut epochs = 0;
        let mut guard = ProgressGuard::default();
        while !self.all_done() && epochs < max_epochs {
            let done_before = self.cores.iter().filter(|c| c.done).count();
            let e = self.run_epoch();
            epochs += 1;
            let done_after = self.cores.iter().filter(|c| c.done).count();
            let progressed = e.ops_per_core.iter().any(|&n| n > 0) || done_after > done_before;
            let horizon = self.cores.iter().filter(|c| !c.done).map(|c| c.time).max();
            if guard.observe(progressed, horizon, self.epoch_end) {
                return Err(StallError {
                    epoch: self.epochs_run,
                    cycle: self.epoch_end,
                    pending_cores: self
                        .cores
                        .iter()
                        .filter(|c| !c.done)
                        .map(|c| c.id)
                        .collect(),
                });
            }
        }
        Ok(RunSummary {
            epochs,
            cycles: self.epoch_end,
            ops_per_core: self.cores.iter().map(|c| c.ops_executed).collect(),
        })
    }
}

impl Invariants for Machine {
    fn component(&self) -> &'static str {
        "machine::Machine"
    }

    fn collect_violations(&self, out: &mut Vec<Violation>) {
        let visits = QueueCensus::visits();
        for core in &self.cores {
            core.collect_violations(out);
        }
        self.cha.collect_violations(out);
        self.imc.collect_violations(out);
        self.remote.collect_violations(out);
        for port in &self.ports {
            port.collect_violations(out);
        }
        // Snoop-filter inclusion: an owner bit means that core's L2 holds
        // the line, so the directory never outgrows the L2s.
        for (line, owners) in self.cha.owned_lines() {
            let unbacked = (0..64)
                .filter(|&o| owners >> o & 1 == 1)
                .filter(|&o| self.cores.get(o).is_none_or(|c| c.l2.peek(line).is_none()))
                .fold(0u64, |m, o| m | 1 << o);
            invariant!(
                out,
                self.component(),
                unbacked == 0,
                "line {line:#x}: owners {owners:#b}, cores {unbacked:#b} lack it in L2"
            );
        }
        for (i, core) in self.cores.iter().enumerate() {
            invariant!(
                out,
                self.component(),
                self.ops_at_last_epoch[i] <= core.ops_executed,
                "core {i}: epoch op baseline ahead of execution: {} > {}",
                self.ops_at_last_epoch[i],
                core.ops_executed
            );
        }
        crate::conservation::pmu_conservation(self.host, &self.pmu, out);
        self.census.check(self.component(), visits, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MachineConfig, MemPolicy};
    use crate::faults::{FaultClass, FaultPlan, FaultWindow};
    use crate::trace::SeqReadTrace;

    #[test]
    fn page_heat_is_reported_and_drained() {
        let mut m = Machine::new(MachineConfig::tiny());
        m.attach(
            0,
            Workload::new(
                "t",
                Box::new(SeqReadTrace::new(1 << 16, 5_000)),
                MemPolicy::Local,
            ),
        );
        let e1 = m.run_epoch();
        assert!(!e1.page_heat.is_empty());
        let total: u32 = e1.page_heat.iter().map(|(_, _, n)| n).sum();
        assert!(total > 0);
    }

    #[test]
    fn two_cores_share_the_llc() {
        let mut m = Machine::new(MachineConfig::tiny());
        m.attach(
            0,
            Workload::new(
                "a",
                Box::new(SeqReadTrace::new(1 << 20, 20_000)),
                MemPolicy::Local,
            ),
        );
        m.attach(
            1,
            Workload::new(
                "b",
                Box::new(SeqReadTrace::new(1 << 20, 20_000)),
                MemPolicy::Local,
            ),
        );
        let summary = m.run_to_completion(500).expect("machine must not stall");
        assert_eq!(summary.ops_per_core, vec![20_000, 20_000]);
        assert!(m.all_done());
    }

    #[test]
    #[should_panic(expected = "already has a workload")]
    fn double_attach_panics() {
        let mut m = Machine::new(MachineConfig::tiny());
        m.attach(
            0,
            Workload::new("a", Box::new(SeqReadTrace::new(1024, 10)), MemPolicy::Local),
        );
        m.attach(
            0,
            Workload::new("b", Box::new(SeqReadTrace::new(1024, 10)), MemPolicy::Local),
        );
    }

    #[test]
    fn stage_modules_drain_in_ascending_stage_id_order() {
        let cfg = MachineConfig::tiny();
        let mut m = Machine::new(cfg.clone());
        let Machine {
            cores,
            cha,
            imc,
            remote,
            ports,
            ..
        } = &mut m;
        let ids: Vec<StageId> = stage_modules(cores, cha, imc, remote, ports)
            .map(|s| s.stage_id())
            .collect();
        assert_eq!(ids.len(), cfg.cores + 3 + cfg.cxl_devices);
        // Strictly ascending: the drain order is the determinism anchor.
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
    }

    #[test]
    fn run_to_completion_finishes_cleanly() {
        let mut m = Machine::new(MachineConfig::tiny());
        m.attach(
            0,
            Workload::new(
                "t",
                Box::new(SeqReadTrace::new(1 << 16, 5_000)),
                MemPolicy::Local,
            ),
        );
        let summary = m.run_to_completion(1_000).expect("no stall");
        assert!(m.all_done());
        assert!(summary.epochs > 0);
    }

    // ---- fault injection ------------------------------------------------

    #[test]
    fn faulted_run_completes_and_conserves() {
        let mut m = Machine::new(MachineConfig::tiny());
        m.attach(
            0,
            Workload::new(
                "t",
                Box::new(SeqReadTrace::new(1 << 16, 20_000)),
                MemPolicy::Cxl,
            ),
        );
        m.set_fault_plan(
            FaultPlan::new()
                .with(FaultWindow {
                    class: FaultClass::LinkDegrade,
                    stage: StageId::cxl(0),
                    start_epoch: 0,
                    end_epoch: 2,
                    severity: 8,
                })
                .unwrap()
                .with(FaultWindow {
                    class: FaultClass::QueueStall,
                    stage: StageId::cha(),
                    start_epoch: 1,
                    end_epoch: 3,
                    severity: 50_000,
                })
                .unwrap()
                .with(FaultWindow {
                    class: FaultClass::PoisonedLine,
                    stage: StageId::cxl(0),
                    start_epoch: 0,
                    end_epoch: 4,
                    severity: 2,
                })
                .unwrap()
                .with(FaultWindow {
                    class: FaultClass::PmuDropout,
                    stage: StageId::imc(),
                    start_epoch: 0,
                    end_epoch: 2,
                    severity: 0,
                })
                .unwrap(),
        );
        let summary = m
            .run_to_completion(2_000)
            .expect("faulted machine must not stall");
        assert!(m.all_done());
        assert!(summary.epochs > 0);
        // Conservation holds under every fault (the debug-build epoch audit
        // already enforced this each boundary; assert once more explicitly).
        let mut v = Vec::new();
        m.collect_violations(&mut v);
        assert!(v.is_empty(), "violations under faults: {v:?}");
    }

    #[test]
    fn pmu_dropout_freezes_clockticks_but_not_flow_counters() {
        let mut m = Machine::new(MachineConfig::tiny());
        m.attach(
            0,
            Workload::new(
                "t",
                Box::new(SeqReadTrace::new(1 << 18, 20_000)),
                MemPolicy::Local,
            ),
        );
        m.set_fault_plan(
            FaultPlan::new()
                .with(FaultWindow {
                    class: FaultClass::PmuDropout,
                    stage: StageId::imc(),
                    start_epoch: 0,
                    end_epoch: u64::MAX,
                    severity: 0,
                })
                .unwrap(),
        );
        m.run_to_completion(500).expect("no stall");
        let snap = m.pmu.snapshot(m.now());
        let ticks: u64 = snap
            .pmu
            .imcs
            .iter()
            .map(|b| b.read(pmu::ImcEvent::ClockTicks))
            .sum();
        let cas: u64 = snap
            .pmu
            .imcs
            .iter()
            .map(|b| b.read(pmu::ImcEvent::CasCountRd))
            .sum();
        assert_eq!(ticks, 0, "dropout must freeze the stage's clockticks");
        assert!(cas > 0, "inline flow counters keep accumulating");
        // Other stages keep draining.
        assert!(snap.pmu.chas[0].read(pmu::ChaEvent::ClockTicks) > 0);
    }

    #[test]
    fn expired_windows_restore_healthy_timing() {
        // Two identical workloads; one machine with a fault window that has
        // already expired before any epoch runs. Results must be identical.
        let build = || {
            let mut m = Machine::new(MachineConfig::tiny());
            m.attach(
                0,
                Workload::new(
                    "t",
                    Box::new(SeqReadTrace::new(1 << 16, 10_000)),
                    MemPolicy::Cxl,
                ),
            );
            m
        };
        let mut healthy = build();
        healthy.run_to_completion(500).unwrap();
        let mut faulted = build();
        // Degrade epochs [0, 1); everything after runs at calibrated speed,
        // so the machine still finishes (more slowly than healthy).
        faulted.set_fault_plan(
            FaultPlan::new()
                .with(FaultWindow {
                    class: FaultClass::LinkDegrade,
                    stage: StageId::cxl(0),
                    start_epoch: 0,
                    end_epoch: 1,
                    severity: 16,
                })
                .unwrap(),
        );
        faulted.run_to_completion(500).unwrap();
        assert!(faulted.all_done());
        assert!(
            faulted.now() >= healthy.now(),
            "a transient fault can only slow the run down"
        );
    }

    // ---- stall-guard predicate ------------------------------------------

    #[test]
    fn progressing_epochs_never_stall() {
        let mut g = ProgressGuard::default();
        for end in (0..100).map(|i| i * 1_000) {
            assert!(!g.observe(true, Some(end + 10), end));
        }
    }

    #[test]
    fn catchup_epochs_are_tolerated() {
        let mut g = ProgressGuard::default();
        // A core sits 5 epochs in the future; the zero-progress epochs it
        // takes the boundary to catch up must not trip the guard.
        let horizon = 5_000;
        for i in 1..=5u64 {
            assert!(
                !g.observe(false, Some(horizon), i * 1_000),
                "catch-up epoch {i} must not stall"
            );
        }
    }

    #[test]
    fn genuine_stall_is_detected() {
        let mut g = ProgressGuard::default();
        // Pending core is eligible (horizon at the boundary) yet nothing
        // progresses: the guard must fire after the grace epochs.
        let mut fired = false;
        for _ in 0..5 {
            if g.observe(false, Some(1_000), 1_000) {
                fired = true;
                break;
            }
        }
        assert!(fired, "eligible-but-idle epochs must be declared a stall");
    }

    #[test]
    fn progress_resets_the_stall_count() {
        let mut g = ProgressGuard::default();
        for _ in 0..2 {
            g.observe(false, Some(1_000), 1_000);
        }
        assert!(!g.observe(true, Some(1_000), 1_000));
        // The counter restarted: two more idle epochs are tolerated again.
        assert!(!g.observe(false, Some(1_000), 1_000));
        assert!(!g.observe(false, Some(1_000), 1_000));
    }

    #[test]
    fn all_cores_done_never_stalls() {
        let mut g = ProgressGuard::default();
        for _ in 0..100 {
            assert!(!g.observe(false, None, 1_000));
        }
    }
}
