//! Multi-host CXL fabric: N machines → switch → pooled Type-3 device.
//!
//! The fabric composes otherwise-unmodified [`Machine`]s behind a
//! [`CxlSwitch`] and a [`PooledDevice`], coupling them at **epoch
//! granularity**: each epoch every host runs alone, its CXL demand is
//! read back from its own counters (`unc_cxlcm_rxc_pack_buf_inserts.*`),
//! replayed through the shared switch + pooled MC, and the *excess* wait
//! the sharing imposed — beyond what a private replica of the same path
//! would have charged — is fed back as per-port media-latency pressure
//! for the next epoch. The loop is a pure function of
//! `(MachineConfig, FabricConfig, workloads, seeds)`.
//!
//! The excess-over-alone construction makes the single-host fabric a
//! *structural* identity: with one host the shared path and the private
//! replica see the same arrivals through the same server parameters, so
//! the excess is zero every epoch, the backpressure stays zero, and the
//! machine's counter stream is byte-for-byte the standalone stream (the
//! `fabric` integration tests pin this).

use crate::config::MachineConfig;
use crate::faults::{FaultClass, FaultPlan};
use crate::invariants::{Invariants, QueueCensus, Violation};
use crate::machine::{EpochResult, Machine};
use crate::pooled::PooledDevice;
use crate::queues::FifoServer;
use crate::request::HostId;
use crate::switch::{Arbitration, CxlSwitch};
use crate::trace::Workload;
use pmu::{CxlEvent, SystemPmu, SystemSnapshot};

/// Fabric-level topology knobs (the per-host machine keeps its own
/// [`MachineConfig`]).
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// Number of tenant hosts (= upstream switch ports = pooled-device
    /// accounting slots).
    pub hosts: usize,
    /// Downstream-link arbitration policy.
    pub arbitration: Arbitration,
    /// Switch→pool link flit latency in cycles.
    pub link_latency: u64,
    /// Switch→pool link issue gap (1/bandwidth) in cycles.
    pub link_gap: u64,
}

impl FabricConfig {
    /// Round-robin fabric with the link dimensioned like one FlexBus hop
    /// under `cfg`.
    pub fn balanced(hosts: usize, cfg: &MachineConfig) -> FabricConfig {
        FabricConfig {
            hosts,
            arbitration: Arbitration::RoundRobin,
            link_latency: cfg.flexbus_latency / 2,
            link_gap: cfg.flexbus_gap,
        }
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.hosts == 0 {
            return Err("fabric needs at least one host".into());
        }
        if self.link_gap == 0 {
            return Err("link gap must be >= 1".into());
        }
        if let Arbitration::Weighted(w) = &self.arbitration {
            if w.len() != self.hosts {
                return Err(format!(
                    "weighted arbitration needs one weight per host: {} != {}",
                    w.len(),
                    self.hosts
                ));
            }
            if w.iter().all(|&c| c == 0) {
                return Err("weights must not all be zero".into());
            }
        }
        Ok(())
    }
}

/// One fabric epoch: every host's epoch result plus the fabric-level
/// counter snapshot (switch + pooled-device banks).
pub struct FabricEpochResult {
    /// Per-host results, indexed by host id.
    pub hosts: Vec<EpochResult>,
    /// Fabric PMU snapshot at the epoch boundary.
    pub fabric: SystemSnapshot,
    /// True when every host has finished its workloads.
    pub all_done: bool,
}

/// The private-replica state used to price each host's alone wait.
#[derive(Debug)]
struct AloneReplica {
    link: FifoServer,
    mc: FifoServer,
}

/// N hosts sharing a switch and a pooled Type-3 device.
pub struct Fabric {
    cfg: MachineConfig,
    fcfg: FabricConfig,
    hosts: Vec<Machine>,
    switch: CxlSwitch,
    pool: PooledDevice,
    /// Per-host private replay of (link, MC) with calibrated (healthy,
    /// un-shared) parameters — the "alone" baseline for excess pricing.
    alone: Vec<AloneReplica>,
    /// Each host's cumulative CXL.mem demand, (reads, writes), at the last
    /// epoch boundary.
    cxl_seen: Vec<(u64, u64)>,
    /// Fabric-level counters: `switches[h]` + `pools[h]` banks.
    pub pmu: SystemPmu,
    faults: FaultPlan,
    epochs_run: u64,
    /// The queues `Fabric::new` built beside its hosts' own, all of which
    /// the fabric audit visits.
    census: QueueCensus,
}

impl Fabric {
    pub fn new(cfg: MachineConfig, fcfg: FabricConfig) -> Fabric {
        cfg.validate().expect("invalid machine configuration");
        fcfg.validate().expect("invalid fabric configuration");
        let hosts: Vec<Machine> = (0..fcfg.hosts)
            .map(|h| {
                let mut m = Machine::new(cfg.clone());
                m.set_host(HostId(h as u16));
                m
            })
            .collect();
        let cxl_seen = hosts.iter().map(|m| cxl_mem(&m.pmu)).collect();
        // Each host counts and audits its own queues.
        let mark = QueueCensus::mark();
        let fabric = Fabric {
            switch: CxlSwitch::new(
                fcfg.hosts,
                fcfg.link_latency,
                fcfg.link_gap,
                fcfg.arbitration.clone(),
            ),
            pool: PooledDevice::new(&cfg, fcfg.hosts),
            alone: (0..fcfg.hosts)
                .map(|_| AloneReplica {
                    link: FifoServer::new(),
                    mc: FifoServer::new(),
                })
                .collect(),
            cxl_seen,
            pmu: SystemPmu::fabric(fcfg.hosts),
            faults: FaultPlan::new(),
            epochs_run: 0,
            census: QueueCensus::default(),
            hosts,
            cfg,
            fcfg,
        };
        Fabric {
            census: QueueCensus::since(mark),
            ..fabric
        }
    }

    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    pub fn fabric_config(&self) -> &FabricConfig {
        &self.fcfg
    }

    pub fn epochs_run(&self) -> u64 {
        self.epochs_run
    }

    pub fn host(&self, h: usize) -> &Machine {
        &self.hosts[h]
    }

    /// Mutable host access — e.g. to set a per-host (machine-class) fault
    /// plan.
    pub fn host_mut(&mut self, h: usize) -> &mut Machine {
        &mut self.hosts[h]
    }

    /// Pin a workload to `core` of host `host`.
    pub fn attach(&mut self, host: usize, core: usize, workload: Workload) {
        self.hosts[host].attach(core, workload);
    }

    pub fn all_done(&self) -> bool {
        self.hosts.iter().all(Machine::all_done)
    }

    /// Attach a fabric-level fault schedule. Only the fabric classes
    /// (`SharedLinkDegrade`, `SwitchPortStall`) act here — machine-class
    /// windows belong on the individual hosts (`host_mut(..).set_fault_plan`),
    /// and `FaultWindow::validate` keeps the two families on their own
    /// stage kinds.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Reset switch fault knobs and re-apply the windows covering the
    /// upcoming epoch (same compose-and-expire contract as the machine's
    /// fault engine).
    fn apply_faults_for_epoch(&mut self) {
        if self.faults.is_empty() {
            return;
        }
        self.switch.clear_faults();
        let epoch_start = self.epochs_run * self.cfg.epoch_cycles;
        let plan = std::mem::take(&mut self.faults);
        for w in plan.active(self.epochs_run) {
            match w.class {
                FaultClass::SharedLinkDegrade => {
                    self.switch.degrade_shared_link(w.severity);
                    obs::metrics::counter_add("fault.shared_link_degrade", 1);
                }
                FaultClass::SwitchPortStall => {
                    self.switch
                        .stall_port(w.stage.index as usize, epoch_start + w.severity);
                    obs::metrics::counter_add("fault.switch_port_stall", 1);
                }
                // Machine-class windows are inert at fabric level.
                _ => {}
            }
        }
        self.faults = plan;
    }

    /// Execute one fabric epoch: run every host, replay its CXL demand
    /// through the shared switch + pooled MC, and derive next epoch's
    /// backpressure from the excess-over-alone wait.
    pub fn run_epoch(&mut self) -> FabricEpochResult {
        self.apply_faults_for_epoch();
        let ec = self.cfg.epoch_cycles;
        let n_hosts = self.hosts.len();
        let mut results = Vec::with_capacity(n_hosts);
        let mut alone_wait = vec![0u64; n_hosts];
        let mut shared_wait = vec![0u64; n_hosts];
        let mut reqs = vec![0u64; n_hosts];
        for h in 0..n_hosts {
            let res = self.hosts[h].run_epoch();
            // Counters only grow: this epoch's demand is the growth since
            // the last boundary.
            let now = cxl_mem(&res.snapshot.pmu);
            let (seen_reads, seen_writes) = std::mem::replace(&mut self.cxl_seen[h], now);
            let reads = now.0 - seen_reads;
            let writes = now.1 - seen_writes;
            let n = reads + writes;
            reqs[h] = n;
            let epoch_start = self.hosts[h].now() - ec;
            // Synthesize evenly-spaced arrivals from the counted demand
            // (the machine's own FlexBus already shaped the burstiness;
            // the fabric prices aggregate pressure, not per-request
            // timing). Writes interleave by Bresenham so read/write mix
            // is position-independent and deterministic.
            for k in 0..n {
                let arrival = epoch_start + k * ec / n;
                let is_write = (k + 1) * writes / n > k * writes / n;
                self.switch.enqueue(h, arrival, is_write);
                // Private replica: same arrivals, calibrated parameters,
                // no sharing — what this host would pay alone.
                let a = &mut self.alone[h];
                let link = a
                    .link
                    .serve(arrival, self.fcfg.link_latency, self.fcfg.link_gap);
                let mc = a.mc.serve(
                    link.finish,
                    self.cfg.cxl_media_latency,
                    self.cfg.cxl_dev_gap,
                );
                alone_wait[h] += (link.start - arrival) + (mc.start - link.finish);
            }
            results.push(res);
        }
        // Shared path: arbitration onto the one link, then the pooled MC.
        for g in self.switch.drain_queues() {
            let svc = self.pool.access(g.port, g.depart, g.is_write);
            shared_wait[g.port] += (g.start - g.arrival) + (svc.start - g.depart);
        }
        // Excess-over-alone: the contention the *fabric* added. Fed back
        // as per-request media-latency pressure for the next epoch, and
        // exported per host for the analyzer.
        for h in 0..n_hosts {
            let excess = shared_wait[h].saturating_sub(alone_wait[h]);
            self.pool.add_excess(h, excess);
            let extra_lat = excess / reqs[h].max(1);
            self.hosts[h].set_fabric_backpressure(extra_lat, 0);
        }
        {
            use crate::module::SimModule;
            let end = (self.epochs_run + 1) * ec;
            self.switch.tick(end);
            self.switch.drain(&mut self.pmu, ec);
            self.pool.tick(end);
            self.pool.drain(&mut self.pmu, ec);
        }
        self.epochs_run += 1;
        #[cfg(any(debug_assertions, feature = "invariants"))]
        crate::invariants::assert_invariants(self);
        let all_done = self.all_done();
        FabricEpochResult {
            hosts: results,
            fabric: self.pmu.snapshot(self.epochs_run * ec),
            all_done,
        }
    }

    /// Fabric-level counter snapshot at the last epoch boundary.
    pub fn fabric_snapshot(&self) -> SystemSnapshot {
        self.pmu.snapshot(self.epochs_run * self.cfg.epoch_cycles)
    }

    /// Run until every host finishes or `max_epochs` elapse; returns the
    /// number of epochs executed, or `None` if the cap was hit first.
    pub fn run_to_completion(&mut self, max_epochs: u64) -> Option<u64> {
        let mut epochs = 0;
        while !self.all_done() && epochs < max_epochs {
            self.run_epoch();
            epochs += 1;
        }
        self.all_done().then_some(epochs)
    }
}

/// A host's cumulative CXL.mem demand, (reads, writes): the M2S Req and
/// RwD packing-buffer inserts, summed over its CXL devices.
fn cxl_mem(pmu: &SystemPmu) -> (u64, u64) {
    let sum = |ev| pmu.cxls.iter().map(|b| b.read(ev)).sum();
    (
        sum(CxlEvent::RxcPackBufInsertsMemReq),
        sum(CxlEvent::RxcPackBufInsertsMemData),
    )
}

/// The fabric's own queues and its flow balance (per-host machines audit
/// themselves): the switch, the pooled device, every host's private
/// replica, and `conservation::fabric_conservation` — every port's
/// ingress must be granted, every grant must land as exactly one pooled
/// CAS.
impl Invariants for Fabric {
    fn component(&self) -> &'static str {
        "fabric::Fabric"
    }

    fn collect_violations(&self, out: &mut Vec<Violation>) {
        let visits = QueueCensus::visits();
        self.switch.collect_violations(out);
        self.pool.collect_violations(out);
        for replica in &self.alone {
            replica.link.collect_violations(out);
            replica.mc.collect_violations(out);
        }
        crate::conservation::fabric_conservation(&self.pmu, out);
        self.census.check(self.component(), visits, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultWindow;
    use crate::module::StageId;
    use crate::trace::SeqReadTrace;
    use pmu::{PoolEvent, SwitchEvent};

    fn stream(name: &str, ops: usize) -> Workload {
        Workload::new(
            name,
            Box::new(SeqReadTrace::new(1 << 16, ops)),
            crate::config::MemPolicy::Cxl,
        )
    }

    fn two_host_fabric() -> Fabric {
        let cfg = MachineConfig::tiny();
        let fcfg = FabricConfig::balanced(2, &cfg);
        let mut f = Fabric::new(cfg, fcfg);
        f.attach(0, 0, stream("h0", 400));
        f.attach(1, 0, stream("h1", 400));
        f
    }

    #[test]
    fn fabric_runs_and_conserves_per_host_flow() {
        let mut f = two_host_fabric();
        let epochs = f.run_to_completion(200).expect("must finish");
        assert!(epochs > 0);
        let snap = f.fabric_snapshot();
        for h in 0..2 {
            let inserts = snap.pmu.switches[h].read(SwitchEvent::IngressInserts);
            let grants = snap.pmu.switches[h].read(SwitchEvent::ArbGrants);
            let cas = snap.pmu.pools[h].read(PoolEvent::McRdCas)
                + snap.pmu.pools[h].read(PoolEvent::McWrCas);
            assert!(inserts > 0, "host {h} must reach the switch");
            assert_eq!(inserts, grants);
            assert_eq!(grants, cas);
        }
    }

    /// The fabric audit visits every queue the fabric built beside its
    /// hosts: the switch link, the pooled MC, and each host's two private
    /// replica servers.
    #[test]
    #[cfg(any(debug_assertions, feature = "invariants"))]
    fn fabric_audit_visits_every_queue_it_built() {
        let mut f = two_host_fabric();
        f.run_epoch();
        assert_eq!(f.census.built(), 2 + 2 * 2);
        let mut v = Vec::new();
        f.collect_violations(&mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn fabric_epochs_are_deterministic() {
        let runs: Vec<Vec<u64>> = (0..2)
            .map(|_| {
                let mut f = two_host_fabric();
                f.run_to_completion(200).expect("must finish");
                let snap = f.fabric_snapshot();
                let mut raw = Vec::new();
                for b in &snap.pmu.switches {
                    raw.extend_from_slice(b.raw());
                }
                for b in &snap.pmu.pools {
                    raw.extend_from_slice(b.raw());
                }
                raw
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn attach_order_does_not_change_counters() {
        let build = |flip: bool| {
            let cfg = MachineConfig::tiny();
            let mut f = Fabric::new(cfg.clone(), FabricConfig::balanced(2, &cfg));
            if flip {
                f.attach(1, 0, stream("h1", 300));
                f.attach(0, 0, stream("h0", 300));
            } else {
                f.attach(0, 0, stream("h0", 300));
                f.attach(1, 0, stream("h1", 300));
            }
            f.run_to_completion(200).expect("must finish");
            let snap = f.fabric_snapshot();
            let mut raw = Vec::new();
            for b in &snap.pmu.switches {
                raw.extend_from_slice(b.raw());
            }
            for b in &snap.pmu.pools {
                raw.extend_from_slice(b.raw());
            }
            raw
        };
        assert_eq!(build(false), build(true));
    }

    fn heavy_fabric() -> Fabric {
        let cfg = MachineConfig::tiny();
        let fcfg = FabricConfig::balanced(2, &cfg);
        let mut f = Fabric::new(cfg, fcfg);
        // Footprints larger than the LLC so every sweep misses to CXL and
        // the per-epoch demand stays high enough to stress the link.
        f.attach(
            0,
            0,
            Workload::new(
                "h0",
                Box::new(SeqReadTrace::new(1 << 20, 2000)),
                crate::config::MemPolicy::Cxl,
            ),
        );
        f.attach(
            1,
            0,
            Workload::new(
                "h1",
                Box::new(SeqReadTrace::new(1 << 20, 2000)),
                crate::config::MemPolicy::Cxl,
            ),
        );
        f
    }

    #[test]
    fn shared_link_fault_raises_every_hosts_excess() {
        let mut healthy = heavy_fabric();
        healthy.run_to_completion(400).expect("must finish");
        let mut faulted = heavy_fabric();
        faulted.set_fault_plan(
            FaultPlan::new()
                .with(FaultWindow {
                    class: FaultClass::SharedLinkDegrade,
                    stage: StageId::switch_port(0),
                    start_epoch: 0,
                    end_epoch: u64::MAX,
                    severity: 256,
                })
                .unwrap(),
        );
        faulted.run_to_completion(800).expect("must finish");
        let hs = healthy.fabric_snapshot();
        let fs = faulted.fabric_snapshot();
        for h in 0..2 {
            let healthy_excess = hs.pmu.pools[h].read(PoolEvent::ExcessWaitCycles);
            let faulted_excess = fs.pmu.pools[h].read(PoolEvent::ExcessWaitCycles);
            assert!(
                faulted_excess > healthy_excess,
                "host {h}: shared-link degrade must raise excess ({faulted_excess} vs {healthy_excess})"
            );
        }
    }
}
