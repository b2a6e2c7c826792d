//! The FlexBus I/O path and the CXL Type-3 memory device.
//!
//! Models the full CXL.mem transaction flow of §2.1:
//!
//! ```text
//!  mesh → M2PCIe ingress → FlexBus link → device Rx packing buffers
//!       (M2S Req for reads, M2S RwD for writes)
//!  device MC → media → device Tx packing buffers → FlexBus → M2PCIe egress
//!       (S2M DRS data for reads, S2M NDR completion for writes)
//! ```
//!
//! Counters: the M2PCIe rows of Table 3 and the CXL-device rows of Table 4.
//! The device also derives the CXL 3.x QoS telemetry class (DevLoad) from
//! its internal queue occupancy — the capability §3.5 notes that shipping
//! DIMMs do not yet expose; the simulated device does.

use crate::config::MachineConfig;
use crate::invariant;
use crate::invariants::{Invariants, Violation};
use crate::queues::{Coverage, FifoServer};
use pmu::{Bank, CxlEvent, M2pEvent};

/// CXL.mem QoS telemetry classes (CXL spec 3.0/3.1 DevLoad; paper §3.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DevLoad {
    Light,
    Optimal,
    Moderate,
    Severe,
}

/// One CXL Type-3 endpoint: M2PCIe bridge + FlexBus link + device.
#[derive(Debug)]
pub struct CxlPort {
    /// Device index: selects this port's M2PCIe and device banks in the
    /// system PMU.
    dev: usize,
    /// M2PCIe ingress (requests from the mesh).
    m2p_ingress: FifoServer,
    m2p_ne: Coverage,
    synced_m2p_ne: u64,
    /// FlexBus link, request direction (shared by Req and RwD flits).
    link_up: FifoServer,
    /// FlexBus link, response direction (DRS data + NDR completions).
    link_down: FifoServer,
    /// Device memory controller + media.
    dev_mc: FifoServer,
    req_buf_ne: Coverage,
    data_buf_ne: Coverage,
    synced_req_ne: u64,
    synced_data_ne: u64,
    /// Cycles the Rx packing buffers were full (overload indicator).
    req_buf_full: u64,
    data_buf_full: u64,
    synced_req_full: u64,
    synced_data_full: u64,

    latency_link: u64,
    gap_link: u64,
    latency_media: u64,
    gap_dev: u64,
    queue_cap: u64,

    /// Calibrated (fault-free) link/device timings, for fault restore.
    base_latency_link: u64,
    base_gap_link: u64,
    base_gap_dev: u64,
    /// When set, every `period`-th CXL.mem load completion is poisoned
    /// (deterministic media-error injection; see `faults.rs`).
    poison_period: Option<u64>,
    loads_seen: u64,

    /// Extra media latency imposed by fabric contention (switch + pooled
    /// device queueing attributed to this host by `fabric.rs`). Zero on a
    /// standalone machine, so the arithmetic below is bit-identical to the
    /// pre-fabric model. Orthogonal to fault state: `clear_faults` does
    /// not reset it.
    fabric_extra_lat: u64,
    /// Extra device issue gap from fabric bandwidth sharing; same
    /// contract as `fabric_extra_lat`.
    fabric_extra_gap: u64,
}

/// Completion of one CXL.mem transaction.
#[derive(Clone, Copy, Debug)]
pub struct CxlCompletion {
    /// Cycle the S2M response reaches the mesh.
    pub finish: u64,
    /// Device-side queueing delay component (for ground-truth checks).
    pub device_wait: u64,
    /// The returned data carries poison (injected media error); the
    /// datapath retries or contains it (CXL viral semantics).
    pub poison: bool,
}

impl CxlPort {
    pub fn new(cfg: &MachineConfig, dev: usize) -> Self {
        CxlPort {
            dev,
            m2p_ingress: FifoServer::new(),
            m2p_ne: Coverage::new(),
            synced_m2p_ne: 0,
            link_up: FifoServer::new(),
            link_down: FifoServer::new(),
            dev_mc: FifoServer::new(),
            req_buf_ne: Coverage::new(),
            data_buf_ne: Coverage::new(),
            synced_req_ne: 0,
            synced_data_ne: 0,
            req_buf_full: 0,
            data_buf_full: 0,
            synced_req_full: 0,
            synced_data_full: 0,
            latency_link: cfg.flexbus_latency,
            gap_link: cfg.flexbus_gap,
            latency_media: cfg.cxl_media_latency,
            gap_dev: cfg.cxl_dev_gap,
            queue_cap: cfg.cxl_dev_queue as u64,
            base_latency_link: cfg.flexbus_latency,
            base_gap_link: cfg.flexbus_gap,
            base_gap_dev: cfg.cxl_dev_gap,
            poison_period: None,
            loads_seen: 0,
            fabric_extra_lat: 0,
            fabric_extra_gap: 0,
        }
    }

    /// Impose fabric-attributed contention on this port for the next
    /// epoch: `extra_lat` cycles of additional media latency and
    /// `extra_gap` cycles of additional device issue gap. Set by
    /// `fabric::Fabric` from the pooled device's excess-over-alone wait;
    /// both zero on a standalone machine.
    pub fn set_fabric_backpressure(&mut self, extra_lat: u64, extra_gap: u64) {
        self.fabric_extra_lat = extra_lat;
        self.fabric_extra_gap = extra_gap;
    }

    /// Device issue gap including fabric backpressure.
    fn eff_gap_dev(&self) -> u64 {
        self.gap_dev + self.fabric_extra_gap
    }

    /// Media latency including fabric backpressure.
    fn eff_media_latency(&self) -> u64 {
        self.latency_media + self.fabric_extra_lat
    }

    // ---- fault knobs (driven by `faults.rs` via the machine) ------------

    /// Degrade the FlexBus link: the flit gap is multiplied by `gap_mult`
    /// (width reduction) and every flit pays half the base latency again
    /// (retraining/retry overhead). Timing only — counters are untouched,
    /// so conservation holds.
    pub(crate) fn degrade_link(&mut self, gap_mult: u64) {
        self.gap_link = self.base_gap_link * gap_mult.max(1);
        self.latency_link = self.base_latency_link + self.base_latency_link / 2;
    }

    /// Throttle the device memory controller: the issue gap is multiplied
    /// by `gap_mult`, so backlog — and the DevLoad class — escalates.
    pub(crate) fn throttle_device(&mut self, gap_mult: u64) {
        self.gap_dev = self.base_gap_dev * gap_mult.max(1);
    }

    /// Poison every `period`-th load completion (`period` ≥ 2).
    pub(crate) fn set_poison_period(&mut self, period: u64) {
        self.poison_period = Some(period.max(2));
    }

    /// Restore calibrated timings and stop poisoning (window expiry).
    pub(crate) fn clear_faults(&mut self) {
        self.latency_link = self.base_latency_link;
        self.gap_link = self.base_gap_link;
        self.gap_dev = self.base_gap_dev;
        self.poison_period = None;
    }

    /// Estimate the device-queue backlog (entries) implied by the MC's
    /// `next_free` horizon at `arrive`.
    fn backlog(&self, arrive: u64) -> u64 {
        self.dev_mc.next_free().saturating_sub(arrive) / self.eff_gap_dev().max(1)
    }

    /// A CXL.mem load: M2S Req → media read → S2M DRS.
    pub fn mem_load(
        &mut self,
        arrive: u64,
        m2p: &mut Bank<M2pEvent>,
        dev: &mut Bank<CxlEvent>,
    ) -> CxlCompletion {
        // M2PCIe ingress from the mesh. The entry occupies the ingress
        // queue until the FlexBus link accepts its flit, so link-credit
        // starvation shows up as M2PCIe occupancy — exactly what
        // `unc_m2p_rxc_cycles_ne` observes on real parts.
        m2p.inc(M2pEvent::RxcInserts);
        let in_svc = self.m2p_ingress.serve(arrive, 2, 1);
        // FlexBus up: a Req slot in a 68B flit.
        let up = self
            .link_up
            .serve(in_svc.finish, self.latency_link / 2, self.gap_link);
        self.m2p_ne.add(arrive, up.start.max(in_svc.finish));
        m2p.add(M2pEvent::RxcOccupancy, up.start.max(in_svc.finish) - arrive);
        // Device Rx Mem-Request packing buffer + MC + media.
        dev.inc(CxlEvent::RxcPackBufInsertsMemReq);
        let backlog = self.backlog(up.finish);
        if backlog >= self.queue_cap {
            let over = (backlog - self.queue_cap + 1) * self.eff_gap_dev();
            self.req_buf_full += over;
        }
        let mc = self
            .dev_mc
            .serve(up.finish, self.eff_media_latency(), self.eff_gap_dev());
        self.req_buf_ne.add(up.finish, mc.finish);
        dev.add(CxlEvent::RxcPackBufOccupancyMemReq, mc.finish - up.finish);
        dev.inc(CxlEvent::DevMcRdCas);
        dev.add(CxlEvent::DevMcRpqOccupancy, mc.finish - up.finish);
        // S2M DRS back over FlexBus.
        dev.inc(CxlEvent::TxcPackBufInsertsMemData);
        let down = self
            .link_down
            .serve(mc.finish, self.latency_link / 2, self.gap_link);
        // M2PCIe egress: one BL (block data) entry per returned line.
        m2p.inc(M2pEvent::TxcInsertsBl);
        self.loads_seen += 1;
        CxlCompletion {
            finish: down.finish,
            device_wait: mc.start - up.finish,
            poison: self
                .poison_period
                .is_some_and(|p| self.loads_seen.is_multiple_of(p)),
        }
    }

    /// A CXL.mem store: M2S RwD → media write → S2M NDR. Posted from the
    /// host's perspective; the returned cycle is when the NDR lands.
    pub fn mem_store(
        &mut self,
        arrive: u64,
        m2p: &mut Bank<M2pEvent>,
        dev: &mut Bank<CxlEvent>,
    ) -> CxlCompletion {
        m2p.inc(M2pEvent::RxcInserts);
        let in_svc = self.m2p_ingress.serve(arrive, 2, 1);
        // RwD carries 64B of data: same link, data-buffer accounting. As in
        // `mem_load`, the ingress entry lives until the link takes the flit.
        let up = self
            .link_up
            .serve(in_svc.finish, self.latency_link / 2, self.gap_link);
        self.m2p_ne.add(arrive, up.start.max(in_svc.finish));
        m2p.add(M2pEvent::RxcOccupancy, up.start.max(in_svc.finish) - arrive);
        dev.inc(CxlEvent::RxcPackBufInsertsMemData);
        let backlog = self.backlog(up.finish);
        if backlog >= self.queue_cap {
            let over = (backlog - self.queue_cap + 1) * self.eff_gap_dev();
            self.data_buf_full += over;
        }
        let mc = self
            .dev_mc
            .serve(up.finish, self.eff_media_latency(), self.eff_gap_dev());
        self.data_buf_ne.add(up.finish, mc.finish);
        dev.add(CxlEvent::RxcPackBufOccupancyMemData, mc.finish - up.finish);
        dev.inc(CxlEvent::DevMcWrCas);
        dev.add(CxlEvent::DevMcWpqOccupancy, mc.finish - up.finish);
        // S2M NDR completion.
        dev.inc(CxlEvent::TxcPackBufInsertsMemReq);
        let down = self
            .link_down
            .serve(mc.finish, self.latency_link / 2, self.gap_link);
        // M2PCIe egress: one AK (acknowledgement) entry per completed store.
        m2p.inc(M2pEvent::TxcInsertsAk);
        // Poison is injected on the read (DRS) path only: a poisoned NDR
        // has no data to contain.
        CxlCompletion {
            finish: down.finish,
            device_wait: mc.start - up.finish,
            poison: false,
        }
    }

    /// A background (kernel page-migration) read: counted by every PMU the
    /// demand path touches, but served from idle bandwidth — it does not
    /// advance the shared FIFO horizons, so demand traffic never queues
    /// behind it (kernels rate-limit migration copies for exactly this
    /// reason).
    pub fn background_read(&mut self, m2p: &mut Bank<M2pEvent>, dev: &mut Bank<CxlEvent>) {
        m2p.inc(M2pEvent::RxcInserts);
        dev.inc(CxlEvent::RxcPackBufInsertsMemReq);
        dev.inc(CxlEvent::DevMcRdCas);
        dev.add(CxlEvent::DevMcRpqOccupancy, self.latency_media);
        dev.inc(CxlEvent::TxcPackBufInsertsMemData);
        m2p.inc(M2pEvent::TxcInsertsBl);
    }

    /// A background (kernel page-migration) write; see [`Self::background_read`].
    pub fn background_write(&mut self, m2p: &mut Bank<M2pEvent>, dev: &mut Bank<CxlEvent>) {
        m2p.inc(M2pEvent::RxcInserts);
        dev.inc(CxlEvent::RxcPackBufInsertsMemData);
        dev.inc(CxlEvent::DevMcWrCas);
        dev.add(CxlEvent::DevMcWpqOccupancy, self.latency_media);
        dev.inc(CxlEvent::TxcPackBufInsertsMemReq);
        m2p.inc(M2pEvent::TxcInsertsAk);
    }

    /// Current QoS telemetry class from the device backlog at `now`
    /// (CXL 3.x DevLoad; thresholds at ¼, ½ and full queue).
    pub fn dev_load(&self, now: u64) -> DevLoad {
        let backlog = self.backlog(now);
        if backlog >= self.queue_cap {
            DevLoad::Severe
        } else if backlog >= self.queue_cap / 2 {
            DevLoad::Moderate
        } else if backlog >= self.queue_cap / 4 {
            DevLoad::Optimal
        } else {
            DevLoad::Light
        }
    }

    /// Flush coverage/full accumulators into the free-running counters at an
    /// epoch boundary.
    pub fn sync_counters(
        &mut self,
        m2p: &mut Bank<M2pEvent>,
        dev: &mut Bank<CxlEvent>,
        epoch_cycles: u64,
    ) {
        m2p.add(M2pEvent::ClockTicks, epoch_cycles);
        dev.add(CxlEvent::ClockTicks, epoch_cycles);
        let ne = self.m2p_ne.total();
        m2p.add(M2pEvent::RxcCyclesNe, ne - self.synced_m2p_ne);
        self.synced_m2p_ne = ne;
        let rq = self.req_buf_ne.total();
        dev.add(CxlEvent::RxcPackBufNeMemReq, rq - self.synced_req_ne);
        self.synced_req_ne = rq;
        let dt = self.data_buf_ne.total();
        dev.add(CxlEvent::RxcPackBufNeMemData, dt - self.synced_data_ne);
        self.synced_data_ne = dt;
        dev.add(
            CxlEvent::RxcPackBufFullMemReq,
            self.req_buf_full - self.synced_req_full,
        );
        self.synced_req_full = self.req_buf_full;
        dev.add(
            CxlEvent::RxcPackBufFullMemData,
            self.data_buf_full - self.synced_data_full,
        );
        self.synced_data_full = self.data_buf_full;
    }
}

impl crate::module::SimModule for CxlPort {
    fn stage_id(&self) -> crate::module::StageId {
        crate::module::StageId::cxl(self.dev)
    }

    fn name(&self) -> &'static str {
        "module.cxl"
    }

    fn tick(&mut self, _until: u64) {}

    fn drain(&mut self, pmu: &mut pmu::SystemPmu, epoch_cycles: u64) {
        let pmu::SystemPmu { m2ps, cxls, .. } = pmu;
        self.sync_counters(&mut m2ps[self.dev], &mut cxls[self.dev], epoch_cycles);
    }
}

impl Invariants for CxlPort {
    fn component(&self) -> &'static str {
        "cxl::CxlPort"
    }

    fn collect_violations(&self, out: &mut Vec<Violation>) {
        self.m2p_ingress.collect_violations(out);
        self.link_up.collect_violations(out);
        self.link_down.collect_violations(out);
        self.dev_mc.collect_violations(out);
        self.m2p_ne.collect_violations(out);
        self.req_buf_ne.collect_violations(out);
        self.data_buf_ne.collect_violations(out);
        let baselines = [
            ("m2p_ne", self.synced_m2p_ne, self.m2p_ne.total()),
            ("req_buf_ne", self.synced_req_ne, self.req_buf_ne.total()),
            ("data_buf_ne", self.synced_data_ne, self.data_buf_ne.total()),
            ("req_buf_full", self.synced_req_full, self.req_buf_full),
            ("data_buf_full", self.synced_data_full, self.data_buf_full),
        ];
        for (name, synced, total) in baselines {
            invariant!(
                out,
                self.component(),
                synced <= total,
                "{name} synced baseline ahead of accumulator: synced={synced} total={total}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (CxlPort, Bank<M2pEvent>, Bank<CxlEvent>) {
        (
            CxlPort::new(&MachineConfig::spr(), 0),
            Bank::new(),
            Bank::new(),
        )
    }

    #[test]
    fn idle_load_latency_matches_calibration() {
        let (mut port, mut m2p, mut dev) = setup();
        let c = port.mem_load(0, &mut m2p, &mut dev);
        let cfg = MachineConfig::spr();
        let expect = 2 + cfg.flexbus_latency / 2 + cfg.cxl_media_latency + cfg.flexbus_latency / 2;
        assert_eq!(c.finish, expect);
        assert_eq!(c.device_wait, 0);
        assert_eq!(m2p.read(M2pEvent::TxcInsertsBl), 1);
        assert_eq!(dev.read(CxlEvent::DevMcRdCas), 1);
        assert_eq!(dev.read(CxlEvent::TxcPackBufInsertsMemData), 1);
    }

    #[test]
    fn store_produces_ndr_and_ak() {
        let (mut port, mut m2p, mut dev) = setup();
        port.mem_store(0, &mut m2p, &mut dev);
        assert_eq!(m2p.read(M2pEvent::TxcInsertsAk), 1);
        assert_eq!(dev.read(CxlEvent::TxcPackBufInsertsMemReq), 1);
        assert_eq!(dev.read(CxlEvent::RxcPackBufInsertsMemData), 1);
        assert_eq!(dev.read(CxlEvent::DevMcWrCas), 1);
    }

    #[test]
    fn saturation_escalates_devload_and_full_cycles() {
        let (mut port, mut m2p, mut dev) = setup();
        assert_eq!(port.dev_load(0), DevLoad::Light);
        for _ in 0..500 {
            port.mem_load(0, &mut m2p, &mut dev);
        }
        assert_eq!(port.dev_load(0), DevLoad::Severe);
        port.sync_counters(&mut m2p, &mut dev, 1_000_000);
        assert!(dev.read(CxlEvent::RxcPackBufFullMemReq) > 0);
    }

    #[test]
    fn queueing_grows_with_offered_load() {
        let (mut port, mut m2p, mut dev) = setup();
        let solo = port.mem_load(0, &mut m2p, &mut dev).finish;
        let mut last = 0;
        for _ in 0..100 {
            last = port.mem_load(0, &mut m2p, &mut dev).finish;
        }
        assert!(last > solo * 2, "100 back-to-back loads must queue heavily");
    }

    #[test]
    fn degraded_link_slows_and_restores() {
        let (mut port, mut m2p, mut dev) = setup();
        let healthy = port.mem_load(0, &mut m2p, &mut dev).finish;
        port.degrade_link(8);
        let mut degraded = 0;
        for _ in 0..50 {
            degraded = port.mem_load(0, &mut m2p, &mut dev).finish;
        }
        assert!(degraded > healthy, "degraded link must add latency");
        port.clear_faults();
        // After restore a request at a far-future idle point sees the
        // calibrated latency again.
        let far = 1_000_000;
        let c = port.mem_load(far, &mut m2p, &mut dev);
        let cfg = MachineConfig::spr();
        let expect = 2 + cfg.flexbus_latency / 2 + cfg.cxl_media_latency + cfg.flexbus_latency / 2;
        assert_eq!(c.finish - far, expect);
    }

    #[test]
    fn throttled_device_escalates_devload_sooner() {
        let (mut port, mut m2p, mut dev) = setup();
        port.throttle_device(16);
        for _ in 0..64 {
            port.mem_load(0, &mut m2p, &mut dev);
        }
        assert_eq!(port.dev_load(0), DevLoad::Severe);
    }

    #[test]
    fn poison_follows_the_configured_period_exactly() {
        let (mut port, mut m2p, mut dev) = setup();
        port.set_poison_period(3);
        let flags: Vec<bool> = (0..9)
            .map(|_| port.mem_load(0, &mut m2p, &mut dev).poison)
            .collect();
        assert_eq!(
            flags,
            vec![false, false, true, false, false, true, false, false, true]
        );
        port.clear_faults();
        assert!(!port.mem_load(0, &mut m2p, &mut dev).poison);
        // Stores never carry poison.
        port.set_poison_period(2);
        assert!(!port.mem_store(0, &mut m2p, &mut dev).poison);
        assert!(!port.mem_store(0, &mut m2p, &mut dev).poison);
    }

    #[test]
    fn fabric_backpressure_adds_latency_and_survives_fault_clear() {
        let (mut port, mut m2p, mut dev) = setup();
        let cfg = MachineConfig::spr();
        let base = 2 + cfg.flexbus_latency / 2 + cfg.cxl_media_latency + cfg.flexbus_latency / 2;
        assert_eq!(port.mem_load(0, &mut m2p, &mut dev).finish, base);
        port.set_fabric_backpressure(37, 5);
        let far = 1_000_000;
        let c = port.mem_load(far, &mut m2p, &mut dev);
        assert_eq!(c.finish - far, base + 37);
        // clear_faults restores fault knobs only; fabric pressure is
        // re-derived each epoch by the fabric, not by the fault engine.
        port.clear_faults();
        let far = 2_000_000;
        let c = port.mem_load(far, &mut m2p, &mut dev);
        assert_eq!(c.finish - far, base + 37);
        port.set_fabric_backpressure(0, 0);
        let far = 3_000_000;
        let c = port.mem_load(far, &mut m2p, &mut dev);
        assert_eq!(c.finish - far, base);
    }

    #[test]
    fn sync_is_idempotent_without_traffic() {
        let (mut port, mut m2p, mut dev) = setup();
        port.mem_load(0, &mut m2p, &mut dev);
        port.sync_counters(&mut m2p, &mut dev, 1000);
        let ne1 = dev.read(CxlEvent::RxcPackBufNeMemReq);
        port.sync_counters(&mut m2p, &mut dev, 1000);
        assert_eq!(dev.read(CxlEvent::RxcPackBufNeMemReq), ne1);
    }
}
