//! The pooled CXL Type-3 memory device shared by every tenant host.
//!
//! In a pooling fabric the device-side memory controller is one physical
//! resource multiplexed across N hosts: each host's DRAM accesses share
//! the same RPQ/WPQ and media bandwidth, so one tenant's burst inflates
//! every tenant's device wait. The pooled device keeps its accounting
//! **per host** (`pmu::PoolEvent`, one bank per tenant) — occupancy and
//! wait split by who issued the CAS, plus the fabric-computed
//! excess-over-alone wait that prices each host's share of the
//! contention. That per-host split is what lets `core::analyzer` name the
//! culprit tenant from counters alone.

use crate::config::MachineConfig;
use crate::invariant;
use crate::invariants::{Invariants, Violation};
use crate::queues::{FifoServer, Service};
use pmu::PoolEvent;

/// Per-host accounting (free-running totals; drained as deltas).
#[derive(Clone, Debug, Default)]
struct HostStats {
    rd_cas: u64,
    wr_cas: u64,
    /// Σ (finish − arrival): MC residency attributed to this host.
    occupancy: u64,
    /// Σ (service start − arrival): pure queueing delay.
    wait: u64,
    /// Fabric-computed wait beyond what this host would see alone.
    excess: u64,
    synced_rd: u64,
    synced_wr: u64,
    synced_occupancy: u64,
    synced_wait: u64,
    synced_excess: u64,
}

/// The pooled Type-3 device: one shared MC, per-host accounting.
#[derive(Debug)]
pub struct PooledDevice {
    mc: FifoServer,
    latency_media: u64,
    gap: u64,
    stats: Vec<HostStats>,
}

impl PooledDevice {
    /// A pooled device shared by `hosts` tenants, with the same media
    /// latency and issue gap as a dedicated Type-3 device under `cfg` —
    /// so a single tenant sees exactly the timing it would see alone.
    pub fn new(cfg: &MachineConfig, hosts: usize) -> PooledDevice {
        assert!(hosts > 0, "a pooled device needs at least one tenant");
        PooledDevice {
            mc: FifoServer::new(),
            latency_media: cfg.cxl_media_latency,
            gap: cfg.cxl_dev_gap,
            stats: vec![HostStats::default(); hosts],
        }
    }

    pub fn hosts(&self) -> usize {
        self.stats.len()
    }

    /// One CAS on behalf of `host`, arriving from the switch at `arrive`.
    pub fn access(&mut self, host: usize, arrive: u64, is_write: bool) -> Service {
        let svc = self.mc.serve(arrive, self.latency_media, self.gap);
        let st = &mut self.stats[host];
        if is_write {
            st.wr_cas += 1;
        } else {
            st.rd_cas += 1;
        }
        st.occupancy += svc.finish - arrive;
        st.wait += svc.start - arrive;
        svc
    }

    /// Credit `host` with `cycles` of excess-over-alone wait for the
    /// epoch (computed by `fabric::Fabric` from the private-replica
    /// replay).
    pub fn add_excess(&mut self, host: usize, cycles: u64) {
        self.stats[host].excess += cycles;
    }

    /// Total queueing delay host `host` has accumulated at the shared MC.
    pub fn host_wait(&self, host: usize) -> u64 {
        self.stats[host].wait
    }
}

impl crate::module::SimModule for PooledDevice {
    fn stage_id(&self) -> crate::module::StageId {
        crate::module::StageId::pool()
    }

    fn name(&self) -> &'static str {
        "module.cxlpool"
    }

    fn tick(&mut self, _until: u64) {}

    fn drain(&mut self, pmu: &mut pmu::SystemPmu, epoch_cycles: u64) {
        for (h, st) in self.stats.iter_mut().enumerate() {
            let bank = &mut pmu.pools[h];
            bank.add(PoolEvent::ClockTicks, epoch_cycles);
            bank.add(PoolEvent::McRdCas, st.rd_cas - st.synced_rd);
            st.synced_rd = st.rd_cas;
            bank.add(PoolEvent::McWrCas, st.wr_cas - st.synced_wr);
            st.synced_wr = st.wr_cas;
            bank.add(PoolEvent::McOccupancy, st.occupancy - st.synced_occupancy);
            st.synced_occupancy = st.occupancy;
            bank.add(PoolEvent::McWaitCycles, st.wait - st.synced_wait);
            st.synced_wait = st.wait;
            bank.add(PoolEvent::ExcessWaitCycles, st.excess - st.synced_excess);
            st.synced_excess = st.excess;
        }
    }
}

impl Invariants for PooledDevice {
    fn component(&self) -> &'static str {
        "pooled::PooledDevice"
    }

    fn collect_violations(&self, out: &mut Vec<Violation>) {
        self.mc.collect_violations(out);
        for (h, st) in self.stats.iter().enumerate() {
            invariant!(
                out,
                self.component(),
                st.wait <= st.occupancy,
                "host {h}: wait({}) exceeds occupancy({})",
                st.wait,
                st.occupancy
            );
            let baselines = [
                ("rd_cas", st.synced_rd, st.rd_cas),
                ("wr_cas", st.synced_wr, st.wr_cas),
                ("occupancy", st.synced_occupancy, st.occupancy),
                ("wait", st.synced_wait, st.wait),
                ("excess", st.synced_excess, st.excess),
            ];
            for (name, synced, total) in baselines {
                invariant!(
                    out,
                    self.component(),
                    synced <= total,
                    "host {h}: {name} synced baseline ahead of accumulator: {synced} > {total}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants::assert_invariants;
    use crate::module::SimModule;
    use pmu::SystemPmu;

    fn pool() -> PooledDevice {
        PooledDevice::new(&MachineConfig::spr(), 2)
    }

    #[test]
    fn idle_access_pays_media_latency_only() {
        let mut p = pool();
        let cfg = MachineConfig::spr();
        let svc = p.access(0, 100, false);
        assert_eq!(svc.start, 100);
        assert_eq!(svc.finish, 100 + cfg.cxl_media_latency);
        assert_eq!(p.host_wait(0), 0);
    }

    #[test]
    fn contention_charges_wait_to_the_right_host() {
        let mut p = pool();
        p.access(0, 0, false);
        let svc = p.access(1, 0, true);
        assert!(svc.start > 0, "second access must queue behind the first");
        assert_eq!(p.host_wait(0), 0);
        assert_eq!(p.host_wait(1), svc.start);
        assert_invariants(&p);
    }

    #[test]
    fn drain_splits_banks_per_host() {
        let mut p = pool();
        p.access(0, 0, false);
        p.access(0, 0, false);
        p.access(1, 0, true);
        p.add_excess(1, 17);
        let mut pmu = SystemPmu::fabric(2);
        p.drain(&mut pmu, 500);
        assert_eq!(pmu.pools[0].read(PoolEvent::McRdCas), 2);
        assert_eq!(pmu.pools[0].read(PoolEvent::McWrCas), 0);
        assert_eq!(pmu.pools[1].read(PoolEvent::McWrCas), 1);
        assert_eq!(pmu.pools[1].read(PoolEvent::ExcessWaitCycles), 17);
        assert!(pmu.pools[1].read(PoolEvent::McWaitCycles) > 0);
        // Idempotent without new traffic.
        p.drain(&mut pmu, 500);
        assert_eq!(pmu.pools[0].read(PoolEvent::McRdCas), 2);
        assert_eq!(pmu.pools[1].read(PoolEvent::ExcessWaitCycles), 17);
        assert_eq!(pmu.pools[0].read(PoolEvent::ClockTicks), 1000);
    }
}
