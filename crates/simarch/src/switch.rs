//! The CXL fabric switch: N upstream ports sharing one downstream link.
//!
//! A multi-host pooling fabric (CXL 3.x) interposes a switch between each
//! host's FlexBus port and the pooled Type-3 device. Every upstream port
//! has its own ingress queue; a configurable arbiter grants queued
//! requests onto the single shared downstream link. Because the link is
//! shared, one tenant's burst — or one stuck port under FIFO arbitration —
//! delays the others: the cross-tenant interference PathFinder's per-host
//! attribution must untangle from counters alone.
//!
//! Counters: the `unc_cxlsw_*` rows of `pmu::SwitchEvent`, one bank per
//! upstream port. The HOL metric (`unc_cxlsw_hol_blocked_cycles.port`)
//! charges a port for every link-occupation interval during which it had a
//! granted-later head-of-line request already waiting — the signature that
//! separates head-of-line blocking from plain bandwidth saturation.

use std::collections::VecDeque;

use crate::invariant;
use crate::invariants::{Invariants, Violation};
use crate::queues::FifoServer;
use pmu::SwitchEvent;

/// Downstream-link arbitration policy across the upstream ports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Arbitration {
    /// Cyclic scan starting after the last winner: starvation-free and
    /// work-conserving (the property test in `fabric.rs` pins both).
    RoundRobin,
    /// Oldest eligible request wins (ties to the lowest port). Fair on
    /// average but HOL-prone: a stalled head blocks nothing *at* the
    /// arbiter, yet its port's queue ages collectively.
    Fifo,
    /// Credit-weighted: among eligible ports the one with the most
    /// remaining credit wins (ties to the lowest port); credits refill to
    /// the configured weights when every eligible port is exhausted.
    /// Approximates bandwidth partitioning in proportion to the weights.
    Weighted(Vec<u32>),
}

/// One request granted onto the shared downstream link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    /// Upstream port (== tenant host index) the request came from.
    pub port: usize,
    /// Cycle the request entered the ingress queue.
    pub arrival: u64,
    /// Cycle the link began carrying the request.
    pub start: u64,
    /// Cycle the request reaches the pooled device.
    pub depart: u64,
    /// M2S RwD (write) rather than M2S Req (read).
    pub is_write: bool,
}

/// Per-port accumulator set (free-running totals; the epoch drain syncs
/// deltas into the PMU banks).
#[derive(Clone, Debug, Default)]
struct PortStats {
    inserts: u64,
    grants: u64,
    /// Σ (grant start − arrival) over granted requests: ingress residency.
    occupancy: u64,
    /// Cycles the shared link served another port while this port had a
    /// request already waiting.
    hol_blocked: u64,
    /// Link occupation attributed to this port's own grants.
    link_busy: u64,
    synced_inserts: u64,
    synced_grants: u64,
    synced_occupancy: u64,
    synced_hol: u64,
    synced_busy: u64,
}

/// The fabric switch: per-port ingress queues, one shared downstream link.
#[derive(Debug)]
pub struct CxlSwitch {
    arb: Arbitration,
    queues: Vec<VecDeque<(u64, bool)>>,
    stats: Vec<PortStats>,
    link: FifoServer,
    latency_link: u64,
    gap_link: u64,
    base_latency_link: u64,
    base_gap_link: u64,
    /// Round-robin scan origin (port after the last winner).
    rr_next: usize,
    /// Remaining credits for `Arbitration::Weighted`.
    credits: Vec<u32>,
    /// Fault knob: requests at port p are ineligible before this cycle.
    stalled_until: Vec<u64>,
}

impl CxlSwitch {
    /// A switch with `ports` upstream ports and a downstream link of the
    /// given flit latency and issue gap (1/bandwidth).
    pub fn new(ports: usize, latency_link: u64, gap_link: u64, arb: Arbitration) -> CxlSwitch {
        assert!(ports > 0, "a switch needs at least one upstream port");
        if let Arbitration::Weighted(w) = &arb {
            assert_eq!(w.len(), ports, "one weight per upstream port");
            assert!(w.iter().any(|&c| c > 0), "weights must not all be zero");
        }
        let credits = match &arb {
            Arbitration::Weighted(w) => w.clone(),
            _ => vec![0; ports],
        };
        CxlSwitch {
            arb,
            queues: (0..ports).map(|_| VecDeque::new()).collect(),
            stats: vec![PortStats::default(); ports],
            link: FifoServer::new(),
            latency_link,
            gap_link: gap_link.max(1),
            base_latency_link: latency_link,
            base_gap_link: gap_link.max(1),
            rr_next: 0,
            credits,
            stalled_until: vec![0; ports],
        }
    }

    pub fn ports(&self) -> usize {
        self.queues.len()
    }

    /// Queue a request at upstream port `port`.
    pub fn enqueue(&mut self, port: usize, arrival: u64, is_write: bool) {
        self.stats[port].inserts += 1;
        self.queues[port].push_back((arrival, is_write));
    }

    /// Requests currently queued across all ports.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    // ---- fault knobs (driven by `fabric.rs`) ---------------------------

    /// Degrade the shared downstream link: gap × `gap_mult` (width
    /// reduction), latency × 3/2 (retraining overhead). Every tenant
    /// behind the switch pays — the cross-tenant blast radius of
    /// `FaultClass::SharedLinkDegrade`.
    pub(crate) fn degrade_shared_link(&mut self, gap_mult: u64) {
        self.gap_link = self.base_gap_link * gap_mult.max(1);
        self.latency_link = self.base_latency_link + self.base_latency_link / 2;
    }

    /// Make port `port` ineligible for arbitration before `until`
    /// (`FaultClass::SwitchPortStall`).
    pub(crate) fn stall_port(&mut self, port: usize, until: u64) {
        if let Some(s) = self.stalled_until.get_mut(port) {
            *s = (*s).max(until);
        }
    }

    /// Restore calibrated link timings and un-stall every port.
    pub(crate) fn clear_faults(&mut self) {
        self.latency_link = self.base_latency_link;
        self.gap_link = self.base_gap_link;
        self.stalled_until.iter_mut().for_each(|s| *s = 0);
    }

    /// Earliest cycle port `p`'s head request could be granted.
    fn eff_head(&self, p: usize) -> Option<u64> {
        self.queues[p]
            .front()
            .map(|&(arrival, _)| arrival.max(self.stalled_until[p]))
    }

    /// Pick the winning port among those whose head is eligible at
    /// `cursor` (eligible set is non-empty by construction).
    fn pick(&mut self, cursor: u64) -> usize {
        let n = self.ports();
        let eligible = |sw: &CxlSwitch, p: usize| sw.eff_head(p).is_some_and(|eff| eff <= cursor);
        match &self.arb {
            Arbitration::RoundRobin => {
                for off in 0..n {
                    let p = (self.rr_next + off) % n;
                    if eligible(self, p) {
                        return p;
                    }
                }
                unreachable!("pick() requires a non-empty eligible set")
            }
            Arbitration::Fifo => (0..n)
                .filter(|&p| eligible(self, p))
                .min_by_key(|&p| (self.eff_head(p).unwrap(), p))
                .expect("pick() requires a non-empty eligible set"),
            Arbitration::Weighted(weights) => {
                if (0..n)
                    .filter(|&p| eligible(self, p))
                    .all(|p| self.credits[p] == 0)
                {
                    // Every eligible port exhausted its share: refill the
                    // whole round so the weights keep their proportions.
                    self.credits.copy_from_slice(weights);
                }
                (0..n)
                    .filter(|&p| eligible(self, p) && self.credits[p] > 0)
                    .max_by_key(|&p| (self.credits[p], std::cmp::Reverse(p)))
                    .or_else(|| (0..n).find(|&p| eligible(self, p)))
                    .expect("pick() requires a non-empty eligible set")
            }
        }
    }

    /// Arbitrate every queued request onto the shared link and return the
    /// grants in link order. Deterministic: a pure function of the queue
    /// contents, the arbitration state, and the link horizon.
    pub fn drain_queues(&mut self) -> Vec<Grant> {
        let mut grants = Vec::with_capacity(self.pending());
        while self.pending() > 0 {
            let min_eff = (0..self.ports())
                .filter_map(|p| self.eff_head(p))
                .min()
                .expect("pending() > 0 guarantees a head");
            // The link grants at its issue horizon or the first instant a
            // request is present, whichever is later — work conserving.
            let cursor = self.link.next_free().max(min_eff);
            let winner = self.pick(cursor);
            let (arrival, is_write) = self.queues[winner]
                .pop_front()
                .expect("winner has a head request");
            let eff = arrival.max(self.stalled_until[winner]);
            let svc = self.link.serve(eff, self.latency_link, self.gap_link);
            debug_assert_eq!(svc.start, cursor, "grant must start at the cursor");
            let st = &mut self.stats[winner];
            st.grants += 1;
            st.occupancy += svc.start - arrival;
            st.link_busy += self.gap_link;
            // Charge HOL blocking: every *other* port that already had a
            // waiting head while the link carries this grant.
            for p in 0..self.ports() {
                if p != winner && self.queues[p].front().is_some_and(|&(a, _)| a <= svc.start) {
                    self.stats[p].hol_blocked += self.gap_link;
                }
            }
            self.rr_next = (winner + 1) % self.ports();
            if matches!(self.arb, Arbitration::Weighted(_)) {
                self.credits[winner] = self.credits[winner].saturating_sub(1);
            }
            grants.push(Grant {
                port: winner,
                arrival,
                start: svc.start,
                depart: svc.finish,
                is_write,
            });
        }
        grants
    }
}

impl crate::module::SimModule for CxlSwitch {
    fn stage_id(&self) -> crate::module::StageId {
        crate::module::StageId::switch_port(0)
    }

    fn name(&self) -> &'static str {
        "module.cxlsw"
    }

    fn tick(&mut self, _until: u64) {}

    fn drain(&mut self, pmu: &mut pmu::SystemPmu, epoch_cycles: u64) {
        for (p, st) in self.stats.iter_mut().enumerate() {
            let bank = &mut pmu.switches[p];
            bank.add(SwitchEvent::ClockTicks, epoch_cycles);
            bank.add(SwitchEvent::IngressInserts, st.inserts - st.synced_inserts);
            st.synced_inserts = st.inserts;
            bank.add(SwitchEvent::ArbGrants, st.grants - st.synced_grants);
            st.synced_grants = st.grants;
            bank.add(
                SwitchEvent::IngressOccupancy,
                st.occupancy - st.synced_occupancy,
            );
            st.synced_occupancy = st.occupancy;
            bank.add(
                SwitchEvent::HolBlockedCycles,
                st.hol_blocked - st.synced_hol,
            );
            st.synced_hol = st.hol_blocked;
            bank.add(SwitchEvent::LinkBusyCycles, st.link_busy - st.synced_busy);
            st.synced_busy = st.link_busy;
        }
    }
}

impl Invariants for CxlSwitch {
    fn component(&self) -> &'static str {
        "switch::CxlSwitch"
    }

    fn collect_violations(&self, out: &mut Vec<Violation>) {
        self.link.collect_violations(out);
        for (p, st) in self.stats.iter().enumerate() {
            invariant!(
                out,
                self.component(),
                st.grants + self.queues[p].len() as u64 == st.inserts,
                "port {p}: grants({}) + queued({}) != inserts({})",
                st.grants,
                self.queues[p].len(),
                st.inserts
            );
            let baselines = [
                ("inserts", st.synced_inserts, st.inserts),
                ("grants", st.synced_grants, st.grants),
                ("occupancy", st.synced_occupancy, st.occupancy),
                ("hol", st.synced_hol, st.hol_blocked),
                ("busy", st.synced_busy, st.link_busy),
            ];
            for (name, synced, total) in baselines {
                invariant!(
                    out,
                    self.component(),
                    synced <= total,
                    "port {p}: {name} synced baseline ahead of accumulator: {synced} > {total}"
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

    fn switch(arb: Arbitration) -> CxlSwitch {
        CxlSwitch::new(2, 10, 4, arb)
    }

    #[test]
    fn single_port_grants_in_arrival_order_at_link_pace() {
        let mut sw = CxlSwitch::new(1, 10, 4, Arbitration::RoundRobin);
        for k in 0..4 {
            sw.enqueue(0, k, false);
        }
        let g = sw.drain_queues();
        assert_eq!(g.len(), 4);
        let starts: Vec<u64> = g.iter().map(|x| x.start).collect();
        // First starts at its arrival, then every gap_link cycles.
        assert_eq!(starts, vec![0, 4, 8, 12]);
        assert!(g.iter().all(|x| x.depart == x.start + 10));
        assert_invariants(&sw);
    }

    #[test]
    fn round_robin_alternates_between_backlogged_ports() {
        let mut sw = switch(Arbitration::RoundRobin);
        for _ in 0..3 {
            sw.enqueue(0, 0, false);
            sw.enqueue(1, 0, true);
        }
        let order: Vec<usize> = sw.drain_queues().iter().map(|g| g.port).collect();
        assert_eq!(order, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn fifo_grants_the_oldest_head() {
        let mut sw = switch(Arbitration::Fifo);
        sw.enqueue(0, 5, false);
        sw.enqueue(1, 2, false);
        sw.enqueue(1, 3, false);
        let order: Vec<usize> = sw.drain_queues().iter().map(|g| g.port).collect();
        assert_eq!(order, vec![1, 1, 0]);
    }

    #[test]
    fn weighted_arbitration_splits_bandwidth_by_credit() {
        let mut sw = CxlSwitch::new(2, 10, 4, Arbitration::Weighted(vec![3, 1]));
        for _ in 0..8 {
            sw.enqueue(0, 0, false);
            sw.enqueue(1, 0, false);
        }
        let grants = sw.drain_queues();
        let first8: Vec<usize> = grants.iter().take(8).map(|g| g.port).collect();
        // 3:1 credit split per refill round.
        assert_eq!(first8.iter().filter(|&&p| p == 0).count(), 6);
        assert_eq!(first8.iter().filter(|&&p| p == 1).count(), 2);
    }

    #[test]
    fn stalled_port_holds_requests_and_fifo_charges_hol() {
        let mut sw = switch(Arbitration::Fifo);
        sw.stall_port(0, 100);
        sw.enqueue(0, 0, false);
        sw.enqueue(1, 1, false);
        let g = sw.drain_queues();
        // Port 1 overtakes the stalled head; port 0 waits out the stall.
        assert_eq!(g[0].port, 1);
        assert_eq!(g[1].port, 0);
        assert!(g[1].start >= 100);
        // While port 1's grant occupied the link, port 0 had a waiting
        // head — that interval is HOL-blocked time for port 0.
        assert!(sw.stats[0].hol_blocked > 0);
        sw.clear_faults();
        sw.enqueue(0, 200, false);
        let g = sw.drain_queues();
        assert_eq!(g[0].start, 200.max(sw.link.next_free() - sw.gap_link));
    }

    #[test]
    fn degraded_link_slows_every_port_and_restores() {
        let mut sw = switch(Arbitration::RoundRobin);
        sw.degrade_shared_link(8);
        sw.enqueue(0, 0, false);
        sw.enqueue(1, 0, false);
        let g = sw.drain_queues();
        assert_eq!(g[0].depart - g[0].start, 15, "latency × 3/2");
        assert_eq!(g[1].start - g[0].start, 32, "gap × 8");
        sw.clear_faults();
        assert_eq!(sw.gap_link, 4);
        assert_eq!(sw.latency_link, 10);
    }

    #[test]
    fn drain_syncs_per_port_banks_exactly_once() {
        let mut sw = switch(Arbitration::RoundRobin);
        sw.enqueue(0, 0, false);
        sw.enqueue(1, 0, true);
        let _ = sw.drain_queues();
        let mut pmu = SystemPmu::fabric(2);
        sw.drain(&mut pmu, 1000);
        for p in 0..2 {
            assert_eq!(pmu.switches[p].read(SwitchEvent::ClockTicks), 1000);
            assert_eq!(pmu.switches[p].read(SwitchEvent::IngressInserts), 1);
            assert_eq!(pmu.switches[p].read(SwitchEvent::ArbGrants), 1);
        }
        // Second drain without traffic adds clockticks only.
        sw.drain(&mut pmu, 1000);
        assert_eq!(pmu.switches[0].read(SwitchEvent::ClockTicks), 2000);
        assert_eq!(pmu.switches[0].read(SwitchEvent::IngressInserts), 1);
        assert_invariants(&sw);
    }
}
