//! Whole-machine counter files and snapshot machinery.
//!
//! PathFinder "takes a snapshot of all PMUs at the end of every OS
//! scheduling epoch" (§4.2). [`SystemPmu`] is the live counter state the
//! simulator increments; [`SystemSnapshot`] is an O(#counters) copy taken at
//! an epoch boundary; [`SystemDelta`] is the difference between two
//! snapshots — the digest the four PathFinder techniques consume.

use crate::bank::Bank;
use crate::event::{
    ChaEvent, CoreEvent, CxlEvent, Event, ImcEvent, M2pEvent, PoolEvent, SwitchEvent,
};

/// The live PMU state for a whole machine.
///
/// Topology: `cores[c]` per logical core; `chas[s]` one CHA bank per
/// socket, summed over its LLC slices (real machines expose one per slice;
/// the simulator models one local socket, and its `simarch::cha` complex
/// counts every slice straight into `chas[0]`); `imcs[ch]` per local DRAM
/// pseudo-channel; `m2ps[e]` per CXL endpoint (FlexBus RC); `cxls[d]` per
/// CXL device.
#[derive(Clone, Debug)]
pub struct SystemPmu {
    pub cores: Vec<Bank<CoreEvent>>,
    pub chas: Vec<Bank<ChaEvent>>,
    pub imcs: Vec<Bank<ImcEvent>>,
    pub m2ps: Vec<Bank<M2pEvent>>,
    pub cxls: Vec<Bank<CxlEvent>>,
    /// CXL switch banks, one per upstream port. Empty for a single-host
    /// machine PMU — only the fabric-level PMU (`SystemPmu::fabric`)
    /// populates these, so every existing machine snapshot stays
    /// byte-identical.
    pub switches: Vec<Bank<SwitchEvent>>,
    /// Pooled Type-3 device banks, one per tenant host. Empty for a
    /// single-host machine PMU.
    pub pools: Vec<Bank<PoolEvent>>,
}

impl SystemPmu {
    /// Build a zeroed PMU state for the given topology.
    pub fn new(
        n_cores: usize,
        n_sockets: usize,
        n_channels: usize,
        n_endpoints: usize,
        n_devices: usize,
    ) -> Self {
        SystemPmu {
            cores: (0..n_cores).map(|_| Bank::new()).collect(),
            chas: (0..n_sockets).map(|_| Bank::new()).collect(),
            imcs: (0..n_channels).map(|_| Bank::new()).collect(),
            m2ps: (0..n_endpoints).map(|_| Bank::new()).collect(),
            cxls: (0..n_devices).map(|_| Bank::new()).collect(),
            switches: Vec::new(),
            pools: Vec::new(),
        }
    }

    /// Build the fabric-level counter file: switch banks for `n_ports`
    /// upstream ports and pooled-device banks for the same number of
    /// tenant hosts (one port per host), no machine-side banks.
    pub fn fabric(n_ports: usize) -> Self {
        SystemPmu {
            cores: Vec::new(),
            chas: Vec::new(),
            imcs: Vec::new(),
            m2ps: Vec::new(),
            cxls: Vec::new(),
            switches: (0..n_ports).map(|_| Bank::new()).collect(),
            pools: (0..n_ports).map(|_| Bank::new()).collect(),
        }
    }

    /// Capture the current counter values.
    pub fn snapshot(&self, cycle: u64) -> SystemSnapshot {
        SystemSnapshot {
            cycle,
            pmu: self.clone(),
        }
    }

    /// Overwrite this PMU state with a copy of `other`, reusing every
    /// existing bank allocation when the topologies match (the snapshot-
    /// pooling fast path; see PERFORMANCE.md). Falls back to a plain clone
    /// per bank list on a topology mismatch.
    pub fn copy_from(&mut self, other: &SystemPmu) {
        fn copy_banks<E: Event>(dst: &mut Vec<Bank<E>>, src: &[Bank<E>]) {
            if dst.len() == src.len() {
                for (d, s) in dst.iter_mut().zip(src.iter()) {
                    d.copy_from(s);
                }
            } else {
                *dst = src.to_vec();
            }
        }
        copy_banks(&mut self.cores, &other.cores);
        copy_banks(&mut self.chas, &other.chas);
        copy_banks(&mut self.imcs, &other.imcs);
        copy_banks(&mut self.m2ps, &other.m2ps);
        copy_banks(&mut self.cxls, &other.cxls);
        copy_banks(&mut self.switches, &other.switches);
        copy_banks(&mut self.pools, &other.pools);
    }

    /// Write every counter, summed over its banks, into `out` (cleared
    /// first) in registry order: one column per entry of
    /// [`crate::registry::all_events`], each PMU's events in index order.
    /// Counters are free-running, so these are the totals since the
    /// machine was built; they reuse `out`'s allocation.
    pub fn totals_into(&self, out: &mut Vec<u64>) {
        fn sum<E: Event>(out: &mut Vec<u64>, banks: &[Bank<E>]) {
            let start = out.len();
            out.resize(start + E::CARD, 0);
            for bank in banks {
                for (total, v) in out[start..].iter_mut().zip(bank.raw()) {
                    *total += *v;
                }
            }
        }
        out.clear();
        sum(out, &self.cores);
        sum(out, &self.chas);
        sum(out, &self.imcs);
        sum(out, &self.m2ps);
        sum(out, &self.cxls);
        sum(out, &self.switches);
        sum(out, &self.pools);
    }

    /// Approximate resident size of the counter state in bytes. Used by the
    /// overhead accounting of §5.9.
    pub fn footprint_bytes(&self) -> usize {
        let per = |n_banks: usize, card: usize| n_banks * card * core::mem::size_of::<u64>();
        per(self.cores.len(), CoreEvent::CARD)
            + per(self.chas.len(), ChaEvent::CARD)
            + per(self.imcs.len(), ImcEvent::CARD)
            + per(self.m2ps.len(), M2pEvent::CARD)
            + per(self.cxls.len(), CxlEvent::CARD)
            + per(self.switches.len(), SwitchEvent::CARD)
            + per(self.pools.len(), PoolEvent::CARD)
    }
}

/// A point-in-time copy of all counters, tagged with the machine cycle.
#[derive(Clone, Debug)]
pub struct SystemSnapshot {
    /// The machine cycle at which the snapshot was taken.
    pub cycle: u64,
    /// The counter values.
    pub pmu: SystemPmu,
}

impl SystemSnapshot {
    /// Resident bytes of the retained snapshot (§5.9 overhead accounting):
    /// the counter copy plus the struct header.
    pub fn footprint_bytes(&self) -> usize {
        core::mem::size_of::<SystemSnapshot>() + self.pmu.footprint_bytes()
    }

    /// Overwrite this snapshot in place from the live counter state,
    /// reusing its allocations (see [`SystemPmu::copy_from`]).
    pub fn copy_from(&mut self, pmu: &SystemPmu, cycle: u64) {
        self.cycle = cycle;
        self.pmu.copy_from(pmu);
    }

    /// The per-epoch digest: `self - earlier` for every counter.
    ///
    /// Panics if the two snapshots come from machines with different
    /// topologies (different bank counts).
    pub fn delta(&self, earlier: &SystemSnapshot) -> SystemDelta {
        fn zip<E: Event>(a: &[Bank<E>], b: &[Bank<E>]) -> Vec<Bank<E>> {
            assert_eq!(a.len(), b.len(), "topology mismatch");
            a.iter()
                .zip(b.iter())
                .map(|(now, then)| now.delta(then))
                .collect()
        }
        SystemDelta {
            start_cycle: earlier.cycle,
            end_cycle: self.cycle,
            pmu: SystemPmu {
                cores: zip(&self.pmu.cores, &earlier.pmu.cores),
                chas: zip(&self.pmu.chas, &earlier.pmu.chas),
                imcs: zip(&self.pmu.imcs, &earlier.pmu.imcs),
                m2ps: zip(&self.pmu.m2ps, &earlier.pmu.m2ps),
                cxls: zip(&self.pmu.cxls, &earlier.pmu.cxls),
                switches: zip(&self.pmu.switches, &earlier.pmu.switches),
                pools: zip(&self.pmu.pools, &earlier.pmu.pools),
            },
        }
    }
}

/// Counter activity over one profiling epoch (`[start_cycle, end_cycle)`).
#[derive(Clone, Debug)]
pub struct SystemDelta {
    pub start_cycle: u64,
    pub end_cycle: u64,
    /// Per-epoch counter increments, bank-shaped like the live PMU.
    pub pmu: SystemPmu,
}

impl SystemDelta {
    /// Epoch length in cycles.
    pub fn cycles(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }

    /// Sum of a core event across all cores.
    pub fn core_sum(&self, ev: CoreEvent) -> u64 {
        self.pmu.cores.iter().map(|b| b.read(ev)).sum()
    }

    /// Sum of a CHA event across all sockets.
    pub fn cha_sum(&self, ev: ChaEvent) -> u64 {
        self.pmu.chas.iter().map(|b| b.read(ev)).sum()
    }

    /// Sum of an IMC event across all channels.
    pub fn imc_sum(&self, ev: ImcEvent) -> u64 {
        self.pmu.imcs.iter().map(|b| b.read(ev)).sum()
    }

    /// Sum of an M2PCIe event across all endpoints.
    pub fn m2p_sum(&self, ev: M2pEvent) -> u64 {
        self.pmu.m2ps.iter().map(|b| b.read(ev)).sum()
    }

    /// Sum of a CXL-device event across all devices.
    pub fn cxl_sum(&self, ev: CxlEvent) -> u64 {
        self.pmu.cxls.iter().map(|b| b.read(ev)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{all_events, PmuKind};

    fn tiny() -> SystemPmu {
        SystemPmu::new(2, 1, 2, 1, 1)
    }

    /// Give every counter of every bank its own value: `salt` tells the
    /// PMU kinds apart, the bank number and the event index the rest.
    fn fill<E: Event>(banks: &mut [Bank<E>], events: Vec<E>, salt: u64) {
        for (b, bank) in banks.iter_mut().enumerate() {
            for &e in &events {
                bank.add(e, salt + ((b as u64) << 16) + e.index() as u64 + 1);
            }
        }
    }

    fn column<E: Event>(banks: &[Bank<E>], index: usize) -> u64 {
        banks.iter().map(|b| b.raw()[index]).sum()
    }

    #[test]
    fn totals_sum_each_counter_over_its_banks_in_registry_order() {
        let mut pmu = SystemPmu::new(2, 2, 2, 2, 2);
        let fabric = SystemPmu::fabric(2);
        pmu.switches = fabric.switches;
        pmu.pools = fabric.pools;
        fill(&mut pmu.cores, CoreEvent::all(), 1 << 32);
        fill(&mut pmu.chas, ChaEvent::all(), 2 << 32);
        fill(&mut pmu.imcs, ImcEvent::all(), 3 << 32);
        fill(&mut pmu.m2ps, M2pEvent::all(), 4 << 32);
        fill(&mut pmu.cxls, CxlEvent::all(), 5 << 32);
        fill(&mut pmu.switches, SwitchEvent::all(), 6 << 32);
        fill(&mut pmu.pools, PoolEvent::all(), 7 << 32);
        // Stale contents are replaced, not added to.
        let mut totals = vec![9; 3];
        pmu.totals_into(&mut totals);
        let events = all_events();
        assert_eq!(totals.len(), events.len());
        for (total, e) in totals.iter().zip(&events) {
            let want = match e.pmu {
                PmuKind::Core => column(&pmu.cores, e.index),
                PmuKind::Cha => column(&pmu.chas, e.index),
                PmuKind::Imc => column(&pmu.imcs, e.index),
                PmuKind::M2Pcie => column(&pmu.m2ps, e.index),
                PmuKind::CxlDevice => column(&pmu.cxls, e.index),
                PmuKind::CxlSwitch => column(&pmu.switches, e.index),
                PmuKind::CxlPool => column(&pmu.pools, e.index),
            };
            assert_eq!(*total, want, "column of {}", e.name);
        }
    }

    #[test]
    fn snapshot_delta_isolates_epoch_activity() {
        let mut pmu = tiny();
        pmu.cores[0].add(CoreEvent::InstRetired, 100);
        let s1 = pmu.snapshot(1000);
        pmu.cores[0].add(CoreEvent::InstRetired, 50);
        pmu.cores[1].add(CoreEvent::InstRetired, 7);
        pmu.cxls[0].add(CxlEvent::RxcPackBufInsertsMemReq, 3);
        let s2 = pmu.snapshot(2000);
        let d = s2.delta(&s1);
        assert_eq!(d.cycles(), 1000);
        assert_eq!(d.pmu.cores[0].read(CoreEvent::InstRetired), 50);
        assert_eq!(d.pmu.cores[1].read(CoreEvent::InstRetired), 7);
        assert_eq!(d.core_sum(CoreEvent::InstRetired), 57);
        assert_eq!(d.cxl_sum(CxlEvent::RxcPackBufInsertsMemReq), 3);
    }

    #[test]
    #[should_panic(expected = "topology mismatch")]
    fn delta_rejects_mismatched_topologies() {
        let a = tiny().snapshot(0);
        let b = SystemPmu::new(4, 1, 2, 1, 1).snapshot(1);
        let _ = b.delta(&a);
    }

    #[test]
    fn footprint_is_nonzero_and_reasonable() {
        let pmu = SystemPmu::new(32, 2, 8, 2, 2);
        let fp = pmu.footprint_bytes();
        assert!(fp > 0);
        // The paper reports a ~38MB total footprint for PathFinder; the raw
        // counter state itself must be far below that.
        assert!(fp < 4 << 20, "counter state unexpectedly large: {fp}");
    }
}
