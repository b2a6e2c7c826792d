//! The Caching-and-Home-Agent complex: LLC slices, snoop filter, TOR.
//!
//! Each CHA pairs one LLC slice with a slice of the coherence directory
//! (snoop filter) and the Table-of-Requests (TOR), the request queue whose
//! insert/occupancy counters PFBuilder and PFAnalyzer consume (paper §4.3:
//! "we find a special hardware module — called TOR — which records the
//! core-CHA mapping for different types of requests").
//!
//! The snoop filter lives in the LLC lines: each line's payload is the
//! bitmask of cores whose L2 holds it, recorded by the fill that inserts
//! the line and back-invalidated when the LLC evicts it. So every LLC miss
//! is a snoop-filter miss, and the directory needs no capacity of its own:
//! the `Machine` audit checks that each owner's L2 holds the line.
//!
//! Sub-NUMA clustering: slices are split into two clusters; a request from a
//! core in the other cluster pays `snc_latency` and is reported as an
//! SNC-distant hit, which is how the paper's `snc LLC` rows arise.

use crate::cache::{Eviction, LineState, SetAssocCache};
use crate::config::MachineConfig;
use crate::invariant;
use crate::invariants::{Invariants, Violation};
use crate::mem::{slice_of, MemNode};
use crate::queues::{Coverage, FifoServer};
use crate::request::ServeLoc;
use pmu::{Bank, ChaEvent, IaScen, PathClass, TorDrdScen, TorRfoScen, WbScen};

/// TOR request families (the counter groupings of Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TorClass {
    Drd,
    DrdPref,
    Rfo,
    RfoPref,
    Wb,
}

impl TorClass {
    pub const COUNT: usize = 5;

    pub fn idx(self) -> usize {
        match self {
            TorClass::Drd => 0,
            TorClass::DrdPref => 1,
            TorClass::Rfo => 2,
            TorClass::RfoPref => 3,
            TorClass::Wb => 4,
        }
    }

    /// TOR family for an architectural path class. SW and HW prefetches land
    /// in the `_pref` families (Table 5); demand writes appear as
    /// write-backs.
    pub fn of_path(path: PathClass) -> TorClass {
        match path {
            PathClass::Drd => TorClass::Drd,
            PathClass::SwPf | PathClass::HwPfL1 | PathClass::HwPfL2Drd => TorClass::DrdPref,
            PathClass::Rfo => TorClass::Rfo,
            PathClass::HwPfL2Rfo => TorClass::RfoPref,
            PathClass::Dwr => TorClass::Wb,
        }
    }
}

/// The outcome of a CHA lookup, before any memory access.
#[derive(Clone, Copy, Debug)]
pub enum ChaOutcome {
    /// Served by the LLC slice.
    LlcHit {
        /// Data available at the CHA at this cycle (mesh-back not included).
        finish: u64,
        /// True if the slice is in the requester's other SNC cluster.
        snc_distant: bool,
    },
    /// LLC (and so snoop-filter) miss: go to memory. `depart` is when the
    /// request leaves the CHA toward the IMC or M2PCIe.
    Miss { depart: u64 },
}

struct Slice {
    /// The LLC slice; each line's payload is its snoop-filter owner mask.
    llc: SetAssocCache<u64>,
    port: FifoServer,
}

/// All CHAs of one socket, plus the socket-scope counter plumbing.
pub struct ChaComplex {
    slices: Vec<Slice>,
    n_cores: usize,
    tag_latency: u64,
    hit_latency: u64,
    snc_latency: u64,
    /// Per-TOR-class non-empty coverage (threshold1 counters).
    tor_ne: Vec<Coverage>,
    synced_tor_ne: Vec<u64>,
}

impl ChaComplex {
    pub fn new(cfg: &MachineConfig) -> Self {
        let per_slice = cfg.llc.size_bytes / cfg.llc_slices;
        ChaComplex {
            slices: (0..cfg.llc_slices)
                .map(|_| Slice {
                    llc: SetAssocCache::with_payload(per_slice, cfg.llc.ways),
                    port: FifoServer::new(),
                })
                .collect(),
            n_cores: cfg.cores,
            tag_latency: cfg.llc.tag_latency,
            hit_latency: cfg.llc.hit_latency,
            snc_latency: cfg.snc_latency,
            tor_ne: (0..TorClass::COUNT).map(|_| Coverage::new()).collect(),
            synced_tor_ne: vec![0; TorClass::COUNT],
        }
    }

    pub fn n_slices(&self) -> usize {
        self.slices.len()
    }

    /// Stall every slice port until `until` (fault injection: a transient
    /// uncore queue stall). Pure timing — see `FifoServer::block_until`.
    pub(crate) fn stall_slices(&mut self, until: u64) {
        for s in &mut self.slices {
            s.port.block_until(until);
        }
    }

    fn cluster_of_core(&self, core: usize) -> usize {
        usize::from(core >= self.n_cores.div_ceil(2))
    }

    fn cluster_of_slice(&self, slice: usize) -> usize {
        usize::from(slice >= self.slices.len().div_ceil(2))
    }

    /// Look up a read-like request (DRd / RFO / prefetch) arriving at the
    /// CHA at `arrive` (mesh hop already paid by the caller).
    pub fn lookup(
        &mut self,
        core: usize,
        line: u64,
        rfo: bool,
        arrive: u64,
        bank: &mut Bank<ChaEvent>,
    ) -> ChaOutcome {
        let s = slice_of(line, self.slices.len());
        let snc_distant = self.cluster_of_core(core) != self.cluster_of_slice(s);
        let snc_extra = if snc_distant { self.snc_latency } else { 0 };
        let slice = &mut self.slices[s];
        let svc = slice.port.serve(arrive + snc_extra, self.tag_latency, 2);
        let t = svc.finish;
        if let Some(l) = slice.llc.lookup(line) {
            let ready = l.ready_at.max(t);
            if rfo {
                l.state = LineState::Modified;
            }
            bank.inc(ChaEvent::LlcLookupHit);
            return ChaOutcome::LlcHit {
                finish: ready + (self.hit_latency - self.tag_latency),
                snc_distant,
            };
        }
        bank.inc(ChaEvent::LlcLookupMiss);
        bank.inc(ChaEvent::SfMiss);
        ChaOutcome::Miss { depart: t }
    }

    /// Install a line into the LLC after a fill from memory, recording
    /// `core` as an owner in the same set scan. Returns the LLC eviction
    /// it displaced, if any, with the victim's owners to back-invalidate.
    pub fn fill(
        &mut self,
        core: usize,
        line: u64,
        state: LineState,
        ready_at: u64,
    ) -> Option<Eviction<u64>> {
        let s = slice_of(line, self.slices.len());
        self.slices[s]
            .llc
            .insert_with(line, state, ready_at, |owners| *owners |= 1 << core)
    }

    /// A write-back from a core's L2 (or an explicit flush) lands in the
    /// LLC, keeping the owners of a line already there. Returns the LLC
    /// eviction it displaced, if any — the caller must back-invalidate its
    /// owners and push a Modified victim to memory.
    pub fn writeback(
        &mut self,
        line: u64,
        dirty: bool,
        arrive: u64,
        bank: &mut Bank<ChaEvent>,
    ) -> (u64, Option<Eviction<u64>>) {
        let s = slice_of(line, self.slices.len());
        let svc = self.slices[s].port.serve(arrive, self.tag_latency, 2);
        let scen = if dirty { WbScen::MToI } else { WbScen::EfToI };
        bank.inc(ChaEvent::TorInsertsIaWb(scen));
        bank.add(ChaEvent::TorOccupancyIaWbMtoI, svc.finish - arrive);
        self.tor_ne[TorClass::Wb.idx()].add(arrive, svc.finish);
        let state = if dirty {
            LineState::Modified
        } else {
            LineState::Exclusive
        };
        let ev = self.slices[s].llc.insert(line, state, svc.finish);
        (svc.finish, ev)
    }

    /// Direct probe of the LLC without timing (tests / tiering heat checks).
    pub fn llc_contains(&self, line: u64) -> bool {
        let s = slice_of(line, self.slices.len());
        self.slices[s].llc.peek(line).is_some()
    }

    /// The cores the snoop filter records as holding `line`.
    #[cfg(test)]
    pub(crate) fn owners(&self, line: u64) -> u64 {
        let s = slice_of(line, self.slices.len());
        self.slices[s].llc.peek(line).map_or(0, |l| l.payload)
    }

    /// Remove the cores in `cores` from `line`'s owners, without touching
    /// LRU, and return those that were owners.
    pub(crate) fn take_owners(&mut self, line: u64, cores: u64) -> u64 {
        let s = slice_of(line, self.slices.len());
        self.slices[s].llc.peek_mut(line).map_or(0, |l| {
            let taken = l.payload & cores;
            l.payload &= !taken;
            taken
        })
    }

    /// Every LLC line with at least one owner, as `(line, owners)`.
    pub(crate) fn owned_lines(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.slices
            .iter()
            .flat_map(|s| s.llc.iter())
            .filter_map(|l| (l.payload != 0).then_some((l.tag, l.payload)))
    }

    /// Record TOR insert/occupancy/threshold counters for one completed
    /// read-like request. `loc` is where it was ultimately served; `finish`
    /// is when the TOR entry deallocated (data returned to the core side).
    pub fn account_tor(
        &mut self,
        bank: &mut Bank<ChaEvent>,
        path: PathClass,
        loc: ServeLoc,
        node: MemNode,
        arrive: u64,
        finish: u64,
    ) {
        let class = TorClass::of_path(path);
        let resid = finish.saturating_sub(arrive);
        self.tor_ne[class.idx()].add(arrive, finish);

        // .ia aggregate family (4 scenarios).
        let hit_llc = matches!(loc, ServeLoc::LocalLlc | ServeLoc::SncLlc);
        bank.inc(ChaEvent::TorInsertsIa(IaScen::Total));
        bank.add(ChaEvent::TorOccupancyIa(IaScen::Total), resid);
        if hit_llc {
            bank.inc(ChaEvent::TorInsertsIa(IaScen::HitLlc));
            bank.add(ChaEvent::TorOccupancyIa(IaScen::HitLlc), resid);
        } else {
            bank.inc(ChaEvent::TorInsertsIa(IaScen::MissLlc));
            bank.add(ChaEvent::TorOccupancyIa(IaScen::MissLlc), resid);
            if loc == ServeLoc::CxlDram {
                bank.inc(ChaEvent::TorInsertsIa(IaScen::MissCxl));
                bank.add(ChaEvent::TorOccupancyIa(IaScen::MissCxl), resid);
            }
        }

        // Per-class scenario loops, specialized so the class test runs once
        // per request instead of once per scenario and each arm constructs
        // its events directly (every `index()` folds to base + scen).
        // Threshold1 ≈ cycles the class had an entry; a per-request
        // residency add is an upper bound refined by the per-class coverage
        // at sync time for the Total scenario.
        match class {
            TorClass::Drd => {
                for &scen in drd_scens(loc, node) {
                    bank.inc(ChaEvent::TorInsertsIaDrd(scen));
                    bank.add(ChaEvent::TorOccupancyIaDrd(scen), resid);
                    if scen != TorDrdScen::Total {
                        bank.add(ChaEvent::TorThreshold1IaDrd(scen), resid);
                    }
                }
            }
            TorClass::DrdPref => {
                for &scen in drd_scens(loc, node) {
                    bank.inc(ChaEvent::TorInsertsIaDrdPref(scen));
                    bank.add(ChaEvent::TorOccupancyIaDrdPref(scen), resid);
                    if scen != TorDrdScen::Total {
                        bank.add(ChaEvent::TorThreshold1IaDrdPref(scen), resid);
                    }
                }
            }
            TorClass::Rfo => {
                for &scen in rfo_scens(loc, node) {
                    bank.inc(ChaEvent::TorInsertsIaRfo(scen));
                    bank.add(ChaEvent::TorOccupancyIaRfo(scen), resid);
                    if scen != TorRfoScen::Total {
                        bank.add(ChaEvent::TorThreshold1IaRfo(scen), resid);
                    }
                }
            }
            TorClass::RfoPref => {
                for &scen in rfo_scens(loc, node) {
                    bank.inc(ChaEvent::TorInsertsIaRfoPref(scen));
                    bank.add(ChaEvent::TorOccupancyIaRfoPref(scen), resid);
                    if scen != TorRfoScen::Total {
                        bank.add(ChaEvent::TorThreshold1IaRfoPref(scen), resid);
                    }
                }
            }
            TorClass::Wb => {}
        }
    }

    /// Epoch-boundary counter flush: clock ticks and per-class threshold1
    /// coverage (Total scenarios).
    pub fn sync_counters(&mut self, bank: &mut Bank<ChaEvent>, epoch_cycles: u64) {
        bank.add(ChaEvent::ClockTicks, epoch_cycles);
        for class in [
            TorClass::Drd,
            TorClass::DrdPref,
            TorClass::Rfo,
            TorClass::RfoPref,
            TorClass::Wb,
        ] {
            let cov = self.tor_ne[class.idx()].total();
            let delta = cov - self.synced_tor_ne[class.idx()];
            self.synced_tor_ne[class.idx()] = cov;
            match class {
                TorClass::Drd => bank.add(ChaEvent::TorThreshold1IaDrd(TorDrdScen::Total), delta),
                TorClass::DrdPref => {
                    bank.add(ChaEvent::TorThreshold1IaDrdPref(TorDrdScen::Total), delta)
                }
                TorClass::Rfo => bank.add(ChaEvent::TorThreshold1IaRfo(TorRfoScen::Total), delta),
                TorClass::RfoPref => {
                    bank.add(ChaEvent::TorThreshold1IaRfoPref(TorRfoScen::Total), delta)
                }
                TorClass::Wb => bank.add(ChaEvent::TorThreshold1Ia(IaScen::Total), delta),
            }
        }
    }
}

impl crate::module::SimModule for ChaComplex {
    fn stage_id(&self) -> crate::module::StageId {
        crate::module::StageId::cha()
    }

    fn name(&self) -> &'static str {
        "module.cha"
    }

    fn tick(&mut self, _until: u64) {}

    fn drain(&mut self, pmu: &mut pmu::SystemPmu, epoch_cycles: u64) {
        self.sync_counters(&mut pmu.chas[0], epoch_cycles);
    }
}

impl Invariants for ChaComplex {
    fn component(&self) -> &'static str {
        "cha::ChaComplex"
    }

    fn collect_violations(&self, out: &mut Vec<Violation>) {
        for slice in &self.slices {
            slice.port.collect_violations(out);
        }
        for (i, cov) in self.tor_ne.iter().enumerate() {
            cov.collect_violations(out);
            // The flushed TOR baseline can never run ahead of its coverage.
            invariant!(
                out,
                self.component(),
                self.synced_tor_ne[i] <= cov.total(),
                "TOR class {} synced baseline ahead of coverage: synced={} total={}",
                i,
                self.synced_tor_ne[i],
                cov.total()
            );
        }
    }
}

/// The TOR DRd scenarios a completed request contributes to (Table 2).
/// Static slices: this runs once per offcore request, so it must not
/// allocate (see PERFORMANCE.md) — the scenario sets are fixed per serve
/// location.
pub fn drd_scens(loc: ServeLoc, node: MemNode) -> &'static [TorDrdScen] {
    use TorDrdScen::*;
    match loc {
        ServeLoc::LocalLlc | ServeLoc::SncLlc => &[Total, HitLlc],
        ServeLoc::PeerCache => &[Total, MissLlc, MissLocal],
        ServeLoc::RemoteLlc => &[Total, MissLlc, MissRemote],
        ServeLoc::LocalDram => &[Total, MissLlc, MissDdr, MissLocal, MissLocalDdr],
        ServeLoc::RemoteDram => &[Total, MissLlc, MissDdr, MissRemote, MissRemoteDdr],
        ServeLoc::CxlDram => &[Total, MissLlc, MissCxl],
        _ => {
            debug_assert_eq!(node.is_cxl(), loc == ServeLoc::CxlDram || !node.is_cxl());
            &[Total]
        }
    }
}

/// The TOR RFO scenarios a completed request contributes to.
pub fn rfo_scens(loc: ServeLoc, _node: MemNode) -> &'static [TorRfoScen] {
    use TorRfoScen::*;
    match loc {
        ServeLoc::LocalLlc | ServeLoc::SncLlc => &[Total, HitLlc],
        ServeLoc::PeerCache | ServeLoc::LocalDram => &[Total, MissLlc, MissLocal],
        ServeLoc::RemoteLlc | ServeLoc::RemoteDram => &[Total, MissLlc, MissRemote],
        ServeLoc::CxlDram => &[Total, MissLlc, MissCxl],
        _ => &[Total],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ChaComplex, Bank<ChaEvent>) {
        (ChaComplex::new(&MachineConfig::tiny()), Bank::new())
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let (mut cha, mut bank) = setup();
        let out = cha.lookup(0, 42, false, 100, &mut bank);
        assert!(matches!(out, ChaOutcome::Miss { .. }));
        cha.fill(0, 42, LineState::Exclusive, 500);
        let out2 = cha.lookup(0, 42, false, 600, &mut bank);
        assert!(matches!(out2, ChaOutcome::LlcHit { .. }), "{out2:?}");
        assert_eq!(bank.read(ChaEvent::LlcLookupHit), 1);
        assert_eq!(bank.read(ChaEvent::LlcLookupMiss), 1);
        assert_eq!(bank.read(ChaEvent::SfMiss), 1);
    }

    #[test]
    fn fill_records_owner_in_directory() {
        let (mut cha, mut bank) = setup();
        assert_eq!(cha.fill(2, 13, LineState::Exclusive, 0), None);
        cha.fill(0, 13, LineState::Exclusive, 0);
        // Lookups and write-backs keep the owners of a resident line.
        cha.lookup(1, 13, true, 0, &mut bank);
        cha.writeback(13, true, 0, &mut bank);
        assert_eq!(cha.owners(13), 0b101);
        assert_eq!(cha.take_owners(13, !0b1), 0b100);
        assert_eq!(cha.owners(13), 0b1);
        assert_eq!(cha.take_owners(14, !0), 0, "absent line has no owners");
    }

    #[test]
    fn writeback_lands_in_llc_and_counts_wb_scenario() {
        let (mut cha, mut bank) = setup();
        let (_fin, _ev) = cha.writeback(77, true, 10, &mut bank);
        assert!(cha.llc_contains(77));
        assert_eq!(bank.read(ChaEvent::TorInsertsIaWb(WbScen::MToI)), 1);
        let (_f2, _e2) = cha.writeback(78, false, 20, &mut bank);
        assert_eq!(bank.read(ChaEvent::TorInsertsIaWb(WbScen::EfToI)), 1);
    }

    #[test]
    fn account_tor_cxl_scenarios() {
        let (mut cha, mut bank) = setup();
        cha.account_tor(
            &mut bank,
            PathClass::Drd,
            ServeLoc::CxlDram,
            MemNode::CxlDram(0),
            100,
            800,
        );
        assert_eq!(bank.read(ChaEvent::TorInsertsIaDrd(TorDrdScen::Total)), 1);
        assert_eq!(bank.read(ChaEvent::TorInsertsIaDrd(TorDrdScen::MissLlc)), 1);
        assert_eq!(bank.read(ChaEvent::TorInsertsIaDrd(TorDrdScen::MissCxl)), 1);
        assert_eq!(
            bank.read(ChaEvent::TorOccupancyIaDrd(TorDrdScen::MissCxl)),
            700
        );
        assert_eq!(bank.read(ChaEvent::TorInsertsIa(IaScen::MissCxl)), 1);
    }

    #[test]
    fn account_tor_prefetch_family() {
        let (mut cha, mut bank) = setup();
        cha.account_tor(
            &mut bank,
            PathClass::HwPfL2Drd,
            ServeLoc::LocalDram,
            MemNode::LocalDram,
            0,
            300,
        );
        assert_eq!(
            bank.read(ChaEvent::TorInsertsIaDrdPref(TorDrdScen::Total)),
            1
        );
        assert_eq!(
            bank.read(ChaEvent::TorInsertsIaDrdPref(TorDrdScen::MissLocalDdr)),
            1
        );
        assert_eq!(bank.read(ChaEvent::TorInsertsIaDrd(TorDrdScen::Total)), 0);
    }

    #[test]
    fn snc_distance_depends_on_clusters() {
        let (mut cha, mut bank) = setup();
        // With 2 slices and 2 cores, core 0 is cluster 0; find a line on
        // slice 1 to force distance.
        let mut distant_line = None;
        for line in 0..1000 {
            if slice_of(line, cha.n_slices()) == 1 {
                distant_line = Some(line);
                break;
            }
        }
        let line = distant_line.unwrap();
        cha.fill(0, line, LineState::Exclusive, 0);
        match cha.lookup(0, line, false, 0, &mut bank) {
            ChaOutcome::LlcHit { snc_distant, .. } => assert!(snc_distant),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn sync_counters_flush_threshold_totals() {
        let (mut cha, mut bank) = setup();
        cha.account_tor(
            &mut bank,
            PathClass::Drd,
            ServeLoc::LocalDram,
            MemNode::LocalDram,
            0,
            250,
        );
        cha.sync_counters(&mut bank, 1_000);
        assert_eq!(
            bank.read(ChaEvent::TorThreshold1IaDrd(TorDrdScen::Total)),
            250
        );
        assert_eq!(bank.read(ChaEvent::ClockTicks), 1_000);
        cha.sync_counters(&mut bank, 1_000);
        assert_eq!(
            bank.read(ChaEvent::TorThreshold1IaDrd(TorDrdScen::Total)),
            250
        );
    }
}
