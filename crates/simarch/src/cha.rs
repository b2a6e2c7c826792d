//! The Caching-and-Home-Agent complex: LLC slices, snoop filter, TOR.
//!
//! Each CHA pairs one LLC slice with a slice of the coherence directory
//! (snoop filter) and the Table-of-Requests (TOR), the request queue whose
//! insert/occupancy counters PFBuilder and PFAnalyzer consume (paper §4.3:
//! "we find a special hardware module — called TOR — which records the
//! core-CHA mapping for different types of requests").
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
    /// The snoop filter says peer core(s) may hold the line: the machine
    /// must probe those private caches.
    PeerProbe {
        /// Bitmask of candidate cores.
        owners: u64,
        /// Directory believes the line is modified somewhere.
        dirty: bool,
        /// Cycle at which the probe (snoop) responses are in.
        finish: u64,
        snc_distant: bool,
    },
    /// True LLC + SF miss: go to memory. `depart` is when the request leaves
    /// the CHA toward the IMC or M2PCIe.
    Miss { depart: u64, snc_distant: bool },
}

#[derive(Clone, Copy, Debug, Default)]
struct DirEntry {
    owners: u64,
    dirty: bool,
    /// Insertion number of this residency; its `order` slot carries the
    /// same number, so slots left by earlier residencies read as stale.
    seq: u64,
}

/// The snoop filter: a capacity-bounded coherence directory over all
/// private-cache lines in the socket.
///
/// The directory is an open-addressed [`LineMap`] rather than the seed's
/// BTreeMap: every probe/record/clear is keyed by line, and victim
/// selection reads only the FIFO `order` queue — never map iteration
/// order — so the swap is invisible to the counter stream while removing
/// a per-miss tree allocation (`record` was 6% of profiled time).
#[derive(Debug, Default)]
pub struct SnoopFilter {
    entries: crate::arena::LineMap<DirEntry>,
    /// FIFO victimisation order as `(line, seq)` slots. Clearing an entry
    /// leaves its slot behind as stale; stale slots are skipped at
    /// overflow and dropped in bulk once the queue passes twice the
    /// capacity, so the queue stays bounded while entries churn.
    order: std::collections::VecDeque<(u64, u64)>,
    /// Insertion counter stamped into each new entry and its slot.
    next_seq: u64,
    capacity: usize,
}

/// Is `(line, seq)` the queue slot of `line`'s current residency?
fn is_live(entries: &crate::arena::LineMap<DirEntry>, (line, seq): (u64, u64)) -> bool {
    entries.get(line).is_some_and(|e| e.seq == seq)
}

impl SnoopFilter {
    pub fn new(capacity: usize) -> Self {
        SnoopFilter {
            entries: crate::arena::LineMap::new(),
            order: std::collections::VecDeque::new(),
            next_seq: 0,
            capacity: capacity.max(16),
        }
    }

    /// Record that `core` now holds `line`. Returns a victim line whose
    /// owners must be back-invalidated if the directory overflowed.
    // pflint::hot
    pub fn record(&mut self, line: u64, core: usize, dirty: bool) -> Option<(u64, u64)> {
        if let Some(e) = self.entries.get_mut(line) {
            e.owners |= 1 << core;
            e.dirty |= dirty;
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.insert(
            line,
            DirEntry {
                owners: 1 << core,
                dirty,
                seq,
            },
        );
        self.order.push_back((line, seq));
        if self.order.len() > 2 * self.capacity {
            let entries = &self.entries;
            self.order.retain(|&slot| is_live(entries, slot));
        }
        if self.entries.len() > self.capacity {
            // FIFO victimisation over live slots. The new entry's slot is
            // last, and more than `capacity` live slots precede it.
            while let Some(slot) = self.order.pop_front() {
                if is_live(&self.entries, slot) {
                    let owners = self.entries.remove(slot.0).map_or(0, |e| e.owners);
                    return Some((slot.0, owners));
                }
            }
        }
        None
    }

    /// Look the line up without modifying it.
    // pflint::hot
    pub fn probe(&self, line: u64) -> Option<(u64, bool)> {
        self.entries.get(line).map(|e| (e.owners, e.dirty))
    }

    /// Drop `core` from the owner set (eviction/invalidation upstream).
    // pflint::hot
    pub fn clear(&mut self, line: u64, core: usize) {
        if let Some(e) = self.entries.get_mut(line) {
            e.owners &= !(1 << core);
            if e.owners == 0 {
                self.entries.remove(line);
            }
        }
    }

    /// Remove the whole entry (line left all private caches).
    pub fn drop_line(&mut self, line: u64) {
        self.entries.remove(line);
    }

    /// Mark the line dirty (a core wrote it).
    pub fn mark_dirty(&mut self, line: u64) {
        if let Some(e) = self.entries.get_mut(line) {
            e.dirty = true;
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Invariants for SnoopFilter {
    fn component(&self) -> &'static str {
        "cha::SnoopFilter"
    }

    fn collect_violations(&self, out: &mut Vec<Violation>) {
        // Capacity bound: record() victimises before returning, so the
        // directory never rests above its capacity.
        invariant!(
            out,
            self.component(),
            self.entries.len() <= self.capacity,
            "directory overflow: entries={} capacity={}",
            self.entries.len(),
            self.capacity
        );
        // Ownership conservation: an entry with no owners must have been
        // removed (clear() drops empties eagerly).
        let mut ownerless = false;
        self.entries.for_each(|_, e| ownerless |= e.owners == 0);
        invariant!(
            out,
            self.component(),
            !ownerless,
            "ownerless directory entries present"
        );
        // The FIFO order queue tracks at least every live entry (it may
        // additionally hold stale slots awaiting compaction), and
        // compaction bounds it.
        invariant!(
            out,
            self.component(),
            self.order.len() >= self.entries.len(),
            "order queue lost entries: order={} entries={}",
            self.order.len(),
            self.entries.len()
        );
        invariant!(
            out,
            self.component(),
            self.order.len() <= 2 * self.capacity,
            "order queue unbounded: order={} capacity={}",
            self.order.len(),
            self.capacity
        );
    }
}

struct Slice {
    llc: SetAssocCache,
    port: FifoServer,
}

/// All CHAs of one socket, plus the socket-scope counter plumbing.
pub struct ChaComplex {
    slices: Vec<Slice>,
    pub sf: SnoopFilter,
    n_cores: usize,
    tag_latency: u64,
    hit_latency: u64,
    mesh_latency: u64,
    snc_latency: u64,
    /// Per-TOR-class non-empty coverage (threshold1 counters).
    tor_ne: Vec<Coverage>,
    synced_tor_ne: Vec<u64>,
}

impl ChaComplex {
    pub fn new(cfg: &MachineConfig) -> Self {
        let per_slice = cfg.llc.size_bytes / cfg.llc_slices;
        // SF sized to cover all private caches with 1.5x slack, as on real
        // parts; undersizing causes back-invalidations (SfEviction).
        let private_lines =
            cfg.cores * (cfg.l1d.size_bytes + cfg.l2.size_bytes) / crate::mem::CACHELINE;
        ChaComplex {
            slices: (0..cfg.llc_slices)
                .map(|_| Slice {
                    llc: SetAssocCache::new(per_slice, cfg.llc.ways),
                    port: FifoServer::new(),
                })
                .collect(),
            sf: SnoopFilter::new(private_lines * 3 / 2),
            n_cores: cfg.cores,
            tag_latency: cfg.llc.tag_latency,
            hit_latency: cfg.llc.hit_latency,
            mesh_latency: cfg.mesh_latency,
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
            l.prefetched = false;
            if rfo {
                l.state = LineState::Modified;
            }
            bank.inc(ChaEvent::LlcLookupHit);
            let owners_to_invalidate = if rfo {
                self.sf.probe(line).map(|(o, _)| o)
            } else {
                None
            };
            if let Some(owners) = owners_to_invalidate {
                // Ownership transfer: peers must drop their copies; the
                // machine handles the actual private-cache invalidations via
                // the PeerProbe path only on LLC miss, so for an LLC hit we
                // invalidate eagerly through the directory.
                let _ = owners;
            }
            return ChaOutcome::LlcHit {
                finish: ready + (self.hit_latency - self.tag_latency),
                snc_distant,
            };
        }
        bank.inc(ChaEvent::LlcLookupMiss);
        // Snoop filter consultation.
        match self.sf.probe(line) {
            Some((owners, dirty)) if owners & !(1 << core) != 0 => {
                bank.inc(ChaEvent::SfHit);
                bank.inc(ChaEvent::SnoopLocalSent);
                let probe_done = t + 2 * self.mesh_latency + self.tag_latency;
                ChaOutcome::PeerProbe {
                    owners: owners & !(1 << core),
                    dirty,
                    finish: probe_done,
                    snc_distant,
                }
            }
            _ => {
                bank.inc(ChaEvent::SfMiss);
                ChaOutcome::Miss {
                    depart: t,
                    snc_distant,
                }
            }
        }
    }

    /// Install a line into the LLC after a fill from memory or a peer, and
    /// record the requester in the snoop filter. Returns (llc_eviction,
    /// sf_back_invalidation).
    pub fn fill(
        &mut self,
        core: usize,
        line: u64,
        state: LineState,
        ready_at: u64,
        prefetched: bool,
        bank: &mut Bank<ChaEvent>,
    ) -> (Option<Eviction>, Option<(u64, u64)>) {
        let s = slice_of(line, self.slices.len());
        let ev = self.slices[s].llc.insert(line, state, ready_at, prefetched);
        let dirty = state == LineState::Modified;
        let sf_victim = self.sf.record(line, core, dirty);
        if sf_victim.is_some() {
            bank.inc(ChaEvent::SfEviction);
        }
        (ev, sf_victim)
    }

    /// A write-back from a core's L2 (or an explicit flush) lands in the
    /// LLC. Returns the LLC eviction it displaced, if any — the caller must
    /// push a Modified victim to memory.
    pub fn writeback(
        &mut self,
        line: u64,
        dirty: bool,
        arrive: u64,
        bank: &mut Bank<ChaEvent>,
    ) -> (u64, Option<Eviction>) {
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
        let ev = self.slices[s].llc.insert(line, state, svc.finish, false);
        (svc.finish, ev)
    }

    /// Direct probe of the LLC without timing (tests / tiering heat checks).
    pub fn llc_contains(&self, line: u64) -> bool {
        let s = slice_of(line, self.slices.len());
        self.slices[s].llc.peek(line).is_some()
    }

    /// Drop a line from the LLC (used for inclusive back-invalidation).
    pub fn llc_invalidate(&mut self, line: u64) -> Option<LineState> {
        let s = slice_of(line, self.slices.len());
        self.slices[s].llc.invalidate(line)
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
    // pflint::hot
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

    // pflint::hot
    fn tick(&mut self, _until: u64) {}

    // pflint::hot
    fn drain(&mut self, pmu: &mut pmu::SystemPmu, epoch_cycles: u64) {
        self.sync_counters(&mut pmu.chas[0], epoch_cycles);
    }

    fn counters(&self) -> &'static [&'static str] {
        crate::module::registered(&[
            "unc_cha_clockticks",
            "unc_cha_llc_lookup.hit",
            "unc_cha_llc_lookup.miss",
            "unc_cha_sf_lookup.hit",
            "unc_cha_sf_lookup.miss",
            "unc_cha_sf_eviction",
            "unc_cha_snoop_resp.hitm",
            "unc_cha_snoop_resp.hit",
            "unc_cha_snoop_resp.miss",
        ])
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
        self.sf.collect_violations(out);
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
        cha.fill(0, 42, LineState::Exclusive, 500, false, &mut bank);
        let out2 = cha.lookup(0, 42, false, 600, &mut bank);
        assert!(matches!(out2, ChaOutcome::LlcHit { .. }), "{out2:?}");
        assert_eq!(bank.read(ChaEvent::LlcLookupHit), 1);
        assert_eq!(bank.read(ChaEvent::LlcLookupMiss), 1);
    }

    #[test]
    fn snoop_filter_directs_peer_probe() {
        let (mut cha, mut bank) = setup();
        // Core 1 holds line 7 per the directory, but it's not in the LLC.
        cha.sf.record(7, 1, true);
        let out = cha.lookup(0, 7, false, 0, &mut bank);
        match out {
            ChaOutcome::PeerProbe { owners, dirty, .. } => {
                assert_eq!(owners, 0b10);
                assert!(dirty);
            }
            o => panic!("expected PeerProbe, got {o:?}"),
        }
        assert_eq!(bank.read(ChaEvent::SfHit), 1);
        assert_eq!(bank.read(ChaEvent::SnoopLocalSent), 1);
    }

    #[test]
    fn requester_own_stale_entry_does_not_probe_itself() {
        let (mut cha, mut bank) = setup();
        cha.sf.record(9, 0, false);
        let out = cha.lookup(0, 9, false, 0, &mut bank);
        assert!(matches!(out, ChaOutcome::Miss { .. }), "{out:?}");
    }

    #[test]
    fn fill_records_owner_in_directory() {
        let (mut cha, mut bank) = setup();
        cha.fill(2, 13, LineState::Exclusive, 0, false, &mut bank);
        assert_eq!(cha.sf.probe(13), Some((0b100, false)));
    }

    #[test]
    fn sf_overflow_back_invalidates() {
        let mut sf = SnoopFilter::new(16);
        let mut victims = 0;
        for line in 0..64 {
            if sf.record(line, 0, false).is_some() {
                victims += 1;
            }
        }
        assert!(victims > 0);
        assert!(sf.len() <= 17);
    }

    #[test]
    fn sf_order_queue_stays_bounded_under_churn() {
        let mut sf = SnoopFilter::new(64);
        for line in 0..100 * 64 {
            assert_eq!(sf.record(line, 0, false), None);
            sf.clear(line, 0);
            assert!(sf.order.len() <= 2 * 64, "order {}", sf.order.len());
        }
        assert!(sf.is_empty());
        let mut out = Vec::new();
        sf.collect_violations(&mut out);
        assert!(out.is_empty(), "{out:?}");
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
        cha.fill(0, line, LineState::Exclusive, 0, false, &mut bank);
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
