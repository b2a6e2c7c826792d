//! Per-core execution state: pipeline front end, SB, LFB, private caches.
//!
//! The core issues memory operations from its trace at the natural rate set
//! by the ops' `work` fields, bounded by the finite SB/LFB/super-queue
//! windows. Dependent loads serialise the pipeline (pointer chasing);
//! independent loads overlap up to the available memory-level parallelism.
//! The stall-cycle accounting mirrors the paper's Table 1 counters.

use crate::arena::RequestPool;
use crate::cache::SetAssocCache;
use crate::config::MachineConfig;
use crate::invariant;
use crate::invariants::{Invariants, Violation};
use crate::mem::AddressSpace;
use crate::prefetch::StreamPrefetcher;
use crate::queues::{BoundedWindow, Coverage};
use crate::request::ServeLoc;
use crate::trace::Workload;
use pmu::{Bank, CoreEvent, PathClass};

/// A free-running "cycles while condition held" counter backed by interval
/// coverage, flushed into a PMU event at epoch boundaries.
#[derive(Debug, Default)]
pub struct CovCounter {
    cov: Coverage,
    synced: u64,
}

impl CovCounter {
    pub fn add(&mut self, start: u64, end: u64) {
        self.cov.add(start, end);
    }

    pub fn sync(&mut self, bank: &mut Bank<CoreEvent>, ev: CoreEvent) {
        let total = self.cov.total();
        bank.add(ev, total - self.synced);
        self.synced = total;
    }
}

impl Invariants for CovCounter {
    fn component(&self) -> &'static str {
        "core_model::CovCounter"
    }

    fn collect_violations(&self, out: &mut Vec<Violation>) {
        self.cov.collect_violations(out);
        // The flushed baseline can never run ahead of the accumulator —
        // if it did, the next sync would underflow the free-running PMU.
        invariant!(
            out,
            self.component(),
            self.synced <= self.cov.total(),
            "synced baseline ahead of coverage: synced={} total={}",
            self.synced,
            self.cov.total()
        );
    }
}

/// Ground-truth per-request accounting the simulator keeps *outside* the PMU
/// — real hardware cannot see this; PathFinder's estimators are validated
/// against it by the `ablation_attribution` figure.
///
/// Storage is a flat `(path, serve location)` grid rather than the seed's
/// ordered map: `record_served` runs once per executed op, and a BTreeMap
/// entry there was one of the hottest allocator/tree costs in the profile
/// (PERFORMANCE.md). Iteration helpers walk the grid in `(PathClass,
/// ServeLoc)` `Ord` order, so reports see exactly the old map order.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// `[path.idx()][loc.idx()]` → (requests, summed latency cycles).
    served: [[(u64, u64); ServeLoc::COUNT]; PathClass::COUNT],
    /// True queueing delay per named component, insertion-ordered; the
    /// set is tiny (IMC/UPI/CXL), so a linear scan beats any map.
    queue_delay: Vec<(&'static str, u64)>,
    /// Stall cycles whose blocking request was destined for CXL vs local.
    pub stall_cxl: u64,
    pub stall_local: u64,
    /// Operations executed.
    pub ops: u64,
    /// Loads/stores/prefetches executed.
    pub loads: u64,
    pub stores: u64,
    pub swpfs: u64,
}

impl Default for GroundTruth {
    fn default() -> Self {
        GroundTruth {
            served: [[(0, 0); ServeLoc::COUNT]; PathClass::COUNT],
            queue_delay: Vec::new(),
            stall_cxl: 0,
            stall_local: 0,
            ops: 0,
            loads: 0,
            stores: 0,
            swpfs: 0,
        }
    }
}

impl GroundTruth {
    #[inline]
    pub fn record_served(&mut self, path: PathClass, loc: ServeLoc, latency: u64) {
        let e = &mut self.served[path.idx()][loc.idx()];
        e.0 += 1;
        e.1 += latency;
    }

    pub fn add_queue_delay(&mut self, component: &'static str, cycles: u64) {
        for (name, total) in &mut self.queue_delay {
            if *name == component {
                *total += cycles;
                return;
            }
        }
        self.queue_delay.push((component, cycles));
    }

    /// `(requests, summed latency)` served for one `(path, location)` cell.
    pub fn served(&self, path: PathClass, loc: ServeLoc) -> (u64, u64) {
        self.served[path.idx()][loc.idx()]
    }

    /// Every non-empty `(path, loc, requests, latency)` cell, in the old
    /// map's `(PathClass, ServeLoc)` order.
    pub fn served_cells(&self) -> impl Iterator<Item = (PathClass, ServeLoc, u64, u64)> + '_ {
        PathClass::ALL.iter().flat_map(move |&p| {
            ServeLoc::ALL.iter().filter_map(move |&l| {
                let (n, lat) = self.served[p.idx()][l.idx()];
                (n > 0).then_some((p, l, n, lat))
            })
        })
    }

    /// Total requests served across all cells.
    pub fn served_total(&self) -> u64 {
        self.served.iter().flatten().map(|&(n, _)| n).sum()
    }

    /// Accumulated queueing delay at a named component.
    pub fn queue_delay(&self, component: &str) -> u64 {
        self.queue_delay
            .iter()
            .find(|(n, _)| *n == component)
            .map_or(0, |(_, v)| *v)
    }
}

/// The workload currently running on a core.
pub struct WorkloadRun {
    pub name: String,
    pub trace: Box<dyn crate::trace::TraceSource>,
    pub space: AddressSpace,
}

/// All mutable state of one simulated core.
pub struct CoreState {
    pub id: usize,
    /// The core's local clock (cycles).
    pub time: u64,
    pub l1d: SetAssocCache,
    pub l2: SetAssocCache,
    /// Store buffer: finite window of in-flight (un-drained) stores.
    pub sb: BoundedWindow,
    /// Line fill buffer / MSHRs: in-flight L1D misses.
    pub lfb: BoundedWindow,
    /// Super queue: in-flight offcore demand requests.
    pub superq: BoundedWindow,
    /// In-flight hardware prefetches (L2 XQ slots); full ⇒ prefetch dropped.
    pub pfq: BoundedWindow,
    /// Last L1D-missing line, for ascending-pattern next-line detection.
    pub last_l1_miss_line: u64,
    /// In-flight fills by line address → completion cycle (LFB merge
    /// table), backed by the struct-of-arrays free-list arena.
    pub inflight: RequestPool,
    /// In-flight store drains by line address (store coalescing).
    pub sb_inflight: RequestPool,
    pub prefetcher: StreamPrefetcher,
    pub workload: Option<WorkloadRun>,
    pub done: bool,
    /// Retirement bound: cycles of non-memory work per op are charged here.
    pub ops_executed: u64,

    // Coverage-backed "cycles while outstanding" counters.
    pub cov_l1d_miss: CovCounter,
    pub cov_l2_miss: CovCounter,
    pub cov_oro_data_rd: CovCounter,
    pub cov_oro_demand_rd: CovCounter,
    pub cov_oro_demand_rfo: CovCounter,

    pub truth: GroundTruth,
}

impl CoreState {
    pub fn new(id: usize, cfg: &MachineConfig) -> Self {
        CoreState {
            id,
            time: 0,
            l1d: SetAssocCache::new(cfg.l1d.size_bytes, cfg.l1d.ways),
            l2: SetAssocCache::new(cfg.l2.size_bytes, cfg.l2.ways),
            sb: BoundedWindow::new(cfg.sb_entries),
            lfb: BoundedWindow::new(cfg.lfb_entries),
            superq: BoundedWindow::new(cfg.superq_entries),
            pfq: BoundedWindow::new(cfg.pfq_entries),
            last_l1_miss_line: u64::MAX,
            inflight: RequestPool::new(),
            sb_inflight: RequestPool::new(),
            prefetcher: StreamPrefetcher::new(&cfg.prefetch),
            workload: None,
            done: true,
            ops_executed: 0,
            cov_l1d_miss: CovCounter::default(),
            cov_l2_miss: CovCounter::default(),
            cov_oro_data_rd: CovCounter::default(),
            cov_oro_demand_rd: CovCounter::default(),
            cov_oro_demand_rfo: CovCounter::default(),
            truth: GroundTruth::default(),
        }
    }

    /// Attach a workload; the core becomes runnable.
    pub fn attach(&mut self, wl: Workload, asid: u16) {
        let space = AddressSpace::new(asid, wl.trace.footprint(), wl.policy, wl.cxl_device);
        self.workload = Some(WorkloadRun {
            name: wl.name,
            trace: wl.trace,
            space,
        });
        self.done = false;
    }

    /// Drop completed entries from the in-flight pools (cheap, amortised).
    pub fn gc_inflight(&mut self) {
        let now = self.time;
        if self.inflight.len() > 64 {
            self.inflight.gc(now);
        }
        if self.sb_inflight.len() > 64 {
            self.sb_inflight.gc(now);
        }
    }

    /// Audit the ground truth against itself; used by `Invariants` below.
    fn truth_violations(&self, out: &mut Vec<Violation>) {
        let t = &self.truth;
        // Every executed op is exactly one of load/store/software prefetch.
        invariant!(
            out,
            "core_model::GroundTruth",
            t.loads + t.stores + t.swpfs == t.ops,
            "op kinds do not sum to ops: loads={} stores={} swpfs={} ops={}",
            t.loads,
            t.stores,
            t.swpfs,
            t.ops
        );
        // Every op is served at exactly one location, and serving happens
        // synchronously within the step — so the per-location request
        // counts must conserve the op count.
        let served_total: u64 = t.served_total();
        invariant!(
            out,
            "core_model::GroundTruth",
            served_total == t.ops,
            "served requests do not conserve ops: served={} ops={}",
            served_total,
            t.ops
        );
    }

    /// Flush coverage counters into the PMU bank (epoch boundary).
    pub fn sync_counters(&mut self, bank: &mut Bank<CoreEvent>, epoch_cycles: u64) {
        bank.add(CoreEvent::CpuClkUnhalted, epoch_cycles);
        self.cov_l1d_miss
            .sync(bank, CoreEvent::CycleActivityCyclesL1dMiss);
        self.cov_l2_miss
            .sync(bank, CoreEvent::CycleActivityCyclesL2Miss);
        self.cov_oro_data_rd
            .sync(bank, CoreEvent::OroCyclesWithDataRd);
        self.cov_oro_demand_rd
            .sync(bank, CoreEvent::OroCyclesWithDemandDataRd);
        self.cov_oro_demand_rfo
            .sync(bank, CoreEvent::OroCyclesWithDemandRfo);
    }
}

impl crate::module::SimModule for CoreState {
    fn stage_id(&self) -> crate::module::StageId {
        crate::module::StageId::core(self.id)
    }

    fn name(&self) -> &'static str {
        "module.core"
    }

    fn tick(&mut self, until: u64) {
        if self.time < until {
            self.time = until;
        }
        self.gc_inflight();
    }

    fn drain(&mut self, pmu: &mut pmu::SystemPmu, epoch_cycles: u64) {
        self.sync_counters(&mut pmu.cores[self.id], epoch_cycles);
    }
}

impl Invariants for CoreState {
    fn component(&self) -> &'static str {
        "core_model::CoreState"
    }

    fn collect_violations(&self, out: &mut Vec<Violation>) {
        self.sb.collect_violations(out);
        self.lfb.collect_violations(out);
        self.superq.collect_violations(out);
        self.pfq.collect_violations(out);
        self.cov_l1d_miss.collect_violations(out);
        self.cov_l2_miss.collect_violations(out);
        self.cov_oro_data_rd.collect_violations(out);
        self.cov_oro_demand_rd.collect_violations(out);
        self.cov_oro_demand_rfo.collect_violations(out);
        self.truth_violations(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemPolicy;
    use crate::trace::SeqReadTrace;

    #[test]
    fn new_core_is_idle() {
        let c = CoreState::new(0, &MachineConfig::tiny());
        assert!(c.done);
        assert_eq!(c.time, 0);
    }

    #[test]
    fn attach_makes_core_runnable_with_address_space() {
        let mut c = CoreState::new(1, &MachineConfig::tiny());
        let wl = Workload::new(
            "t",
            Box::new(SeqReadTrace::new(1 << 16, 10)),
            MemPolicy::Cxl,
        );
        c.attach(wl, 5);
        assert!(!c.done);
        let run = c.workload.as_ref().unwrap();
        assert_eq!(run.space.asid(), 5);
        assert_eq!(run.space.size_bytes(), 1 << 16);
    }

    #[test]
    fn cov_counter_sync_is_incremental() {
        let mut cc = CovCounter::default();
        let mut bank: Bank<CoreEvent> = Bank::new();
        cc.add(0, 100);
        cc.sync(&mut bank, CoreEvent::CycleActivityCyclesL1dMiss);
        assert_eq!(bank.read(CoreEvent::CycleActivityCyclesL1dMiss), 100);
        cc.add(50, 150); // 50 new cycles
        cc.sync(&mut bank, CoreEvent::CycleActivityCyclesL1dMiss);
        assert_eq!(bank.read(CoreEvent::CycleActivityCyclesL1dMiss), 150);
    }

    #[test]
    fn ground_truth_accumulates() {
        let mut g = GroundTruth::default();
        g.record_served(PathClass::Drd, ServeLoc::CxlDram, 700);
        g.record_served(PathClass::Drd, ServeLoc::CxlDram, 300);
        g.record_served(PathClass::Rfo, ServeLoc::L2, 15);
        assert_eq!(g.served(PathClass::Drd, ServeLoc::CxlDram), (2, 1000));
        assert_eq!(g.served(PathClass::Rfo, ServeLoc::L2), (1, 15));
        assert_eq!(g.served_total(), 3);
        let cells: Vec<_> = g.served_cells().collect();
        // Drd < Rfo in PathClass order, so the cells come out map-ordered.
        assert_eq!(
            cells,
            vec![
                (PathClass::Drd, ServeLoc::CxlDram, 2, 1000),
                (PathClass::Rfo, ServeLoc::L2, 1, 15),
            ]
        );
        g.add_queue_delay("L2", 5);
        g.add_queue_delay("L2", 7);
        assert_eq!(g.queue_delay("L2"), 12);
        assert_eq!(g.queue_delay("IMC"), 0);
    }

    #[test]
    fn gc_inflight_drops_only_completed() {
        let mut c = CoreState::new(0, &MachineConfig::tiny());
        c.time = 100;
        for line in 1..=70u64 {
            c.inflight.insert(line, if line <= 35 { 50 } else { 500 });
        }
        c.gc_inflight();
        assert_eq!(c.inflight.len(), 35);
        c.inflight.for_each(|_, f| assert!(f > 100));
    }
}
