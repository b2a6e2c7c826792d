//! Typed event enumerations for every PMU in the system.
//!
//! Every enumeration implements [`Event`], which maps an event (including its
//! sub-event parameters) onto a dense index so a module's counter file can be
//! a flat `Vec<u64>` — increments on the simulator hot path are a single
//! array add, exactly like an MSR write on real silicon.

/// A PMU event: something a hardware counter can be programmed to count.
///
/// `CARD` is the cardinality of the event space (the number of distinct
/// programmable counters for this PMU) and `index` maps each event onto
/// `0..CARD` bijectively.
pub trait Event: Copy + core::fmt::Debug {
    /// Number of distinct counters in this event space.
    const CARD: usize;
    /// Dense index of this event, `< Self::CARD`.
    fn index(self) -> usize;
    /// The Linux-perf-style event name, e.g. `l2_rqsts.rfo_miss`.
    fn name(self) -> String;
}

/// The architectural request class that spawns a CXL.mem data path (§2.2).
///
/// * `Drd` — demand data read (path #1).
/// * `Dwr` — demand data write; becomes an RFO + later write-back (path #2).
/// * `Rfo` — read-for-ownership (path #3).
/// * `HwPfL1` / `HwPfL2Drd` / `HwPfL2Rfo` — hardware prefetches (path #4).
/// * `SwPf` — software prefetch; merges into the DRd path after L1D.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PathClass {
    Drd,
    Dwr,
    Rfo,
    HwPfL1,
    HwPfL2Drd,
    HwPfL2Rfo,
    SwPf,
}

impl PathClass {
    /// All path classes, in canonical report order.
    pub const ALL: [PathClass; 7] = [
        PathClass::Drd,
        PathClass::Dwr,
        PathClass::Rfo,
        PathClass::HwPfL1,
        PathClass::HwPfL2Drd,
        PathClass::HwPfL2Rfo,
        PathClass::SwPf,
    ];

    pub const COUNT: usize = 7;

    #[inline]
    pub fn idx(self) -> usize {
        match self {
            PathClass::Drd => 0,
            PathClass::Dwr => 1,
            PathClass::Rfo => 2,
            PathClass::HwPfL1 => 3,
            PathClass::HwPfL2Drd => 4,
            PathClass::HwPfL2Rfo => 5,
            PathClass::SwPf => 6,
        }
    }

    /// Short mnemonic used in reports ("DRd", "RFO", …).
    pub fn mnemonic(self) -> &'static str {
        match self {
            PathClass::Drd => "DRd",
            PathClass::Dwr => "DWr",
            PathClass::Rfo => "RFO",
            PathClass::HwPfL1 => "HWPF.L1",
            PathClass::HwPfL2Drd => "HWPF.L2D",
            PathClass::HwPfL2Rfo => "HWPF.L2R",
            PathClass::SwPf => "SWPF",
        }
    }

    /// Collapse to the paper's four-way report grouping (DRd/DWr/RFO/HWPF);
    /// SWPF merges into DRd after missing L1D (§2.2, path #4 note).
    pub fn report_group(self) -> PathClass {
        match self {
            PathClass::HwPfL1 | PathClass::HwPfL2Drd | PathClass::HwPfL2Rfo => PathClass::HwPfL1,
            PathClass::SwPf => PathClass::Drd,
            p => p,
        }
    }
}

/// The "9 scenarios" of the offcore-response (`ocr.*`) events (Table 2/5):
/// where a request that left the core was ultimately supplied from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RespScenario {
    /// (a) any type of response.
    AnyResponse,
    /// (b) hit in the L3 or snooped from another core's cache, same socket.
    L3HitSnoopLocal,
    /// (c) not supplied by the local socket's L1/L2/L3.
    MissLocalCaches,
    /// (d) supplied by DRAM attached to this socket (close SNC cluster).
    LocalDram,
    /// (e) hit a distant L3 / distant core's L1-L2 on this socket (SNC mode).
    SncDistantL3,
    /// (f) supplied by DRAM on a distant memory controller (SNC mode).
    SncDistantDram,
    /// (g) supplied by a remote-socket cache where a snoop hit a line.
    RemoteCacheHit,
    /// (h) supplied by DRAM attached to another socket.
    RemoteDram,
    /// (i) supplied by CXL DRAM.
    CxlDram,
}

impl RespScenario {
    pub const COUNT: usize = 9;
    pub const ALL: [RespScenario; 9] = [
        RespScenario::AnyResponse,
        RespScenario::L3HitSnoopLocal,
        RespScenario::MissLocalCaches,
        RespScenario::LocalDram,
        RespScenario::SncDistantL3,
        RespScenario::SncDistantDram,
        RespScenario::RemoteCacheHit,
        RespScenario::RemoteDram,
        RespScenario::CxlDram,
    ];

    #[inline]
    pub fn idx(self) -> usize {
        match self {
            RespScenario::AnyResponse => 0,
            RespScenario::L3HitSnoopLocal => 1,
            RespScenario::MissLocalCaches => 2,
            RespScenario::LocalDram => 3,
            RespScenario::SncDistantL3 => 4,
            RespScenario::SncDistantDram => 5,
            RespScenario::RemoteCacheHit => 6,
            RespScenario::RemoteDram => 7,
            RespScenario::CxlDram => 8,
        }
    }

    pub fn suffix(self) -> &'static str {
        match self {
            RespScenario::AnyResponse => "any_response",
            RespScenario::L3HitSnoopLocal => "l3_hit",
            RespScenario::MissLocalCaches => "l3_miss_local_caches",
            RespScenario::LocalDram => "local_dram",
            RespScenario::SncDistantL3 => "snc_cache",
            RespScenario::SncDistantDram => "snc_dram",
            RespScenario::RemoteCacheHit => "remote_cache",
            RespScenario::RemoteDram => "remote_dram",
            RespScenario::CxlDram => "cxl_dram",
        }
    }
}

/// Sub-events of `mem_load_l3_hit_retired` (Table 2): 4 L3-hit data sources.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum L3HitSrc {
    /// HitM response from shared L3.
    XsnpHitm,
    /// L3 hit, cross-core snoop missed in an on-package core cache.
    XsnpMiss,
    /// L3 hit + cross-core snoop hit in an on-package core cache.
    XsnpHit,
    /// Plain L3 hit, no snoop required.
    XsnpNone,
}

impl L3HitSrc {
    pub const COUNT: usize = 4;
    pub const ALL: [L3HitSrc; 4] = [
        L3HitSrc::XsnpHitm,
        L3HitSrc::XsnpMiss,
        L3HitSrc::XsnpHit,
        L3HitSrc::XsnpNone,
    ];
    #[inline]
    pub fn idx(self) -> usize {
        match self {
            L3HitSrc::XsnpHitm => 0,
            L3HitSrc::XsnpMiss => 1,
            L3HitSrc::XsnpHit => 2,
            L3HitSrc::XsnpNone => 3,
        }
    }
    pub fn suffix(self) -> &'static str {
        match self {
            L3HitSrc::XsnpHitm => "xsnp_hitm",
            L3HitSrc::XsnpMiss => "xsnp_miss",
            L3HitSrc::XsnpHit => "xsnp_hit",
            L3HitSrc::XsnpNone => "xsnp_none",
        }
    }
}

/// Sub-events of `mem_load_l3_miss_retired` (Table 2): 4 L3-miss data sources.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum L3MissSrc {
    LocalDram,
    RemoteDram,
    RemoteFwd,
    RemoteHitm,
}

impl L3MissSrc {
    pub const COUNT: usize = 4;
    pub const ALL: [L3MissSrc; 4] = [
        L3MissSrc::LocalDram,
        L3MissSrc::RemoteDram,
        L3MissSrc::RemoteFwd,
        L3MissSrc::RemoteHitm,
    ];
    #[inline]
    pub fn idx(self) -> usize {
        match self {
            L3MissSrc::LocalDram => 0,
            L3MissSrc::RemoteDram => 1,
            L3MissSrc::RemoteFwd => 2,
            L3MissSrc::RemoteHitm => 3,
        }
    }
    pub fn suffix(self) -> &'static str {
        match self {
            L3MissSrc::LocalDram => "local_dram",
            L3MissSrc::RemoteDram => "remote_dram",
            L3MissSrc::RemoteFwd => "remote_fwd",
            L3MissSrc::RemoteHitm => "remote_hitm",
        }
    }
}

// ---------------------------------------------------------------------------
// Core PMU (paper Table 1 + per-core rows of Table 2)
// ---------------------------------------------------------------------------

/// Per-core PMU events (paper Table 1 plus the per-core rows of Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreEvent {
    /// Unhalted core clock ticks (reference for all cycle counters).
    CpuClkUnhalted,
    /// Retired instructions.
    InstRetired,

    // --- Store buffer -----------------------------------------------------
    /// `resource_stalls.sb`: stall cycles with SB full while loads still issue.
    ResourceStallsSb,
    /// `exe_activity.bound_on_stores`: SB full and no loads in flight.
    ExeActivityBoundOnStores,

    // --- L1D ----------------------------------------------------------------
    /// `cycle_activity.cycles_l1d_miss`: cycles any L1D-miss demand load is outstanding.
    CycleActivityCyclesL1dMiss,
    /// `memory_activity.stalls_l1d_miss`: execution-stall cycles under L1D miss.
    MemoryActivityStallsL1dMiss,
    /// `l1d.replacement`: L1D line evictions.
    L1dReplacement,
    /// `mem_load_retired.l1_hit`.
    MemLoadRetiredL1Hit,
    /// `mem_load_retired.l1_miss`.
    MemLoadRetiredL1Miss,

    // --- LFB ----------------------------------------------------------------
    /// `mem_load_retired.l1_fb_hit`: missed L1 but merged into an in-flight LFB entry.
    MemLoadRetiredL1FbHit,
    /// `l1d_pend_miss.fb_full`: cycles a demand request waited because the LFB was full.
    L1dPendMissFbFull,

    // --- L2 -----------------------------------------------------------------
    /// `mem_load_retired.l2_hit`.
    MemLoadRetiredL2Hit,
    /// `mem_load_retired.l2_miss`.
    MemLoadRetiredL2Miss,
    /// `mem_store_retired.l2_hit`.
    MemStoreRetiredL2Hit,
    /// `l2_rqsts.references`: every L2 access (hit or true miss).
    L2RqstsReferences,
    /// `offcore_requests.all_requests`: transactions that reached the super queue.
    OffcoreRequestsAllRequests,
    /// `l2_rqsts.all_demand_references`.
    L2RqstsAllDemandReferences,
    /// `l2_rqsts.all_demand_miss`.
    L2RqstsAllDemandMiss,
    /// `l2_rqsts.miss`: true misses of any read type.
    L2RqstsMiss,
    /// `offcore_requests.data_rd`: demand + prefetch data reads sent offcore.
    OffcoreRequestsDataRd,
    /// `l2_rqsts.all_demand_data_rd`.
    L2RqstsAllDemandDataRd,
    /// `l2_rqsts.demand_data_rd_hit`.
    L2RqstsDemandDataRdHit,
    /// `offcore_requests.demand_data_rd`.
    OffcoreRequestsDemandDataRd,
    /// `l2_rqsts.demand_data_rd_miss`.
    L2RqstsDemandDataRdMiss,
    /// `l2_rqsts.all_rfo` (demand RFO + L1D RFO prefetches — the paper's
    /// §5.9 limitation: demand and prefetch RFO are indistinguishable here).
    L2RqstsAllRfo,
    /// `l2_rqsts.rfo_hit`.
    L2RqstsRfoHit,
    /// `l2_rqsts.rfo_miss`.
    L2RqstsRfoMiss,
    /// `l2_rqsts.swpf_hit`.
    L2RqstsSwpfHit,
    /// `l2_rqsts.swpf_miss`.
    L2RqstsSwpfMiss,
    /// `l2_rqsts.hwpf_hit` (L2 hardware-prefetch hits).
    L2RqstsHwpfHit,
    /// `l2_rqsts.hwpf_miss`.
    L2RqstsHwpfMiss,
    /// `memory_activity.stalls_l2_miss`.
    MemoryActivityStallsL2Miss,
    /// `cycle_activity.cycles_l2_miss`.
    CycleActivityCyclesL2Miss,

    // --- Offcore-requests-outstanding latency counters ---------------------
    /// `offcore_requests_outstanding.data_rd`: per-cycle sum of outstanding data reads.
    OroDataRd,
    /// `offcore_requests_outstanding.cycles_with_data_rd`.
    OroCyclesWithDataRd,
    /// `offcore_requests_outstanding.demand_data_rd`.
    OroDemandDataRd,
    /// `offcore_requests_outstanding.cycles_with_demand_data_rd`.
    OroCyclesWithDemandDataRd,
    /// `offcore_requests_outstanding.cycles_with_demand_rfo`.
    OroCyclesWithDemandRfo,
    /// `mem_trans_retired.load_latency`: accumulated load latency (cycles).
    MemTransRetiredLoadLatency,
    /// Number of loads sampled into `mem_trans_retired.load_latency`.
    MemTransRetiredLoadCount,
    /// `mem_trans_retired.store_sample`: accumulated store commit latency.
    MemTransRetiredStoreSample,
    /// Number of stores sampled into `mem_trans_retired.store_sample`.
    MemTransRetiredStoreCount,

    // --- Core-scope LLC events (Table 2, per-core rows) ---------------------
    /// `cycle_activity.stalls_l3_miss`.
    CycleActivityStallsL3Miss,
    /// `offcore_requests_outstanding.l3_miss_demand_data_rd`.
    OroL3MissDemandDataRd,
    /// `mem_load_retired.l3_hit`.
    MemLoadRetiredL3Hit,
    /// `mem_load_retired.l3_miss`.
    MemLoadRetiredL3Miss,
    /// `mem_load_l3_hit_retired.*` (4 sub-events).
    MemLoadL3HitRetired(L3HitSrc),
    /// `mem_load_l3_miss_retired.*` (4 sub-events).
    MemLoadL3MissRetired(L3MissSrc),
    /// `longest_lat_cache.miss`.
    LongestLatCacheMiss,
    /// `longest_lat_cache.reference`.
    LongestLatCacheReference,
    /// `ocr.modified_write.any_response`: write-backs of modified lines.
    OcrModifiedWriteAnyResponse,
    /// `ocr.demand_data_rd.*` (9 scenarios).
    OcrDemandDataRd(RespScenario),
    /// `ocr.rfo.*` (9 scenarios).
    OcrRfo(RespScenario),
    /// `ocr.l1d_hw_pf.*` (9 scenarios).
    OcrL1dHwPf(RespScenario),
    /// `ocr.l2_hw_pf_drd.*` (9 scenarios).
    OcrL2HwPfDrd(RespScenario),
    /// `ocr.l2_hw_pf_rfo.*` (9 scenarios).
    OcrL2HwPfRfo(RespScenario),
    /// `ocr.swpf.*` (9 scenarios; SWPF merges into DRd at the uncore).
    OcrSwPf(RespScenario),
}

/// Number of simple (non-parameterised) `CoreEvent` variants (indices 0..=48).
const CORE_SIMPLE: usize = 49;

impl Event for CoreEvent {
    const CARD: usize = CORE_SIMPLE + L3HitSrc::COUNT + L3MissSrc::COUNT + 6 * RespScenario::COUNT;

    #[inline]
    fn index(self) -> usize {
        use CoreEvent::*;
        match self {
            CpuClkUnhalted => 0,
            InstRetired => 1,
            ResourceStallsSb => 2,
            ExeActivityBoundOnStores => 3,
            CycleActivityCyclesL1dMiss => 4,
            MemoryActivityStallsL1dMiss => 5,
            L1dReplacement => 6,
            MemLoadRetiredL1Hit => 7,
            MemLoadRetiredL1Miss => 8,
            MemLoadRetiredL1FbHit => 9,
            L1dPendMissFbFull => 10,
            MemLoadRetiredL2Hit => 11,
            MemLoadRetiredL2Miss => 12,
            MemStoreRetiredL2Hit => 13,
            L2RqstsReferences => 14,
            OffcoreRequestsAllRequests => 15,
            L2RqstsAllDemandReferences => 16,
            L2RqstsAllDemandMiss => 17,
            L2RqstsMiss => 18,
            OffcoreRequestsDataRd => 19,
            L2RqstsAllDemandDataRd => 20,
            L2RqstsDemandDataRdHit => 21,
            OffcoreRequestsDemandDataRd => 22,
            L2RqstsDemandDataRdMiss => 23,
            L2RqstsAllRfo => 24,
            L2RqstsRfoHit => 25,
            L2RqstsRfoMiss => 26,
            L2RqstsSwpfHit => 27,
            L2RqstsSwpfMiss => 28,
            L2RqstsHwpfHit => 29,
            L2RqstsHwpfMiss => 30,
            MemoryActivityStallsL2Miss => 31,
            CycleActivityCyclesL2Miss => 32,
            OroDataRd => 33,
            OroCyclesWithDataRd => 34,
            OroDemandDataRd => 35,
            OroCyclesWithDemandDataRd => 36,
            OroCyclesWithDemandRfo => 37,
            MemTransRetiredLoadLatency => 38,
            MemTransRetiredLoadCount => 39,
            MemTransRetiredStoreSample => 40,
            MemTransRetiredStoreCount => 41,
            CycleActivityStallsL3Miss => 42,
            OroL3MissDemandDataRd => 43,
            MemLoadRetiredL3Hit => 44,
            MemLoadRetiredL3Miss => 45,
            LongestLatCacheMiss => 46,
            LongestLatCacheReference => 47,
            OcrModifiedWriteAnyResponse => 48,
            MemLoadL3HitRetired(s) => 49 + s.idx(),
            MemLoadL3MissRetired(s) => 49 + L3HitSrc::COUNT + s.idx(),
            OcrDemandDataRd(s) => 49 + L3HitSrc::COUNT + L3MissSrc::COUNT + s.idx(),
            OcrRfo(s) => 49 + L3HitSrc::COUNT + L3MissSrc::COUNT + RespScenario::COUNT + s.idx(),
            OcrL1dHwPf(s) => {
                49 + L3HitSrc::COUNT + L3MissSrc::COUNT + 2 * RespScenario::COUNT + s.idx()
            }
            OcrL2HwPfDrd(s) => {
                49 + L3HitSrc::COUNT + L3MissSrc::COUNT + 3 * RespScenario::COUNT + s.idx()
            }
            OcrL2HwPfRfo(s) => {
                49 + L3HitSrc::COUNT + L3MissSrc::COUNT + 4 * RespScenario::COUNT + s.idx()
            }
            OcrSwPf(s) => {
                49 + L3HitSrc::COUNT + L3MissSrc::COUNT + 5 * RespScenario::COUNT + s.idx()
            }
        }
    }

    fn name(self) -> String {
        use CoreEvent::*;
        match self {
            CpuClkUnhalted => "cpu_clk_unhalted.thread".into(),
            InstRetired => "inst_retired.any".into(),
            ResourceStallsSb => "resource_stalls.sb".into(),
            ExeActivityBoundOnStores => "exe_activity.bound_on_stores".into(),
            CycleActivityCyclesL1dMiss => "cycle_activity.cycles_l1d_miss".into(),
            MemoryActivityStallsL1dMiss => "memory_activity.stalls_l1d_miss".into(),
            L1dReplacement => "l1d.replacement".into(),
            MemLoadRetiredL1Hit => "mem_load_retired.l1_hit".into(),
            MemLoadRetiredL1Miss => "mem_load_retired.l1_miss".into(),
            MemLoadRetiredL1FbHit => "mem_load_retired.l1_fb_hit".into(),
            L1dPendMissFbFull => "l1d_pend_miss.fb_full".into(),
            MemLoadRetiredL2Hit => "mem_load_retired.l2_hit".into(),
            MemLoadRetiredL2Miss => "mem_load_retired.l2_miss".into(),
            MemStoreRetiredL2Hit => "mem_store_retired.l2_hit".into(),
            L2RqstsReferences => "l2_rqsts.references".into(),
            OffcoreRequestsAllRequests => "offcore_requests.all_requests".into(),
            L2RqstsAllDemandReferences => "l2_rqsts.all_demand_references".into(),
            L2RqstsAllDemandMiss => "l2_rqsts.all_demand_miss".into(),
            L2RqstsMiss => "l2_rqsts.miss".into(),
            OffcoreRequestsDataRd => "offcore_requests.data_rd".into(),
            L2RqstsAllDemandDataRd => "l2_rqsts.all_demand_data_rd".into(),
            L2RqstsDemandDataRdHit => "l2_rqsts.demand_data_rd_hit".into(),
            OffcoreRequestsDemandDataRd => "offcore_requests.demand_data_rd".into(),
            L2RqstsDemandDataRdMiss => "l2_rqsts.demand_data_rd_miss".into(),
            L2RqstsAllRfo => "l2_rqsts.all_rfo".into(),
            L2RqstsRfoHit => "l2_rqsts.rfo_hit".into(),
            L2RqstsRfoMiss => "l2_rqsts.rfo_miss".into(),
            L2RqstsSwpfHit => "l2_rqsts.swpf_hit".into(),
            L2RqstsSwpfMiss => "l2_rqsts.swpf_miss".into(),
            L2RqstsHwpfHit => "l2_rqsts.hwpf_hit".into(),
            L2RqstsHwpfMiss => "l2_rqsts.hwpf_miss".into(),
            MemoryActivityStallsL2Miss => "memory_activity.stalls_l2_miss".into(),
            CycleActivityCyclesL2Miss => "cycle_activity.cycles_l2_miss".into(),
            OroDataRd => "offcore_requests_outstanding.data_rd".into(),
            OroCyclesWithDataRd => "offcore_requests_outstanding.cycles_with_data_rd".into(),
            OroDemandDataRd => "offcore_requests_outstanding.demand_data_rd".into(),
            OroCyclesWithDemandDataRd => {
                "offcore_requests_outstanding.cycles_with_demand_data_rd".into()
            }
            OroCyclesWithDemandRfo => "offcore_requests_outstanding.cycles_with_demand_rfo".into(),
            MemTransRetiredLoadLatency => "mem_trans_retired.load_latency".into(),
            MemTransRetiredLoadCount => "mem_trans_retired.load_count".into(),
            MemTransRetiredStoreSample => "mem_trans_retired.store_sample".into(),
            MemTransRetiredStoreCount => "mem_trans_retired.store_count".into(),
            CycleActivityStallsL3Miss => "cycle_activity.stalls_l3_miss".into(),
            OroL3MissDemandDataRd => "offcore_requests_outstanding.l3_miss_demand_data_rd".into(),
            MemLoadRetiredL3Hit => "mem_load_retired.l3_hit".into(),
            MemLoadRetiredL3Miss => "mem_load_retired.l3_miss".into(),
            LongestLatCacheMiss => "longest_lat_cache.miss".into(),
            LongestLatCacheReference => "longest_lat_cache.reference".into(),
            OcrModifiedWriteAnyResponse => "ocr.modified_write.any_response".into(),
            MemLoadL3HitRetired(s) => format!("mem_load_l3_hit_retired.{}", s.suffix()),
            MemLoadL3MissRetired(s) => format!("mem_load_l3_miss_retired.{}", s.suffix()),
            OcrDemandDataRd(s) => format!("ocr.demand_data_rd.{}", s.suffix()),
            OcrRfo(s) => format!("ocr.rfo.{}", s.suffix()),
            OcrL1dHwPf(s) => format!("ocr.l1d_hw_pf.{}", s.suffix()),
            OcrL2HwPfDrd(s) => format!("ocr.l2_hw_pf_drd.{}", s.suffix()),
            OcrL2HwPfRfo(s) => format!("ocr.l2_hw_pf_rfo.{}", s.suffix()),
            OcrSwPf(s) => format!("ocr.swpf.{}", s.suffix()),
        }
    }
}

impl CoreEvent {
    /// Enumerate every core event (all sub-events expanded).
    pub fn all() -> Vec<CoreEvent> {
        use CoreEvent::*;
        let mut v = vec![
            CpuClkUnhalted,
            InstRetired,
            ResourceStallsSb,
            ExeActivityBoundOnStores,
            CycleActivityCyclesL1dMiss,
            MemoryActivityStallsL1dMiss,
            L1dReplacement,
            MemLoadRetiredL1Hit,
            MemLoadRetiredL1Miss,
            MemLoadRetiredL1FbHit,
            L1dPendMissFbFull,
            MemLoadRetiredL2Hit,
            MemLoadRetiredL2Miss,
            MemStoreRetiredL2Hit,
            L2RqstsReferences,
            OffcoreRequestsAllRequests,
            L2RqstsAllDemandReferences,
            L2RqstsAllDemandMiss,
            L2RqstsMiss,
            OffcoreRequestsDataRd,
            L2RqstsAllDemandDataRd,
            L2RqstsDemandDataRdHit,
            OffcoreRequestsDemandDataRd,
            L2RqstsDemandDataRdMiss,
            L2RqstsAllRfo,
            L2RqstsRfoHit,
            L2RqstsRfoMiss,
            L2RqstsSwpfHit,
            L2RqstsSwpfMiss,
            L2RqstsHwpfHit,
            L2RqstsHwpfMiss,
            MemoryActivityStallsL2Miss,
            CycleActivityCyclesL2Miss,
            OroDataRd,
            OroCyclesWithDataRd,
            OroDemandDataRd,
            OroCyclesWithDemandDataRd,
            OroCyclesWithDemandRfo,
            MemTransRetiredLoadLatency,
            MemTransRetiredLoadCount,
            MemTransRetiredStoreSample,
            MemTransRetiredStoreCount,
            CycleActivityStallsL3Miss,
            OroL3MissDemandDataRd,
            MemLoadRetiredL3Hit,
            MemLoadRetiredL3Miss,
            LongestLatCacheMiss,
            LongestLatCacheReference,
            OcrModifiedWriteAnyResponse,
        ];
        for s in L3HitSrc::ALL {
            v.push(MemLoadL3HitRetired(s));
        }
        for s in L3MissSrc::ALL {
            v.push(MemLoadL3MissRetired(s));
        }
        for s in RespScenario::ALL {
            v.push(OcrDemandDataRd(s));
        }
        for s in RespScenario::ALL {
            v.push(OcrRfo(s));
        }
        for s in RespScenario::ALL {
            v.push(OcrL1dHwPf(s));
        }
        for s in RespScenario::ALL {
            v.push(OcrL2HwPfDrd(s));
        }
        for s in RespScenario::ALL {
            v.push(OcrL2HwPfRfo(s));
        }
        for s in RespScenario::ALL {
            v.push(OcrSwPf(s));
        }
        v
    }

    /// The `ocr.*` event for a given path class and response scenario, as
    /// PFBuilder consumes it (Table 5, "Core" rows).
    #[inline]
    pub fn ocr(path: PathClass, scen: RespScenario) -> CoreEvent {
        match path {
            PathClass::Drd => CoreEvent::OcrDemandDataRd(scen),
            PathClass::Rfo => CoreEvent::OcrRfo(scen),
            PathClass::HwPfL1 => CoreEvent::OcrL1dHwPf(scen),
            PathClass::HwPfL2Drd => CoreEvent::OcrL2HwPfDrd(scen),
            PathClass::HwPfL2Rfo => CoreEvent::OcrL2HwPfRfo(scen),
            PathClass::SwPf => CoreEvent::OcrSwPf(scen),
            PathClass::Dwr => CoreEvent::OcrModifiedWriteAnyResponse,
        }
    }
}

// ---------------------------------------------------------------------------
// CHA PMU (paper Table 2, socket rows)
// ---------------------------------------------------------------------------

/// `unc_cha_tor_*.ia` 4-scenario sub-events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IaScen {
    Total,
    HitLlc,
    MissLlc,
    MissCxl,
}

impl IaScen {
    pub const COUNT: usize = 4;
    pub const ALL: [IaScen; 4] = [
        IaScen::Total,
        IaScen::HitLlc,
        IaScen::MissLlc,
        IaScen::MissCxl,
    ];
    #[inline]
    pub fn idx(self) -> usize {
        match self {
            IaScen::Total => 0,
            IaScen::HitLlc => 1,
            IaScen::MissLlc => 2,
            IaScen::MissCxl => 3,
        }
    }
    pub fn suffix(self) -> &'static str {
        match self {
            IaScen::Total => "all",
            IaScen::HitLlc => "hit",
            IaScen::MissLlc => "miss",
            IaScen::MissCxl => "miss_cxl",
        }
    }
}

/// `unc_cha_tor_*.ia_drd[_pref]` 9-scenario sub-events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TorDrdScen {
    Total,
    HitLlc,
    MissLlc,
    MissDdr,
    MissLocal,
    MissLocalDdr,
    MissRemote,
    MissRemoteDdr,
    MissCxl,
}

impl TorDrdScen {
    pub const COUNT: usize = 9;
    pub const ALL: [TorDrdScen; 9] = [
        TorDrdScen::Total,
        TorDrdScen::HitLlc,
        TorDrdScen::MissLlc,
        TorDrdScen::MissDdr,
        TorDrdScen::MissLocal,
        TorDrdScen::MissLocalDdr,
        TorDrdScen::MissRemote,
        TorDrdScen::MissRemoteDdr,
        TorDrdScen::MissCxl,
    ];
    #[inline]
    pub fn idx(self) -> usize {
        match self {
            TorDrdScen::Total => 0,
            TorDrdScen::HitLlc => 1,
            TorDrdScen::MissLlc => 2,
            TorDrdScen::MissDdr => 3,
            TorDrdScen::MissLocal => 4,
            TorDrdScen::MissLocalDdr => 5,
            TorDrdScen::MissRemote => 6,
            TorDrdScen::MissRemoteDdr => 7,
            TorDrdScen::MissCxl => 8,
        }
    }
    pub fn suffix(self) -> &'static str {
        match self {
            TorDrdScen::Total => "all",
            TorDrdScen::HitLlc => "hit",
            TorDrdScen::MissLlc => "miss",
            TorDrdScen::MissDdr => "miss_ddr",
            TorDrdScen::MissLocal => "miss_local",
            TorDrdScen::MissLocalDdr => "miss_local_ddr",
            TorDrdScen::MissRemote => "miss_remote",
            TorDrdScen::MissRemoteDdr => "miss_remote_ddr",
            TorDrdScen::MissCxl => "miss_cxl",
        }
    }
}

/// `unc_cha_tor_*.ia_rfo[_pref]` 6-scenario sub-events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TorRfoScen {
    Total,
    HitLlc,
    MissLlc,
    MissLocal,
    MissRemote,
    MissCxl,
}

impl TorRfoScen {
    pub const COUNT: usize = 6;
    pub const ALL: [TorRfoScen; 6] = [
        TorRfoScen::Total,
        TorRfoScen::HitLlc,
        TorRfoScen::MissLlc,
        TorRfoScen::MissLocal,
        TorRfoScen::MissRemote,
        TorRfoScen::MissCxl,
    ];
    #[inline]
    pub fn idx(self) -> usize {
        match self {
            TorRfoScen::Total => 0,
            TorRfoScen::HitLlc => 1,
            TorRfoScen::MissLlc => 2,
            TorRfoScen::MissLocal => 3,
            TorRfoScen::MissRemote => 4,
            TorRfoScen::MissCxl => 5,
        }
    }
    pub fn suffix(self) -> &'static str {
        match self {
            TorRfoScen::Total => "all",
            TorRfoScen::HitLlc => "hit",
            TorRfoScen::MissLlc => "miss",
            TorRfoScen::MissLocal => "miss_local",
            TorRfoScen::MissRemote => "miss_remote",
            TorRfoScen::MissCxl => "miss_cxl",
        }
    }
}

/// `unc_cha_tor_inserts.ia_wb` 5-scenario coherence-transition sub-events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WbScen {
    /// Write-back E/F → E.
    EfToE,
    /// Write-back E/F → I.
    EfToI,
    /// Write-back M → E.
    MToE,
    /// Write-back M → I.
    MToI,
    /// Write-back S → I.
    SToI,
}

impl WbScen {
    pub const COUNT: usize = 5;
    pub const ALL: [WbScen; 5] = [
        WbScen::EfToE,
        WbScen::EfToI,
        WbScen::MToE,
        WbScen::MToI,
        WbScen::SToI,
    ];
    #[inline]
    pub fn idx(self) -> usize {
        match self {
            WbScen::EfToE => 0,
            WbScen::EfToI => 1,
            WbScen::MToE => 2,
            WbScen::MToI => 3,
            WbScen::SToI => 4,
        }
    }
    pub fn suffix(self) -> &'static str {
        match self {
            WbScen::EfToE => "wbeftoe",
            WbScen::EfToI => "wbeftoi",
            WbScen::MToE => "wbmtoe",
            WbScen::MToI => "wbmtoi",
            WbScen::SToI => "wbstoi",
        }
    }
}

/// Socket-scope CHA PMU events (paper Table 2).
///
/// The TOR (Table of Requests) is the CHA's request queue; PFBuilder uses its
/// insert counters to classify post-L2 paths, and PFEstimator/PFAnalyzer use
/// its occupancy counters to derive per-class latency via Little's law.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaEvent {
    /// Uncore clock ticks for this CHA.
    ClockTicks,
    /// LLC lookups that hit, any origin.
    LlcLookupHit,
    /// LLC lookups that missed.
    LlcLookupMiss,
    /// Snoop-filter hits (directory had the line).
    SfHit,
    /// Snoop-filter misses.
    SfMiss,
    /// Snoop-filter evictions (back-invalidations).
    SfEviction,
    /// Local (same-socket, cross-CHA) snoops issued.
    SnoopLocalSent,
    /// Remote (cross-socket) snoops issued.
    SnoopRemoteSent,
    /// Snoop responses that carried modified data (HitM).
    SnoopRspHitm,
    /// Snoop responses that hit clean data.
    SnoopRspHit,
    /// Snoop responses that missed.
    SnoopRspMiss,
    /// `unc_cha_tor_inserts.ia.*` (4 scenarios).
    TorInsertsIa(IaScen),
    /// `unc_cha_tor_inserts.ia_drd.*` (9 scenarios).
    TorInsertsIaDrd(TorDrdScen),
    /// `unc_cha_tor_inserts.ia_drd_pref.*` (9 scenarios).
    TorInsertsIaDrdPref(TorDrdScen),
    /// `unc_cha_tor_inserts.ia_rfo.*` (6 scenarios).
    TorInsertsIaRfo(TorRfoScen),
    /// `unc_cha_tor_inserts.ia_rfo_pref.*` (6 scenarios).
    TorInsertsIaRfoPref(TorRfoScen),
    /// `unc_cha_tor_inserts.ia_wb.*` (5 coherence transitions).
    TorInsertsIaWb(WbScen),
    /// `unc_cha_tor_occupancy.ia.*` (per-cycle valid-entry accumulation).
    TorOccupancyIa(IaScen),
    /// `unc_cha_tor_occupancy.ia_drd.*`.
    TorOccupancyIaDrd(TorDrdScen),
    /// `unc_cha_tor_occupancy.ia_drd_pref.*`.
    TorOccupancyIaDrdPref(TorDrdScen),
    /// `unc_cha_tor_occupancy.ia_rfo.*`.
    TorOccupancyIaRfo(TorRfoScen),
    /// `unc_cha_tor_occupancy.ia_rfo_pref.*`.
    TorOccupancyIaRfoPref(TorRfoScen),
    /// `unc_cha_tor_occupancy.ia_wbmtoi` (single write-back occupancy counter).
    TorOccupancyIaWbMtoI,
    /// `unc_cha_tor_threshold1.ia.*` (cycles the TOR class was non-empty).
    TorThreshold1Ia(IaScen),
    /// `unc_cha_tor_threshold1.ia_drd.*`.
    TorThreshold1IaDrd(TorDrdScen),
    /// `unc_cha_tor_threshold1.ia_drd_pref.*`.
    TorThreshold1IaDrdPref(TorDrdScen),
    /// `unc_cha_tor_threshold1.ia_rfo.*`.
    TorThreshold1IaRfo(TorRfoScen),
    /// `unc_cha_tor_threshold1.ia_rfo_pref.*`.
    TorThreshold1IaRfoPref(TorRfoScen),
}

const CHA_SIMPLE: usize = 11;
const CHA_IA: usize = IaScen::COUNT;
const CHA_DRD: usize = TorDrdScen::COUNT;
const CHA_RFO: usize = TorRfoScen::COUNT;
const CHA_WB: usize = WbScen::COUNT;

impl Event for ChaEvent {
    const CARD: usize = CHA_SIMPLE
        + 3 * CHA_IA          // inserts/occupancy/threshold1 .ia
        + 6 * CHA_DRD         // drd + drd_pref across the three families
        + 6 * CHA_RFO         // rfo + rfo_pref across the three families
        + CHA_WB              // inserts.ia_wb
        + 1; // occupancy.ia_wbmtoi

    #[inline]
    fn index(self) -> usize {
        use ChaEvent::*;
        let base_ins_ia = CHA_SIMPLE;
        let base_ins_drd = base_ins_ia + CHA_IA;
        let base_ins_drdp = base_ins_drd + CHA_DRD;
        let base_ins_rfo = base_ins_drdp + CHA_DRD;
        let base_ins_rfop = base_ins_rfo + CHA_RFO;
        let base_ins_wb = base_ins_rfop + CHA_RFO;
        let base_occ_ia = base_ins_wb + CHA_WB;
        let base_occ_drd = base_occ_ia + CHA_IA;
        let base_occ_drdp = base_occ_drd + CHA_DRD;
        let base_occ_rfo = base_occ_drdp + CHA_DRD;
        let base_occ_rfop = base_occ_rfo + CHA_RFO;
        let base_occ_wb = base_occ_rfop + CHA_RFO;
        let base_th_ia = base_occ_wb + 1;
        let base_th_drd = base_th_ia + CHA_IA;
        let base_th_drdp = base_th_drd + CHA_DRD;
        let base_th_rfo = base_th_drdp + CHA_DRD;
        let base_th_rfop = base_th_rfo + CHA_RFO;
        match self {
            ClockTicks => 0,
            LlcLookupHit => 1,
            LlcLookupMiss => 2,
            SfHit => 3,
            SfMiss => 4,
            SfEviction => 5,
            SnoopLocalSent => 6,
            SnoopRemoteSent => 7,
            SnoopRspHitm => 8,
            SnoopRspHit => 9,
            SnoopRspMiss => 10,
            TorInsertsIa(s) => base_ins_ia + s.idx(),
            TorInsertsIaDrd(s) => base_ins_drd + s.idx(),
            TorInsertsIaDrdPref(s) => base_ins_drdp + s.idx(),
            TorInsertsIaRfo(s) => base_ins_rfo + s.idx(),
            TorInsertsIaRfoPref(s) => base_ins_rfop + s.idx(),
            TorInsertsIaWb(s) => base_ins_wb + s.idx(),
            TorOccupancyIa(s) => base_occ_ia + s.idx(),
            TorOccupancyIaDrd(s) => base_occ_drd + s.idx(),
            TorOccupancyIaDrdPref(s) => base_occ_drdp + s.idx(),
            TorOccupancyIaRfo(s) => base_occ_rfo + s.idx(),
            TorOccupancyIaRfoPref(s) => base_occ_rfop + s.idx(),
            TorOccupancyIaWbMtoI => base_occ_wb,
            TorThreshold1Ia(s) => base_th_ia + s.idx(),
            TorThreshold1IaDrd(s) => base_th_drd + s.idx(),
            TorThreshold1IaDrdPref(s) => base_th_drdp + s.idx(),
            TorThreshold1IaRfo(s) => base_th_rfo + s.idx(),
            TorThreshold1IaRfoPref(s) => base_th_rfop + s.idx(),
        }
    }

    fn name(self) -> String {
        use ChaEvent::*;
        match self {
            ClockTicks => "unc_cha_clockticks".into(),
            LlcLookupHit => "unc_cha_llc_lookup.hit".into(),
            LlcLookupMiss => "unc_cha_llc_lookup.miss".into(),
            SfHit => "unc_cha_sf_lookup.hit".into(),
            SfMiss => "unc_cha_sf_lookup.miss".into(),
            SfEviction => "unc_cha_sf_eviction".into(),
            SnoopLocalSent => "unc_cha_snoops_sent.local".into(),
            SnoopRemoteSent => "unc_cha_snoops_sent.remote".into(),
            SnoopRspHitm => "unc_cha_snoop_resp.hitm".into(),
            SnoopRspHit => "unc_cha_snoop_resp.hit".into(),
            SnoopRspMiss => "unc_cha_snoop_resp.miss".into(),
            TorInsertsIa(s) => format!("unc_cha_tor_inserts.ia_{}", s.suffix()),
            TorInsertsIaDrd(s) => format!("unc_cha_tor_inserts.ia_drd_{}", s.suffix()),
            TorInsertsIaDrdPref(s) => format!("unc_cha_tor_inserts.ia_drd_pref_{}", s.suffix()),
            TorInsertsIaRfo(s) => format!("unc_cha_tor_inserts.ia_rfo_{}", s.suffix()),
            TorInsertsIaRfoPref(s) => format!("unc_cha_tor_inserts.ia_rfo_pref_{}", s.suffix()),
            TorInsertsIaWb(s) => format!("unc_cha_tor_inserts.ia_{}", s.suffix()),
            TorOccupancyIa(s) => format!("unc_cha_tor_occupancy.ia_{}", s.suffix()),
            TorOccupancyIaDrd(s) => format!("unc_cha_tor_occupancy.ia_drd_{}", s.suffix()),
            TorOccupancyIaDrdPref(s) => {
                format!("unc_cha_tor_occupancy.ia_drd_pref_{}", s.suffix())
            }
            TorOccupancyIaRfo(s) => format!("unc_cha_tor_occupancy.ia_rfo_{}", s.suffix()),
            TorOccupancyIaRfoPref(s) => {
                format!("unc_cha_tor_occupancy.ia_rfo_pref_{}", s.suffix())
            }
            TorOccupancyIaWbMtoI => "unc_cha_tor_occupancy.ia_wbmtoi".into(),
            TorThreshold1Ia(s) => format!("unc_cha_tor_threshold1.ia_{}", s.suffix()),
            TorThreshold1IaDrd(s) => format!("unc_cha_tor_threshold1.ia_drd_{}", s.suffix()),
            TorThreshold1IaDrdPref(s) => {
                format!("unc_cha_tor_threshold1.ia_drd_pref_{}", s.suffix())
            }
            TorThreshold1IaRfo(s) => format!("unc_cha_tor_threshold1.ia_rfo_{}", s.suffix()),
            TorThreshold1IaRfoPref(s) => {
                format!("unc_cha_tor_threshold1.ia_rfo_pref_{}", s.suffix())
            }
        }
    }
}

impl ChaEvent {
    /// Enumerate every CHA event (all sub-events expanded).
    pub fn all() -> Vec<ChaEvent> {
        use ChaEvent::*;
        let mut v = vec![
            ClockTicks,
            LlcLookupHit,
            LlcLookupMiss,
            SfHit,
            SfMiss,
            SfEviction,
            SnoopLocalSent,
            SnoopRemoteSent,
            SnoopRspHitm,
            SnoopRspHit,
            SnoopRspMiss,
        ];
        for s in IaScen::ALL {
            v.push(TorInsertsIa(s));
        }
        for s in TorDrdScen::ALL {
            v.push(TorInsertsIaDrd(s));
        }
        for s in TorDrdScen::ALL {
            v.push(TorInsertsIaDrdPref(s));
        }
        for s in TorRfoScen::ALL {
            v.push(TorInsertsIaRfo(s));
        }
        for s in TorRfoScen::ALL {
            v.push(TorInsertsIaRfoPref(s));
        }
        for s in WbScen::ALL {
            v.push(TorInsertsIaWb(s));
        }
        for s in IaScen::ALL {
            v.push(TorOccupancyIa(s));
        }
        for s in TorDrdScen::ALL {
            v.push(TorOccupancyIaDrd(s));
        }
        for s in TorDrdScen::ALL {
            v.push(TorOccupancyIaDrdPref(s));
        }
        for s in TorRfoScen::ALL {
            v.push(TorOccupancyIaRfo(s));
        }
        for s in TorRfoScen::ALL {
            v.push(TorOccupancyIaRfoPref(s));
        }
        v.push(TorOccupancyIaWbMtoI);
        for s in IaScen::ALL {
            v.push(TorThreshold1Ia(s));
        }
        for s in TorDrdScen::ALL {
            v.push(TorThreshold1IaDrd(s));
        }
        for s in TorDrdScen::ALL {
            v.push(TorThreshold1IaDrdPref(s));
        }
        for s in TorRfoScen::ALL {
            v.push(TorThreshold1IaRfo(s));
        }
        for s in TorRfoScen::ALL {
            v.push(TorThreshold1IaRfoPref(s));
        }
        v
    }
}

// ---------------------------------------------------------------------------
// IMC PMU (paper Table 3, per-channel)
// ---------------------------------------------------------------------------

/// Per-channel integrated-memory-controller events (paper Table 3).
///
/// The paper exposes each counter per pseudo-channel (`.pch0`/`.pch1`); here a
/// [`crate::bank::Bank<ImcEvent>`] is instantiated per pseudo-channel and the
/// channel id is carried by the bank's position in [`crate::SystemPmu`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ImcEvent {
    /// DRAM clock ticks.
    ClockTicks,
    /// `unc_m_rpq_cycles_ne`: cycles the Read Pending Queue was non-empty.
    RpqCyclesNe,
    /// `unc_m_wpq_cycles_ne`.
    WpqCyclesNe,
    /// `unc_m_cas_count.all`.
    CasCountAll,
    /// `unc_m_cas_count.rd`.
    CasCountRd,
    /// `unc_m_cas_count.wr`.
    CasCountWr,
    /// `unc_m_rpq_inserts`.
    RpqInserts,
    /// `unc_m_wpq_inserts`.
    WpqInserts,
    /// `unc_m_rpq_occupancy`: per-cycle RPQ occupancy accumulation.
    RpqOccupancy,
    /// `unc_m_wpq_occupancy`.
    WpqOccupancy,
}

impl Event for ImcEvent {
    const CARD: usize = 10;
    #[inline]
    fn index(self) -> usize {
        use ImcEvent::*;
        match self {
            ClockTicks => 0,
            RpqCyclesNe => 1,
            WpqCyclesNe => 2,
            CasCountAll => 3,
            CasCountRd => 4,
            CasCountWr => 5,
            RpqInserts => 6,
            WpqInserts => 7,
            RpqOccupancy => 8,
            WpqOccupancy => 9,
        }
    }
    fn name(self) -> String {
        use ImcEvent::*;
        match self {
            ClockTicks => "unc_m_clockticks".into(),
            RpqCyclesNe => "unc_m_rpq_cycles_ne".into(),
            WpqCyclesNe => "unc_m_wpq_cycles_ne".into(),
            CasCountAll => "unc_m_cas_count.all".into(),
            CasCountRd => "unc_m_cas_count.rd".into(),
            CasCountWr => "unc_m_cas_count.wr".into(),
            RpqInserts => "unc_m_rpq_inserts".into(),
            WpqInserts => "unc_m_wpq_inserts".into(),
            RpqOccupancy => "unc_m_rpq_occupancy".into(),
            WpqOccupancy => "unc_m_wpq_occupancy".into(),
        }
    }
}

impl ImcEvent {
    pub fn all() -> Vec<ImcEvent> {
        use ImcEvent::*;
        vec![
            ClockTicks,
            RpqCyclesNe,
            WpqCyclesNe,
            CasCountAll,
            CasCountRd,
            CasCountWr,
            RpqInserts,
            WpqInserts,
            RpqOccupancy,
            WpqOccupancy,
        ]
    }
}

// ---------------------------------------------------------------------------
// M2PCIe PMU (paper Table 3, per endpoint)
// ---------------------------------------------------------------------------

/// Mesh-to-PCIe (FlexBus root complex) events, per CXL endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum M2pEvent {
    /// Uncore clock ticks.
    ClockTicks,
    /// `unc_m2p_rxc_cycles_ne.all`: cycles the ingress queue was non-empty.
    RxcCyclesNe,
    /// `unc_m2p_rxc_inserts.all`: entries inserted from the mesh.
    RxcInserts,
    /// `unc_m2p_rxc_occupancy.all`: per-cycle ingress-queue occupancy.
    RxcOccupancy,
    /// `unc_m2p_txc_inserts.ak`: acknowledgement entries to the mesh (stores).
    TxcInsertsAk,
    /// `unc_m2p_txc_inserts.bl`: cache-line data entries to the mesh (loads).
    TxcInsertsBl,
}

impl Event for M2pEvent {
    const CARD: usize = 6;
    #[inline]
    fn index(self) -> usize {
        use M2pEvent::*;
        match self {
            ClockTicks => 0,
            RxcCyclesNe => 1,
            RxcInserts => 2,
            RxcOccupancy => 3,
            TxcInsertsAk => 4,
            TxcInsertsBl => 5,
        }
    }
    fn name(self) -> String {
        use M2pEvent::*;
        match self {
            ClockTicks => "unc_m2p_clockticks".into(),
            RxcCyclesNe => "unc_m2p_rxc_cycles_ne.all".into(),
            RxcInserts => "unc_m2p_rxc_inserts.all".into(),
            RxcOccupancy => "unc_m2p_rxc_occupancy.all".into(),
            TxcInsertsAk => "unc_m2p_txc_inserts.ak".into(),
            TxcInsertsBl => "unc_m2p_txc_inserts.bl".into(),
        }
    }
}

impl M2pEvent {
    pub fn all() -> Vec<M2pEvent> {
        use M2pEvent::*;
        vec![
            ClockTicks,
            RxcCyclesNe,
            RxcInserts,
            RxcOccupancy,
            TxcInsertsAk,
            TxcInsertsBl,
        ]
    }
}

// ---------------------------------------------------------------------------
// CXL device PMU (paper Table 4)
// ---------------------------------------------------------------------------

/// CXL Type-3 device events (paper Table 4): the M2S/S2M packing buffers of
/// the CXL.mem link layer, plus device-MC occupancy used for QoS telemetry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CxlEvent {
    /// Device clock ticks.
    ClockTicks,
    /// `unc_cxlcm_rxc_pack_buf_inserts.mem_req`: M2S Req allocations.
    RxcPackBufInsertsMemReq,
    /// `unc_cxlcm_rxc_pack_buf_inserts.mem_data`: M2S RwD allocations.
    RxcPackBufInsertsMemData,
    /// `unc_cxlcm_rxc_pack_buf_full.mem_req`: cycles the Req buffer was full.
    RxcPackBufFullMemReq,
    /// `unc_cxlcm_rxc_pack_buf_full.mem_data`.
    RxcPackBufFullMemData,
    /// `unc_cxlcm_rxc_pack_buf_ne.mem_req`: cycles the Req buffer was non-empty.
    RxcPackBufNeMemReq,
    /// `unc_cxlcm_rxc_pack_buf_ne.mem_data`.
    RxcPackBufNeMemData,
    /// `unc_cxlcm_txc_pack_buf_inserts.mem_req`: S2M NDR allocations.
    TxcPackBufInsertsMemReq,
    /// `unc_cxlcm_txc_pack_buf_inserts.mem_data`: S2M DRS allocations.
    TxcPackBufInsertsMemData,
    /// Per-cycle occupancy of the M2S Req packing buffer.
    RxcPackBufOccupancyMemReq,
    /// Per-cycle occupancy of the M2S RwD packing buffer.
    RxcPackBufOccupancyMemData,
    /// Device-MC read-queue per-cycle occupancy (QoS telemetry input).
    DevMcRpqOccupancy,
    /// Device-MC write-queue per-cycle occupancy.
    DevMcWpqOccupancy,
    /// Device-MC read commands serviced.
    DevMcRdCas,
    /// Device-MC write commands serviced.
    DevMcWrCas,
}

impl Event for CxlEvent {
    const CARD: usize = 15;
    #[inline]
    fn index(self) -> usize {
        use CxlEvent::*;
        match self {
            ClockTicks => 0,
            RxcPackBufInsertsMemReq => 1,
            RxcPackBufInsertsMemData => 2,
            RxcPackBufFullMemReq => 3,
            RxcPackBufFullMemData => 4,
            RxcPackBufNeMemReq => 5,
            RxcPackBufNeMemData => 6,
            TxcPackBufInsertsMemReq => 7,
            TxcPackBufInsertsMemData => 8,
            RxcPackBufOccupancyMemReq => 9,
            RxcPackBufOccupancyMemData => 10,
            DevMcRpqOccupancy => 11,
            DevMcWpqOccupancy => 12,
            DevMcRdCas => 13,
            DevMcWrCas => 14,
        }
    }
    fn name(self) -> String {
        use CxlEvent::*;
        match self {
            ClockTicks => "unc_cxlcm_clockticks".into(),
            RxcPackBufInsertsMemReq => "unc_cxlcm_rxc_pack_buf_inserts.mem_req".into(),
            RxcPackBufInsertsMemData => "unc_cxlcm_rxc_pack_buf_inserts.mem_data".into(),
            RxcPackBufFullMemReq => "unc_cxlcm_rxc_pack_buf_full.mem_req".into(),
            RxcPackBufFullMemData => "unc_cxlcm_rxc_pack_buf_full.mem_data".into(),
            RxcPackBufNeMemReq => "unc_cxlcm_rxc_pack_buf_ne.mem_req".into(),
            RxcPackBufNeMemData => "unc_cxlcm_rxc_pack_buf_ne.mem_data".into(),
            TxcPackBufInsertsMemReq => "unc_cxlcm_txc_pack_buf_inserts.mem_req".into(),
            TxcPackBufInsertsMemData => "unc_cxlcm_txc_pack_buf_inserts.mem_data".into(),
            RxcPackBufOccupancyMemReq => "unc_cxlcm_rxc_pack_buf_occupancy.mem_req".into(),
            RxcPackBufOccupancyMemData => "unc_cxlcm_rxc_pack_buf_occupancy.mem_data".into(),
            DevMcRpqOccupancy => "unc_cxldev_mc_rpq_occupancy".into(),
            DevMcWpqOccupancy => "unc_cxldev_mc_wpq_occupancy".into(),
            DevMcRdCas => "unc_cxldev_mc_cas.rd".into(),
            DevMcWrCas => "unc_cxldev_mc_cas.wr".into(),
        }
    }
}

impl CxlEvent {
    pub fn all() -> Vec<CxlEvent> {
        use CxlEvent::*;
        vec![
            ClockTicks,
            RxcPackBufInsertsMemReq,
            RxcPackBufInsertsMemData,
            RxcPackBufFullMemReq,
            RxcPackBufFullMemData,
            RxcPackBufNeMemReq,
            RxcPackBufNeMemData,
            TxcPackBufInsertsMemReq,
            TxcPackBufInsertsMemData,
            RxcPackBufOccupancyMemReq,
            RxcPackBufOccupancyMemData,
            DevMcRpqOccupancy,
            DevMcWpqOccupancy,
            DevMcRdCas,
            DevMcWrCas,
        ]
    }
}

// ---------------------------------------------------------------------
// CXL switch PMU (`unc_cxlsw_*`) — one bank per upstream port
// ---------------------------------------------------------------------

/// Events of one CXL switch upstream port (the fabric topology's `cxlsw`
/// stages). Real CXL 2.0 switches expose per-port ingress/egress telemetry;
/// this is the minimal set the fabric's per-host path attribution needs:
/// where requests queued, who got the shared downstream link, and how long
/// a port's head-of-line request sat blocked behind other ports' grants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchEvent {
    /// Switch clock ticks (per upstream port, mirrors the other uncore
    /// clocktick banks so dropout detection generalises).
    ClockTicks,
    /// Requests accepted into this port's ingress queue.
    IngressInserts,
    /// Entry-cycles requests spent queued at this port before their grant.
    IngressOccupancy,
    /// Arbitration grants won by this port on the shared downstream link.
    ArbGrants,
    /// Cycles this port's head-of-line request waited while the shared
    /// link was granted to a *different* port (the HOL-blocking signal).
    HolBlockedCycles,
    /// Cycles the shared downstream link spent serving this port's flits
    /// (per-port decomposition of link utilisation).
    LinkBusyCycles,
}

impl Event for SwitchEvent {
    const CARD: usize = 6;
    #[inline]
    fn index(self) -> usize {
        use SwitchEvent::*;
        match self {
            ClockTicks => 0,
            IngressInserts => 1,
            IngressOccupancy => 2,
            ArbGrants => 3,
            HolBlockedCycles => 4,
            LinkBusyCycles => 5,
        }
    }
    fn name(self) -> String {
        use SwitchEvent::*;
        match self {
            ClockTicks => "unc_cxlsw_clockticks".into(),
            IngressInserts => "unc_cxlsw_ingress_inserts.port".into(),
            IngressOccupancy => "unc_cxlsw_ingress_occupancy.port".into(),
            ArbGrants => "unc_cxlsw_arb_grants.port".into(),
            HolBlockedCycles => "unc_cxlsw_hol_blocked_cycles.port".into(),
            LinkBusyCycles => "unc_cxlsw_link_busy_cycles.port".into(),
        }
    }
}

impl SwitchEvent {
    pub fn all() -> Vec<SwitchEvent> {
        use SwitchEvent::*;
        vec![
            ClockTicks,
            IngressInserts,
            IngressOccupancy,
            ArbGrants,
            HolBlockedCycles,
            LinkBusyCycles,
        ]
    }
}

// ---------------------------------------------------------------------
// Pooled Type-3 device PMU (`unc_cxlpool_*`) — one bank per host
// ---------------------------------------------------------------------

/// Events of the pooled Type-3 device, decomposed per tenant host. The
/// device-side MC queues are shared by N hosts; these counters attribute
/// the shared queue's occupancy, bandwidth, and contention penalty back to
/// the host that caused or suffered them — the input to the fabric
/// analyzer's victim/culprit naming.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolEvent {
    /// Pooled-device clock ticks (per host bank).
    ClockTicks,
    /// Shared-MC read CAS commands issued on behalf of this host.
    McRdCas,
    /// Shared-MC write CAS commands issued on behalf of this host.
    McWrCas,
    /// Entry-cycles this host's requests spent resident in the shared MC
    /// queue (occupancy integral).
    McOccupancy,
    /// Cycles this host's requests waited for the shared MC to start
    /// service (queueing delay only, service time excluded).
    McWaitCycles,
    /// The contention penalty: cycles of wait this host's requests paid
    /// *beyond* what an identical private (unshared) device would have
    /// charged. Exactly zero for a 1-host fabric.
    ExcessWaitCycles,
}

impl Event for PoolEvent {
    const CARD: usize = 6;
    #[inline]
    fn index(self) -> usize {
        use PoolEvent::*;
        match self {
            ClockTicks => 0,
            McRdCas => 1,
            McWrCas => 2,
            McOccupancy => 3,
            McWaitCycles => 4,
            ExcessWaitCycles => 5,
        }
    }
    fn name(self) -> String {
        use PoolEvent::*;
        match self {
            ClockTicks => "unc_cxlpool_clockticks".into(),
            McRdCas => "unc_cxlpool_mc_cas.rd".into(),
            McWrCas => "unc_cxlpool_mc_cas.wr".into(),
            McOccupancy => "unc_cxlpool_mc_occupancy.host".into(),
            McWaitCycles => "unc_cxlpool_mc_wait_cycles.host".into(),
            ExcessWaitCycles => "unc_cxlpool_mc_excess_wait_cycles.host".into(),
        }
    }
}

impl PoolEvent {
    pub fn all() -> Vec<PoolEvent> {
        use PoolEvent::*;
        vec![
            ClockTicks,
            McRdCas,
            McWrCas,
            McOccupancy,
            McWaitCycles,
            ExcessWaitCycles,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn check_dense<E: Event>(all: &[E]) {
        let mut seen = BTreeSet::new();
        for e in all {
            let i = e.index();
            assert!(i < E::CARD, "{:?} index {} >= CARD {}", e, i, E::CARD);
            assert!(seen.insert(i), "duplicate index {} for {:?}", i, e);
        }
        assert_eq!(seen.len(), E::CARD, "event space not fully covered");
    }

    #[test]
    fn core_events_are_dense_and_unique() {
        check_dense(&CoreEvent::all());
    }

    #[test]
    fn cha_events_are_dense_and_unique() {
        check_dense(&ChaEvent::all());
    }

    #[test]
    fn imc_events_are_dense_and_unique() {
        check_dense(&ImcEvent::all());
    }

    #[test]
    fn m2p_events_are_dense_and_unique() {
        check_dense(&M2pEvent::all());
    }

    #[test]
    fn cxl_events_are_dense_and_unique() {
        check_dense(&CxlEvent::all());
    }

    #[test]
    fn switch_events_are_dense_and_unique() {
        check_dense(&SwitchEvent::all());
    }

    #[test]
    fn pool_events_are_dense_and_unique() {
        check_dense(&PoolEvent::all());
    }

    #[test]
    fn event_names_are_unique_within_a_pmu() {
        let names: Vec<String> = CoreEvent::all().iter().map(|e| e.name()).collect();
        let set: BTreeSet<&String> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn path_class_round_trips() {
        for p in PathClass::ALL {
            assert!(p.idx() < PathClass::COUNT);
            assert_eq!(PathClass::ALL[p.idx()], p);
        }
    }

    #[test]
    fn report_group_collapses_prefetch_variants() {
        assert_eq!(PathClass::HwPfL2Drd.report_group(), PathClass::HwPfL1);
        assert_eq!(PathClass::HwPfL2Rfo.report_group(), PathClass::HwPfL1);
        assert_eq!(PathClass::SwPf.report_group(), PathClass::Drd);
        assert_eq!(PathClass::Drd.report_group(), PathClass::Drd);
        assert_eq!(PathClass::Dwr.report_group(), PathClass::Dwr);
    }

    #[test]
    fn the_dissection_exposes_at_least_232_counters() {
        // §3 of the paper: "identify 232 counters to dissect the CXL.mem
        // protocol execution". Our taxonomy expands sub-events the same way.
        let total = CoreEvent::all().len()
            + ChaEvent::all().len()
            + ImcEvent::all().len()
            + M2pEvent::all().len()
            + CxlEvent::all().len();
        assert!(total >= 232, "only {} counters exposed", total);
    }
}
