//! Typed event enumerations for every PMU in the system.
//!
//! Every enumeration implements [`Event`], which maps an event (including its
//! sub-event parameters) onto a dense index so a module's counter file can be
//! a flat `Vec<u64>` — increments on the simulator hot path are a single
//! array add, exactly like an MSR write on real silicon.
//!
//! Each event space is declared once, as a table of one row per variant in
//! index order (`event_space!`); each sub-event set and the path classes
//! likewise (`dense_enum!`). The enum, its indices, its perf names and its
//! `all()` list are all generated from that one table, so they cannot drift
//! apart.

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

/// Declares a fieldless enum from one row per variant, `Variant => "text"`,
/// and generates `ALL` (every variant, in row order), `COUNT`, `idx()` (the
/// variant's discriminant, so `ALL[v.idx()] == v`) and a `&'static str`
/// accessor returning the row's text. The accessor is `suffix` (the
/// sub-event's perf-name suffix) unless a trailing `fn name;` names it.
macro_rules! dense_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident { $($rows:tt)* }
    ) => {
        dense_enum! {
            $(#[$meta])*
            pub enum $name { $($rows)* }
            /// The perf-name suffix this sub-event appends to its family's prefix.
            fn suffix;
        }
    };
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident => $text:literal, )*
        }
        $(#[$label_meta:meta])*
        fn $label:ident;
    ) => {
        $(#[$meta])*
        pub enum $name {
            $( $(#[$vmeta])* $variant, )*
        }

        impl $name {
            /// Number of variants.
            pub const COUNT: usize = [$($name::$variant),*].len();
            /// Every variant, in index order.
            pub const ALL: [$name; $name::COUNT] = [$($name::$variant),*];

            /// Dense index, `< Self::COUNT`: the variant's discriminant.
            #[inline]
            pub const fn idx(self) -> usize {
                self as usize
            }

            $(#[$label_meta])*
            pub fn $label(self) -> &'static str {
                match self {
                    $( $name::$variant => $text, )*
                }
            }
        }
    };
}

/// Declares one PMU's event space from its table: one row per variant, in
/// index order. A row is `Variant => "perf.name"` for a single counter, or
/// `Variant(Sub) => "perf.prefix"` for a family with one counter per
/// sub-event of `Sub` (a `dense_enum!`), named prefix + `Sub::suffix()`.
/// Generates the enum, its [`Event`] impl and `all()`: a row's first index
/// is the number of counters in the rows above it (a compile-time constant
/// per row), a family member's index adds its `Sub::idx()`, and `all()`
/// lists the rows in table order with each family expanded in `Sub::ALL`
/// order, so `all()[i].index() == i`.
macro_rules! event_space {
    (@width) => { 1 };
    (@width $sub:ident) => { $sub::COUNT };
    (@pat $name:ident :: $variant:ident, $bind:ident) => { $name::$variant };
    (@pat $name:ident :: $variant:ident, $bind:ident, $sub:ident) => { $name::$variant($bind) };
    (@push $all:ident, $name:ident :: $variant:ident) => { $all.push($name::$variant) };
    (@push $all:ident, $name:ident :: $variant:ident, $sub:ident) => {
        $all.extend($sub::ALL.map($name::$variant))
    };
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident $(($sub:ident))? => $perf:literal, )*
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $( $(#[$vmeta])* $variant $(($sub))?, )*
        }

        const _: () = {
            /// The table's rows: a row's discriminant is its position.
            enum Row {
                $( $variant, )*
            }

            /// Counters per row: one, or a family's sub-event count.
            const WIDTH: &[usize] = &[$( event_space!(@width $($sub)?) ),*];

            /// First index of each row: the counters in the rows above it.
            const BASE: [usize; WIDTH.len()] = {
                let mut base = [0; WIDTH.len()];
                let mut row = 1;
                while row < WIDTH.len() {
                    base[row] = base[row - 1] + WIDTH[row - 1];
                    row += 1;
                }
                base
            };

            impl Event for $name {
                const CARD: usize = 0 $( + event_space!(@width $($sub)?) )*;

                #[inline]
                fn index(self) -> usize {
                    match self {
                        $(
                            event_space!(@pat $name::$variant, sub $(, $sub)?) =>
                                $( $sub::idx(sub) + )? const { BASE[Row::$variant as usize] },
                        )*
                    }
                }

                fn name(self) -> String {
                    match self {
                        $(
                            event_space!(@pat $name::$variant, sub $(, $sub)?) =>
                                String::from($perf) $( + $sub::suffix(sub) )?,
                        )*
                    }
                }
            }

            impl $name {
                /// Every event of this space, sub-events expanded, in index order.
                pub fn all() -> Vec<$name> {
                    let mut all = Vec::with_capacity(<$name as Event>::CARD);
                    $( event_space!(@push all, $name::$variant $(, $sub)?); )*
                    all
                }
            }
        };
    };
}

dense_enum! {
    /// The architectural request class that spawns a CXL.mem data path (§2.2).
    ///
    /// * `Drd` — demand data read (path #1).
    /// * `Dwr` — demand data write; becomes an RFO + later write-back (path #2).
    /// * `Rfo` — read-for-ownership (path #3).
    /// * `HwPfL1` / `HwPfL2Drd` / `HwPfL2Rfo` — hardware prefetches (path #4).
    /// * `SwPf` — software prefetch; merges into the DRd path after L1D.
    ///
    /// `ALL` is the canonical report order.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub enum PathClass {
        Drd => "DRd",
        Dwr => "DWr",
        Rfo => "RFO",
        HwPfL1 => "HWPF.L1",
        HwPfL2Drd => "HWPF.L2D",
        HwPfL2Rfo => "HWPF.L2R",
        SwPf => "SWPF",
    }
    /// Short mnemonic used in reports ("DRd", "RFO", …).
    fn mnemonic;
}

impl PathClass {
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

dense_enum! {
    /// The "9 scenarios" of the offcore-response (`ocr.*`) events (Table 2/5):
    /// where a request that left the core was ultimately supplied from.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    pub enum RespScenario {
        /// (a) any type of response.
        AnyResponse => "any_response",
        /// (b) hit in the L3 or snooped from another core's cache, same socket.
        L3HitSnoopLocal => "l3_hit",
        /// (c) not supplied by the local socket's L1/L2/L3.
        MissLocalCaches => "l3_miss_local_caches",
        /// (d) supplied by DRAM attached to this socket (close SNC cluster).
        LocalDram => "local_dram",
        /// (e) hit a distant L3 / distant core's L1-L2 on this socket (SNC mode).
        SncDistantL3 => "snc_cache",
        /// (f) supplied by DRAM on a distant memory controller (SNC mode).
        SncDistantDram => "snc_dram",
        /// (g) supplied by a remote-socket cache where a snoop hit a line.
        RemoteCacheHit => "remote_cache",
        /// (h) supplied by DRAM attached to another socket.
        RemoteDram => "remote_dram",
        /// (i) supplied by CXL DRAM.
        CxlDram => "cxl_dram",
    }
}

dense_enum! {
    /// Sub-events of `mem_load_l3_hit_retired` (Table 2): 4 L3-hit data sources.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum L3HitSrc {
        /// HitM response from shared L3.
        XsnpHitm => "xsnp_hitm",
        /// L3 hit, cross-core snoop missed in an on-package core cache.
        XsnpMiss => "xsnp_miss",
        /// L3 hit + cross-core snoop hit in an on-package core cache.
        XsnpHit => "xsnp_hit",
        /// Plain L3 hit, no snoop required.
        XsnpNone => "xsnp_none",
    }
}

dense_enum! {
    /// Sub-events of `mem_load_l3_miss_retired` (Table 2): 4 L3-miss data sources.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum L3MissSrc {
        LocalDram => "local_dram",
        RemoteDram => "remote_dram",
        RemoteFwd => "remote_fwd",
        RemoteHitm => "remote_hitm",
    }
}

// ---------------------------------------------------------------------------
// Core PMU (paper Table 1 + per-core rows of Table 2)
// ---------------------------------------------------------------------------

event_space! {
    /// Per-core PMU events (paper Table 1 plus the per-core rows of Table 2).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum CoreEvent {
        /// Unhalted core clock ticks (reference for all cycle counters).
        CpuClkUnhalted => "cpu_clk_unhalted.thread",
        /// Retired instructions.
        InstRetired => "inst_retired.any",

        // --- Store buffer -----------------------------------------------------
        /// `resource_stalls.sb`: stall cycles with SB full while loads still issue.
        ResourceStallsSb => "resource_stalls.sb",
        /// `exe_activity.bound_on_stores`: SB full and no loads in flight.
        ExeActivityBoundOnStores => "exe_activity.bound_on_stores",

        // --- L1D ----------------------------------------------------------------
        /// `cycle_activity.cycles_l1d_miss`: cycles any L1D-miss demand load is outstanding.
        CycleActivityCyclesL1dMiss => "cycle_activity.cycles_l1d_miss",
        /// `memory_activity.stalls_l1d_miss`: execution-stall cycles under L1D miss.
        MemoryActivityStallsL1dMiss => "memory_activity.stalls_l1d_miss",
        /// `l1d.replacement`: L1D line evictions.
        L1dReplacement => "l1d.replacement",
        /// `mem_load_retired.l1_hit`.
        MemLoadRetiredL1Hit => "mem_load_retired.l1_hit",
        /// `mem_load_retired.l1_miss`.
        MemLoadRetiredL1Miss => "mem_load_retired.l1_miss",

        // --- LFB ----------------------------------------------------------------
        /// `mem_load_retired.l1_fb_hit`: missed L1 but merged into an in-flight LFB entry.
        MemLoadRetiredL1FbHit => "mem_load_retired.l1_fb_hit",
        /// `l1d_pend_miss.fb_full`: cycles a demand request waited because the LFB was full.
        L1dPendMissFbFull => "l1d_pend_miss.fb_full",

        // --- L2 -----------------------------------------------------------------
        /// `mem_load_retired.l2_hit`.
        MemLoadRetiredL2Hit => "mem_load_retired.l2_hit",
        /// `mem_load_retired.l2_miss`.
        MemLoadRetiredL2Miss => "mem_load_retired.l2_miss",
        /// `mem_store_retired.l2_hit`.
        MemStoreRetiredL2Hit => "mem_store_retired.l2_hit",
        /// `l2_rqsts.references`: every L2 access (hit or true miss).
        L2RqstsReferences => "l2_rqsts.references",
        /// `offcore_requests.all_requests`: transactions that reached the super queue.
        OffcoreRequestsAllRequests => "offcore_requests.all_requests",
        /// `l2_rqsts.all_demand_references`.
        L2RqstsAllDemandReferences => "l2_rqsts.all_demand_references",
        /// `l2_rqsts.all_demand_miss`.
        L2RqstsAllDemandMiss => "l2_rqsts.all_demand_miss",
        /// `l2_rqsts.miss`: true misses of any read type.
        L2RqstsMiss => "l2_rqsts.miss",
        /// `offcore_requests.data_rd`: demand + prefetch data reads sent offcore.
        OffcoreRequestsDataRd => "offcore_requests.data_rd",
        /// `l2_rqsts.all_demand_data_rd`.
        L2RqstsAllDemandDataRd => "l2_rqsts.all_demand_data_rd",
        /// `l2_rqsts.demand_data_rd_hit`.
        L2RqstsDemandDataRdHit => "l2_rqsts.demand_data_rd_hit",
        /// `offcore_requests.demand_data_rd`.
        OffcoreRequestsDemandDataRd => "offcore_requests.demand_data_rd",
        /// `l2_rqsts.demand_data_rd_miss`.
        L2RqstsDemandDataRdMiss => "l2_rqsts.demand_data_rd_miss",
        /// `l2_rqsts.all_rfo` (demand RFO + L1D RFO prefetches — the paper's
        /// §5.9 limitation: demand and prefetch RFO are indistinguishable here).
        L2RqstsAllRfo => "l2_rqsts.all_rfo",
        /// `l2_rqsts.rfo_hit`.
        L2RqstsRfoHit => "l2_rqsts.rfo_hit",
        /// `l2_rqsts.rfo_miss`.
        L2RqstsRfoMiss => "l2_rqsts.rfo_miss",
        /// `l2_rqsts.swpf_hit`.
        L2RqstsSwpfHit => "l2_rqsts.swpf_hit",
        /// `l2_rqsts.swpf_miss`.
        L2RqstsSwpfMiss => "l2_rqsts.swpf_miss",
        /// `l2_rqsts.hwpf_hit` (L2 hardware-prefetch hits).
        L2RqstsHwpfHit => "l2_rqsts.hwpf_hit",
        /// `l2_rqsts.hwpf_miss`.
        L2RqstsHwpfMiss => "l2_rqsts.hwpf_miss",
        /// `memory_activity.stalls_l2_miss`.
        MemoryActivityStallsL2Miss => "memory_activity.stalls_l2_miss",
        /// `cycle_activity.cycles_l2_miss`.
        CycleActivityCyclesL2Miss => "cycle_activity.cycles_l2_miss",

        // --- Offcore-requests-outstanding latency counters ---------------------
        /// `offcore_requests_outstanding.data_rd`: per-cycle sum of outstanding data reads.
        OroDataRd => "offcore_requests_outstanding.data_rd",
        /// `offcore_requests_outstanding.cycles_with_data_rd`.
        OroCyclesWithDataRd => "offcore_requests_outstanding.cycles_with_data_rd",
        /// `offcore_requests_outstanding.demand_data_rd`.
        OroDemandDataRd => "offcore_requests_outstanding.demand_data_rd",
        /// `offcore_requests_outstanding.cycles_with_demand_data_rd`.
        OroCyclesWithDemandDataRd => "offcore_requests_outstanding.cycles_with_demand_data_rd",
        /// `offcore_requests_outstanding.cycles_with_demand_rfo`.
        OroCyclesWithDemandRfo => "offcore_requests_outstanding.cycles_with_demand_rfo",
        /// `mem_trans_retired.load_latency`: accumulated load latency (cycles).
        MemTransRetiredLoadLatency => "mem_trans_retired.load_latency",
        /// Number of loads sampled into `mem_trans_retired.load_latency`.
        MemTransRetiredLoadCount => "mem_trans_retired.load_count",
        /// `mem_trans_retired.store_sample`: accumulated store commit latency.
        MemTransRetiredStoreSample => "mem_trans_retired.store_sample",
        /// Number of stores sampled into `mem_trans_retired.store_sample`.
        MemTransRetiredStoreCount => "mem_trans_retired.store_count",

        // --- Core-scope LLC events (Table 2, per-core rows) ---------------------
        /// `cycle_activity.stalls_l3_miss`.
        CycleActivityStallsL3Miss => "cycle_activity.stalls_l3_miss",
        /// `offcore_requests_outstanding.l3_miss_demand_data_rd`.
        OroL3MissDemandDataRd => "offcore_requests_outstanding.l3_miss_demand_data_rd",
        /// `mem_load_retired.l3_hit`.
        MemLoadRetiredL3Hit => "mem_load_retired.l3_hit",
        /// `mem_load_retired.l3_miss`.
        MemLoadRetiredL3Miss => "mem_load_retired.l3_miss",
        /// `longest_lat_cache.miss`.
        LongestLatCacheMiss => "longest_lat_cache.miss",
        /// `longest_lat_cache.reference`.
        LongestLatCacheReference => "longest_lat_cache.reference",
        /// `ocr.modified_write.any_response`: write-backs of modified lines.
        OcrModifiedWriteAnyResponse => "ocr.modified_write.any_response",
        /// `mem_load_l3_hit_retired.*` (4 sub-events).
        MemLoadL3HitRetired(L3HitSrc) => "mem_load_l3_hit_retired.",
        /// `mem_load_l3_miss_retired.*` (4 sub-events).
        MemLoadL3MissRetired(L3MissSrc) => "mem_load_l3_miss_retired.",
        /// `ocr.demand_data_rd.*` (9 scenarios).
        OcrDemandDataRd(RespScenario) => "ocr.demand_data_rd.",
        /// `ocr.rfo.*` (9 scenarios).
        OcrRfo(RespScenario) => "ocr.rfo.",
        /// `ocr.l1d_hw_pf.*` (9 scenarios).
        OcrL1dHwPf(RespScenario) => "ocr.l1d_hw_pf.",
        /// `ocr.l2_hw_pf_drd.*` (9 scenarios).
        OcrL2HwPfDrd(RespScenario) => "ocr.l2_hw_pf_drd.",
        /// `ocr.l2_hw_pf_rfo.*` (9 scenarios).
        OcrL2HwPfRfo(RespScenario) => "ocr.l2_hw_pf_rfo.",
        /// `ocr.swpf.*` (9 scenarios; SWPF merges into DRd at the uncore).
        OcrSwPf(RespScenario) => "ocr.swpf.",
    }
}

impl CoreEvent {
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

dense_enum! {
    /// `unc_cha_tor_*.ia` 4-scenario sub-events.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum IaScen {
        Total => "all",
        HitLlc => "hit",
        MissLlc => "miss",
        MissCxl => "miss_cxl",
    }
}

dense_enum! {
    /// `unc_cha_tor_*.ia_drd[_pref]` 9-scenario sub-events.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum TorDrdScen {
        Total => "all",
        HitLlc => "hit",
        MissLlc => "miss",
        MissDdr => "miss_ddr",
        MissLocal => "miss_local",
        MissLocalDdr => "miss_local_ddr",
        MissRemote => "miss_remote",
        MissRemoteDdr => "miss_remote_ddr",
        MissCxl => "miss_cxl",
    }
}

dense_enum! {
    /// `unc_cha_tor_*.ia_rfo[_pref]` 6-scenario sub-events.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum TorRfoScen {
        Total => "all",
        HitLlc => "hit",
        MissLlc => "miss",
        MissLocal => "miss_local",
        MissRemote => "miss_remote",
        MissCxl => "miss_cxl",
    }
}

dense_enum! {
    /// `unc_cha_tor_inserts.ia_wb` 5-scenario coherence-transition sub-events.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum WbScen {
        /// Write-back E/F → E.
        EfToE => "wbeftoe",
        /// Write-back E/F → I.
        EfToI => "wbeftoi",
        /// Write-back M → E.
        MToE => "wbmtoe",
        /// Write-back M → I.
        MToI => "wbmtoi",
        /// Write-back S → I.
        SToI => "wbstoi",
    }
}

event_space! {
    /// Socket-scope CHA PMU events (paper Table 2).
    ///
    /// The TOR (Table of Requests) is the CHA's request queue; PFBuilder uses its
    /// insert counters to classify post-L2 paths, and PFEstimator/PFAnalyzer use
    /// its occupancy counters to derive per-class latency via Little's law.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum ChaEvent {
        /// Uncore clock ticks for this CHA.
        ClockTicks => "unc_cha_clockticks",
        /// LLC lookups that hit, any origin.
        LlcLookupHit => "unc_cha_llc_lookup.hit",
        /// LLC lookups that missed.
        LlcLookupMiss => "unc_cha_llc_lookup.miss",
        /// Snoop-filter hits (directory had the line).
        SfHit => "unc_cha_sf_lookup.hit",
        /// Snoop-filter misses.
        SfMiss => "unc_cha_sf_lookup.miss",
        /// Snoop-filter evictions (back-invalidations).
        SfEviction => "unc_cha_sf_eviction",
        /// Local (same-socket, cross-CHA) snoops issued.
        SnoopLocalSent => "unc_cha_snoops_sent.local",
        /// Remote (cross-socket) snoops issued.
        SnoopRemoteSent => "unc_cha_snoops_sent.remote",
        /// Snoop responses that carried modified data (HitM).
        SnoopRspHitm => "unc_cha_snoop_resp.hitm",
        /// Snoop responses that hit clean data.
        SnoopRspHit => "unc_cha_snoop_resp.hit",
        /// Snoop responses that missed.
        SnoopRspMiss => "unc_cha_snoop_resp.miss",
        /// `unc_cha_tor_inserts.ia.*` (4 scenarios).
        TorInsertsIa(IaScen) => "unc_cha_tor_inserts.ia_",
        /// `unc_cha_tor_inserts.ia_drd.*` (9 scenarios).
        TorInsertsIaDrd(TorDrdScen) => "unc_cha_tor_inserts.ia_drd_",
        /// `unc_cha_tor_inserts.ia_drd_pref.*` (9 scenarios).
        TorInsertsIaDrdPref(TorDrdScen) => "unc_cha_tor_inserts.ia_drd_pref_",
        /// `unc_cha_tor_inserts.ia_rfo.*` (6 scenarios).
        TorInsertsIaRfo(TorRfoScen) => "unc_cha_tor_inserts.ia_rfo_",
        /// `unc_cha_tor_inserts.ia_rfo_pref.*` (6 scenarios).
        TorInsertsIaRfoPref(TorRfoScen) => "unc_cha_tor_inserts.ia_rfo_pref_",
        /// `unc_cha_tor_inserts.ia_wb.*` (5 coherence transitions).
        TorInsertsIaWb(WbScen) => "unc_cha_tor_inserts.ia_",
        /// `unc_cha_tor_occupancy.ia.*` (per-cycle valid-entry accumulation).
        TorOccupancyIa(IaScen) => "unc_cha_tor_occupancy.ia_",
        /// `unc_cha_tor_occupancy.ia_drd.*`.
        TorOccupancyIaDrd(TorDrdScen) => "unc_cha_tor_occupancy.ia_drd_",
        /// `unc_cha_tor_occupancy.ia_drd_pref.*`.
        TorOccupancyIaDrdPref(TorDrdScen) => "unc_cha_tor_occupancy.ia_drd_pref_",
        /// `unc_cha_tor_occupancy.ia_rfo.*`.
        TorOccupancyIaRfo(TorRfoScen) => "unc_cha_tor_occupancy.ia_rfo_",
        /// `unc_cha_tor_occupancy.ia_rfo_pref.*`.
        TorOccupancyIaRfoPref(TorRfoScen) => "unc_cha_tor_occupancy.ia_rfo_pref_",
        /// `unc_cha_tor_occupancy.ia_wbmtoi` (single write-back occupancy counter).
        TorOccupancyIaWbMtoI => "unc_cha_tor_occupancy.ia_wbmtoi",
        /// `unc_cha_tor_threshold1.ia.*` (cycles the TOR class was non-empty).
        TorThreshold1Ia(IaScen) => "unc_cha_tor_threshold1.ia_",
        /// `unc_cha_tor_threshold1.ia_drd.*`.
        TorThreshold1IaDrd(TorDrdScen) => "unc_cha_tor_threshold1.ia_drd_",
        /// `unc_cha_tor_threshold1.ia_drd_pref.*`.
        TorThreshold1IaDrdPref(TorDrdScen) => "unc_cha_tor_threshold1.ia_drd_pref_",
        /// `unc_cha_tor_threshold1.ia_rfo.*`.
        TorThreshold1IaRfo(TorRfoScen) => "unc_cha_tor_threshold1.ia_rfo_",
        /// `unc_cha_tor_threshold1.ia_rfo_pref.*`.
        TorThreshold1IaRfoPref(TorRfoScen) => "unc_cha_tor_threshold1.ia_rfo_pref_",
    }
}

// ---------------------------------------------------------------------------
// IMC PMU (paper Table 3, per-channel)
// ---------------------------------------------------------------------------

event_space! {
    /// Per-channel integrated-memory-controller events (paper Table 3).
    ///
    /// The paper exposes each counter per pseudo-channel (`.pch0`/`.pch1`); here a
    /// [`crate::bank::Bank<ImcEvent>`] is instantiated per pseudo-channel and the
    /// channel id is carried by the bank's position in [`crate::SystemPmu`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum ImcEvent {
        /// DRAM clock ticks.
        ClockTicks => "unc_m_clockticks",
        /// `unc_m_rpq_cycles_ne`: cycles the Read Pending Queue was non-empty.
        RpqCyclesNe => "unc_m_rpq_cycles_ne",
        /// `unc_m_wpq_cycles_ne`.
        WpqCyclesNe => "unc_m_wpq_cycles_ne",
        /// `unc_m_cas_count.all`.
        CasCountAll => "unc_m_cas_count.all",
        /// `unc_m_cas_count.rd`.
        CasCountRd => "unc_m_cas_count.rd",
        /// `unc_m_cas_count.wr`.
        CasCountWr => "unc_m_cas_count.wr",
        /// `unc_m_rpq_inserts`.
        RpqInserts => "unc_m_rpq_inserts",
        /// `unc_m_wpq_inserts`.
        WpqInserts => "unc_m_wpq_inserts",
        /// `unc_m_rpq_occupancy`: per-cycle RPQ occupancy accumulation.
        RpqOccupancy => "unc_m_rpq_occupancy",
        /// `unc_m_wpq_occupancy`.
        WpqOccupancy => "unc_m_wpq_occupancy",
    }
}

// ---------------------------------------------------------------------------
// M2PCIe PMU (paper Table 3, per endpoint)
// ---------------------------------------------------------------------------

event_space! {
    /// Mesh-to-PCIe (FlexBus root complex) events, per CXL endpoint.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum M2pEvent {
        /// Uncore clock ticks.
        ClockTicks => "unc_m2p_clockticks",
        /// `unc_m2p_rxc_cycles_ne.all`: cycles the ingress queue was non-empty.
        RxcCyclesNe => "unc_m2p_rxc_cycles_ne.all",
        /// `unc_m2p_rxc_inserts.all`: entries inserted from the mesh.
        RxcInserts => "unc_m2p_rxc_inserts.all",
        /// `unc_m2p_rxc_occupancy.all`: per-cycle ingress-queue occupancy.
        RxcOccupancy => "unc_m2p_rxc_occupancy.all",
        /// `unc_m2p_txc_inserts.ak`: acknowledgement entries to the mesh (stores).
        TxcInsertsAk => "unc_m2p_txc_inserts.ak",
        /// `unc_m2p_txc_inserts.bl`: cache-line data entries to the mesh (loads).
        TxcInsertsBl => "unc_m2p_txc_inserts.bl",
    }
}

// ---------------------------------------------------------------------------
// CXL device PMU (paper Table 4)
// ---------------------------------------------------------------------------

event_space! {
    /// CXL Type-3 device events (paper Table 4): the M2S/S2M packing buffers of
    /// the CXL.mem link layer, plus device-MC occupancy used for QoS telemetry.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum CxlEvent {
        /// Device clock ticks.
        ClockTicks => "unc_cxlcm_clockticks",
        /// `unc_cxlcm_rxc_pack_buf_inserts.mem_req`: M2S Req allocations.
        RxcPackBufInsertsMemReq => "unc_cxlcm_rxc_pack_buf_inserts.mem_req",
        /// `unc_cxlcm_rxc_pack_buf_inserts.mem_data`: M2S RwD allocations.
        RxcPackBufInsertsMemData => "unc_cxlcm_rxc_pack_buf_inserts.mem_data",
        /// `unc_cxlcm_rxc_pack_buf_full.mem_req`: cycles the Req buffer was full.
        RxcPackBufFullMemReq => "unc_cxlcm_rxc_pack_buf_full.mem_req",
        /// `unc_cxlcm_rxc_pack_buf_full.mem_data`.
        RxcPackBufFullMemData => "unc_cxlcm_rxc_pack_buf_full.mem_data",
        /// `unc_cxlcm_rxc_pack_buf_ne.mem_req`: cycles the Req buffer was non-empty.
        RxcPackBufNeMemReq => "unc_cxlcm_rxc_pack_buf_ne.mem_req",
        /// `unc_cxlcm_rxc_pack_buf_ne.mem_data`.
        RxcPackBufNeMemData => "unc_cxlcm_rxc_pack_buf_ne.mem_data",
        /// `unc_cxlcm_txc_pack_buf_inserts.mem_req`: S2M NDR allocations.
        TxcPackBufInsertsMemReq => "unc_cxlcm_txc_pack_buf_inserts.mem_req",
        /// `unc_cxlcm_txc_pack_buf_inserts.mem_data`: S2M DRS allocations.
        TxcPackBufInsertsMemData => "unc_cxlcm_txc_pack_buf_inserts.mem_data",
        /// Per-cycle occupancy of the M2S Req packing buffer.
        RxcPackBufOccupancyMemReq => "unc_cxlcm_rxc_pack_buf_occupancy.mem_req",
        /// Per-cycle occupancy of the M2S RwD packing buffer.
        RxcPackBufOccupancyMemData => "unc_cxlcm_rxc_pack_buf_occupancy.mem_data",
        /// Device-MC read-queue per-cycle occupancy (QoS telemetry input).
        DevMcRpqOccupancy => "unc_cxldev_mc_rpq_occupancy",
        /// Device-MC write-queue per-cycle occupancy.
        DevMcWpqOccupancy => "unc_cxldev_mc_wpq_occupancy",
        /// Device-MC read commands serviced.
        DevMcRdCas => "unc_cxldev_mc_cas.rd",
        /// Device-MC write commands serviced.
        DevMcWrCas => "unc_cxldev_mc_cas.wr",
    }
}

// ---------------------------------------------------------------------
// CXL switch PMU (`unc_cxlsw_*`) — one bank per upstream port
// ---------------------------------------------------------------------

event_space! {
    /// Events of one CXL switch upstream port (the fabric topology's `cxlsw`
    /// stages). Real CXL 2.0 switches expose per-port ingress/egress telemetry;
    /// this is the minimal set the fabric's per-host path attribution needs:
    /// where requests queued, who got the shared downstream link, and how long
    /// a port's head-of-line request sat blocked behind other ports' grants.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum SwitchEvent {
        /// Switch clock ticks (per upstream port, mirrors the other uncore
        /// clocktick banks so dropout detection generalises).
        ClockTicks => "unc_cxlsw_clockticks",
        /// Requests accepted into this port's ingress queue.
        IngressInserts => "unc_cxlsw_ingress_inserts.port",
        /// Entry-cycles requests spent queued at this port before their grant.
        IngressOccupancy => "unc_cxlsw_ingress_occupancy.port",
        /// Arbitration grants won by this port on the shared downstream link.
        ArbGrants => "unc_cxlsw_arb_grants.port",
        /// Cycles this port's head-of-line request waited while the shared
        /// link was granted to a *different* port (the HOL-blocking signal).
        HolBlockedCycles => "unc_cxlsw_hol_blocked_cycles.port",
        /// Cycles the shared downstream link spent serving this port's flits
        /// (per-port decomposition of link utilisation).
        LinkBusyCycles => "unc_cxlsw_link_busy_cycles.port",
    }
}

// ---------------------------------------------------------------------
// Pooled Type-3 device PMU (`unc_cxlpool_*`) — one bank per host
// ---------------------------------------------------------------------

event_space! {
    /// Events of the pooled Type-3 device, decomposed per tenant host. The
    /// device-side MC queues are shared by N hosts; these counters attribute
    /// the shared queue's occupancy, bandwidth, and contention penalty back to
    /// the host that caused or suffered them — the input to the fabric
    /// analyzer's victim/culprit naming.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum PoolEvent {
        /// Pooled-device clock ticks (per host bank).
        ClockTicks => "unc_cxlpool_clockticks",
        /// Shared-MC read CAS commands issued on behalf of this host.
        McRdCas => "unc_cxlpool_mc_cas.rd",
        /// Shared-MC write CAS commands issued on behalf of this host.
        McWrCas => "unc_cxlpool_mc_cas.wr",
        /// Entry-cycles this host's requests spent resident in the shared MC
        /// queue (occupancy integral).
        McOccupancy => "unc_cxlpool_mc_occupancy.host",
        /// Cycles this host's requests waited for the shared MC to start
        /// service (queueing delay only, service time excluded).
        McWaitCycles => "unc_cxlpool_mc_wait_cycles.host",
        /// The contention penalty: cycles of wait this host's requests paid
        /// *beyond* what an identical private (unshared) device would have
        /// charged. Exactly zero for a 1-host fabric.
        ExcessWaitCycles => "unc_cxlpool_mc_excess_wait_cycles.host",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn check_dense<E: Event>(all: &[E]) {
        let mut seen = BTreeSet::new();
        for (pos, e) in all.iter().enumerate() {
            let i = e.index();
            assert!(i < E::CARD, "{:?} index {} >= CARD {}", e, i, E::CARD);
            assert!(seen.insert(i), "duplicate index {} for {:?}", i, e);
            // The registry and fleetd's columns rely on index order.
            assert_eq!(
                i, pos,
                "{:?} has index {} but all() lists it at {}",
                e, i, pos
            );
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
