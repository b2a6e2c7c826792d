//! A human-readable registry of every counter PathFinder uses.
//!
//! This is the programmatic form of the paper's Tables 1–4: each entry has
//! the perf-style event name, the PMU it lives in, its scope, and a short
//! description. `pathfinder list-counters` prints it, and the tests below
//! pin the paper's "232 counters" claim.

use crate::event::{
    ChaEvent, CoreEvent, CxlEvent, Event, ImcEvent, M2pEvent, PoolEvent, SwitchEvent,
};

/// Which PMU a counter belongs to (§3.1 divides them into four parts; we
/// split Uncore into its IMC and M2PCIe halves as Table 3 does; the last
/// two kinds belong to the multi-host fabric: the CXL switch and the
/// pooled Type-3 device).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PmuKind {
    Core,
    Cha,
    Imc,
    M2Pcie,
    CxlDevice,
    CxlSwitch,
    CxlPool,
}

impl PmuKind {
    pub const ALL: [PmuKind; 7] = [
        PmuKind::Core,
        PmuKind::Cha,
        PmuKind::Imc,
        PmuKind::M2Pcie,
        PmuKind::CxlDevice,
        PmuKind::CxlSwitch,
        PmuKind::CxlPool,
    ];

    /// Number of counters this PMU has: its event table's size.
    pub fn counters(self) -> usize {
        match self {
            PmuKind::Core => CoreEvent::CARD,
            PmuKind::Cha => ChaEvent::CARD,
            PmuKind::Imc => ImcEvent::CARD,
            PmuKind::M2Pcie => M2pEvent::CARD,
            PmuKind::CxlDevice => CxlEvent::CARD,
            PmuKind::CxlSwitch => SwitchEvent::CARD,
            PmuKind::CxlPool => PoolEvent::CARD,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            PmuKind::Core => "core",
            PmuKind::Cha => "cha",
            PmuKind::Imc => "imc",
            PmuKind::M2Pcie => "m2pcie",
            PmuKind::CxlDevice => "cxl",
            PmuKind::CxlSwitch => "cxlsw",
            PmuKind::CxlPool => "cxlpool",
        }
    }
}

/// Counter scope as listed in the paper's tables (plus the fabric scopes:
/// per switch upstream port and per tenant host of the pooled device).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    PerCore,
    PerSocket,
    PerChannel,
    PerDevice,
    PerPort,
    PerHost,
}

impl Scope {
    pub fn label(self) -> &'static str {
        match self {
            Scope::PerCore => "per-core",
            Scope::PerSocket => "per-socket",
            Scope::PerChannel => "per-channel",
            Scope::PerDevice => "per-device",
            Scope::PerPort => "per-port",
            Scope::PerHost => "per-host",
        }
    }
}

/// What one increment of a counter denotes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// Discrete occurrences: instructions, inserts, lookups, CAS commands.
    Events,
    /// Clock cycles a condition held: stall, not-empty, full, clocktick.
    Cycles,
    /// Accumulated entry-cycles (an occupancy integral — divide by elapsed
    /// cycles for the average number of resident entries).
    EntryCycles,
}

impl Unit {
    pub fn label(self) -> &'static str {
        match self {
            Unit::Events => "events",
            Unit::Cycles => "cycles",
            Unit::EntryCycles => "entry-cycles",
        }
    }
}

/// Derive a counter's unit from its perf-style name. The naming grammar is
/// uniform enough (Tables 1–4) that families, not per-event tables, decide:
/// `*occupancy*` and `*outstanding*` accumulate entry-cycles each cycle,
/// `*cycles*`/`*clockticks*`/`*stalls*`/`*_ne*`/`*_full*` count cycles a
/// condition held, and everything else counts discrete events.
pub fn unit_of(name: &str) -> Unit {
    // "cycles_with_*" gates an outstanding counter to 0/1 per cycle, so it
    // counts cycles even though the family is an occupancy integral.
    if name.contains("cycles_with") {
        return Unit::Cycles;
    }
    if name.contains("occupancy") || name.contains("outstanding") {
        return Unit::EntryCycles;
    }
    if name.contains("cycles")
        || name.contains("clockticks")
        || name.contains("clk")
        || name.contains("stalls")
        || name.contains("_ne")
        || name.contains("full")
        || name.contains("bound_on")
    {
        return Unit::Cycles;
    }
    Unit::Events
}

/// Counter-family descriptions, longest-prefix matched against the
/// perf-style name. One row per family of the paper's Tables 1–4.
const FAMILIES: &[(&str, &str)] = &[
    ("inst_retired", "instructions retired"),
    ("cpu_clk_unhalted", "unhalted core clock cycles"),
    (
        "cycle_activity",
        "cycles execution was starved while a demand miss was outstanding",
    ),
    (
        "memory_activity",
        "cycles stalled with a demand load miss outstanding",
    ),
    ("exe_activity", "cycles issue was bound on a resource"),
    (
        "resource_stalls",
        "cycles allocation stalled on a full backend resource",
    ),
    (
        "l1d_pend_miss",
        "cycles the line-fill buffers were exhausted",
    ),
    ("l1d", "L1D cache line replacements"),
    (
        "l2_rqsts",
        "L2 demand/prefetch requests by type and hit/miss",
    ),
    (
        "longest_lat_cache",
        "LLC references and misses as seen by the core",
    ),
    (
        "mem_load_retired",
        "retired loads by the cache level that served them",
    ),
    (
        "mem_load_l3_hit_retired",
        "retired loads that hit the LLC, by snoop data source",
    ),
    (
        "mem_load_l3_miss_retired",
        "retired loads that missed the LLC, by memory data source",
    ),
    (
        "mem_store_retired",
        "retired stores by the cache level that served them",
    ),
    (
        "mem_trans_retired",
        "retired memory transactions (load-latency sampling feed)",
    ),
    ("mem_inst_retired", "retired memory instructions by type"),
    (
        "offcore_requests_outstanding",
        "offcore demand requests outstanding per cycle",
    ),
    (
        "offcore_requests",
        "offcore demand requests sent to the uncore",
    ),
    (
        "ocr",
        "offcore response: request type crossed with data source",
    ),
    (
        "sw_prefetch_access",
        "software prefetch instructions executed",
    ),
    ("unc_cha_clockticks", "CHA uncore clock cycles"),
    ("unc_cha_llc_lookup", "LLC lookups by result"),
    (
        "unc_cha_sf_eviction",
        "snoop-filter capacity evictions (back-invalidations)",
    ),
    ("unc_cha_sf_lookup", "snoop-filter lookups by result"),
    ("unc_cha_snoop_resp", "snoop responses received by type"),
    ("unc_cha_snoops_sent", "snoops sent to local/remote peers"),
    (
        "unc_cha_tor_inserts",
        "TOR entry allocations by transaction class",
    ),
    (
        "unc_cha_tor_occupancy",
        "TOR entries resident per cycle by transaction class",
    ),
    ("unc_cha_tor", "TOR activity by transaction class"),
    (
        "unc_m_cas_count",
        "DRAM CAS commands issued by the memory controller",
    ),
    ("unc_m_clockticks", "IMC DCLK cycles"),
    (
        "unc_m_rpq_cycles_ne",
        "cycles the read pending queue was non-empty",
    ),
    ("unc_m_rpq_inserts", "read pending queue allocations"),
    (
        "unc_m_rpq_occupancy",
        "read pending queue entries resident per cycle",
    ),
    (
        "unc_m_wpq_cycles_ne",
        "cycles the write pending queue was non-empty",
    ),
    ("unc_m_wpq_inserts", "write pending queue allocations"),
    (
        "unc_m_wpq_occupancy",
        "write pending queue entries resident per cycle",
    ),
    ("unc_m2p_clockticks", "M2PCIe uncore clock cycles"),
    (
        "unc_m2p_rxc_cycles_ne",
        "cycles the M2PCIe ingress queue was non-empty",
    ),
    ("unc_m2p_rxc_inserts", "M2PCIe ingress queue allocations"),
    (
        "unc_m2p_rxc_occupancy",
        "M2PCIe ingress entries resident per cycle",
    ),
    (
        "unc_m2p_txc_inserts",
        "M2PCIe egress allocations by message class",
    ),
    ("unc_cxlcm_clockticks", "CXL link-layer clock cycles"),
    (
        "unc_cxlcm_rxc_pack_buf_full",
        "cycles the Rx packing buffer was full",
    ),
    (
        "unc_cxlcm_rxc_pack_buf_inserts",
        "Rx packing-buffer allocations by message class",
    ),
    (
        "unc_cxlcm_rxc_pack_buf_ne",
        "cycles the Rx packing buffer was non-empty",
    ),
    (
        "unc_cxlcm_rxc_pack_buf_occupancy",
        "Rx packing-buffer entries resident per cycle",
    ),
    (
        "unc_cxlcm_txc_pack_buf_inserts",
        "Tx packing-buffer allocations by message class",
    ),
    ("unc_cxldev_mc_cas", "device memory-controller CAS commands"),
    (
        "unc_cxldev_mc_rpq_occupancy",
        "device read-queue entries resident per cycle",
    ),
    (
        "unc_cxldev_mc_wpq_occupancy",
        "device write-queue entries resident per cycle",
    ),
    ("unc_cxlsw_clockticks", "CXL switch clock cycles"),
    (
        "unc_cxlsw_ingress_inserts",
        "switch upstream-port ingress queue allocations",
    ),
    (
        "unc_cxlsw_ingress_occupancy",
        "switch ingress entries resident per cycle before their grant",
    ),
    (
        "unc_cxlsw_arb_grants",
        "shared-downlink arbitration grants won by the port",
    ),
    (
        "unc_cxlsw_hol_blocked_cycles",
        "cycles the port's head-of-line request was blocked behind other ports",
    ),
    (
        "unc_cxlsw_link_busy_cycles",
        "shared-downlink busy cycles attributable to the port",
    ),
    ("unc_cxlpool_clockticks", "pooled-device clock cycles"),
    (
        "unc_cxlpool_mc_cas",
        "pooled-device shared-MC CAS commands on behalf of the host",
    ),
    (
        "unc_cxlpool_mc_occupancy",
        "host's entries resident per cycle in the shared MC queue",
    ),
    (
        "unc_cxlpool_mc_wait_cycles",
        "cycles the host's requests queued before shared-MC service",
    ),
    (
        "unc_cxlpool_mc_excess_wait_cycles",
        "host wait cycles beyond an identical private device (contention penalty)",
    ),
];

/// Family description for a perf-style event name (longest matching prefix).
pub fn describe(name: &str) -> &'static str {
    FAMILIES
        .iter()
        .filter(|(prefix, _)| name.starts_with(prefix))
        .max_by_key(|(prefix, _)| prefix.len())
        .map(|&(_, desc)| desc)
        .unwrap_or("")
}

/// One registry entry.
#[derive(Clone, Debug)]
pub struct EventDesc {
    pub pmu: PmuKind,
    pub scope: Scope,
    pub name: String,
    pub index: usize,
    pub unit: Unit,
    pub description: &'static str,
}

/// Enumerate every counter of every PMU, sub-events expanded: the PMUs in
/// [`PmuKind::ALL`] order, each one's events in index order. This is the
/// column order of [`crate::SystemPmu::totals_into`].
pub fn all_events() -> Vec<EventDesc> {
    events_named(|_| true)
}

/// The registry entries, in [`all_events`] order, of the counters whose
/// names `keep` accepts; the entries of the others are never built.
fn events_named(keep: impl Fn(&str) -> bool) -> Vec<EventDesc> {
    fn push<E: Event>(
        v: &mut Vec<EventDesc>,
        pmu: PmuKind,
        scope: Scope,
        events: Vec<E>,
        keep: &impl Fn(&str) -> bool,
    ) {
        v.extend(events.into_iter().filter_map(|e| {
            let name = e.name();
            keep(&name).then(|| EventDesc {
                pmu,
                scope,
                unit: unit_of(&name),
                description: describe(&name),
                index: e.index(),
                name,
            })
        }));
    }
    let mut v = Vec::new();
    push(
        &mut v,
        PmuKind::Core,
        Scope::PerCore,
        CoreEvent::all(),
        &keep,
    );
    push(
        &mut v,
        PmuKind::Cha,
        Scope::PerSocket,
        ChaEvent::all(),
        &keep,
    );
    push(
        &mut v,
        PmuKind::Imc,
        Scope::PerChannel,
        ImcEvent::all(),
        &keep,
    );
    push(
        &mut v,
        PmuKind::M2Pcie,
        Scope::PerSocket,
        M2pEvent::all(),
        &keep,
    );
    push(
        &mut v,
        PmuKind::CxlDevice,
        Scope::PerDevice,
        CxlEvent::all(),
        &keep,
    );
    push(
        &mut v,
        PmuKind::CxlSwitch,
        Scope::PerPort,
        SwitchEvent::all(),
        &keep,
    );
    push(
        &mut v,
        PmuKind::CxlPool,
        Scope::PerHost,
        PoolEvent::all(),
        &keep,
    );
    v
}

/// Look a counter up by its exact perf-style name.
pub fn lookup(name: &str) -> Option<EventDesc> {
    events_named(|n| n == name).pop()
}

/// Number of counters per PMU kind.
pub fn counts_by_pmu() -> Vec<(PmuKind, usize)> {
    PmuKind::ALL.iter().map(|&k| (k, k.counters())).collect()
}

/// Render the registry as an aligned text table (one line per counter).
pub fn render_table() -> String {
    let events = all_events();
    let width = events.iter().map(|e| e.name.len()).max().unwrap_or(0);
    let mut out = String::new();
    for e in &events {
        out.push_str(&format!(
            "{:<8} {:<12} {:<13} {:<width$}  {}\n",
            e.pmu.label(),
            e.scope.label(),
            e.unit.label(),
            e.name,
            e.description,
            width = width
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_pmu() {
        for (kind, n) in counts_by_pmu() {
            assert!(n > 0, "no events registered for {:?}", kind);
        }
    }

    #[test]
    fn registry_matches_event_cardinalities() {
        let evs = all_events();
        assert_eq!(
            evs.len(),
            CoreEvent::CARD
                + ChaEvent::CARD
                + ImcEvent::CARD
                + M2pEvent::CARD
                + CxlEvent::CARD
                + SwitchEvent::CARD
                + PoolEvent::CARD
        );
    }

    #[test]
    fn counts_by_pmu_count_the_registry() {
        let events = all_events();
        for (kind, n) in counts_by_pmu() {
            assert_eq!(
                n,
                events.iter().filter(|e| e.pmu == kind).count(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn registry_has_at_least_the_papers_232_counters() {
        assert!(all_events().len() >= 232);
    }

    #[test]
    fn every_event_has_a_description_and_unit() {
        for e in all_events() {
            assert!(
                !e.description.is_empty(),
                "no family description for {}",
                e.name
            );
        }
        assert_eq!(unit_of("unc_m_rpq_occupancy"), Unit::EntryCycles);
        assert_eq!(unit_of("unc_m_rpq_cycles_ne"), Unit::Cycles);
        assert_eq!(
            unit_of("offcore_requests_outstanding.cycles_with_data_rd"),
            Unit::Cycles
        );
        assert_eq!(unit_of("inst_retired.any"), Unit::Events);
    }

    #[test]
    fn registry_round_trip_is_coherent() {
        use std::collections::BTreeSet;
        let events = all_events();
        assert!(!events.is_empty());

        let mut names = BTreeSet::new();
        for e in &events {
            // Unique, non-empty perf-style name.
            assert!(!e.name.is_empty());
            assert!(
                names.insert(e.name.clone()),
                "duplicate registry name {}",
                e.name
            );
            // Non-empty family description and a derivable unit.
            assert!(!e.description.is_empty(), "no description for {}", e.name);
            assert_eq!(e.unit, unit_of(&e.name), "unit drift for {}", e.name);
            // The name must resolve back to the same entry.
            let back = lookup(&e.name).expect("lookup round-trip");
            assert_eq!(back.name, e.name);
            assert_eq!(back.pmu, e.pmu, "bank drift for {}", e.name);
        }
    }

    #[test]
    fn lookup_finds_exact_names_only() {
        let e = lookup("resource_stalls.sb").expect("known counter");
        assert_eq!(e.pmu, PmuKind::Core);
        assert_eq!(e.unit, Unit::Cycles);
        assert!(lookup("resource_stalls.sbx").is_none());
    }

    #[test]
    fn table_render_is_one_line_per_counter() {
        let table = render_table();
        assert_eq!(table.lines().count(), all_events().len());
        assert!(table.contains("resource_stalls.sb"));
        assert!(table.contains("unc_cxlcm_rxc_pack_buf_full.mem_req"));
    }
}
