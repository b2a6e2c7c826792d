//! The system model (§4.2): the server as a Clos network `G = (V, E)`.
//!
//! Vertices are architectural modules; edges are the on-core FIFOs, the mesh
//! interconnect, and the FlexBus. A memory flow (`mFlow`) is
//! `Core_i ↔ DIMM_j`; it spawns paths classified by request type and
//! destination. The profiler's three report dimensions — component, path
//! group, destination — are all defined here.

/// The architectural components (Clos stages) PathFinder reports on — the
/// seven/eight stations of Figure 6 plus the request origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Component {
    /// Store buffer (DWr ingress).
    Sb,
    L1d,
    /// Line fill buffer.
    Lfb,
    L2,
    /// The core-observed LLC (core-scope counters).
    Llc,
    /// The caching-and-home agent (socket-scope TOR).
    Cha,
    /// M2PCIe + FlexBus link + host-side MC handling.
    FlexBusMc,
    /// The CXL Type-3 device (controller + media).
    CxlDimm,
}

impl Component {
    pub const ALL: [Component; 8] = [
        Component::Sb,
        Component::L1d,
        Component::Lfb,
        Component::L2,
        Component::Llc,
        Component::Cha,
        Component::FlexBusMc,
        Component::CxlDimm,
    ];

    pub const COUNT: usize = 8;

    pub fn idx(self) -> usize {
        match self {
            Component::Sb => 0,
            Component::L1d => 1,
            Component::Lfb => 2,
            Component::L2 => 3,
            Component::Llc => 4,
            Component::Cha => 5,
            Component::FlexBusMc => 6,
            Component::CxlDimm => 7,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Component::Sb => "SB",
            Component::L1d => "L1D",
            Component::Lfb => "LFB",
            Component::L2 => "L2",
            Component::Llc => "LLC",
            Component::Cha => "CHA",
            Component::FlexBusMc => "FlexBus+MC",
            Component::CxlDimm => "CXL DIMM",
        }
    }
}

/// The four-way path grouping of the paper's reports (Table 7, Figure 6):
/// DRd, DWr, RFO, HW PF. SW prefetch merges into DRd, and the three HW
/// prefetch engines merge into HW PF.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PathGroup {
    Drd,
    Rfo,
    HwPf,
    Dwr,
}

impl PathGroup {
    pub const ALL: [PathGroup; 4] = [
        PathGroup::Drd,
        PathGroup::Rfo,
        PathGroup::HwPf,
        PathGroup::Dwr,
    ];
    pub const COUNT: usize = 4;

    pub fn idx(self) -> usize {
        match self {
            PathGroup::Drd => 0,
            PathGroup::Rfo => 1,
            PathGroup::HwPf => 2,
            PathGroup::Dwr => 3,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            PathGroup::Drd => "DRd",
            PathGroup::Rfo => "RFO",
            PathGroup::HwPf => "HW PF",
            PathGroup::Dwr => "DWr",
        }
    }

    pub fn of(path: pmu::PathClass) -> PathGroup {
        use pmu::PathClass::*;
        match path {
            Drd | SwPf => PathGroup::Drd,
            Rfo => PathGroup::Rfo,
            HwPfL1 | HwPfL2Drd | HwPfL2Rfo => PathGroup::HwPf,
            Dwr => PathGroup::Dwr,
        }
    }
}

/// The hit-location rows of PFBuilder's path map (Table 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HitLevel {
    Sb,
    L1d,
    Lfb,
    L2,
    LocalLlc,
    SncLlc,
    RemoteLlc,
    LocalDram,
    CxlMemory,
}

impl HitLevel {
    pub const ALL: [HitLevel; 9] = [
        HitLevel::Sb,
        HitLevel::L1d,
        HitLevel::Lfb,
        HitLevel::L2,
        HitLevel::LocalLlc,
        HitLevel::SncLlc,
        HitLevel::RemoteLlc,
        HitLevel::LocalDram,
        HitLevel::CxlMemory,
    ];
    pub const COUNT: usize = 9;

    pub fn idx(self) -> usize {
        match self {
            HitLevel::Sb => 0,
            HitLevel::L1d => 1,
            HitLevel::Lfb => 2,
            HitLevel::L2 => 3,
            HitLevel::LocalLlc => 4,
            HitLevel::SncLlc => 5,
            HitLevel::RemoteLlc => 6,
            HitLevel::LocalDram => 7,
            HitLevel::CxlMemory => 8,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            HitLevel::Sb => "SB",
            HitLevel::L1d => "L1D",
            HitLevel::Lfb => "LFB",
            HitLevel::L2 => "L2",
            HitLevel::LocalLlc => "local LLC",
            HitLevel::SncLlc => "snc LLC",
            HitLevel::RemoteLlc => "remote LLC",
            HitLevel::LocalDram => "local DRAM",
            HitLevel::CxlMemory => "CXL Memory",
        }
    }

    /// True for rows past the private caches (uncore destinations).
    pub fn is_uncore(self) -> bool {
        self.idx() >= HitLevel::LocalLlc.idx()
    }
}

/// Platform latency constants the analyzer/estimator need (the `W_hit` and
/// `W_tag` values of §4.5, which on real hardware come from the data sheet).
#[derive(Clone, Copy, Debug)]
pub struct LatencyModel {
    pub l1_hit: f64,
    pub l1_tag: f64,
    pub l2_hit: f64,
    pub l2_tag: f64,
    pub llc_hit: f64,
    pub lfb_hit: f64,
    /// FlexBus one-way transfer.
    pub flexbus: f64,
    /// Nominal local-DRAM access latency (fallback when the TOR has no
    /// measured sample for the epoch).
    pub dram: f64,
    /// Nominal CXL end-to-end access latency (fallback).
    pub cxl_mem: f64,
}

impl LatencyModel {
    /// Derive from a machine configuration.
    pub fn from_config(cfg: &simarch::MachineConfig) -> Self {
        LatencyModel {
            l1_hit: cfg.l1d.hit_latency as f64,
            l1_tag: cfg.l1d.tag_latency as f64,
            l2_hit: cfg.l2.hit_latency as f64,
            l2_tag: cfg.l2.tag_latency as f64,
            llc_hit: cfg.llc.hit_latency as f64,
            lfb_hit: cfg.l1d.hit_latency as f64 + 2.0,
            flexbus: cfg.flexbus_latency as f64,
            dram: (cfg.dram_latency + 2 * cfg.mesh_latency) as f64,
            cxl_mem: (cfg.flexbus_latency + cfg.cxl_media_latency + 2 * cfg.mesh_latency) as f64,
        }
    }

    /// The paper's SPR platform constants.
    pub fn spr() -> Self {
        Self::from_config(&simarch::MachineConfig::spr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_indices_are_dense() {
        // The materializer's handle grids index by position in `ALL`.
        for (i, c) in Component::ALL.iter().enumerate() {
            assert_eq!(c.idx(), i);
        }
        for (i, l) in HitLevel::ALL.iter().enumerate() {
            assert_eq!(l.idx(), i);
        }
        for (i, p) in PathGroup::ALL.iter().enumerate() {
            assert_eq!(p.idx(), i);
        }
    }

    #[test]
    fn path_group_collapse() {
        assert_eq!(PathGroup::of(pmu::PathClass::SwPf), PathGroup::Drd);
        assert_eq!(PathGroup::of(pmu::PathClass::HwPfL2Rfo), PathGroup::HwPf);
        assert_eq!(PathGroup::of(pmu::PathClass::Dwr), PathGroup::Dwr);
    }

    #[test]
    fn hit_levels_split_core_and_uncore() {
        assert!(!HitLevel::L2.is_uncore());
        assert!(HitLevel::LocalLlc.is_uncore());
        assert!(HitLevel::CxlMemory.is_uncore());
    }

    #[test]
    fn latency_model_tracks_config() {
        let lm = LatencyModel::spr();
        let cfg = simarch::MachineConfig::spr();
        assert_eq!(lm.l2_hit, cfg.l2.hit_latency as f64);
        assert!(lm.l1_tag < lm.l1_hit);
    }
}
