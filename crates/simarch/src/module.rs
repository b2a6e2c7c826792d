//! The `SimModule` stage abstraction.
//!
//! The paper's Figure 1 is a multi-stage Clos network: every architectural
//! block a memory operation crosses — the cores with their SB/LFB/L1D/L2,
//! the CHA complex (LLC slices carrying the snoop-filter owners, TOR), the
//! IMC, the remote socket behind the UPI link, and each CXL port (M2PCIe +
//! FlexBus + device MC) — is an independently instrumented stage. This
//! module gives each of those blocks one uniform face:
//!
//! * [`SimModule`] — the per-stage lifecycle: `tick` advances internal
//!   clocks to an epoch boundary, and `drain` flushes coverage
//!   accumulators into the free-running PMU banks.
//! * [`StageId`] — a totally ordered identity. The scheduler drains stages
//!   in ascending `StageId` order, which pins the epoch-boundary flush
//!   sequence and keeps counter streams bit-reproducible. Fault windows
//!   target stages by id.
//!
//! The machine's one list of stages is `stage_modules` in `machine.rs`;
//! the counter names every stage produces are `pmu::registry`'s.

use crate::invariants::Invariants;
use pmu::SystemPmu;

/// Which kind of architectural stage a module is. The discriminant order
/// is the drain order within an epoch boundary (cores first, then the
/// shared uncore in request-path order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum StageKind {
    /// A core pipeline: SB + LFB + L1D + L2 + private prefetchers.
    Core = 0,
    /// The CHA complex: LLC slices (carrying the snoop-filter owners), TOR.
    Cha = 1,
    /// The local integrated memory controller (RPQ/WPQ per channel).
    Imc = 2,
    /// The remote socket's memory path behind the UPI link.
    Remote = 3,
    /// One CXL port: M2PCIe bridge + FlexBus link + Type-3 device.
    CxlPort = 4,
    /// One upstream port of the fabric's CXL switch (index = port = host).
    /// Index 0 doubles as the shared downstream link for fault targeting.
    Switch = 5,
    /// The pooled Type-3 device shared by every host of the fabric.
    PooledDev = 6,
}

impl StageKind {
    pub fn label(self) -> &'static str {
        match self {
            StageKind::Core => "core",
            StageKind::Cha => "cha",
            StageKind::Imc => "imc",
            StageKind::Remote => "remote",
            StageKind::CxlPort => "cxl",
            StageKind::Switch => "cxlsw",
            StageKind::PooledDev => "cxlpool",
        }
    }
}

/// Totally ordered stage identity: `(kind, instance)`. Ordering is
/// lexicographic, so all cores sort before the CHA, the CHA before the
/// IMC, and so on — the deterministic drain order of the epoch scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct StageId {
    pub kind: StageKind,
    pub index: u16,
}

impl StageId {
    pub fn new(kind: StageKind, index: u16) -> StageId {
        StageId { kind, index }
    }

    pub fn core(i: usize) -> StageId {
        StageId::new(StageKind::Core, i as u16)
    }

    pub fn cha() -> StageId {
        StageId::new(StageKind::Cha, 0)
    }

    pub fn imc() -> StageId {
        StageId::new(StageKind::Imc, 0)
    }

    pub fn remote() -> StageId {
        StageId::new(StageKind::Remote, 0)
    }

    pub fn cxl(d: usize) -> StageId {
        StageId::new(StageKind::CxlPort, d as u16)
    }

    /// Upstream port `p` of the fabric switch (one port per host).
    pub fn switch_port(p: usize) -> StageId {
        StageId::new(StageKind::Switch, p as u16)
    }

    /// The pooled Type-3 device stage of a fabric topology.
    pub fn pool() -> StageId {
        StageId::new(StageKind::PooledDev, 0)
    }
}

impl std::fmt::Display for StageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", self.kind.label(), self.index)
    }
}

/// One independently instrumented stage of the simulated machine.
///
/// The machine talks to every architectural block through this trait at
/// epoch boundaries only: it ticks each stage to the boundary and drains
/// it into the PMU, in stage-id order. Stepping the cores between
/// boundaries stays on `CoreState` (`Machine::step_until`), and the demand
/// walk stays on the typed module APIs (see `datapath.rs`), because a load
/// crosses several stages within one borrow of the machine.
pub trait SimModule: Invariants {
    /// The stage's position in the drain order (unique per machine).
    fn stage_id(&self) -> StageId;

    /// Static name for obs spans and diagnostics (`module.core`, …).
    fn name(&self) -> &'static str;

    /// Advance internal clocks to the epoch boundary `until` and retire
    /// whatever completed. Must be idempotent for the same `until`.
    fn tick(&mut self, until: u64);

    /// Flush coverage/full accumulators into the stage's free-running PMU
    /// banks. Each stage knows its own bank(s) inside `pmu`.
    fn drain(&mut self, pmu: &mut SystemPmu, epoch_cycles: u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_ids_order_cores_before_uncore() {
        assert!(StageId::core(63) < StageId::cha());
        assert!(StageId::cha() < StageId::imc());
        assert!(StageId::imc() < StageId::remote());
        assert!(StageId::remote() < StageId::cxl(0));
        assert!(StageId::cxl(0) < StageId::cxl(1));
        assert!(StageId::core(0) < StageId::core(1));
        assert!(StageId::cxl(7) < StageId::switch_port(0));
        assert!(StageId::switch_port(0) < StageId::switch_port(1));
        assert!(StageId::switch_port(63) < StageId::pool());
    }
}
