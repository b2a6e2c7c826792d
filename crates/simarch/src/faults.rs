//! Deterministic fault injection for the stage graph.
//!
//! Real CXL.mem deployments fail in ways a healthy simulator never shows:
//! FlexBus links drop to a degraded width and retrain, device memory
//! controllers throttle under thermal pressure, media errors return
//! poisoned lines, uncore queues stall transiently, and PMU readouts go
//! missing. A [`FaultPlan`] is a pure-literal schedule of such anomalies —
//! epoch-indexed windows, no wall clock, no OS entropy — so a faulted run
//! is exactly as reproducible as a healthy one (the root `clippy.toml`
//! bans wall-clock reads everywhere, and no crate the workspace builds
//! offers OS entropy).
//!
//! The machine applies the plan at every epoch boundary
//! (`Machine::set_fault_plan`): knobs are reset to baseline and the
//! windows covering the upcoming epoch are re-applied, so windows compose
//! and expire without order dependence. Every fault class preserves the
//! counter-conservation equalities audited by `conservation.rs` — faults
//! bend *timing* and *visibility*, never the flow balance of the counters
//! themselves (a poisoned line is retried as a complete new transaction;
//! a PMU dropout skips the epoch flush but leaves the inline-incremented
//! totals intact).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::config::MachineConfig;
use crate::module::{StageId, StageKind};

/// The five injected anomaly classes (ROADMAP robustness axis; the
/// detector in `core::analyzer` names each one from counters alone).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// FlexBus link degradation/retraining: the link gap is multiplied by
    /// `severity` and every flit pays a retrain latency penalty. Targets a
    /// `CxlPort` stage.
    LinkDegrade,
    /// Thermal throttling of the device memory controller: the device
    /// issue gap is multiplied by `severity`, escalating `DevLoad` toward
    /// `Severe`. Targets a `CxlPort` stage.
    DevThrottle,
    /// Poisoned-line completions: every `severity`-th CXL.mem load returns
    /// poison; the datapath retries (viral containment bounds the retries).
    /// Targets a `CxlPort` stage.
    PoisonedLine,
    /// Transient queue stall: the stage's FIFO servers are blocked for
    /// `severity` cycles at each covered epoch boundary. Targets the CHA
    /// or IMC stage.
    QueueStall,
    /// PMU counter dropout: the stage's epoch-boundary counter flush is
    /// suppressed while the window is active (clockticks freeze). Targets
    /// CHA, IMC, or a CXL port.
    PmuDropout,
    /// Degradation of the shared switch→pool link: the link gap is
    /// multiplied by `severity` and every granted request pays extra link
    /// latency. A cross-tenant fault — every host behind the switch sees
    /// elevated wait, so the blast radius spans tenants. Targets the
    /// `Switch` stage (conventionally port 0: the link is shared, the
    /// port index is ignored).
    SharedLinkDegrade,
    /// A stuck upstream switch port: requests queued at the targeted port
    /// are not eligible for arbitration for `severity` cycles past each
    /// covered epoch boundary. Under FIFO arbitration the stalled head
    /// HOL-blocks the shared link; other tenants see collateral wait.
    /// Targets the `Switch` stage (port index selects the victim port).
    SwitchPortStall,
}

impl FaultClass {
    pub const ALL: [FaultClass; 7] = [
        FaultClass::LinkDegrade,
        FaultClass::DevThrottle,
        FaultClass::PoisonedLine,
        FaultClass::QueueStall,
        FaultClass::PmuDropout,
        FaultClass::SharedLinkDegrade,
        FaultClass::SwitchPortStall,
    ];

    /// The classes a single-host `Machine` can host. `FaultPlan::from_seed`
    /// draws from this subset so seeded machine plans stay byte-identical
    /// to their pre-fabric selves; the fabric classes are literal-only.
    pub const MACHINE: [FaultClass; 5] = [
        FaultClass::LinkDegrade,
        FaultClass::DevThrottle,
        FaultClass::PoisonedLine,
        FaultClass::QueueStall,
        FaultClass::PmuDropout,
    ];

    /// Static label for obs metrics and reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::LinkDegrade => "link_degrade",
            FaultClass::DevThrottle => "dev_throttle",
            FaultClass::PoisonedLine => "poisoned_line",
            FaultClass::QueueStall => "queue_stall",
            FaultClass::PmuDropout => "pmu_dropout",
            FaultClass::SharedLinkDegrade => "shared_link_degrade",
            FaultClass::SwitchPortStall => "switch_port_stall",
        }
    }

    /// Which stage kinds this class can legally target.
    pub fn targets(self, kind: StageKind) -> bool {
        match self {
            FaultClass::LinkDegrade | FaultClass::DevThrottle | FaultClass::PoisonedLine => {
                kind == StageKind::CxlPort
            }
            FaultClass::QueueStall => matches!(kind, StageKind::Cha | StageKind::Imc),
            FaultClass::PmuDropout => {
                matches!(kind, StageKind::Cha | StageKind::Imc | StageKind::CxlPort)
            }
            FaultClass::SharedLinkDegrade | FaultClass::SwitchPortStall => {
                kind == StageKind::Switch
            }
        }
    }
}

/// Largest gap multiplier `FaultWindow::validate` accepts
/// (`LinkDegrade`, `DevThrottle`, `SharedLinkDegrade`). The workspace's
/// plans use at most 256; the cap keeps `base_gap * severity` from
/// overflowing.
const MAX_GAP_MULTIPLIER: u64 = 1 << 16;

/// Largest stall, in cycles, `FaultWindow::validate` accepts
/// (`QueueStall`, `SwitchPortStall`): about two seconds at 2 GHz, above
/// the half-epoch stalls the workspace's plans use. The cap keeps
/// `epoch start + severity` from overflowing.
const MAX_STALL_CYCLES: u64 = 1 << 32;

/// One scheduled anomaly: a class, a target stage, a half-open epoch
/// window `[start_epoch, end_epoch)`, and a class-specific severity knob
/// (gap multiplier, poison period, or stall cycles — see [`FaultClass`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultWindow {
    pub class: FaultClass,
    pub stage: StageId,
    pub start_epoch: u64,
    pub end_epoch: u64,
    pub severity: u64,
}

impl FaultWindow {
    /// True when the window covers epoch index `epoch`.
    pub fn covers(&self, epoch: u64) -> bool {
        self.start_epoch <= epoch && epoch < self.end_epoch
    }

    /// Structural sanity: non-empty window, legal target, positive
    /// severity where the class consumes one, and no severity above its
    /// class's cap (`MAX_GAP_MULTIPLIER`, `MAX_STALL_CYCLES`).
    pub fn validate(&self) -> Result<(), String> {
        if self.end_epoch <= self.start_epoch {
            return Err(format!(
                "empty fault window: [{}, {})",
                self.start_epoch, self.end_epoch
            ));
        }
        if !self.class.targets(self.stage.kind) {
            return Err(format!(
                "{} cannot target stage {}",
                self.class.label(),
                self.stage
            ));
        }
        let needs_severity = !matches!(self.class, FaultClass::PmuDropout);
        if needs_severity && self.severity == 0 {
            return Err(format!("{} needs severity > 0", self.class.label()));
        }
        if self.class == FaultClass::PoisonedLine && self.severity < 2 {
            return Err("poison period must be >= 2 (period 1 never converges)".into());
        }
        let cap = match self.class {
            FaultClass::LinkDegrade | FaultClass::DevThrottle | FaultClass::SharedLinkDegrade => {
                MAX_GAP_MULTIPLIER
            }
            FaultClass::QueueStall | FaultClass::SwitchPortStall => MAX_STALL_CYCLES,
            FaultClass::PoisonedLine | FaultClass::PmuDropout => u64::MAX,
        };
        if self.severity > cap {
            return Err(format!(
                "{} severity {} exceeds its cap {cap}",
                self.class.label(),
                self.severity
            ));
        }
        Ok(())
    }
}

/// A deterministic schedule of fault windows. Either written as a pure
/// literal (the bench scenarios) or expanded from a seed via the internal
/// splitmix64 generator ([`FaultPlan::from_seed`]) — never from OS entropy
/// or the wall clock.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builder-style append; rejects a structurally invalid window so bad
    /// plans fail at construction, not mid-run.
    pub fn with(mut self, w: FaultWindow) -> Result<FaultPlan, String> {
        self.push(w)?;
        Ok(self)
    }

    pub fn push(&mut self, w: FaultWindow) -> Result<(), String> {
        w.validate()
            .map_err(|e| format!("invalid fault window: {e}"))?;
        self.windows.push(w);
        Ok(())
    }

    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Windows covering epoch `epoch`, in schedule order.
    pub fn active(&self, epoch: u64) -> impl Iterator<Item = &FaultWindow> {
        self.windows.iter().filter(move |w| w.covers(epoch))
    }

    /// Expand `n` windows from a seed, valid for `cfg` and confined to the
    /// first `horizon_epochs` epochs. Same `(seed, n, cfg, horizon)` ⇒
    /// byte-identical plan on every platform.
    pub fn from_seed(seed: u64, n: usize, cfg: &MachineConfig, horizon_epochs: u64) -> FaultPlan {
        let mut rng = SplitMix64::new(seed);
        let horizon = horizon_epochs.max(1);
        let mut plan = FaultPlan::new();
        for _ in 0..n {
            let class = FaultClass::MACHINE[rng.below(FaultClass::MACHINE.len() as u64) as usize];
            let stage = match class {
                FaultClass::LinkDegrade | FaultClass::DevThrottle | FaultClass::PoisonedLine => {
                    StageId::cxl(rng.below(cfg.cxl_devices.max(1) as u64) as usize)
                }
                FaultClass::QueueStall => {
                    if rng.below(2) == 0 {
                        StageId::cha()
                    } else {
                        StageId::imc()
                    }
                }
                FaultClass::PmuDropout => match rng.below(3) {
                    0 => StageId::cha(),
                    1 => StageId::imc(),
                    _ => StageId::cxl(rng.below(cfg.cxl_devices.max(1) as u64) as usize),
                },
                FaultClass::SharedLinkDegrade | FaultClass::SwitchPortStall => {
                    unreachable!("fabric fault classes are not in FaultClass::MACHINE")
                }
            };
            let start = rng.below(horizon);
            let len = 1 + rng.below(horizon - start);
            let severity = match class {
                FaultClass::LinkDegrade | FaultClass::DevThrottle => 2 + rng.below(15),
                FaultClass::PoisonedLine => 2 + rng.below(7),
                FaultClass::QueueStall => ((cfg.epoch_cycles / 4).max(1)
                    + rng.below(cfg.epoch_cycles / 4 + 1))
                .min(MAX_STALL_CYCLES),
                FaultClass::PmuDropout => 0,
                FaultClass::SharedLinkDegrade | FaultClass::SwitchPortStall => {
                    unreachable!("fabric fault classes are not in FaultClass::MACHINE")
                }
            };
            let w = FaultWindow {
                class,
                stage,
                start_epoch: start,
                end_epoch: start + len,
                severity,
            };
            // By construction every generated window is valid for `cfg`;
            // validate() is re-checked in debug builds and by the tests.
            debug_assert!(w.validate().is_ok(), "seeded window invalid: {w:?}");
            plan.windows.push(w);
        }
        plan
    }
}

/// splitmix64 (Steele, Lea & Flood) — a tiny, seedable, allocation-free
/// generator. Fault plans must not depend on `rand` front-ends that could
/// be seeded from OS entropy; this keeps the schedule a pure function of
/// the seed.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-ish draw in `[0, bound)` (`bound` ≥ 1).
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(class: FaultClass, stage: StageId) -> FaultWindow {
        FaultWindow {
            class,
            stage,
            start_epoch: 1,
            end_epoch: 3,
            severity: 4,
        }
    }

    #[test]
    fn windows_cover_half_open_epoch_ranges() {
        let w = window(FaultClass::LinkDegrade, StageId::cxl(0));
        assert!(!w.covers(0));
        assert!(w.covers(1));
        assert!(w.covers(2));
        assert!(!w.covers(3));
    }

    #[test]
    fn validation_rejects_illegal_targets() {
        assert!(window(FaultClass::LinkDegrade, StageId::imc())
            .validate()
            .is_err());
        assert!(window(FaultClass::QueueStall, StageId::cxl(0))
            .validate()
            .is_err());
        assert!(window(FaultClass::PmuDropout, StageId::core(0))
            .validate()
            .is_err());
        assert!(window(FaultClass::DevThrottle, StageId::cxl(0))
            .validate()
            .is_ok());
    }

    #[test]
    fn validation_rejects_empty_windows_and_zero_severity() {
        let mut w = window(FaultClass::DevThrottle, StageId::cxl(0));
        w.end_epoch = w.start_epoch;
        assert!(w.validate().is_err());
        let mut w = window(FaultClass::QueueStall, StageId::cha());
        w.severity = 0;
        assert!(w.validate().is_err());
        let mut w = window(FaultClass::PoisonedLine, StageId::cxl(0));
        w.severity = 1;
        assert!(w.validate().is_err());
    }

    #[test]
    fn severities_above_their_caps_are_rejected_and_the_caps_run() {
        use crate::fabric::{Fabric, FabricConfig};
        use crate::trace::{SeqReadTrace, Workload};
        let capped = [
            (FaultClass::LinkDegrade, StageId::cxl(0), MAX_GAP_MULTIPLIER),
            (FaultClass::DevThrottle, StageId::cxl(0), MAX_GAP_MULTIPLIER),
            (
                FaultClass::SharedLinkDegrade,
                StageId::switch_port(0),
                MAX_GAP_MULTIPLIER,
            ),
            (FaultClass::QueueStall, StageId::cha(), MAX_STALL_CYCLES),
            (FaultClass::QueueStall, StageId::imc(), MAX_STALL_CYCLES),
            (
                FaultClass::SwitchPortStall,
                StageId::switch_port(0),
                MAX_STALL_CYCLES,
            ),
        ];
        for (class, stage, cap) in capped {
            let at = |severity| FaultWindow {
                class,
                stage,
                start_epoch: 0,
                end_epoch: 4,
                severity,
            };
            assert!(
                FaultPlan::new().with(at(u64::MAX)).is_err(),
                "{class:?} on {stage} accepted severity u64::MAX"
            );
            let plan = FaultPlan::new().with(at(cap)).expect("the cap is valid");
            // A 1-host fabric hosts both families: machine classes on the
            // host, switch classes on the fabric.
            let cfg = MachineConfig::tiny();
            let mut f = Fabric::new(cfg.clone(), FabricConfig::balanced(1, &cfg));
            f.attach(
                0,
                0,
                Workload::new(
                    "seq",
                    Box::new(SeqReadTrace::new(1 << 16, 20_000)),
                    crate::MemPolicy::Cxl,
                ),
            );
            if stage.kind == StageKind::Switch {
                f.set_fault_plan(plan);
            } else {
                f.host_mut(0).set_fault_plan(plan);
            }
            for _ in 0..4 {
                f.run_epoch();
            }
        }
    }

    #[test]
    fn plan_rejects_invalid_windows_at_construction() {
        let res = FaultPlan::new().with(window(FaultClass::PoisonedLine, StageId::cha()));
        let err = res.expect_err("illegal target must be rejected");
        assert!(err.contains("invalid fault window"), "{err}");
    }

    #[test]
    fn active_filters_by_epoch() {
        let plan = FaultPlan::new()
            .with(window(FaultClass::LinkDegrade, StageId::cxl(0)))
            .unwrap()
            .with(FaultWindow {
                start_epoch: 2,
                end_epoch: 5,
                ..window(FaultClass::QueueStall, StageId::imc())
            })
            .unwrap();
        assert_eq!(plan.active(0).count(), 0);
        assert_eq!(plan.active(1).count(), 1);
        assert_eq!(plan.active(2).count(), 2);
        assert_eq!(plan.active(4).count(), 1);
        assert_eq!(plan.active(5).count(), 0);
    }

    #[test]
    fn fabric_classes_target_only_the_switch() {
        for class in [FaultClass::SharedLinkDegrade, FaultClass::SwitchPortStall] {
            assert!(window(class, StageId::switch_port(0)).validate().is_ok());
            assert!(window(class, StageId::switch_port(1)).validate().is_ok());
            assert!(window(class, StageId::cxl(0)).validate().is_err());
            assert!(window(class, StageId::pool()).validate().is_err());
        }
        // Machine classes must not leak onto fabric stages.
        assert!(window(FaultClass::LinkDegrade, StageId::switch_port(0))
            .validate()
            .is_err());
        assert!(window(FaultClass::QueueStall, StageId::pool())
            .validate()
            .is_err());
    }

    #[test]
    fn seeded_plans_never_draw_fabric_classes() {
        let cfg = MachineConfig::tiny();
        let plan = FaultPlan::from_seed(0xfab, 200, &cfg, 16);
        for w in plan.windows() {
            assert!(
                FaultClass::MACHINE.contains(&w.class),
                "from_seed drew a fabric-only class: {:?}",
                w.class
            );
        }
    }

    #[test]
    fn from_seed_is_deterministic_and_valid() {
        let cfg = MachineConfig::tiny();
        let a = FaultPlan::from_seed(42, 20, &cfg, 8);
        let b = FaultPlan::from_seed(42, 20, &cfg, 8);
        assert_eq!(a.windows(), b.windows());
        assert_eq!(a.windows().len(), 20);
        for w in a.windows() {
            assert!(w.validate().is_ok(), "seeded window invalid: {w:?}");
            assert!(w.start_epoch < 8);
        }
        let c = FaultPlan::from_seed(43, 20, &cfg, 8);
        assert_ne!(a.windows(), c.windows(), "different seeds must diverge");
    }
}
