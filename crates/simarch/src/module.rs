//! The `SimModule` stage abstraction and the stage-graph topology.
//!
//! The paper's Figure 1 is a multi-stage Clos network: every architectural
//! block a memory operation crosses — the cores with their SB/LFB/L1D/L2,
//! the CHA complex (LLC + SF + TOR), the IMC, the remote socket behind the
//! UPI link, and each CXL port (M2PCIe + FlexBus + device MC) — is an
//! independently instrumented stage. This module gives each of those
//! blocks one uniform face:
//!
//! * [`SimModule`] — the per-stage lifecycle: `tick` advances internal
//!   clocks to an epoch boundary, `drain` flushes coverage accumulators
//!   into the free-running PMU banks, `counters` names the registry
//!   counters the stage produces, and `occupancy` exposes a backlog gauge.
//! * [`StageId`] — a totally ordered identity. The scheduler drains stages
//!   in ascending `StageId` order, which pins the epoch-boundary flush
//!   sequence and keeps counter streams bit-reproducible.
//! * [`Topology`] — the stage graph itself: the stage list plus the
//!   directed request-path edges between stages. `Machine::run_epoch` is a
//!   traversal of this graph rather than hand-wired glue, and new
//!   topologies (multi-socket, multi-headed CXL pools) are additional
//!   [`Topology`] constructors, not scheduler rewrites.
//!
//! Every `impl SimModule` must route its [`SimModule::counters`] list
//! through [`registered`], which (in debug builds) cross-checks each name
//! against `pmu::registry` — enforced statically by pflint's
//! `module-counter-registration` rule.

use crate::config::MachineConfig;
use crate::invariants::Invariants;
use pmu::SystemPmu;

/// Which kind of architectural stage a module is. The discriminant order
/// is the drain order within an epoch boundary (cores first, then the
/// shared uncore in request-path order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum StageKind {
    /// A core pipeline: SB + LFB + L1D + L2 + private prefetchers.
    Core = 0,
    /// The CHA complex: LLC slices, snoop filter, TOR.
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

    /// Registry names of the counters this stage produces, routed through
    /// [`registered`] (pflint: `module-counter-registration`).
    fn counters(&self) -> &'static [&'static str];
}

/// Mark a module's counter list as registered. Debug builds verify every
/// name against `pmu::registry::lookup`; release builds pass the list
/// through untouched. Every `impl SimModule` must call this from
/// `counters()` — pflint's `module-counter-registration` rule checks for
/// the call site textually, and the debug assertion checks the names
/// semantically.
pub fn registered(names: &'static [&'static str]) -> &'static [&'static str] {
    debug_assert!(
        names.iter().all(|n| pmu::registry::lookup(n).is_some()),
        "SimModule counter list contains a name unknown to pmu::registry: {:?}",
        names.iter().find(|n| pmu::registry::lookup(n).is_none())
    );
    names
}

/// A directed edge of the stage graph: requests flow `from → to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    pub from: StageId,
    pub to: StageId,
}

/// The stage graph of one machine configuration: every stage, plus the
/// request-path edges between them. `Machine` builds one at construction
/// and the epoch scheduler iterates `stages` for the boundary drain; the
/// edge list is the machine's self-description (topology tests, docs, and
/// future multi-socket layouts build on it).
#[derive(Clone, Debug)]
pub struct Topology {
    stages: Vec<StageId>,
    edges: Vec<Edge>,
}

impl Topology {
    /// The single-socket Clos topology of the paper's Figure 1: every core
    /// feeds the CHA over the mesh; the CHA fans out to the IMC, the
    /// remote socket, and every CXL port.
    pub fn clos(cfg: &MachineConfig) -> Topology {
        let mut stages: Vec<StageId> = (0..cfg.cores).map(StageId::core).collect();
        stages.push(StageId::cha());
        stages.push(StageId::imc());
        stages.push(StageId::remote());
        stages.extend((0..cfg.cxl_devices).map(StageId::cxl));

        let mut edges: Vec<Edge> = (0..cfg.cores)
            .map(|c| Edge {
                from: StageId::core(c),
                to: StageId::cha(),
            })
            .collect();
        edges.push(Edge {
            from: StageId::cha(),
            to: StageId::imc(),
        });
        edges.push(Edge {
            from: StageId::cha(),
            to: StageId::remote(),
        });
        edges.extend((0..cfg.cxl_devices).map(|d| Edge {
            from: StageId::cha(),
            to: StageId::cxl(d),
        }));

        let t = Topology { stages, edges };
        debug_assert!(t.validate().is_ok(), "clos topology must validate");
        t
    }

    /// The multi-host fabric topology: `hosts` copies of the per-host Clos
    /// pipeline (stage indices offset by host so ids stay unique), each
    /// host's CXL ports feeding upstream port `h` of one shared switch,
    /// and every switch port feeding the pooled Type-3 device. With
    /// `hosts == 1` this is the degenerate single-host fabric whose
    /// machine-side stages are exactly [`Topology::clos`]'s.
    pub fn fabric(cfg: &MachineConfig, hosts: usize) -> Topology {
        let mut stages: Vec<StageId> = Vec::new();
        let mut edges: Vec<Edge> = Vec::new();
        for h in 0..hosts {
            let core0 = h * cfg.cores;
            stages.extend((0..cfg.cores).map(|c| StageId::core(core0 + c)));
        }
        for h in 0..hosts {
            stages.push(StageId::new(StageKind::Cha, h as u16));
        }
        for h in 0..hosts {
            stages.push(StageId::new(StageKind::Imc, h as u16));
        }
        for h in 0..hosts {
            stages.push(StageId::new(StageKind::Remote, h as u16));
        }
        for h in 0..hosts {
            let dev0 = h * cfg.cxl_devices;
            stages.extend((0..cfg.cxl_devices).map(|d| StageId::cxl(dev0 + d)));
        }
        stages.extend((0..hosts).map(StageId::switch_port));
        stages.push(StageId::pool());

        for h in 0..hosts {
            let cha = StageId::new(StageKind::Cha, h as u16);
            for c in 0..cfg.cores {
                edges.push(Edge {
                    from: StageId::core(h * cfg.cores + c),
                    to: cha,
                });
            }
            edges.push(Edge {
                from: cha,
                to: StageId::new(StageKind::Imc, h as u16),
            });
            edges.push(Edge {
                from: cha,
                to: StageId::new(StageKind::Remote, h as u16),
            });
            for d in 0..cfg.cxl_devices {
                let port = StageId::cxl(h * cfg.cxl_devices + d);
                edges.push(Edge {
                    from: cha,
                    to: port,
                });
                edges.push(Edge {
                    from: port,
                    to: StageId::switch_port(h),
                });
            }
            edges.push(Edge {
                from: StageId::switch_port(h),
                to: StageId::pool(),
            });
        }

        let t = Topology { stages, edges };
        debug_assert!(t.validate().is_ok(), "fabric topology must validate");
        t
    }

    /// All stages, in ascending [`StageId`] (= drain) order.
    pub fn stages(&self) -> &[StageId] {
        &self.stages
    }

    /// All request-path edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Downstream stages of `from`, in id order.
    pub fn successors(&self, from: StageId) -> Vec<StageId> {
        self.edges
            .iter()
            .filter(|e| e.from == from)
            .map(|e| e.to)
            .collect()
    }

    /// Structural checks: stages strictly ordered (no duplicates), every
    /// edge endpoint present, and every edge pointing strictly downstream
    /// (ascending `StageId`), which makes the graph trivially acyclic.
    pub fn validate(&self) -> Result<(), String> {
        for w in self.stages.windows(2) {
            if w[0] >= w[1] {
                return Err(format!("stages out of order: {} >= {}", w[0], w[1]));
            }
        }
        for e in &self.edges {
            if !self.stages.contains(&e.from) {
                return Err(format!("edge source {} is not a stage", e.from));
            }
            if !self.stages.contains(&e.to) {
                return Err(format!("edge target {} is not a stage", e.to));
            }
            if e.from >= e.to {
                return Err(format!("edge {} -> {} is not downstream", e.from, e.to));
            }
        }
        Ok(())
    }

    /// Render the graph as `from -> to` lines (docs and debugging).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.edges {
            out.push_str(&format!("{} -> {}\n", e.from, e.to));
        }
        out
    }
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

    #[test]
    fn fabric_topology_routes_every_host_through_the_switch_to_the_pool() {
        let cfg = MachineConfig::tiny();
        let hosts = 3;
        let t = Topology::fabric(&cfg, hosts);
        assert!(t.validate().is_ok());
        assert_eq!(
            t.stages().len(),
            hosts * (cfg.cores + 3 + cfg.cxl_devices) + hosts + 1
        );
        for h in 0..hosts {
            for d in 0..cfg.cxl_devices {
                let port = StageId::cxl(h * cfg.cxl_devices + d);
                assert_eq!(t.successors(port), vec![StageId::switch_port(h)]);
            }
            assert_eq!(t.successors(StageId::switch_port(h)), vec![StageId::pool()]);
        }
        assert!(t.successors(StageId::pool()).is_empty());
    }

    #[test]
    fn single_host_fabric_keeps_the_clos_machine_stages() {
        let cfg = MachineConfig::tiny();
        let clos = Topology::clos(&cfg);
        let fabric = Topology::fabric(&cfg, 1);
        // The machine-side prefix of the 1-host fabric is exactly the clos
        // stage list; only the switch port and pool are appended.
        assert_eq!(&fabric.stages()[..clos.stages().len()], clos.stages());
        assert_eq!(
            &fabric.stages()[clos.stages().len()..],
            &[StageId::switch_port(0), StageId::pool()]
        );
    }

    #[test]
    fn clos_topology_validates_and_fans_out() {
        let cfg = MachineConfig::tiny();
        let t = Topology::clos(&cfg);
        assert!(t.validate().is_ok());
        assert_eq!(t.stages().len(), cfg.cores + 3 + cfg.cxl_devices);
        // Every core feeds the CHA.
        for c in 0..cfg.cores {
            assert_eq!(t.successors(StageId::core(c)), vec![StageId::cha()]);
        }
        // The CHA fans out to IMC, remote, and every CXL port.
        let down = t.successors(StageId::cha());
        assert!(down.contains(&StageId::imc()));
        assert!(down.contains(&StageId::remote()));
        for d in 0..cfg.cxl_devices {
            assert!(down.contains(&StageId::cxl(d)));
        }
    }

    #[test]
    fn invalid_topologies_are_rejected() {
        let upstream = Topology {
            stages: vec![StageId::core(0), StageId::cha()],
            edges: vec![Edge {
                from: StageId::cha(),
                to: StageId::core(0),
            }],
        };
        assert!(upstream.validate().is_err());

        let dup = Topology {
            stages: vec![StageId::cha(), StageId::cha()],
            edges: vec![],
        };
        assert!(dup.validate().is_err());

        let dangling = Topology {
            stages: vec![StageId::core(0)],
            edges: vec![Edge {
                from: StageId::core(0),
                to: StageId::cha(),
            }],
        };
        assert!(dangling.validate().is_err());
    }

    #[test]
    fn registered_passes_known_names() {
        let names = registered(&["inst_retired.any", "unc_m_cas_count.rd"]);
        assert_eq!(names.len(), 2);
    }

    #[test]
    #[should_panic(expected = "unknown to pmu::registry")]
    #[cfg(debug_assertions)]
    fn registered_rejects_unknown_names() {
        let _ = registered(&["not_a_counter.at_all"]);
    }
}
