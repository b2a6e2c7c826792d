//! # pmu — a software Performance Monitoring Unit
//!
//! This crate is the telemetry substrate for the PathFinder CXL.mem profiler
//! (SIGCOMM 2025). On real hardware PathFinder programs the core, CHA/LLC,
//! uncore (IMC + M2PCIe) and CXL-device PMUs through Linux `perf`; here the
//! same counter taxonomy is implemented in software so that a simulated
//! server (the `simarch` crate) can expose *bit-identical counter semantics*
//! to the profiler.
//!
//! The counter names follow the paper's Tables 1–4 exactly
//! (`resource_stalls.sb`, `mem_load_retired.l1_fb_hit`,
//! `unc_cha_tor_inserts.ia_drd.*`, `unc_m2p_rxc_cycles_ne`,
//! `unc_cxlcm_rxc_pack_buf_full.mem_req`, …) including the per-destination
//! sub-events ("9 scenarios" of `ocr.demand_data_rd`, the 6 RFO TOR
//! scenarios, the 5 write-back coherence transitions).
//!
//! ## Layout
//!
//! * [`event`] — one table per PMU event space, each row a variant with its
//!   perf name in index order, from which the dense, typed event enums,
//!   their indices, names and `all()` lists are generated.
//! * [`bank`] — a fixed-size counter file ([`bank::Bank`]) per module.
//! * [`system`] — the whole-machine counter file ([`system::SystemPmu`]),
//!   the snapshot/delta machinery used by the profiler at epoch boundaries,
//!   and the registry-order totals fleetd reads.
//! * [`registry`] — a human-readable registry of every event with its
//!   description, used by the CLI to enumerate capabilities.

pub mod bank;
pub mod event;
pub mod registry;
pub mod system;

pub use bank::Bank;
pub use event::{
    ChaEvent, CoreEvent, CxlEvent, Event, IaScen, ImcEvent, L3HitSrc, L3MissSrc, M2pEvent,
    PathClass, PoolEvent, RespScenario, SwitchEvent, TorDrdScen, TorRfoScen, WbScen,
};
pub use system::{SystemDelta, SystemPmu, SystemSnapshot};
