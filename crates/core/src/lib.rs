//! # PathFinder — a CXL.mem profiler
//!
//! A from-scratch Rust reproduction of *"Understanding and Profiling CXL.mem
//! Using PathFinder"* (SIGCOMM 2025). PathFinder views the server processor
//! and its chipset as a **multi-stage Clos network**, equips each
//! architectural module with a PMU-based telemetry engine, classifies
//! CXL.mem transactions into *paths*, and applies classical network-telemetry
//! techniques to the result. It performs snapshot-based, path-driven
//! profiling with four techniques:
//!
//! * **PFBuilder** ([`builder`]) — reconstructs the CXL data-path map from
//!   hit/miss counters (the traceroute analogue, §4.3).
//! * **PFEstimator** ([`estimator`]) — back-propagates CXL-induced stall
//!   cycles from the CXL DIMM up to the core pipeline (the reverse-traceroute
//!   analogue, §4.4).
//! * **PFAnalyzer** ([`analyzer`]) — Little's-law queue-length estimation per
//!   component per path, locating the culprit of hardware contention (the
//!   delay-based queueing-analysis analogue, §4.5).
//! * **PFMaterializer** ([`materializer`]) — a time-series database of
//!   snapshot digests with clustering, forecasting and correlation for
//!   cross-snapshot characteristics (the network-snapshot analogue, §4.6).
//!
//! The [`profiler::Profiler`] drives a [`simarch::Machine`] (the simulated
//! SPR/EMR server standing in for the paper's testbed — see DESIGN.md for
//! the substitution argument), snapshots every PMU at each scheduling epoch,
//! and feeds the four techniques.
//!
//! ## Quick start
//!
//! ```
//! use pathfinder::profiler::{Profiler, ProfileSpec};
//! use simarch::{Machine, MachineConfig, MemPolicy, Workload};
//! use simarch::trace::SeqReadTrace;
//!
//! let mut machine = Machine::new(MachineConfig::tiny());
//! machine.attach(0, Workload::new(
//!     "demo",
//!     Box::new(SeqReadTrace::new(1 << 20, 50_000)),
//!     MemPolicy::Cxl,
//! ));
//! let mut profiler = Profiler::new(machine, ProfileSpec::default());
//! let report = profiler.run(100);
//! assert!(report.epochs > 0);
//! println!("{}", report.render());
//! ```

pub mod analyzer;
pub mod builder;
pub mod estimator;
pub mod materializer;
pub mod model;
pub mod profiler;
pub mod report;

pub use analyzer::{
    Anomaly, AnomalyDetector, Culprit, FabricAnomaly, FabricBaseline, FabricDetector,
    FabricDiagnosis, FabricMetrics, HealthyBaseline, PfAnalyzer, QueueEstimate, StageMetrics,
};
pub use builder::{PathMap, PfBuilder};
pub use estimator::{PfEstimator, StallBreakdown};
pub use materializer::Materializer;
pub use model::{Component, LatencyModel, PathGroup};
pub use profiler::{ProfileSpec, Profiler, Report};
