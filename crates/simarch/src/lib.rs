//! # simarch — a simulated CXL.mem server
//!
//! A deterministic, request-level micro-architecture simulator of an Intel
//! Sapphire-Rapids / Emerald-Rapids-class server with local DDR5 DIMMs and
//! CXL Type-3 memory devices. It is the hardware substrate for the
//! PathFinder profiler reproduction: the paper profiles real silicon through
//! PMU counters, and this crate exposes *the same counters with the same
//! semantics* (see the `pmu` crate) over a simulated memory hierarchy.
//!
//! ## Modelled hardware (paper §2.2, Figure 1)
//!
//! Request direction, ingress → egress, exactly the Clos stages PathFinder
//! assumes:
//!
//! ```text
//! core ─ SB ─┐
//!            ├─ L1D ─ LFB ─ L2 ─ mesh ─ CHA(LLC slice + SF + TOR) ─┬─ IMC(RPQ/WPQ) ─ DRAM
//! HW/SW PF ──┘                                                     └─ M2PCIe ─ FlexBus ─ CXL dev(MC) ─ DDR4
//! ```
//!
//! The four architectural request classes that spawn CXL.mem transactions
//! are modelled end-to-end: demand reads (DRd), demand writes (DWr → RFO →
//! write-back), read-for-ownership (RFO), and hardware/software prefetch.
//!
//! ## Timing model
//!
//! Each shared resource (L2 port, CHA slice, IMC channel, FlexBus link, CXL
//! device controller) is a FIFO server with a fixed service latency and an
//! issue gap (1/bandwidth); a request arriving at cycle `t` starts at
//! `max(t, resource.next_free)`. Finite structures (SB, LFB, request
//! windows) bound memory-level parallelism and create the back-pressure the
//! paper studies. Everything is a pure function of
//! `(MachineConfig, workload, seed)`.

pub mod arena;
pub mod cache;
pub mod cha;
pub mod config;
mod conservation;
pub mod core_model;
pub mod cxl;
mod datapath;
pub mod fabric;
pub mod faults;
pub mod imc;
pub mod invariants;
pub mod machine;
pub mod mem;
pub mod module;
pub mod pooled;
pub mod prefetch;
pub mod queues;
pub mod remote;
pub mod request;
pub mod switch;
pub mod trace;

pub use config::{MachineConfig, MemPolicy};
pub use fabric::{Fabric, FabricConfig, FabricEpochResult};
pub use faults::{FaultClass, FaultPlan, FaultWindow};
pub use invariants::{Invariants, Violation};
pub use machine::{EpochResult, Machine, RunSummary, StallError};
pub use mem::{MemNode, PhysAddr, CACHELINE, PAGE_SIZE};
pub use module::{SimModule, StageId, StageKind};
pub use pooled::PooledDevice;
pub use remote::RemoteSocket;
pub use request::{AccessKind, HostId, MemOp, ServeLoc};
pub use switch::{Arbitration, CxlSwitch, Grant};
pub use trace::{TraceSource, Workload};
