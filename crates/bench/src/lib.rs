//! Shared harness for the figure/table regeneration runs.
//!
//! Each module of [`figures`] regenerates one artefact from the paper's
//! evaluation (see DESIGN.md §3 for the index), and [`figures::RUNS`] is
//! the one table of runs: `cargo run --release -p bench -- <figure>` runs
//! one, `-- all` runs them all. The helpers here run a configured scenario
//! on the simulated machine, return the whole-run counter delta, and write
//! results both as an aligned text table on stdout and as CSV under
//! `bench/out/`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod figures;
pub mod scenario;

use std::io::Write;
use std::path::{Path, PathBuf};

use pathfinder::profiler::{ProfileSpec, Profiler};
use pathfinder::Report;
use pmu::SystemDelta;
use simarch::{Machine, MachineConfig, MemPolicy, Workload};

/// Default per-run operation budget. Figures sweep several runs; keep each
/// in the ~1-2s range in release mode.
pub const DEFAULT_OPS: u64 = 300_000;

/// Maximum epochs per run — a generous backstop against runaway scenarios.
pub const MAX_EPOCHS: u64 = 5_000;

/// One workload to pin: `(core, app name or registry key, ops, policy, seed)`.
pub struct Pin {
    pub core: usize,
    pub name: String,
    pub trace: Box<dyn simarch::TraceSource>,
    pub policy: MemPolicy,
}

impl Pin {
    /// Pin a registry application. Fails when `app` is not in the
    /// workloads registry — figures propagate that as an I/O error
    /// instead of panicking mid-regeneration.
    pub fn app(
        core: usize,
        app: &str,
        ops: u64,
        policy: MemPolicy,
        seed: u64,
    ) -> std::io::Result<Pin> {
        Ok(Pin {
            core,
            name: app.to_string(),
            trace: app_trace(app, ops, seed)?,
            policy,
        })
    }

    /// Pin a custom trace.
    pub fn trace(
        core: usize,
        name: impl Into<String>,
        trace: Box<dyn simarch::TraceSource>,
        policy: MemPolicy,
    ) -> Pin {
        Pin {
            core,
            name: name.into(),
            trace,
            policy,
        }
    }
}

/// A registry application's trace, `workloads::build` with a missing app
/// as an I/O error.
pub fn app_trace(app: &str, ops: u64, seed: u64) -> std::io::Result<Box<dyn simarch::TraceSource>> {
    workloads::build(app, ops, seed).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("app {app} missing from the workloads registry"),
        )
    })
}

/// Run workloads to completion on a machine; return the whole-run counter
/// delta and final cycle count.
pub fn run_machine(cfg: MachineConfig, pins: Vec<Pin>) -> (SystemDelta, u64) {
    run_machine_with_faults(cfg, pins, simarch::FaultPlan::new())
}

/// [`run_machine`] under a deterministic fault plan (`simarch::faults`):
/// the scheduled anomalies are applied at every epoch boundary while the
/// workloads run to completion.
pub fn run_machine_with_faults(
    cfg: MachineConfig,
    pins: Vec<Pin>,
    plan: simarch::FaultPlan,
) -> (SystemDelta, u64) {
    let mut machine = Machine::new(cfg);
    machine.set_fault_plan(plan);
    for p in pins {
        machine.attach(p.core, Workload::new(p.name, p.trace, p.policy));
    }
    let start = machine.pmu.snapshot(0);
    for _ in 0..MAX_EPOCHS {
        if machine.run_epoch().all_done {
            break;
        }
    }
    let end = machine.pmu.snapshot(machine.now());
    let cycles = machine.now();
    (end.delta(&start), cycles)
}

/// One workload pinned to a fabric host: `(host, pin)`.
pub type HostPin = (usize, Pin);

/// Run per-host workloads through an N-host CXL fabric under a
/// fabric-level fault plan; return the fabric-side counter delta (switch
/// + pooled-device banks) and the slowest host's final cycle count.
pub fn run_fabric(
    cfg: MachineConfig,
    fcfg: simarch::FabricConfig,
    pins: Vec<HostPin>,
    plan: simarch::FaultPlan,
) -> (SystemDelta, u64) {
    let mut fabric = simarch::Fabric::new(cfg, fcfg);
    fabric.set_fault_plan(plan);
    for (host, p) in pins {
        fabric.attach(host, p.core, Workload::new(p.name, p.trace, p.policy));
    }
    let start = fabric.pmu.snapshot(0);
    for _ in 0..MAX_EPOCHS {
        if fabric.run_epoch().all_done {
            break;
        }
    }
    let hosts = fabric.fabric_config().hosts;
    let cycles = (0..hosts).map(|h| fabric.host(h).now()).max().unwrap_or(0);
    (fabric.fabric_snapshot().delta(&start), cycles)
}

/// Run workloads under the full PathFinder profiler; return the report and
/// the profiler itself (for materializer queries).
pub fn run_profiled(cfg: MachineConfig, pins: Vec<Pin>) -> (Report, Profiler) {
    let mut machine = Machine::new(cfg);
    for p in pins {
        machine.attach(p.core, Workload::new(p.name, p.trace, p.policy));
    }
    let mut profiler = Profiler::new(machine, ProfileSpec::default());
    let report = profiler.run(MAX_EPOCHS);
    (report, profiler)
}

/// Output directory for CSV artefacts (`bench/out/`, created on demand).
/// `BENCH_OUT_DIR` overrides the destination so tests and ad-hoc runs can
/// write somewhere disposable without touching the committed goldens.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = match std::env::var_os("BENCH_OUT_DIR") {
        Some(d) => PathBuf::from(d),
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Write a CSV artefact and echo its path, relative to the workspace root
/// so captured stdout does not depend on where the checkout lives (a path
/// outside the workspace as given). I/O failures propagate so `bench`
/// exits nonzero instead of panicking mid-run.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> std::io::Result<()> {
    let path = out_dir()?.join(name);
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{}", headers.join(","))?;
    for row in rows {
        writeln!(f, "{}", row.join(","))?;
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    let shown = root
        .and_then(|r| path.strip_prefix(r).ok())
        .unwrap_or(&path);
    println!("\n[csv] {}", shown.display());
    Ok(())
}

/// Print an aligned table (re-exported from the profiler's report module).
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", pathfinder::report::table(headers, rows));
}

/// Format a ratio like the paper's "2.1x".
pub fn ratio(cxl: f64, local: f64) -> String {
    if local == 0.0 {
        "-".into()
    } else {
        format!("{:.1}x", cxl / local)
    }
}

/// Format a signed percentage change like the paper's "-22.8%".
pub fn pct_change(new: f64, old: f64) -> String {
    if old == 0.0 {
        "-".into()
    } else {
        format!("{:+.1}%", 100.0 * (new - old) / old)
    }
}

/// The six applications most figures of §3 use, chosen to span the
/// behavioural classes.
pub const SIX_APPS: [&str; 6] = [
    "519.lbm_r",
    "503.bwaves_r",
    "505.mcf_r",
    "554.roms_r",
    "507.cactuBSSN_r",
    "649.fotonik3d_s",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_machine_completes() {
        let (d, cycles) = run_machine(
            MachineConfig::tiny(),
            vec![Pin::app(0, "STREAM", 20_000, MemPolicy::Local, 1).unwrap()],
        );
        assert!(cycles > 0);
        assert!(d.core_sum(pmu::CoreEvent::InstRetired) > 0);
    }

    #[test]
    fn faulted_run_completes_and_diverges_from_healthy() {
        use simarch::{FaultClass, FaultPlan, FaultWindow, StageId};
        let pins = || vec![Pin::app(0, "STREAM", 20_000, MemPolicy::Cxl, 1).unwrap()];
        let (_, healthy_cycles) = run_machine(MachineConfig::tiny(), pins());
        let plan = FaultPlan::new()
            .with(FaultWindow {
                class: FaultClass::LinkDegrade,
                stage: StageId::cxl(0),
                start_epoch: 0,
                end_epoch: u64::MAX,
                severity: 8,
            })
            .unwrap();
        let (_, faulted_cycles) = run_machine_with_faults(MachineConfig::tiny(), pins(), plan);
        assert!(
            faulted_cycles > healthy_cycles,
            "a degraded link must slow the run ({faulted_cycles} vs {healthy_cycles})"
        );
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(210.0, 100.0), "2.1x");
        assert_eq!(ratio(1.0, 0.0), "-");
        assert_eq!(pct_change(77.2, 100.0), "-22.8%");
        assert_eq!(pct_change(120.0, 100.0), "+20.0%");
    }
}
