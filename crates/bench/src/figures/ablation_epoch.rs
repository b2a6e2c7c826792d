//! Ablation (DESIGN.md §4.3): snapshot-granularity sweep.
//!
//! PathFinder snapshots every scheduling epoch; shorter epochs give finer
//! temporal resolution (more locality windows resolved) at higher profiler
//! cost (more records in the materializer, more analysis passes). This
//! figure sweeps the epoch length and reports both sides of the trade.

use std::io;

use crate::{app_trace, print_table, write_csv};
use pathfinder::model::HitLevel;
use pathfinder::profiler::{ProfileSpec, Profiler};
use simarch::{Machine, MachineConfig, MemPolicy, Workload};

pub fn run(args: &super::Args) -> io::Result<()> {
    let ops = args.ops();
    println!("Ablation — scheduling-epoch (snapshot) granularity sweep ({ops} ops)\n");

    let headers = [
        "epoch (cycles)",
        "snapshots",
        "locality windows",
        "db records",
        "profiler CPU %",
        "profiler MB",
    ];
    let mut rows = Vec::new();

    for epoch_cycles in [250_000u64, 500_000, 1_000_000, 2_000_000, 4_000_000] {
        let mut cfg = MachineConfig::spr();
        cfg.epoch_cycles = epoch_cycles;
        let mut machine = Machine::new(cfg);
        machine.attach(
            0,
            Workload::new("602.gcc_s", app_trace("602.gcc_s", ops, 5)?, MemPolicy::Cxl),
        );
        let mut profiler = Profiler::new(machine, ProfileSpec::default());
        let report = profiler.run(20_000);
        let windows = profiler
            .materializer
            .locality_windows(0, HitLevel::CxlMemory);
        let o = profiler.overhead();
        rows.push(vec![
            epoch_cycles.to_string(),
            report.epochs.to_string(),
            windows.len().to_string(),
            profiler.materializer.db.len().to_string(),
            format!("{:.2}", 100.0 * o.cpu_fraction()),
            format!("{:.2}", o.memory_bytes as f64 / 1e6),
        ]);
    }
    print_table(&headers, &rows);
    println!(
        "\nshorter epochs resolve more phase windows of the gcc-like workload\n\
         but cost more profiler CPU and materializer memory — the fidelity/\n\
         overhead trade PathFinder's 'max resource consumption' spec knob\n\
         controls (§4.1)."
    );
    write_csv("ablation_epoch.csv", &headers, &rows)
}
