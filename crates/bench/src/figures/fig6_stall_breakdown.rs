//! Figure 6 (Case 2, §5.3): PFEstimator's CXL-induced stall breakdown across
//! SB, L1D, LFB, L2, LLC, CHA, FlexBus+MC, CXL DIMM per path.
//!
//! Paper examples: fft DRd is uncore-heavy (42.7% FlexBus+MC + 40.3% DIMM);
//! raytrace peaks at FlexBus+MC with 67.1%; the HWPF stall at FlexBus+MC
//! correlates with DRd stalls at L1D/L2 (prefetcher effectiveness).

use std::io;

use crate::scenario::map_scenarios;
use crate::{print_table, run_profiled, write_csv, Pin};
use pathfinder::model::{Component, PathGroup};
use simarch::{MachineConfig, MemPolicy};

const APPS: [&str; 6] = ["fft", "raytrace", "barnes", "freqmine", "BFS", "radix"];

pub fn run(args: &super::Args) -> io::Result<()> {
    let ops = args.ops();
    println!(
        "Figure 6 — CXL-induced stall breakdown per path ({} ops per run)\n",
        ops
    );

    let mut headers = vec!["app", "path"];
    headers.extend(Component::ALL.iter().map(|c| c.label()));
    let mut rows = Vec::new();

    // One independent machine per app: fan the grid out, render in app order.
    let reports = map_scenarios(args.jobs, &APPS, |_, &app| {
        let pin = Pin::app(0, app, ops, MemPolicy::Cxl, 5)?;
        Ok(run_profiled(MachineConfig::spr(), vec![pin]).0)
    })
    .into_iter()
    .collect::<io::Result<Vec<_>>>()?;
    for (app, report) in APPS.iter().zip(&reports) {
        for path in PathGroup::ALL {
            if report.stalls.path_total(path) <= 0.0 {
                continue;
            }
            let pct = report.stalls.percentages(path);
            let mut row = vec![app.to_string(), path.label().to_string()];
            row.extend(
                Component::ALL
                    .iter()
                    .map(|c| format!("{:.1}%", pct[c.idx()])),
            );
            rows.push(row);
        }
    }
    print_table(&headers, &rows);
    println!(
        "\npaper shape: stall mass concentrates at FlexBus+MC and the CXL DIMM;\n\
         the in-core share shrinks from LLC toward L1D (locality filters it);\n\
         DWr paths put their residual SB share on top"
    );
    write_csv("fig6_stall_breakdown.csv", &headers, &rows)
}
