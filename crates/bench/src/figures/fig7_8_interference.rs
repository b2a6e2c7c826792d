//! Figures 7 + 8 (Case 3, §5.4): local vs CXL mFlow interference as the CXL
//! traffic load sweeps 20% → 100%.
//!
//! Figure 7: CXL-induced stall cycles at SB, L1D, LFB, L2, core LLC,
//! FlexBus+MC. Figure 8: PFAnalyzer queue lengths at L1D, LFB, L2,
//! FlexBus+MC. Paper shape: core-side stalls grow 1.7x-2.4x while the
//! FlexBus and CHA queueing stays comparatively stable.

use std::io;

use crate::scenario::map_scenarios;
use crate::{print_table, run_profiled, write_csv, Pin};
use pathfinder::model::{Component, PathGroup};
use simarch::{MachineConfig, MemPolicy};
use workloads::{Mbw, StreamGen};

pub fn run(args: &super::Args) -> io::Result<()> {
    let ops = args.ops();
    println!(
        "Figures 7/8 — local+CXL interference sweep ({} ops per run)\n",
        ops
    );

    let loads = [0.2, 0.4, 0.6, 0.8, 1.0];
    let stall_headers = [
        "cxl load",
        "SB",
        "L1D",
        "LFB",
        "L2",
        "LLC",
        "CHA",
        "FlexBus+MC",
        "CXL DIMM",
    ];
    let queue_headers = [
        "cxl load",
        "L1D q",
        "LFB q",
        "L2 q",
        "LLC q",
        "FlexBus q",
        "DIMM q",
    ];
    // Each sweep point is its own machine; fan them out and render in
    // load order.
    let per_load = map_scenarios(args.jobs, &loads, |_, &load| {
        let (report, _p) = run_profiled(
            MachineConfig::spr(),
            vec![
                Pin::trace(
                    0,
                    "local-stream",
                    Box::new(StreamGen::new(32 << 20, ops).write_ratio(0.2)),
                    MemPolicy::Local,
                ),
                Pin::trace(
                    1,
                    format!("cxl-mbw-{:.0}", load * 100.0),
                    Box::new(Mbw::new(32 << 20, ops, load)),
                    MemPolicy::Cxl,
                ),
            ],
        );
        let s = |c: Component| {
            let total: f64 = PathGroup::ALL
                .iter()
                .map(|&p| report.stalls.get(p, c))
                .sum();
            format!("{:.0}", total)
        };
        let stall_row = vec![
            format!("{:.0}%", load * 100.0),
            s(Component::Sb),
            s(Component::L1d),
            s(Component::Lfb),
            s(Component::L2),
            s(Component::Llc),
            s(Component::Cha),
            s(Component::FlexBusMc),
            s(Component::CxlDimm),
        ];
        let q = |c: Component| {
            let total: f64 = PathGroup::ALL
                .iter()
                .map(|&p| report.mean_queues.get(p, c))
                .sum();
            format!("{:.4}", total)
        };
        let queue_row = vec![
            format!("{:.0}%", load * 100.0),
            q(Component::L1d),
            q(Component::Lfb),
            q(Component::L2),
            q(Component::Llc),
            q(Component::FlexBusMc),
            q(Component::CxlDimm),
        ];
        (stall_row, queue_row)
    });
    let (stall_rows, queue_rows): (Vec<_>, Vec<_>) = per_load.into_iter().unzip();

    println!("Figure 7 — CXL-induced stall cycles per component");
    print_table(&stall_headers, &stall_rows);
    println!("\nFigure 8 — PFAnalyzer queue lengths (entries/cycle, run mean)");
    print_table(&queue_headers, &queue_rows);
    println!(
        "\npaper shape: SB/L1D/LFB/L2/LLC stall rises steeply with CXL load\n\
         (1.7x-2.4x from 20%->100%) while FlexBus/CHA queueing stays stable"
    );
    write_csv("fig7_interference_stall.csv", &stall_headers, &stall_rows)?;
    write_csv("fig8_interference_queue.csv", &queue_headers, &queue_rows)
}
