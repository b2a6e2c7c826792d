//! Figure 11 (Case 5, §5.6): CXL bandwidth partition among concurrent
//! mFlows, and the correlation between request frequency and delivered
//! bandwidth.
//!
//! Four MBW (or GUPS, with `--gups`: Figure 11b) instances at different
//! offered loads saturate the FlexBus+MC. PathFinder infers each mFlow's
//! bandwidth share from its CXL request frequency; the paper measures
//! Pearson r = 0.998.

use std::io;

use crate::{print_table, write_csv};
use pathfinder::materializer::Materializer;
use pathfinder::model::{Component, HitLevel};
use pathfinder::profiler::{ProfileSpec, Profiler};
use simarch::{Machine, MachineConfig, MemPolicy, Workload};
use workloads::{Gups, Mbw};

pub fn run(args: &super::Args) -> io::Result<()> {
    let ops = args.ops();
    let gups = args.gups;
    let (kind, csv) = if gups {
        ("GUPS", "fig11_bw_partition_gups.csv")
    } else {
        ("MBW", "fig11_bw_partition.csv")
    };
    println!("Figure 11 — CXL bandwidth partition, 4x {kind} ({ops} ops budget)\n");

    // Paper mix: MBW at 500/700/1000/3700 MB/s ⇒ offered-load fractions.
    // Offered-load set-points chosen so the aggregate mildly exceeds the
    // device's capacity: the light flows stay demand-limited (keeping their
    // set-point bandwidth) while the heavy flow absorbs the contention —
    // the paper's non-uniform degradation.
    let loads = [0.05, 0.08, 0.12, 0.5];
    let mut machine = Machine::new(MachineConfig::spr());
    for (i, &load) in loads.iter().enumerate() {
        let trace: Box<dyn simarch::TraceSource> = if gups {
            Box::new(Gups::new(
                24 << 20,
                (ops as f64 * load) as u64,
                11 + i as u64,
            ))
        } else {
            Box::new(Mbw::new(24 << 20, ops, load))
        };
        machine.attach(
            i,
            Workload::new(format!("{kind}-{}", i + 1), trace, MemPolicy::Cxl),
        );
    }
    let mut profiler = Profiler::new(machine, ProfileSpec::default());

    // Bandwidth partition is a property of *concurrent* flows: measure each
    // flow's request frequency and delivered bandwidth only over the window
    // where every flow is still running (once the heaviest flow drains, the
    // rest speed up and the partition question disappears).
    let mut req_freq = vec![0u64; loads.len()];
    let mut ops_done = vec![0u64; loads.len()];
    let mut window_cycles = 0u64;
    loop {
        let e = profiler.profile_epoch();
        let all_active = e.ops_per_core[..loads.len()].iter().all(|&n| n > 0);
        if all_active {
            window_cycles += e.delta.cycles();
            if let Some(map) = &e.path_map {
                for (c, f) in req_freq.iter_mut().enumerate() {
                    *f += map.per_core[c].level_total(HitLevel::CxlMemory);
                }
            }
            for (c, &n) in e.ops_per_core.iter().enumerate() {
                ops_done[c] += n;
            }
        }
        if e.all_done || !all_active {
            break;
        }
    }
    let report = profiler.report();

    let bw: Vec<f64> = (0..loads.len())
        .map(|c| ops_done[c] as f64 * 64.0 / window_cycles.max(1) as f64)
        .collect();
    let freq: Vec<f64> = req_freq.iter().map(|&f| f as f64).collect();
    let r = Materializer::correlate(&freq, &bw).unwrap_or(f64::NAN);

    let headers = ["mFlow", "offered load", "CXL req freq", "app BW (B/cycle)"];
    let rows: Vec<Vec<String>> = (0..loads.len())
        .map(|c| {
            vec![
                format!("{kind}-{}", c + 1),
                format!("{:.0}%", loads[c] * 100.0),
                req_freq[c].to_string(),
                format!("{:.4}", bw[c]),
            ]
        })
        .collect();
    print_table(&headers, &rows);
    println!("\nPearson r(request frequency, bandwidth) = {r:.3}  (paper: 0.998)");
    if let Some(c) = report.culprit {
        println!("culprit: {} on {}", c.path.label(), c.component.label());
        if matches!(c.component, Component::FlexBusMc | Component::CxlDimm) {
            println!("⇒ shared CXL path saturated; request frequency is a faithful proxy\n  for the runtime bandwidth allocation (the paper's conclusion).");
        }
    }
    let mut rows_csv = rows;
    rows_csv.push(vec![
        "pearson_r".into(),
        String::new(),
        String::new(),
        format!("{r:.4}"),
    ]);
    write_csv(csv, &headers, &rows_csv)
}
