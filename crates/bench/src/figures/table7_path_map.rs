//! Table 7 (Case 1, §5.2): PFBuilder's path-map classification for
//! 649.fotonik3d_s and two snapshots of 602.gcc_s over CXL memory.
//!
//! Paper highlights: fotonik's per-core hot path is DRd but HWPF carries
//! 59.3% of its uncore accesses and 89.1% of its CXL hits (8.1x the local
//! LLC hits); gcc's snapshot 2 issues 5.8x more requests than snapshot 1
//! and its RFO share of CXL hits jumps from 1.1% to 69.0%.

use std::io;

use crate::{app_trace, print_table, run_profiled, write_csv, Pin};
use pathfinder::builder::PfBuilder;
use pathfinder::model::{HitLevel, PathGroup};
use pathfinder::profiler::{ProfileSpec, Profiler};
use simarch::{Machine, MachineConfig, MemPolicy, Workload};

pub fn run(args: &super::Args) -> io::Result<()> {
    let ops = args.ops();
    println!("Table 7 — PFBuilder path maps over CXL memory ({ops} ops per run)\n");

    // ---- 649.fotonik3d_s: cumulative map ------------------------------------
    let (report, _) = run_profiled(
        MachineConfig::spr(),
        vec![Pin::app(0, "649.fotonik3d_s", ops, MemPolicy::Cxl, 5)?],
    );
    println!("649.fotonik3d_s (whole run):");
    println!("{}", report.path_map.render(&[0]));
    if let Some((level, path, _)) = report.path_map.hot_path(0) {
        println!("per-core hot path: {} at {}", path.label(), level.label());
    }
    if let Some((path, share)) = report.path_map.uncore_hot_path(0) {
        println!(
            "uncore hot path: {} ({:.1}% of uncore accesses; paper 59.3% HWPF)",
            path.label(),
            100.0 * share
        );
    }
    if let Some(r) = report.path_map.cxl_to_llc_ratio(0) {
        println!("CXL hits / local LLC hits = {r:.1}x (paper 8.1x)");
    }
    let shares = report.path_map.cxl_path_shares(0);
    println!(
        "HWPF share of CXL hits: {:.1}% (paper 89.1%)\n",
        100.0 * shares[PathGroup::HwPf.idx()]
    );

    // ---- 602.gcc_s: two snapshots from different phases ----------------------
    let mut machine = Machine::new(MachineConfig::spr());
    machine.attach(
        0,
        Workload::new(
            "602.gcc_s",
            app_trace("602.gcc_s", ops * 2, 5)?,
            MemPolicy::Cxl,
        ),
    );
    let mut profiler = Profiler::new(machine, ProfileSpec::default());
    let mut snapshots = Vec::new();
    loop {
        let e = profiler.profile_epoch();
        snapshots.push(e.delta.clone());
        if e.all_done {
            break;
        }
    }
    // Pick one snapshot from each phase: gcc_like switches every 200k ops;
    // take an early and a late-phase epoch by RFO activity contrast.
    let rfo_cxl =
        |d: &pmu::SystemDelta| d.core_sum(pmu::CoreEvent::OcrRfo(pmu::RespScenario::CxlDram));
    let no_epoch = || io::Error::other("the 602.gcc_s run recorded no epoch");
    let s1 = snapshots
        .iter()
        .min_by_key(|d| rfo_cxl(d))
        .ok_or_else(no_epoch)?;
    let s2 = snapshots
        .iter()
        .max_by_key(|d| rfo_cxl(d))
        .ok_or_else(no_epoch)?;
    let m1 = PfBuilder::build(s1);
    let m2 = PfBuilder::build(s2);

    println!("602.gcc_s snapshot comparison:");
    let headers = ["metric", "snapshot 1", "snapshot 2"];
    let total1 = m1.per_core[0].total();
    let total2 = m2.per_core[0].total();
    let cxl_share = |m: &pathfinder::builder::PathMap, p: PathGroup| {
        let row = m.per_core[0].hits[HitLevel::CxlMemory.idx()];
        let total: u64 = row.iter().sum();
        if total == 0 {
            0.0
        } else {
            100.0 * row[p.idx()] as f64 / total as f64
        }
    };
    let rows = vec![
        vec![
            "total core requests".into(),
            total1.to_string(),
            total2.to_string(),
        ],
        vec![
            "requests ratio".into(),
            "1.0x".into(),
            format!("{:.1}x (paper 5.8x)", total2 as f64 / total1.max(1) as f64),
        ],
        vec![
            "DRd share of CXL hits".into(),
            format!("{:.1}%", cxl_share(&m1, PathGroup::Drd)),
            format!("{:.1}% (paper 25.9->27.7%)", cxl_share(&m2, PathGroup::Drd)),
        ],
        vec![
            "RFO share of CXL hits".into(),
            format!("{:.1}%", cxl_share(&m1, PathGroup::Rfo)),
            format!("{:.1}% (paper 1.1->69.0%)", cxl_share(&m2, PathGroup::Rfo)),
        ],
    ];
    print_table(&headers, &rows);
    println!("\nsnapshot 1 path map:");
    println!("{}", m1.render(&[0]));
    println!("snapshot 2 path map:");
    println!("{}", m2.render(&[0]));
    write_csv("table7_gcc_snapshots.csv", &headers, &rows)
}
