//! Figure 12 (Case 6, §5.7): data-locality changes of 503.bwaves_r when
//! co-located with different applications, via PFMaterializer's
//! cross-snapshot clustering.
//!
//! (a) launch 519.lbm_r on local memory mid-run;
//! (b) launch 554.roms_r on CXL memory mid-run;
//! (c) a three-app mix on both tiers.
//! Paper: LLC misses of bwaves drop 20.6% co-running with lbm vs roms —
//! lbm is the friendlier neighbour.

use std::io;

use crate::scenario::map_scenarios;
use crate::{app_trace, print_table, write_csv};
use pathfinder::model::HitLevel;
use pathfinder::profiler::{ProfileSpec, Profiler};
use simarch::{Machine, MachineConfig, MemPolicy, Workload};

/// Run bwaves on core 0; launch `neighbours` on cores 1.. after a third of
/// the run. Returns (bwaves LLC-hit windows, bwaves total CXL misses,
/// co-run correlation with neighbour 1 if any).
fn scenario(
    ops: u64,
    neighbours: &[(&str, MemPolicy)],
) -> io::Result<(Vec<tsdb::tsa::Window>, u64, Option<f64>)> {
    let mut machine = Machine::new(MachineConfig::spr());
    // A bwaves-like stencil whose working set (6 MiB) mostly fits the LLC:
    // its locality is then *sensitive* to co-runners stealing LLC capacity,
    // which is precisely what Case 6 observes. The registry-scaled bwaves
    // (51 MiB) misses ~100% either way and would mask the effect.
    let bwaves = workloads::Stencil::new(6 << 20, 3, ops * 3).noise(30);
    machine.attach(
        0,
        Workload::new("503.bwaves_r", Box::new(bwaves), MemPolicy::Cxl),
    );
    let mut profiler = Profiler::new(machine, ProfileSpec::default());
    let mut launched = false;
    let mut epoch = 0u64;
    let launch_at = 3;
    loop {
        let e = profiler.profile_epoch();
        epoch += 1;
        if !launched && epoch == launch_at {
            launched = true;
            let m = profiler.machine_mut();
            for (i, (app, policy)) in neighbours.iter().enumerate() {
                m.attach(
                    1 + i,
                    Workload::new(*app, app_trace(app, ops * 3, 7 + i as u64)?, *policy),
                );
            }
        }
        if e.all_done {
            break;
        }
    }
    let windows = profiler
        .materializer
        .locality_windows(0, HitLevel::CxlMemory);
    let report = profiler.report();
    let misses = report.path_map.per_core[0].level_total(HitLevel::CxlMemory);
    let corr = if neighbours.is_empty() {
        None
    } else {
        profiler.materializer.orthogonality(0, 1)
    };
    Ok((windows, misses, corr))
}

pub fn run(args: &super::Args) -> io::Result<()> {
    let ops = args.ops();
    println!("Figure 12 — 503.bwaves_r locality under co-location ({ops} ops per app)\n");

    // Four independent co-location grids; the per-scenario progress lines
    // print from the merged results so `--jobs N` output matches serial.
    let grid: [(&str, Vec<(&str, MemPolicy)>); 4] = [
        ("solo", vec![]),
        (
            "(a) +519.lbm_r local",
            vec![("519.lbm_r", MemPolicy::Local)],
        ),
        ("(b) +554.roms_r cxl", vec![("554.roms_r", MemPolicy::Cxl)]),
        (
            "(c) +lbm/mcf/roms mix",
            vec![
                ("519.lbm_r", MemPolicy::Local),
                ("505.mcf_r", MemPolicy::Local),
                ("554.roms_r", MemPolicy::Cxl),
            ],
        ),
    ];
    let results = map_scenarios(args.jobs, &grid, |_, (_, neighbours)| {
        scenario(ops, neighbours)
    })
    .into_iter()
    .collect::<io::Result<Vec<_>>>()?;
    for ((label, _), (w, m, _)) in grid.iter().zip(&results) {
        println!("  [{label}] {} locality windows, {} CXL misses", w.len(), m);
    }
    let (w_solo, m_solo, _) = &results[0];
    let (w_lbm, m_lbm, r_lbm) = &results[1];
    let (w_roms, m_roms, r_roms) = &results[2];
    let (w_mix, m_mix, r_mix) = &results[3];

    let headers = [
        "scenario",
        "locality windows",
        "bwaves CXL misses",
        "Δ vs solo",
        "corr w/ neighbour",
    ];
    let fmt_corr = |r: Option<f64>| r.map(|v| format!("{v:.2}")).unwrap_or_else(|| "-".into());
    let rows = vec![
        vec![
            "solo".into(),
            w_solo.len().to_string(),
            m_solo.to_string(),
            "-".into(),
            "-".into(),
        ],
        vec![
            "(a) +lbm local".into(),
            w_lbm.len().to_string(),
            m_lbm.to_string(),
            crate::pct_change(*m_lbm as f64, *m_solo as f64),
            fmt_corr(*r_lbm),
        ],
        vec![
            "(b) +roms cxl".into(),
            w_roms.len().to_string(),
            m_roms.to_string(),
            crate::pct_change(*m_roms as f64, *m_solo as f64),
            fmt_corr(*r_roms),
        ],
        vec![
            "(c) three-app mix".into(),
            w_mix.len().to_string(),
            m_mix.to_string(),
            crate::pct_change(*m_mix as f64, *m_solo as f64),
            fmt_corr(*r_mix),
        ],
    ];
    print_table(&headers, &rows);
    let friendlier = if m_lbm <= m_roms { "lbm" } else { "roms" };
    println!(
        "\nbwaves misses less when co-located with {friendlier} (paper: 20.6% fewer\n\
         LLC misses with lbm than with roms — lbm on local memory stays out of\n\
         bwaves' CXL path, roms on CXL contends with it)"
    );
    write_csv("fig12_locality.csv", &headers, &rows)
}
