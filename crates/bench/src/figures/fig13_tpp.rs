//! Figure 13 (Case 7, §5.8): understanding TPP with PathFinder, plus the
//! dynamic TPP+Colloid extension.
//!
//! For YCSB-C, GUPS and 649.fotonik3d_s with mostly-CXL placement, compare
//! TPP off vs on: (a) local/CXL hit events from PFBuilder and the M2PCIe
//! load/store counters; (b) CHA / FlexBus+MC latency from PFEstimator.
//! Paper: GUPS local DRd/RFO/HWPF hits rise 7.4x/1.7x/3.3x, CXL hits fall
//! 87-93%, M2PCIe loads/stores fall ~84.5%, GUPS throughput 3.0x; the
//! dynamic Colloid variant adds ~1.1x on GUPS.

use std::io;

use crate::{app_trace, pct_change, print_table, ratio, write_csv};
use pathfinder::estimator::{any_requests, cxl_requests, PfEstimator, Tier};
use pathfinder::model::{HitLevel, PathGroup};
use pathfinder::profiler::{ProfileSpec, Profiler};
use pmu::M2pEvent;
use simarch::{Machine, MachineConfig, MemPolicy, Workload};
use tiering::{ClassLatencies, ColloidTpp, Migration, Tpp, TppConfig};

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Off,
    Tpp,
    Dynamic,
}

struct Outcome {
    cycles: u64,
    local_hits: [u64; 3], // DRd, RFO, HWPF
    cxl_hits: [u64; 3],
    m2p_loads: u64,
    m2p_stores: u64,
    cha_lat: f64,
    flex_lat: f64,
}

fn build_app(app: &str, ops: u64) -> io::Result<Workload> {
    let (trace, policy): (Box<dyn simarch::TraceSource>, MemPolicy) = match app {
        "GUPS" => (
            Box::new(workloads::Gups::new(48 << 20, ops, 7).hot_set(0.33, 0.9)),
            MemPolicy::Interleave { cxl_fraction: 0.8 },
        ),
        // Paper: YCSB-C 4:1 local/CXL; fotonik 2:1.
        "YCSB-C" => (
            app_trace("YCSB-C", ops, 7)?,
            MemPolicy::Interleave { cxl_fraction: 0.2 },
        ),
        _ => (
            app_trace(app, ops, 7)?,
            MemPolicy::Interleave { cxl_fraction: 0.33 },
        ),
    };
    Ok(Workload::new(app, trace, policy))
}

fn class_latencies(delta: &pmu::SystemDelta) -> ClassLatencies {
    let w = PfEstimator::class_miss_weights(delta);
    let lat = |p, t, d| PfEstimator::tor_latency(delta, p, t).unwrap_or(d);
    ClassLatencies {
        drd: (
            lat(PathGroup::Drd, Tier::Local, 200.0),
            lat(PathGroup::Drd, Tier::Cxl, 700.0),
        ),
        rfo: (
            lat(PathGroup::Rfo, Tier::Local, 220.0),
            lat(PathGroup::Rfo, Tier::Cxl, 750.0),
        ),
        hwpf: (
            lat(PathGroup::HwPf, Tier::Local, 200.0),
            lat(PathGroup::HwPf, Tier::Cxl, 700.0),
        ),
        drd_weight: w[0],
        rfo_weight: w[1],
        hwpf_weight: w[2],
    }
}

fn outcome(app: &str, ops: u64, mode: Mode) -> io::Result<Outcome> {
    let mut machine = Machine::new(MachineConfig::spr());
    machine.attach(0, build_app(app, ops)?);
    let mut profiler = Profiler::new(machine, ProfileSpec::default());
    let mut tpp = Tpp::new(TppConfig {
        promote_threshold: 2.0,
        ..Default::default()
    });
    let mut colloid = ColloidTpp::new(
        TppConfig {
            promote_threshold: 2.0,
            ..Default::default()
        },
        true,
    );
    // Per-epoch (occupancy, inserts) samples; the latency comparison uses
    // the final quarter of the run — steady state, after TPP's migration
    // burst (whose page-copy traffic would otherwise pollute the means).
    let mut cha_samples: Vec<(u64, u64)> = Vec::new();
    let mut flex_samples: Vec<(u64, u64)> = Vec::new();
    let mut promotions = 0u64;
    let mut demotions = 0u64;
    loop {
        let e = profiler.profile_epoch();
        cha_samples.push((
            e.delta
                .cha_sum(pmu::ChaEvent::TorOccupancyIaDrd(pmu::TorDrdScen::MissCxl)),
            e.delta
                .cha_sum(pmu::ChaEvent::TorInsertsIaDrd(pmu::TorDrdScen::MissCxl)),
        ));
        // Device-side per-read residency (queue + media) — robust against
        // the per-insert distortion migration bursts cause at the M2PCIe.
        flex_samples.push((
            e.delta.cxl_sum(pmu::CxlEvent::DevMcRpqOccupancy),
            e.delta.cxl_sum(pmu::CxlEvent::DevMcRdCas),
        ));
        let migs: Vec<Migration> = match mode {
            Mode::Off => Vec::new(),
            Mode::Tpp => {
                let m = profiler.machine();
                tpp.epoch(&e.page_heat, &|a, v| m.page_node(a as usize, v))
            }
            Mode::Dynamic => {
                let lat = class_latencies(&e.delta);
                let share = cxl_requests(&e.delta, PathGroup::Drd) as f64
                    / any_requests(&e.delta, PathGroup::Drd).max(1) as f64;
                let m = profiler.machine();
                colloid.epoch(
                    &e.page_heat,
                    &|a, v| m.page_node(a as usize, v),
                    &lat,
                    share,
                )
            }
        };
        let m = profiler.machine_mut();
        for mig in migs {
            if m.migrate_page(mig.asid as usize, mig.vpage, mig.to) {
                if mig.to.is_cxl() {
                    demotions += 1;
                } else {
                    promotions += 1;
                }
            }
        }
        if e.all_done {
            break;
        }
    }
    let report = profiler.report();
    let paths = [PathGroup::Drd, PathGroup::Rfo, PathGroup::HwPf];
    let grab = |level: HitLevel| {
        let mut out = [0u64; 3];
        for (i, p) in paths.iter().enumerate() {
            out[i] = report.path_map.total.get(level, *p);
        }
        out
    };
    // Whole-run m2p counters from the machine's live PMU, with the page-copy
    // traffic of migrations (64 lines each) subtracted so the numbers
    // reflect steady-state application traffic like the paper's.
    let m2p_loads: u64 = profiler
        .machine()
        .pmu
        .m2ps
        .iter()
        .map(|b| b.read(M2pEvent::TxcInsertsBl))
        .sum::<u64>()
        .saturating_sub(promotions * 64);
    let m2p_stores: u64 = profiler
        .machine()
        .pmu
        .m2ps
        .iter()
        .map(|b| b.read(M2pEvent::TxcInsertsAk))
        .sum::<u64>()
        .saturating_sub(demotions * 64);
    // Insert-weighted means over the steady-state tail.
    let tail_mean = |samples: &[(u64, u64)]| -> f64 {
        let start = samples.len() * 3 / 4;
        let (occ, ins) = samples[start..]
            .iter()
            .fold((0u64, 0u64), |(o, i), &(a, b)| (o + a, i + b));
        occ as f64 / ins.max(1) as f64
    };
    Ok(Outcome {
        cycles: report.cycles,
        local_hits: grab(HitLevel::LocalDram),
        cxl_hits: grab(HitLevel::CxlMemory),
        m2p_loads,
        m2p_stores,
        cha_lat: tail_mean(&cha_samples),
        flex_lat: tail_mean(&flex_samples),
    })
}

pub fn run(args: &super::Args) -> io::Result<()> {
    let ops = args.ops();
    println!("Figure 13 — TPP off vs on, traced by PathFinder ({ops} ops per run)\n");

    let headers = [
        "app",
        "speedup",
        "local DRd x",
        "local RFO x",
        "local HWPF x",
        "cxl DRd Δ",
        "cxl HWPF Δ",
        "m2p loads Δ",
        "m2p stores Δ",
        "CHA lat Δ",
        "FlexBus lat Δ",
    ];
    let mut rows = Vec::new();
    for app in ["YCSB-C", "GUPS", "649.fotonik3d_s"] {
        let off = outcome(app, ops, Mode::Off)?;
        let on = outcome(app, ops, Mode::Tpp)?;
        rows.push(vec![
            app.to_string(),
            format!("{:.2}x", off.cycles as f64 / on.cycles as f64),
            ratio(on.local_hits[0] as f64, off.local_hits[0] as f64),
            ratio(on.local_hits[1] as f64, off.local_hits[1] as f64),
            ratio(on.local_hits[2] as f64, off.local_hits[2] as f64),
            pct_change(on.cxl_hits[0] as f64, off.cxl_hits[0] as f64),
            pct_change(on.cxl_hits[2] as f64, off.cxl_hits[2] as f64),
            pct_change(on.m2p_loads as f64, off.m2p_loads as f64),
            pct_change(on.m2p_stores as f64, off.m2p_stores as f64),
            pct_change(on.cha_lat, off.cha_lat),
            pct_change(on.flex_lat, off.flex_lat),
        ]);
    }
    print_table(&headers, &rows);
    println!(
        "\npaper (GUPS): 7.4x/1.7x/3.3x local DRd/RFO/HWPF, CXL hits -87..-93%,\n\
         M2PCIe loads/stores -84.6/-84.4%, throughput 3.0x"
    );

    // Dynamic TPP+Colloid extension on GUPS.
    let off = outcome("GUPS", ops, Mode::Off)?;
    let tpp = outcome("GUPS", ops, Mode::Tpp)?;
    let dyn_c = outcome("GUPS", ops, Mode::Dynamic)?;
    println!("\nDynamic TPP+Colloid on GUPS:");
    let headers2 = ["mode", "cycles", "speedup vs off", "vs plain TPP"];
    let rows2 = vec![
        vec![
            "off".into(),
            off.cycles.to_string(),
            "1.00x".into(),
            "-".into(),
        ],
        vec![
            "TPP".into(),
            tpp.cycles.to_string(),
            format!("{:.2}x", off.cycles as f64 / tpp.cycles as f64),
            "1.00x".into(),
        ],
        vec![
            "TPP+Colloid(dyn)".into(),
            dyn_c.cycles.to_string(),
            format!("{:.2}x", off.cycles as f64 / dyn_c.cycles as f64),
            format!("{:.2}x", tpp.cycles as f64 / dyn_c.cycles as f64),
        ],
    ];
    print_table(&headers2, &rows2);
    println!("paper: the dynamic variant improves GUPS by ~1.1x over TPP+Colloid");
    write_csv("fig13_tpp.csv", &headers, &rows)?;
    write_csv("fig13_colloid.csv", &headers2, &rows2)
}
