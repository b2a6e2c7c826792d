//! Figure 3 (and Figure 15 with `--emr`): CHA PMU counters, local vs CXL.
//!
//! (a) core LLC stall cycles and DRd response time;
//! (b) LLC hit/miss breakdown per path;
//! (c) where missed LLC requests are served;
//! (d)/(e) hit and miss occupancies;
//! (f) LLC operation breakdown.

use std::io;

use crate::scenario::map_scenarios;
use crate::{pct_change, print_table, ratio, run_machine, write_csv, Pin, SIX_APPS};
use pmu::{ChaEvent, CoreEvent, IaScen, SystemDelta, TorDrdScen, TorRfoScen};
use simarch::{MachineConfig, MemPolicy};

struct RunPair {
    l: SystemDelta,
    c: SystemDelta,
    lc: u64,
    cc: u64,
}

fn pair(cfg: &MachineConfig, app: &str, ops: u64) -> io::Result<RunPair> {
    let (l, lc) = run_machine(
        cfg.clone(),
        vec![Pin::app(0, app, ops, MemPolicy::Local, 7)?],
    );
    let (c, cc) = run_machine(cfg.clone(), vec![Pin::app(0, app, ops, MemPolicy::Cxl, 7)?]);
    Ok(RunPair { l, c, lc, cc })
}

pub fn run(args: &super::Args) -> io::Result<()> {
    let cfg = args.platform();
    let ops = args.ops();
    println!(
        "Figure 3{} — CHA PMU, local vs CXL ({ops} ops per run)\n",
        args.emr_tag(15)
    );

    let pairs = map_scenarios(args.jobs, &SIX_APPS, |_, &app| pair(&cfg, app, ops))
        .into_iter()
        .collect::<io::Result<Vec<_>>>()?;
    let runs: Vec<(&str, RunPair)> = SIX_APPS.iter().copied().zip(pairs).collect();

    // ---- (a) LLC stalls + DRd TOR latency ---------------------------------
    println!("(a) core LLC stall cycles and DRd response time");
    let headers_a = ["app", "llc.stall x", "drd.resp x"];
    let mut rows_a = Vec::new();
    for (app, r) in &runs {
        let stall = |d: &SystemDelta| d.core_sum(CoreEvent::CycleActivityStallsL3Miss) as f64;
        let resp = |d: &SystemDelta| {
            let occ = d.cha_sum(ChaEvent::TorOccupancyIaDrd(TorDrdScen::Total)) as f64;
            let ins = d
                .cha_sum(ChaEvent::TorInsertsIaDrd(TorDrdScen::Total))
                .max(1) as f64;
            occ / ins
        };
        rows_a.push(vec![
            app.to_string(),
            ratio(stall(&r.c), stall(&r.l)),
            ratio(resp(&r.c), resp(&r.l)),
        ]);
    }
    print_table(&headers_a, &rows_a);
    println!("paper SPR: 2.1x stalls, 1.8x DRd response on average\n");
    write_csv(&args.platform_csv("fig3a"), &headers_a, &rows_a)?;

    // ---- (b) LLC hit/miss breakdown per path ------------------------------
    println!("(b) LLC hit and miss change per path (CXL vs local)");
    let headers_b = [
        "app",
        "drd.hit Δ",
        "rfo.hit Δ",
        "hwpf.hit Δ",
        "drd.miss x",
        "rfo.miss x",
        "hwpf.miss x",
    ];
    let mut rows_b = Vec::new();
    for (app, r) in &runs {
        let g = |d: &SystemDelta, e| d.cha_sum(e) as f64;
        rows_b.push(vec![
            app.to_string(),
            pct_change(
                g(&r.c, ChaEvent::TorInsertsIaDrd(TorDrdScen::HitLlc)),
                g(&r.l, ChaEvent::TorInsertsIaDrd(TorDrdScen::HitLlc)),
            ),
            pct_change(
                g(&r.c, ChaEvent::TorInsertsIaRfo(TorRfoScen::HitLlc)),
                g(&r.l, ChaEvent::TorInsertsIaRfo(TorRfoScen::HitLlc)),
            ),
            pct_change(
                g(&r.c, ChaEvent::TorInsertsIaDrdPref(TorDrdScen::HitLlc)),
                g(&r.l, ChaEvent::TorInsertsIaDrdPref(TorDrdScen::HitLlc)),
            ),
            ratio(
                g(&r.c, ChaEvent::TorInsertsIaDrd(TorDrdScen::MissLlc)),
                g(&r.l, ChaEvent::TorInsertsIaDrd(TorDrdScen::MissLlc)),
            ),
            ratio(
                g(&r.c, ChaEvent::TorInsertsIaRfo(TorRfoScen::MissLlc)),
                g(&r.l, ChaEvent::TorInsertsIaRfo(TorRfoScen::MissLlc)),
            ),
            ratio(
                g(&r.c, ChaEvent::TorInsertsIaDrdPref(TorDrdScen::MissLlc)),
                g(&r.l, ChaEvent::TorInsertsIaDrdPref(TorDrdScen::MissLlc)),
            ),
        ]);
    }
    print_table(&headers_b, &rows_b);
    println!("paper SPR: hits -46.5/-41.3/-62.2%, misses 4.2x/4.0x/5.3x (DRd/RFO/HWPF)\n");
    write_csv(&args.platform_csv("fig3b"), &headers_b, &rows_b)?;

    // ---- (c) where missed LLC requests are served ---------------------------
    println!("(c) LLC-miss destinations under CXL (DRd path, share of misses)");
    let headers_c = ["app", "local DDR", "peer/snoop", "remote", "CXL DRAM"];
    let mut rows_c = Vec::new();
    for (app, r) in &runs {
        let g = |e| r.c.cha_sum(e) as f64;
        let miss = g(ChaEvent::TorInsertsIaDrd(TorDrdScen::MissLlc)).max(1.0);
        let ddr = g(ChaEvent::TorInsertsIaDrd(TorDrdScen::MissLocalDdr));
        let local_all = g(ChaEvent::TorInsertsIaDrd(TorDrdScen::MissLocal));
        let snoop = (local_all - ddr).max(0.0);
        let remote = g(ChaEvent::TorInsertsIaDrd(TorDrdScen::MissRemote));
        let cxl = g(ChaEvent::TorInsertsIaDrd(TorDrdScen::MissCxl));
        let pct = |v: f64| format!("{:.1}%", 100.0 * v / miss);
        rows_c.push(vec![
            app.to_string(),
            pct(ddr),
            pct(snoop),
            pct(remote),
            pct(cxl),
        ]);
    }
    print_table(&headers_c, &rows_c);
    println!("paper: under CXL most DRd misses head to the CXL DIMM, with a\nsnoop-served share; local runs serve >99% from local DDR\n");
    write_csv(&args.platform_csv("fig3c"), &headers_c, &rows_c)?;

    // ---- (d)/(e) occupancies ------------------------------------------------
    println!("(d)/(e) TOR hit / miss occupancy per cycle (log-scale plot in the paper)");
    let headers_d = [
        "app",
        "hit occ local",
        "hit occ cxl",
        "miss occ local",
        "miss occ cxl",
    ];
    let mut rows_d = Vec::new();
    for (app, r) in &runs {
        let occ = |d: &SystemDelta, scen, cycles: u64| {
            d.cha_sum(ChaEvent::TorOccupancyIa(scen)) as f64 / cycles.max(1) as f64
        };
        rows_d.push(vec![
            app.to_string(),
            format!("{:.4}", occ(&r.l, IaScen::HitLlc, r.lc)),
            format!("{:.4}", occ(&r.c, IaScen::HitLlc, r.cc)),
            format!("{:.4}", occ(&r.l, IaScen::MissLlc, r.lc)),
            format!("{:.4}", occ(&r.c, IaScen::MissLlc, r.cc)),
        ]);
    }
    print_table(&headers_d, &rows_d);
    println!("paper SPR: hit occupancy down (-86%..-30%), miss occupancy up (1.1x-4.8x)\n");
    write_csv(&args.platform_csv("fig3de"), &headers_d, &rows_d)?;

    // ---- (f) operation breakdown -------------------------------------------
    println!("(f) socket-level hits per path, CXL vs local");
    let headers_f = ["app", "drd Δ", "rfo Δ", "hwpf Δ", "wb Δ"];
    let mut rows_f = Vec::new();
    for (app, r) in &runs {
        let wb = |d: &SystemDelta| {
            pmu::WbScen::ALL
                .iter()
                .map(|&s| d.cha_sum(ChaEvent::TorInsertsIaWb(s)))
                .sum::<u64>() as f64
        };
        let g = |d: &SystemDelta, e| d.cha_sum(e) as f64;
        rows_f.push(vec![
            app.to_string(),
            pct_change(
                g(&r.c, ChaEvent::TorInsertsIaDrd(TorDrdScen::HitLlc)),
                g(&r.l, ChaEvent::TorInsertsIaDrd(TorDrdScen::HitLlc)),
            ),
            pct_change(
                g(&r.c, ChaEvent::TorInsertsIaRfo(TorRfoScen::HitLlc)),
                g(&r.l, ChaEvent::TorInsertsIaRfo(TorRfoScen::HitLlc)),
            ),
            pct_change(
                g(&r.c, ChaEvent::TorInsertsIaDrdPref(TorDrdScen::HitLlc)),
                g(&r.l, ChaEvent::TorInsertsIaDrdPref(TorDrdScen::HitLlc)),
            ),
            pct_change(wb(&r.c), wb(&r.l)),
        ]);
    }
    print_table(&headers_f, &rows_f);
    println!("paper SPR: hits down -55.4/-48.0/-59.4/-44.2% (DRd/RFO/HWPF/DWr)");
    write_csv(&args.platform_csv("fig3f"), &headers_f, &rows_f)
}
