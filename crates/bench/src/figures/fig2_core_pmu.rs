//! Figure 2 (and Figure 14 with `--emr`): core PMU counters, local vs CXL.
//!
//! (a) SB-full stall cycles under RD+WR and WR-only;
//! (b) L1D stall cycles and data-response wait;
//! (c) L1D operation breakdown (DRd hits);
//! (d) LFB hits and fb_full stalls;
//! (e) L2-miss stall cycles and data responses;
//! (f) L2 operation breakdown per path.

use std::io;

use crate::scenario::map_scenarios;
use crate::{pct_change, print_table, ratio, run_machine, write_csv, Pin, SIX_APPS};
use pmu::{CoreEvent, SystemDelta};
use simarch::{MachineConfig, MemPolicy};
use workloads::StreamGen;

fn run_app(cfg: &MachineConfig, app: &str, ops: u64, policy: MemPolicy) -> io::Result<SystemDelta> {
    Ok(run_machine(cfg.clone(), vec![Pin::app(0, app, ops, policy, 7)?]).0)
}

pub fn run(args: &super::Args) -> io::Result<()> {
    let cfg = args.platform();
    let ops = args.ops();
    println!(
        "Figure 2{} — core PMU, local vs CXL ({ops} ops per run)\n",
        args.emr_tag(14)
    );

    // Every run is an independent machine and a pure function of its grid
    // cell, so the whole local/CXL grid fans out at once; sections (a) and
    // (b)-(f) then read from the merged, app-ordered pairs.
    let pairs = map_scenarios(args.jobs, &SIX_APPS, |_, &app| {
        Ok((
            run_app(&cfg, app, ops, MemPolicy::Local)?,
            run_app(&cfg, app, ops, MemPolicy::Cxl)?,
        ))
    })
    .into_iter()
    .collect::<io::Result<Vec<_>>>()?;

    // ---- (a) store-buffer stalls, RD+WR and WR-only ------------------------
    println!("(a) store-buffer-full stall cycles");
    let mut rows_a = Vec::new();
    for (app, (local, cxl)) in SIX_APPS.iter().zip(&pairs) {
        let rdwr = |d: &SystemDelta| d.core_sum(CoreEvent::ResourceStallsSb) as f64;
        let wr = |d: &SystemDelta| d.core_sum(CoreEvent::ExeActivityBoundOnStores) as f64;
        rows_a.push(vec![
            app.to_string(),
            format!("{:.0}", rdwr(local)),
            format!("{:.0}", rdwr(cxl)),
            ratio(rdwr(cxl), rdwr(local)),
            format!("{:.0}", wr(local)),
            format!("{:.0}", wr(cxl)),
            ratio(wr(cxl), wr(local)),
        ]);
    }
    // A dedicated write-only run makes the WR-only columns meaningful even
    // for read-mostly registry apps.
    let wr_only = |policy| {
        run_machine(
            cfg.clone(),
            vec![Pin::trace(
                0,
                "wr-only",
                Box::new(StreamGen::new(32 << 20, ops).write_ratio(1.0)),
                policy,
            )],
        )
        .0
    };
    let wr_runs = map_scenarios(args.jobs, &[MemPolicy::Local, MemPolicy::Cxl], |_, &p| {
        wr_only(p)
    });
    let (wl, wc) = (&wr_runs[0], &wr_runs[1]);
    rows_a.push(vec![
        "WR-only-stream".into(),
        format!("{}", wl.core_sum(CoreEvent::ResourceStallsSb)),
        format!("{}", wc.core_sum(CoreEvent::ResourceStallsSb)),
        ratio(
            wc.core_sum(CoreEvent::ResourceStallsSb) as f64,
            wl.core_sum(CoreEvent::ResourceStallsSb) as f64,
        ),
        format!("{}", wl.core_sum(CoreEvent::ExeActivityBoundOnStores)),
        format!("{}", wc.core_sum(CoreEvent::ExeActivityBoundOnStores)),
        ratio(
            wc.core_sum(CoreEvent::ExeActivityBoundOnStores) as f64,
            wl.core_sum(CoreEvent::ExeActivityBoundOnStores) as f64,
        ),
    ]);
    let headers_a = [
        "app",
        "rdwr local",
        "rdwr cxl",
        "ratio",
        "wr local",
        "wr cxl",
        "ratio",
    ];
    print_table(&headers_a, &rows_a);
    println!("paper: 1.9x (RD+WR) and 2.0x (WR-only) average increase on SPR; 1.3x on EMR\n");
    write_csv(&args.platform_csv("fig2a"), &headers_a, &rows_a)?;

    // ---- (b)-(f) one table per app pair ------------------------------------
    println!("(b)-(f) L1D / LFB / L2 execution and operation counters");
    let headers = [
        "app",
        "l1d.stall x",
        "resp.wait x",
        "l1d.hits Δ",
        "lfb.hits Δ",
        "fb_full x",
        "l2.stall x",
        "l2.drd.hits Δ",
        "l2.rfo.hits Δ",
        "l2.hwpf.hits Δ",
    ];
    let mut rows = Vec::new();
    for (app, (l, c)) in SIX_APPS.iter().zip(&pairs) {
        let f = |d: &SystemDelta, e| d.core_sum(e) as f64;
        let wait = |d: &SystemDelta| {
            f(d, CoreEvent::MemTransRetiredLoadLatency)
                / f(d, CoreEvent::MemTransRetiredLoadCount).max(1.0)
        };
        rows.push(vec![
            app.to_string(),
            ratio(
                f(c, CoreEvent::MemoryActivityStallsL1dMiss),
                f(l, CoreEvent::MemoryActivityStallsL1dMiss),
            ),
            ratio(wait(c), wait(l)),
            pct_change(
                f(c, CoreEvent::MemLoadRetiredL1Hit),
                f(l, CoreEvent::MemLoadRetiredL1Hit),
            ),
            pct_change(
                f(c, CoreEvent::MemLoadRetiredL1FbHit),
                f(l, CoreEvent::MemLoadRetiredL1FbHit),
            ),
            ratio(
                f(c, CoreEvent::L1dPendMissFbFull),
                f(l, CoreEvent::L1dPendMissFbFull),
            ),
            ratio(
                f(c, CoreEvent::MemoryActivityStallsL2Miss),
                f(l, CoreEvent::MemoryActivityStallsL2Miss),
            ),
            pct_change(
                f(c, CoreEvent::L2RqstsDemandDataRdHit),
                f(l, CoreEvent::L2RqstsDemandDataRdHit),
            ),
            pct_change(
                f(c, CoreEvent::L2RqstsRfoHit),
                f(l, CoreEvent::L2RqstsRfoHit),
            ),
            pct_change(
                f(c, CoreEvent::L2RqstsHwpfHit),
                f(l, CoreEvent::L2RqstsHwpfHit),
            ),
        ]);
    }
    print_table(&headers, &rows);
    println!(
        "paper SPR: L1D stalls 2.1x, response wait 1.4x, DRd/RFO hits -22.8%,\n\
         L2 stalls 2.7x; EMR shows the same signs with smaller magnitudes"
    );
    write_csv(&args.platform_csv("fig2bf"), &headers, &rows)
}
