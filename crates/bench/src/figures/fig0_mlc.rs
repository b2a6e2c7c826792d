//! §2.3 headline numbers: Intel-MLC-style idle latency and loaded bandwidth
//! for local DRAM vs CXL memory.
//!
//! Paper (SPR): local 103.2 ns / 131.1 GB/s; CXL 355.3 ns / 17.6 GB/s.
//! The probe sizes are fixed, so `--ops` does not change this figure.

use std::io;

use crate::scenario::map_scenarios;
use crate::{print_table, run_machine, write_csv, Pin};
use pmu::CoreEvent;
use simarch::{MachineConfig, MemPolicy};
use workloads::{PointerChase, StreamGen};

pub fn run(args: &super::Args) -> io::Result<()> {
    let cfg = MachineConfig::spr();
    println!("MLC-style probe on {} ({} GHz)\n", cfg.name, cfg.freq_ghz);

    let media = [
        (MemPolicy::Local, "local DDR"),
        (MemPolicy::RemoteNuma, "NUMA remote"),
        (MemPolicy::Cxl, "CXL DIMM"),
    ];
    let rows = map_scenarios(args.jobs, &media, |_, &(policy, label)| {
        // Idle latency: single dependent pointer chase, per-op time is the
        // load-to-use latency.
        let chase = PointerChase::new(32 << 20, 60_000, 3);
        let (d, _) = run_machine(
            cfg.clone(),
            vec![Pin::trace(0, "mlc-lat", Box::new(chase), policy)],
        );
        let lat_cy = d.core_sum(CoreEvent::MemTransRetiredLoadLatency) as f64
            / d.core_sum(CoreEvent::MemTransRetiredLoadCount).max(1) as f64;
        let lat_ns = cfg.cycles_to_ns(lat_cy.round() as u64);

        // Loaded bandwidth: all cores streaming flat out.
        let pins: Vec<Pin> = (0..cfg.cores)
            .map(|c| {
                Pin::trace(
                    c,
                    format!("mlc-bw-{c}"),
                    Box::new(StreamGen::new(48 << 20, 400_000).work(0)),
                    policy,
                )
            })
            .collect();
        let (db, cycles) = run_machine(cfg.clone(), pins);
        let lines = db.core_sum(CoreEvent::MemLoadRetiredL1Miss) as f64;
        let bytes = lines * 64.0;
        let secs = cycles as f64 / (cfg.freq_ghz * 1e9);
        let gbps = bytes / secs / 1e9;
        vec![
            label.to_string(),
            format!("{lat_ns:.1}"),
            format!("{gbps:.1}"),
        ]
    });

    let headers = ["medium", "idle latency (ns)", "loaded BW (GB/s)"];
    print_table(&headers, &rows);
    println!("\npaper SPR: local 103.2 ns / 131.1 GB/s ; NUMA 163.6 ns / 94.4 GB/s ;");
    println!("           CXL 355.3 ns / 17.6 GB/s");
    println!("(bandwidth is scaled with the 4-core machine slice; shape, not absolutes)");
    write_csv("fig0_mlc_spr.csv", &headers, &rows)
}
