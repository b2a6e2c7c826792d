//! Figures 9 + 10 (Case 4, §5.5): contention among concurrent CXL mFlows.
//!
//! A YCSB mFlow shares the CXL device with three neighbour mFlows whose
//! offered load sweeps 20% → 100%. Figure 9: YCSB throughput and
//! CXL-induced stall per component; Figure 10: queue lengths. Paper shape:
//! YCSB throughput -77.4%, FlexBus+MC latency 4.3x, contention manifests
//! first in the uncore and propagates into the private core components.

use std::io;

use crate::scenario::map_scenarios;
use crate::{print_table, write_csv, Pin};
use pathfinder::model::{Component, PathGroup};
use pathfinder::profiler::{ProfileSpec, Profiler};
use simarch::{Machine, MachineConfig, MemPolicy, Workload};
use workloads::Mbw;

pub fn run(args: &super::Args) -> io::Result<()> {
    let ops = args.ops();
    println!(
        "Figures 9/10 — concurrent CXL mFlow contention ({} ops per run)\n",
        ops
    );

    let loads = [0.2, 0.4, 0.6, 0.8, 1.0];
    let headers9 = [
        "neighbour load",
        "ycsb tput (ops/Mcy)",
        "SB",
        "L1D",
        "LFB",
        "L2",
        "LLC",
        "CHA",
        "FlexBus+MC",
    ];
    let headers10 = [
        "neighbour load",
        "L1D q",
        "LFB q",
        "L2 q",
        "LLC q",
        "FlexBus DRd q",
        "FlexBus HWPF q",
    ];
    // Each sweep point is an independent machine + profiler; fan them out
    // and render in load order.
    let per_load = map_scenarios(args.jobs, &loads, |_, &load| {
        // YCSB runs 4x the neighbour budget so its lifetime spans many
        // epochs (finer throughput resolution) and sees sustained
        // contention; theta 0.4 flattens the key popularity so the working
        // set exceeds the caches and the flow is genuinely CXL-bound.
        let ycsb: Box<dyn simarch::TraceSource> = Box::new(workloads::ZipfKv::with_theta(
            64 << 20,
            1024,
            workloads::YcsbMix::C,
            ops * 4,
            3,
            0.4,
        ));
        let mut pins = vec![Pin::trace(0, "YCSB-C", ycsb, MemPolicy::Cxl)];
        for c in 1..4 {
            pins.push(Pin::trace(
                c,
                format!("cxl-neighbour-{c}"),
                // Each of the three neighbours offers a third of the sweep
                // point (aggregate spans under to over the device capacity)
                // and runs an effectively unbounded trace so contention
                // persists for the whole YCSB lifetime.
                Box::new(Mbw::new(24 << 20, u64::MAX, load / 3.0)),
                MemPolicy::Cxl,
            ));
        }
        let mut machine = Machine::new(MachineConfig::spr());
        for p in pins {
            machine.attach(p.core, Workload::new(p.name, p.trace, p.policy));
        }
        let mut profiler = Profiler::new(machine, ProfileSpec::default());
        // Track when the YCSB flow itself drains: its throughput is ops over
        // *its own* lifetime, not the whole run's.
        let mut ycsb_ops = 0u64;
        let mut ycsb_done_at = 0u64;
        for _ in 0..400 {
            let e = profiler.profile_epoch();
            if e.ops_per_core[0] > 0 {
                ycsb_ops += e.ops_per_core[0];
                ycsb_done_at = e.delta.end_cycle;
            }
            // The neighbours never finish; stop once the YCSB flow drains.
            if ycsb_ops >= ops * 4 {
                break;
            }
        }
        let report = profiler.report();
        let tput = ycsb_ops as f64 / (ycsb_done_at.max(1) as f64 / 1e6);
        // Per-mFlow stall attribution for the YCSB core only (the paper's
        // per-mFlow analysis), over the whole run's counter delta.
        let ycsb_stalls = {
            use pathfinder::estimator::PfEstimator;
            use pathfinder::model::LatencyModel;
            let lat = LatencyModel::spr();
            let machine = profiler.machine();
            let end = machine.pmu.snapshot(machine.now());
            let zero = pmu::SystemPmu::new(
                end.pmu.cores.len(),
                end.pmu.chas.len(),
                end.pmu.imcs.len(),
                end.pmu.m2ps.len(),
                end.pmu.cxls.len(),
            )
            .snapshot(0);
            PfEstimator::breakdown_core(&end.delta(&zero), &lat, 0)
        };
        let s = |c: Component| {
            let total: f64 = PathGroup::ALL.iter().map(|&p| ycsb_stalls.get(p, c)).sum();
            format!("{:.0}", total)
        };
        let row9 = vec![
            format!("{:.0}%", load * 100.0),
            format!("{:.0}", tput),
            s(Component::Sb),
            s(Component::L1d),
            s(Component::Lfb),
            s(Component::L2),
            s(Component::Llc),
            s(Component::Cha),
            s(Component::FlexBusMc),
        ];
        let q = |p: PathGroup, c: Component| format!("{:.4}", report.mean_queues.get(p, c));
        let qsum = |c: Component| {
            let total: f64 = PathGroup::ALL
                .iter()
                .map(|&p| report.mean_queues.get(p, c))
                .sum();
            format!("{:.4}", total)
        };
        let row10 = vec![
            format!("{:.0}%", load * 100.0),
            qsum(Component::L1d),
            qsum(Component::Lfb),
            qsum(Component::L2),
            qsum(Component::Llc),
            q(PathGroup::Drd, Component::FlexBusMc),
            q(PathGroup::HwPf, Component::FlexBusMc),
        ];
        (row9, row10)
    });
    let (rows9, rows10): (Vec<_>, Vec<_>) = per_load.into_iter().unzip();

    println!("Figure 9 — YCSB throughput and CXL-induced stall per component");
    print_table(&headers9, &rows9);
    println!("\nFigure 10 — queue lengths (entries/cycle, run mean)");
    print_table(&headers10, &rows10);
    println!(
        "\npaper shape: YCSB throughput collapses (-77.4% at full neighbour load);\n\
         FlexBus+MC queueing rises first and hardest (DRd 4.6x, HWPF 1.2x),\n\
         then LLC (3.4x) and the core-private components follow"
    );
    write_csv("fig9_contention_stall.csv", &headers9, &rows9)?;
    write_csv("fig10_contention_queue.csv", &headers10, &rows10)
}
