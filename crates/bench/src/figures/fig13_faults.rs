//! Figure 13 (faults) — fault injection diagnosed end-to-end (paper §6).
//!
//! A healthy run of an interleaved STREAM workload records the anomaly
//! baseline; six fault scenarios then rerun the same workload under a
//! deterministic `FaultPlan` (one window each: FlexBus link degradation,
//! device-MC throttling, poisoned-line completions, CHA and IMC queue
//! stalls, and a PMU counter dropout). `AnomalyDetector` must name the
//! injected stage and class from the counters alone; the table shows the
//! injected ground truth next to the diagnosis and the timing impact.

use std::io;

use crate::scenario::map_scenarios;
use crate::{print_table, run_machine, run_machine_with_faults, write_csv, Pin};
use pathfinder::{AnomalyDetector, HealthyBaseline};
use simarch::{FaultClass, FaultPlan, FaultWindow, MachineConfig, MemPolicy, StageId};

struct Scenario {
    name: &'static str,
    class: FaultClass,
    stage: StageId,
    severity: u64,
}

/// One core, half local DRAM / half CXL — every diagnosable stage sees
/// traffic, so both the CXL-side and uncore-side fault classes are
/// observable against one baseline.
fn pins(ops: u64) -> io::Result<Vec<Pin>> {
    let policy = MemPolicy::Interleave { cxl_fraction: 0.5 };
    Ok(vec![Pin::app(0, "STREAM", ops, policy, 7)?])
}

pub fn run(args: &super::Args) -> io::Result<()> {
    let cfg = MachineConfig::spr();
    let ops = args.ops();
    println!("Figure 13 (faults) — injected CXL.mem anomalies, diagnosed from counters ({ops} ops per run)\n");

    let (healthy_delta, healthy_cycles) = run_machine(cfg.clone(), pins(ops)?);
    let detector = AnomalyDetector::new(HealthyBaseline::from_delta(&healthy_delta));

    // A stall of half an epoch dominates the epoch's mean residency.
    let stall = cfg.epoch_cycles / 2;
    let scenarios = [
        Scenario {
            name: "link_degrade",
            class: FaultClass::LinkDegrade,
            stage: StageId::cxl(0),
            severity: 12,
        },
        Scenario {
            name: "dev_throttle",
            class: FaultClass::DevThrottle,
            stage: StageId::cxl(0),
            severity: 12,
        },
        Scenario {
            name: "poisoned_line",
            class: FaultClass::PoisonedLine,
            stage: StageId::cxl(0),
            severity: 2,
        },
        Scenario {
            name: "cha_stall",
            class: FaultClass::QueueStall,
            stage: StageId::cha(),
            severity: stall,
        },
        Scenario {
            name: "imc_stall",
            class: FaultClass::QueueStall,
            stage: StageId::imc(),
            severity: stall,
        },
        Scenario {
            name: "pmu_dropout",
            class: FaultClass::PmuDropout,
            stage: StageId::imc(),
            severity: 0,
        },
    ];

    let results = map_scenarios(args.jobs, &scenarios, |_, s| {
        let plan = FaultPlan::new()
            .with(FaultWindow {
                class: s.class,
                stage: s.stage,
                start_epoch: 0,
                end_epoch: u64::MAX,
                severity: s.severity,
            })
            .map_err(io::Error::other)?;
        Ok(run_machine_with_faults(cfg.clone(), pins(ops)?, plan))
    })
    .into_iter()
    .collect::<io::Result<Vec<_>>>()?;

    let headers = [
        "scenario",
        "injected",
        "stage",
        "diagnosed",
        "named stage",
        "verdict",
        "cycles",
        "slowdown",
    ];
    let healthy_ok = detector.diagnose(&healthy_delta).is_none();
    let mut rows = vec![vec![
        "healthy".to_string(),
        "-".into(),
        "-".into(),
        "none".into(),
        "-".into(),
        if healthy_ok { "ok" } else { "FALSE-ALARM" }.into(),
        healthy_cycles.to_string(),
        "1.00x".into(),
    ]];
    for (s, (delta, cycles)) in scenarios.iter().zip(&results) {
        let diag = detector.diagnose(delta);
        let (named_class, named_stage) = diag
            .as_ref()
            .map(|a| (a.class.label().to_string(), a.stage.clone()))
            .unwrap_or(("none".into(), "-".into()));
        let want_stage = format!("{}", s.stage);
        let ok = diag
            .as_ref()
            .map(|a| a.class == s.class && a.stage == want_stage)
            .unwrap_or(false);
        rows.push(vec![
            s.name.to_string(),
            s.class.label().to_string(),
            want_stage,
            named_class,
            named_stage,
            if ok { "ok" } else { "MISS" }.to_string(),
            cycles.to_string(),
            format!("{:.2}x", *cycles as f64 / healthy_cycles as f64),
        ]);
    }
    print_table(&headers, &rows);
    println!(
        "\n'ok' = diagnosed (stage, class) matches the injected ground truth;\n\
         the dropout scenario leaves timing untouched (slowdown 1.00x) and is\n\
         caught purely from the frozen clockticks bank"
    );
    write_csv("fig13_faults.csv", &headers, &rows)
}
