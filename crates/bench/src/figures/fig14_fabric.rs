//! Figure 14 (fabric) — multi-host CXL.mem pooling diagnosed end-to-end.
//!
//! Two hosts share a CXL switch and a pooled Type-3 device (DESIGN.md
//! §2.2). A healthy round-robin run records the fabric baseline; the
//! scenarios then stress the sharing pathologies the paper's single-host
//! profiler cannot even express: a noisy neighbor whose flood reaches the
//! victim through head-of-line blocking at a FIFO switch, the same
//! tenancy isolated by round-robin arbitration (the flood queues behind
//! itself), an unequal weighted bandwidth partition, and the two
//! cross-tenant fault classes (FAULTS.md: `shared_link_degrade`,
//! `switch_port_stall`). `FabricDetector` must name the faulted stage and
//! the culprit/victim hosts from the fabric counters alone.

use std::io;

use crate::scenario::map_scenarios;
use crate::{print_table, run_fabric, write_csv, HostPin, Pin};
use pathfinder::{FabricBaseline, FabricDetector, FabricDiagnosis, FabricMetrics};
use simarch::switch::Arbitration;
use simarch::{FabricConfig, FaultClass, FaultPlan, FaultWindow, MachineConfig, StageId};

const HOSTS: usize = 2;

/// Smaller per-run budget than the single-host figures: every scenario
/// runs two machines plus the fabric replay.
const FABRIC_OPS: u64 = 60_000;

struct Scenario {
    name: &'static str,
    arb: Arbitration,
    /// Cores pinned per host — demand *rate*, not duration: a noisy
    /// tenant floods the pool by running more cores, not longer.
    load: [usize; HOSTS],
    /// Fabric-level fault window: `(class, upstream port, severity)`.
    fault: Option<(FaultClass, usize, u64)>,
}

/// The shared downlink is dimensioned as the fabric's only bottleneck:
/// slower than a private FlexBus hop (a pooled x4 stack shared by two
/// tenants) yet still faster than the pooled MC behind it, so arrival
/// pacing through the switch can never oversubscribe the pool and every
/// pathology shows up where the arbitration lives. A one-core CXL-bound
/// host issues every ~30 cycles; the healthy two-tenant mix (~15-cycle
/// spacing) stays under capacity, while a multi-core flood (~10-cycle
/// combined spacing) queues at the switch — the regime this figure
/// studies.
fn fabric_cfg(cfg: &MachineConfig, arb: Arbitration) -> FabricConfig {
    FabricConfig {
        arbitration: arb,
        link_gap: cfg.flexbus_gap + 4,
        ..FabricConfig::balanced(HOSTS, cfg)
    }
}

/// Every host pins a CXL-only STREAM sweep on `load[host]` cores.
fn pins(ops: u64, load: [usize; HOSTS]) -> io::Result<Vec<HostPin>> {
    let mut v = Vec::new();
    for (host, cores) in load.into_iter().enumerate() {
        for core in 0..cores {
            let seed = 7 + (host * 4 + core) as u64;
            v.push((
                host,
                Pin::app(core, "STREAM", ops, simarch::MemPolicy::Cxl, seed)?,
            ));
        }
    }
    Ok(v)
}

fn fmt_host(h: Option<usize>) -> String {
    h.map(|h| format!("host{h}")).unwrap_or_else(|| "-".into())
}

fn fmt_victims(v: &[usize]) -> String {
    if v.is_empty() {
        "-".into()
    } else {
        v.iter()
            .map(|h| format!("host{h}"))
            .collect::<Vec<_>>()
            .join("+")
    }
}

pub fn run(args: &super::Args) -> io::Result<()> {
    let cfg = MachineConfig::spr();
    let ops = args.ops.unwrap_or(FABRIC_OPS);
    println!(
        "Figure 14 (fabric) — {HOSTS} hosts on a pooled Type-3 device, \
         cross-tenant pathologies diagnosed from counters ({ops} ops per host unit)\n"
    );

    let stall = cfg.epoch_cycles / 4;
    let scenarios = [
        Scenario {
            name: "healthy",
            arb: Arbitration::RoundRobin,
            load: [1, 1],
            fault: None,
        },
        Scenario {
            name: "noisy_neighbor",
            arb: Arbitration::Fifo,
            load: [4, 1],
            fault: None,
        },
        Scenario {
            name: "rr_isolation",
            arb: Arbitration::RoundRobin,
            load: [4, 1],
            fault: None,
        },
        Scenario {
            name: "bw_partition",
            arb: Arbitration::Weighted(vec![3, 1]),
            load: [2, 2],
            fault: None,
        },
        Scenario {
            name: "shared_link_fault",
            arb: Arbitration::RoundRobin,
            load: [1, 1],
            fault: Some((FaultClass::SharedLinkDegrade, 0, 3)),
        },
        Scenario {
            name: "port_stall",
            arb: Arbitration::RoundRobin,
            load: [1, 1],
            fault: Some((FaultClass::SwitchPortStall, 1, stall)),
        },
    ];

    let results = map_scenarios(args.jobs, &scenarios, |_, s| {
        let plan = match s.fault {
            None => FaultPlan::new(),
            Some((class, port, severity)) => FaultPlan::new()
                .with(FaultWindow {
                    class,
                    stage: StageId::switch_port(port),
                    start_epoch: 0,
                    end_epoch: u64::MAX,
                    severity,
                })
                .map_err(io::Error::other)?,
        };
        Ok(run_fabric(
            cfg.clone(),
            fabric_cfg(&cfg, s.arb.clone()),
            pins(ops, s.load)?,
            plan,
        ))
    })
    .into_iter()
    .collect::<io::Result<Vec<_>>>()?;

    let (healthy_delta, healthy_cycles) = &results[0];
    let detector = FabricDetector::new(FabricBaseline::from_delta(healthy_delta));
    let metrics: Vec<FabricMetrics> = results
        .iter()
        .map(|(d, _)| FabricMetrics::from_delta(d))
        .collect();

    let headers = [
        "scenario",
        "diagnosed",
        "stage",
        "culprit",
        "victims",
        "h0 wait",
        "h1 wait",
        "h0 share",
        "h1 hol%",
        "verdict",
        "slowdown",
    ];
    let mut rows = Vec::new();
    for (i, s) in scenarios.iter().enumerate() {
        let (delta, cycles) = &results[i];
        let m = &metrics[i];
        let diag = detector.diagnose(delta);
        let (named, stage, culprit, victims) = diag
            .as_ref()
            .map(|a| {
                (
                    a.kind.label().to_string(),
                    a.stage.clone(),
                    fmt_host(a.culprit),
                    fmt_victims(&a.victims),
                )
            })
            .unwrap_or(("none".into(), "-".into(), "-".into(), "-".into()));
        let ok = match s.name {
            // The baseline run must not alarm against itself.
            "healthy" => diag.is_none(),
            // The flooding tenant is named culprit, the other host the
            // victim its flood HOL-blocks at the FIFO switch.
            "noisy_neighbor" => diag.as_ref().is_some_and(|a| {
                a.kind == FabricDiagnosis::NoisyNeighbor && a.culprit == Some(0) && a.victims == [1]
            }),
            // Same tenancy under round-robin: the victim is shielded —
            // never named a victim, its HOL-blocked share collapses, and
            // the flood pays for its own backlog.
            "rr_isolation" => {
                diag.as_ref().is_none_or(|a| !a.victims.contains(&1))
                    && m.hol[1] < metrics[1].hol[1]
                    && m.port_wait[1] + m.pool_wait[1]
                        < metrics[1].port_wait[1] + metrics[1].pool_wait[1]
            }
            // Host 1 holds 1/4 of the arbitration credits: with equal
            // demand it pays strictly more fabric wait than host 0.
            "bw_partition" => m.port_wait[1] > m.port_wait[0],
            // A uniform elevation with the mix unchanged names the shared
            // link, both hosts victims, nobody culprit.
            "shared_link_fault" => diag.as_ref().is_some_and(|a| {
                a.kind == FabricDiagnosis::SharedLinkDegrade && a.stage == "cxlsw0"
            }),
            // An isolated elevation names the stalled port's tenant.
            "port_stall" => diag
                .as_ref()
                .is_some_and(|a| a.kind == FabricDiagnosis::SwitchPortStall && a.stage == "cxlsw1"),
            _ => unreachable!("unknown scenario"),
        };
        rows.push(vec![
            s.name.to_string(),
            named,
            stage,
            culprit,
            victims,
            format!("{:.1}", m.port_wait[0] + m.pool_wait[0]),
            format!("{:.1}", m.port_wait[1] + m.pool_wait[1]),
            format!("{:.2}", m.pool_share[0]),
            format!("{:.2}", 100.0 * m.hol[1]),
            if ok { "ok" } else { "MISS" }.to_string(),
            format!("{:.2}x", *cycles as f64 / *healthy_cycles as f64),
        ]);
    }
    print_table(&headers, &rows);
    println!(
        "\n'ok' = the diagnosis names the expected pathology, stage and\n\
         culprit/victim hosts from the fabric counters alone; wait columns\n\
         are switch+pool cycles per request, 'h0 share' the pooled-CAS\n\
         bandwidth fraction, 'h1 hol%' the victim's HOL-blocked share of\n\
         the run. noisy_neighbor vs rr_isolation is the same 4-vs-1-core\n\
         tenancy: FIFO lets the flood HOL-block the victim, round-robin\n\
         makes the flood queue behind itself"
    );
    write_csv("fig14_fabric.csv", &headers, &rows)
}
