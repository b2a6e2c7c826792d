//! perfbench — the repo's perf-regression harness.
//!
//! PathFinder's pitch is a *lightweight* profiler (§5.9 budgets its
//! overhead), and the software simulators it is compared against report
//! simulation throughput as a headline metric. This binary measures the
//! two hot paths that bound our own throughput on fixed, seeded scenarios:
//!
//! 1. `perfbench.profiled` — a full profiled run (machine + all four
//!    techniques + materializer ingest) over a short-epoch configuration,
//!    reporting epochs/sec, points ingested/sec, and retained bytes.
//! 2. `perfbench.ingest` — the materializer-shaped tsdb ingest loop in
//!    isolation: the same per-epoch counter grid the profiler emits,
//!    reporting points/sec and retained bytes.
//!
//! Wall time is read only through `obs::clock::now_ns` (the workspace's
//! single sanctioned clock choke point — see STATIC_ANALYSIS.md), so this
//! binary stays clean under pflint's `wall-clock` rule. Results are
//! appended/merged into `BENCH_pr10.json` (schema: one row per measurement,
//! `{"name", "metric", "value", "unit"}`) so successive PRs can track the
//! perf trajectory. Rows are merged by `(name, metric)`: re-running with
//! the same `--label` updates in place and never duplicates.
//!
//! `--gate BASELINE.json` skips measurement entirely: it reads the `--out`
//! file and the baseline, compares `perfbench.profiled` epochs/s, and
//! exits non-zero if the out file is missing or regresses below the
//! baseline — the tier-1 perf gate.
//!
//! `cargo run --release -p bench --bin perfbench -- [--label L] [--out F]
//!  [--epochs N] [--no-write] [--gate BASE]`

use std::io::Write;
use std::path::PathBuf;

use pathfinder::profiler::{ProfileSpec, Profiler};
use simarch::{Machine, MachineConfig, MemPolicy, Workload};

/// One emitted measurement row.
struct Row {
    name: String,
    metric: &'static str,
    value: f64,
    unit: &'static str,
}

fn secs_since(start_ns: u64) -> f64 {
    (obs::clock::now_ns().saturating_sub(start_ns)) as f64 / 1e9
}

/// The fixed profiled scenario: a short-epoch machine (so the per-epoch
/// profiler work — snapshot, digest, techniques, ingest — dominates over
/// raw trace simulation) with two seeded workloads that outlive the run.
fn profiled_scenario(epochs: u64) -> std::io::Result<Vec<Row>> {
    let mut cfg = MachineConfig::tiny();
    cfg.epoch_cycles = 500;
    let mut machine = Machine::new(cfg);
    let registry_app = |app: &str, seed: u64| {
        workloads::build(app, u64::MAX / 2, seed).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("app {app} missing from the workloads registry"),
            )
        })
    };
    machine.attach(
        0,
        Workload::new("519.lbm_r", registry_app("519.lbm_r", 1)?, MemPolicy::Cxl),
    );
    machine.attach(
        1,
        Workload::new("505.mcf_r", registry_app("505.mcf_r", 2)?, MemPolicy::Local),
    );
    let mut profiler = Profiler::new(machine, ProfileSpec::default());

    // Warm up: let caches/series establish themselves before timing.
    for _ in 0..64 {
        profiler.profile_epoch();
    }
    let points_before = profiler.materializer.db.len();

    let start = obs::clock::now_ns();
    for _ in 0..epochs {
        profiler.profile_epoch();
    }
    let secs = secs_since(start);

    let points = profiler.materializer.db.len() - points_before;
    let retained = profiler.overhead().memory_bytes;
    println!(
        "profiled: {epochs} epochs in {secs:.3}s — {:.0} epochs/s, {points} points ({:.0} points/s), {retained} retained bytes",
        epochs as f64 / secs,
        points as f64 / secs,
    );
    Ok(vec![
        Row {
            name: "perfbench.profiled".into(),
            metric: "epochs_per_sec",
            value: epochs as f64 / secs,
            unit: "epochs/s",
        },
        Row {
            name: "perfbench.profiled".into(),
            metric: "points_per_sec",
            value: points as f64 / secs,
            unit: "points/s",
        },
        Row {
            name: "perfbench.profiled".into(),
            metric: "retained_bytes",
            value: retained as f64,
            unit: "bytes",
        },
        // Real columnar heap vs. the logical §5.9 accounting above — the
        // same number fleetd exposes as the tsdb.resident_bytes gauge.
        Row {
            name: "perfbench.profiled".into(),
            metric: "resident_bytes",
            value: profiler.materializer.db.resident_bytes() as f64,
            unit: "bytes",
        },
    ])
}

/// The materializer-shaped ingest loop in isolation: `series` distinct
/// (core, app, path, dst) series, one `hits` field each, `epochs` epoch
/// timestamps — the exact record grid `ingest_path_map` produces.
fn ingest_scenario(series: usize, epochs: u64) -> Vec<Row> {
    use tsdb::{Db, Point};
    let mut db = Db::new();
    let paths = ["DRd", "RFO", "HW PF", "SW PF"];
    let dsts = ["L2", "LLC", "CXL Memory", "Local DRAM"];
    let start = obs::clock::now_ns();
    for e in 0..epochs {
        let ts = e * 10_000;
        for s in 0..series {
            db.insert(
                Point::new("path_set", ts)
                    .tag("core", (s % 4).to_string())
                    .tag("app", "519.lbm_r")
                    .tag("path", paths[s % paths.len()])
                    .tag("dst", dsts[(s / 4) % dsts.len()])
                    .field("hits", (e * s as u64) as f64),
            );
        }
    }
    let secs = secs_since(start);
    let points = db.len();
    println!(
        "ingest: {points} points in {secs:.3}s — {:.0} points/s, {} retained bytes",
        points as f64 / secs,
        db.footprint_bytes(),
    );
    vec![
        Row {
            name: "perfbench.ingest".into(),
            metric: "points_per_sec",
            value: points as f64 / secs,
            unit: "points/s",
        },
        Row {
            name: "perfbench.ingest".into(),
            metric: "retained_bytes",
            value: db.footprint_bytes() as f64,
            unit: "bytes",
        },
        Row {
            name: "perfbench.ingest".into(),
            metric: "resident_bytes",
            value: db.resident_bytes() as f64,
            unit: "bytes",
        },
    ]
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Render rows as a JSON array (one object per line, stable key order).
fn render(rows: &[Row]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"metric\": \"{}\", \"value\": {}, \"unit\": \"{}\"}}{}\n",
            r.name,
            r.metric,
            obs::json::fmt_f64(r.value),
            r.unit,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    out
}

/// Merge `fresh` into the rows already in `path` (if parseable): existing
/// rows keep their position, a fresh row replaces any row with the same
/// `(name, metric)`, new rows append. This keeps `before` rows from a
/// previous run intact while updating the current label's numbers.
fn merge_into_file(path: &PathBuf, fresh: Vec<Row>) -> std::io::Result<()> {
    let mut rows: Vec<Row> = Vec::new();
    if let Ok(text) = std::fs::read_to_string(path) {
        if let Ok(v) = obs::json::parse(&text) {
            for item in v.as_arr().unwrap_or(&[]) {
                let (Some(name), Some(metric), Some(value), Some(unit)) = (
                    item.get("name").and_then(|x| x.as_str()),
                    item.get("metric").and_then(|x| x.as_str()),
                    item.get("value").and_then(|x| x.as_f64()),
                    item.get("unit").and_then(|x| x.as_str()),
                ) else {
                    continue;
                };
                let metric: &'static str = match metric {
                    "epochs_per_sec" => "epochs_per_sec",
                    "points_per_sec" => "points_per_sec",
                    "retained_bytes" => "retained_bytes",
                    "resident_bytes" => "resident_bytes",
                    _ => continue,
                };
                let unit: &'static str = match unit {
                    "epochs/s" => "epochs/s",
                    "points/s" => "points/s",
                    "bytes" => "bytes",
                    _ => continue,
                };
                rows.push(Row {
                    name: name.to_string(),
                    metric,
                    value,
                    unit,
                });
            }
        }
    }
    for f in fresh {
        match rows
            .iter_mut()
            .find(|r| r.name == f.name && r.metric == f.metric)
        {
            Some(slot) => *slot = f,
            None => rows.push(f),
        }
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(render(&rows).as_bytes())?;
    println!("[json] {}", path.display());
    Ok(())
}

/// Read the recorded `perfbench.profiled` epochs/s from a results file.
fn recorded_epochs_per_sec(path: &PathBuf) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let v = obs::json::parse(&text).ok()?;
    v.as_arr()?.iter().find_map(|item| {
        (item.get("name")?.as_str()? == "perfbench.profiled"
            && item.get("metric")?.as_str()? == "epochs_per_sec")
            .then(|| item.get("value")?.as_f64())?
    })
}

/// `--gate BASELINE`: compare the committed out-file against the baseline
/// without measuring anything. Fails (exit 1) when the out file or its
/// profiled row is missing, or when epochs/s regressed below the baseline.
fn gate(out: &PathBuf, baseline: &PathBuf) -> std::io::Result<()> {
    let err = |msg: String| std::io::Error::other(msg);
    let current = recorded_epochs_per_sec(out).ok_or_else(|| {
        err(format!(
            "gate: no perfbench.profiled epochs/s in {}",
            out.display()
        ))
    })?;
    let base = recorded_epochs_per_sec(baseline).ok_or_else(|| {
        err(format!(
            "gate: no perfbench.profiled epochs/s in baseline {}",
            baseline.display()
        ))
    })?;
    println!(
        "gate: {} records {current:.0} epochs/s, baseline {} records {base:.0} epochs/s",
        out.display(),
        baseline.display()
    );
    if current < base {
        return Err(err(format!(
            "gate: perfbench.profiled epochs_per_sec regressed ({current:.0} in {} < {base:.0} in baseline {})",
            out.display(),
            baseline.display()
        )));
    }
    println!("gate: ok ({:.2}x baseline)", current / base);
    Ok(())
}

fn main() -> std::io::Result<()> {
    let session = bench::obs_session();
    let args: Vec<String> = std::env::args().collect();
    let label = arg_value(&args, "--label");
    let epochs: u64 = arg_value(&args, "--epochs")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);
    let out = arg_value(&args, "--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pr10.json"));
    if let Some(baseline) = arg_value(&args, "--gate") {
        gate(&out, &PathBuf::from(baseline))?;
        return session.finish();
    }
    println!("perfbench — fixed seeded scenarios, obs clock only\n");
    let mut rows = profiled_scenario(epochs)?;
    rows.extend(ingest_scenario(64, 4_000));

    if let Some(label) = &label {
        for r in &mut rows {
            r.name = format!("{}.{label}", r.name);
        }
    }
    if args.iter().any(|a| a == "--no-write") {
        print!("\n{}", render(&rows));
        return session.finish();
    }
    merge_into_file(&out, rows)?;
    session.finish()
}
