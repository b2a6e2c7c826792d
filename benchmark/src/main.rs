//! The repository benchmark: four workloads that time the profiler, the
//! timing model, the time-series store and fleetd from outside.
//!
//! ```text
//! pathfinder-benchmark run     [--workload W] [--seed S] [--trace 0|1] [--out F] [--smoke] [--seconds N]
//! pathfinder-benchmark compare A.jsonl B.jsonl
//! ```
//!
//! `run` runs each workload (all four unless `--workload`) in a process of
//! its own, so peak RSS belongs to that workload. It prints every metric
//! with its unit and quartiles, appends one JSON record per workload to
//! `--out` (default: `out/last.jsonl` here, overwritten), and ends with one
//! JSON line per workload: `correct`, `attempted`, `failed` and the metrics
//! BENCHMARK.json names (end-to-end untraced, per-layer with `--trace 1`).
//! It exits non-zero if any correctness check fails. `--trace 1` also
//! leaves a Chrome trace and a self-time table per workload in `out/`.
//! Every run lasts BENCHMARK.json's `run_seconds` (1 s with `--smoke`);
//! `--seconds`, for harnesses that pass the run length, must equal it.
//! `compare` labels each (workload, metric) of two results files win, loss,
//! noise or unresolved (see README.md).

mod alloc;
mod compare;
mod fleet;
mod profile;
mod result;
mod span;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use obs::json::Value;

use crate::result::{record_json, Outcome};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

pub const WORKLOADS: [&str; 4] = [
    "profile-short-epoch",
    "sim-cxl-contended",
    "profile-analysis-retention",
    "fleet-scrape",
];

/// BENCHMARK.json: the metric lists this binary reports.
const SPEC: &str = include_str!("../../BENCHMARK.json");

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`; one of {WORKLOADS:?}"));
                }
                o.workload = Some(w.clone());
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--smoke" => o.smoke = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(o)
}

fn spec() -> Value {
    obs::json::parse(SPEC).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one BENCHMARK.json list.
fn spec_metrics(list: &str) -> Vec<(String, String)> {
    let spec = spec();
    let items = spec.get(list).and_then(Value::as_arr).unwrap_or(&[]);
    items
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?;
            let unit = m.get("unit")?.as_str()?;
            Some((name.to_string(), unit.to_string()))
        })
        .collect()
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_opts(&args[1..]).and_then(|o| run(&o)),
        Some("child") => parse_opts(&args[1..]).and_then(|o| child(&o)),
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2], &spec()),
        _ => Err("usage: pathfinder-benchmark run [--workload W] [--seed S] [--trace 0|1] [--out F] [--smoke] [--seconds N]\n       pathfinder-benchmark compare A.jsonl B.jsonl".to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pathfinder-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run the selected workloads, one process each. `Ok(false)` when a check
/// failed.
fn run(o: &Opts) -> Result<bool, String> {
    let seconds = if o.smoke {
        1
    } else {
        spec()
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")? as u64
    };
    // The run length is the benchmark's, so runs of two commits always
    // compare like with like.
    if o.seconds.is_some_and(|s| s != seconds) {
        return Err(format!("--seconds must be {seconds}, the run length"));
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let workloads: Vec<&str> = match &o.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut records = Vec::new();
    let mut lines = Vec::new();
    let mut all_correct = true;
    for w in workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["child", "--workload", w, "--seed"])
            .arg(o.seed.to_string())
            .args(["--seconds", &seconds.to_string(), "--trace"])
            .arg(if o.trace { "1" } else { "0" });
        if o.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let record = stdout
            .lines()
            .last()
            .filter(|_| out.status.success())
            .ok_or(format!("{w}: run process failed ({})", out.status))?;
        let rec = obs::json::parse(record).map_err(|e| format!("{w}: bad record: {e:?}"))?;
        print_human(&rec);
        let (line, correct) = result_line(&rec);
        all_correct &= correct;
        records.push(record.to_string());
        lines.push(line);
    }
    let (path, append) = match &o.out {
        Some(p) => (p.clone(), true),
        None => (out_dir().join("last.jsonl"), false),
    };
    write_records(&path, &records, append)?;
    for l in lines {
        println!("{l}");
    }
    Ok(all_correct)
}

fn write_records(path: &Path, records: &[String], append: bool) -> Result<(), String> {
    use std::io::Write as _;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .append(append)
        .truncate(!append)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    for r in records {
        writeln!(f, "{r}").map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    f.flush()
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// The result line: the record's `correct`, `attempted`, `failed`, and its
/// metrics (exactly those BENCHMARK.json lists for the mode) with value and
/// unit only.
fn result_line(rec: &Value) -> (String, bool) {
    let correct = rec.get("correct") == Some(&Value::Bool(true));
    let count = |k: &str| rec.get(k).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    let mut body = Vec::new();
    if let Some(Value::Obj(members)) = rec.get("metrics") {
        for (name, m) in members {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            body.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                obs::json::fmt_f64(value)
            ));
        }
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        count("attempted").max(1),
        count("failed"),
        body.join(", ")
    );
    (line, correct)
}

fn print_human(rec: &Value) {
    let s = |k: &str| {
        rec.get(k)
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let n = |k: &str| rec.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    println!(
        "== {} (seed {}, {} s, {} repetitions, {}) ==",
        s("workload"),
        n("seed"),
        n("seconds"),
        n("reps"),
        if n("trace") == 1.0 {
            "traced"
        } else {
            "untraced"
        }
    );
    println!(
        "{:<36} {:>16} {:<9} {:>14} {:>14} {:>9}",
        "metric", "value", "unit", "p25", "p75", "n"
    );
    if let Some(Value::Obj(members)) = rec.get("metrics") {
        for (name, m) in members {
            let f = |k: &str| m.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
            println!(
                "{:<36} {:>16.6} {:<9} {:>14.6} {:>14.6} {:>9}",
                name,
                f("value"),
                m.get("unit").and_then(Value::as_str).unwrap_or(""),
                f("p25"),
                f("p75"),
                f("n")
            );
        }
    }
    println!("sim_digest {}", s("sim_digest"));
    for c in rec.get("checks").and_then(Value::as_arr).unwrap_or(&[]) {
        let name = c.get("name").and_then(Value::as_str).unwrap_or("?");
        let a = c.get("attempted").and_then(Value::as_f64).unwrap_or(0.0);
        let f = c.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        let why = c
            .get("first_failure")
            .and_then(Value::as_str)
            .map(|w| format!(" — first failure: {w}"))
            .unwrap_or_default();
        println!("check: {name}: {}/{a} passed{why}", a - f);
    }
    println!();
}

/// The run process: measure one workload, print its record.
fn child(o: &Opts) -> Result<bool, String> {
    let w = o.workload.as_deref().ok_or("child needs --workload")?;
    let seconds = o.seconds.ok_or("child needs --seconds")?;
    let outcome: Outcome = match w {
        "profile-short-epoch" => {
            profile::run(profile::Kind::ShortEpoch, o.seed, seconds, o.trace, o.smoke)
        }
        "sim-cxl-contended" => {
            profile::run(profile::Kind::SimCxl, o.seed, seconds, o.trace, o.smoke)
        }
        "profile-analysis-retention" => {
            profile::run(profile::Kind::Retention, o.seed, seconds, o.trace, o.smoke)
        }
        _ => fleet::run(o.seed, seconds, o.trace, o.smoke),
    };
    if !outcome.artefacts.is_empty() {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        for (name, body) in &outcome.artefacts {
            let path = dir.join(format!("{w}-{name}"));
            std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("[trace] {}", path.display());
        }
    }
    let listed = spec_metrics(if o.trace { "per_layer" } else { "end_to_end" });
    let record = record_json(w, o.seed, o.trace, seconds, &outcome, &listed)
        .map_err(|e| format!("{w}: {e}"))?;
    println!("{record}");
    Ok(true)
}
