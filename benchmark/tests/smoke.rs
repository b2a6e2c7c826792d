//! Every workload in `--smoke` mode (about a second each), untraced and
//! traced: the run succeeds, every correctness check passes, and each
//! result line carries exactly the metrics BENCHMARK.json lists for its
//! mode.

use std::process::Command;

use obs::json::Value;

fn names(list: &str) -> Vec<String> {
    let spec = obs::json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
    spec.get(list)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn smoke(trace: &str, list: &str) {
    let out_file = format!("{}/smoke-{trace}.jsonl", env!("CARGO_TARGET_TMPDIR"));
    // `--out` appends; start from an empty results file.
    let _ = std::fs::remove_file(&out_file);
    let out = Command::new(env!("CARGO_BIN_EXE_pathfinder-benchmark"))
        .args([
            "run", "--smoke", "--seed", "2", "--trace", trace, "--out", &out_file,
        ])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "benchmark failed:\n{stdout}");
    let results: Vec<Value> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| obs::json::parse(l).expect("result line parses"))
        .collect();
    assert_eq!(results.len(), 4, "one result line per workload:\n{stdout}");
    let expected = names(list);
    for r in &results {
        assert_eq!(r.get("correct"), Some(&Value::Bool(true)), "{stdout}");
        assert_eq!(r.get("failed").and_then(Value::as_f64), Some(0.0));
        let Some(Value::Obj(metrics)) = r.get("metrics") else {
            panic!("no metrics object");
        };
        let got: Vec<&String> = metrics.iter().map(|(n, _)| n).collect();
        assert_eq!(got, expected.iter().collect::<Vec<_>>());
    }
    let records = std::fs::read_to_string(&out_file).expect("results file");
    assert_eq!(records.lines().count(), 4, "one record per workload");
}

#[test]
fn untraced_smoke_reports_every_end_to_end_metric() {
    smoke("0", "end_to_end");
}

#[test]
fn traced_smoke_reports_every_per_layer_metric() {
    smoke("1", "per_layer");
}

#[test]
fn a_run_length_other_than_the_benchmarks_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_pathfinder-benchmark"))
        .args(["run", "--smoke", "--seconds", "7"])
        .output()
        .expect("run the benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
