//! `compare A B`: label every (workload, metric) of two results files.
//!
//! A and B hold run records (one JSON object per line, as `run --out`
//! appends them), normally ten or more runs of the parent and of the
//! change, made alternately. Per metric, with A's median `ma`, B's median
//! `mb`, and A's own spread (quartile distance over `ma`):
//!
//! * **win**: at least ten pairs, B better in at least nine tenths of them
//!   (ties count for neither), and B's median better than A's by more than
//!   A's spread;
//! * **loss**: B's median worse than A's by more than the metric's bound
//!   (BENCHMARK.json) and A's spread. Per-layer metrics have no bound: for
//!   them a loss mirrors a win;
//! * **unresolved**: A's spread is wider than the bound and not every run
//!   of B reads better than every run of A;
//! * **noise**: anything else.
//!
//! Simulated values (`sim_digest`, `model.*`, `idle_lat_err_pct`) are
//! compared per seed and any difference is flagged as CHANGED. The error
//! rate, failed over attempted checks summed over each side's runs, is a
//! loss if it grows at all. Runs of different lengths are refused. Exits
//! non-zero on a loss or a flag.

use obs::json::Value;

use crate::stats::summarize;

fn is_simulated(name: &str) -> bool {
    name == "sim_digest" || name == "idle_lat_err_pct" || name.starts_with("model.")
}

/// (higher is better, bound) for a metric, from BENCHMARK.json.
fn rule(spec: &Value, name: &str) -> (bool, Option<f64>) {
    for list in ["end_to_end", "per_layer"] {
        for m in spec.get(list).and_then(Value::as_arr).unwrap_or(&[]) {
            if m.get("name").and_then(Value::as_str) == Some(name) {
                let higher = m.get("better").and_then(Value::as_str) == Some("higher");
                return (higher, m.get("bound").and_then(Value::as_f64));
            }
        }
    }
    (false, None)
}

fn label(a: &[f64], b: &[f64], higher: bool, bound: Option<f64>) -> &'static str {
    let (sa, sb) = (summarize(a), summarize(b));
    if sa.median == 0.0 {
        return if sb.median == 0.0 {
            "noise"
        } else {
            "unresolved"
        };
    }
    let dir = if higher { 1.0 } else { -1.0 };
    let gain = dir * (sb.median - sa.median) / sa.median.abs();
    let spread = (sa.p75 - sa.p25) / sa.median.abs();
    let pairs = a.len().min(b.len());
    let beats = |sign: f64| {
        let n = (0..pairs)
            .filter(|&i| sign * dir * (b[i] - a[i]) > 0.0)
            .count();
        pairs >= 10 && n * 10 >= pairs * 9
    };
    let all_better = b.iter().all(|&y| a.iter().all(|&x| dir * (y - x) > 0.0));
    if beats(1.0) && gain > spread {
        return "win";
    }
    match bound {
        Some(bound) if -gain > bound.max(spread) => "loss",
        Some(bound) if spread > bound && !all_better => "unresolved",
        Some(_) => "noise",
        None if beats(-1.0) && -gain > spread => "loss",
        None => "noise",
    }
}

fn load(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| obs::json::parse(l).map_err(|e| format!("{path}: bad record: {e:?}")))
        .collect()
}

fn key(r: &Value) -> (String, bool) {
    let w = r.get("workload").and_then(Value::as_str).unwrap_or("?");
    (
        w.to_string(),
        r.get("trace").and_then(Value::as_f64) == Some(1.0),
    )
}

fn value(r: &Value, metric: &str) -> Option<f64> {
    r.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

fn count(r: &Value, field: &str) -> f64 {
    r.get(field).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Every run of both sides must have measured for the same time.
fn same_length(a: &[&Value], b: &[&Value]) -> Result<(), String> {
    let mut lengths: Vec<f64> = a.iter().chain(b).map(|r| count(r, "seconds")).collect();
    lengths.sort_by(f64::total_cmp);
    lengths.dedup();
    match lengths.as_slice() {
        [_] => Ok(()),
        _ => Err(format!("runs of different lengths (seconds: {lengths:?})")),
    }
}

/// Failed over attempted checks, over all of one side's runs.
fn error_rate(runs: &[&Value]) -> f64 {
    let attempted: f64 = runs.iter().map(|r| count(r, "attempted")).sum();
    runs.iter().map(|r| count(r, "failed")).sum::<f64>() / attempted.max(1.0)
}

/// `Ok(false)` when any metric lost or a simulated value changed.
pub fn compare(a_path: &str, b_path: &str, spec: &Value) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut keys: Vec<(String, bool)> = Vec::new();
    for r in &a {
        let k = key(r);
        if !keys.contains(&k) && b.iter().any(|r| key(r) == k) {
            keys.push(k);
        }
    }
    if keys.is_empty() {
        return Err("the two files share no (workload, trace) runs".to_string());
    }
    let mut ok = true;
    for k in keys {
        let ra: Vec<&Value> = a.iter().filter(|r| key(r) == k).collect();
        let rb: Vec<&Value> = b.iter().filter(|r| key(r) == k).collect();
        same_length(&ra, &rb).map_err(|e| format!("{}: {e}", k.0))?;
        println!(
            "== {} ({}): {} runs vs {} runs ==",
            k.0,
            if k.1 { "traced" } else { "untraced" },
            ra.len(),
            rb.len()
        );
        println!(
            "{:<36} {:>16} {:>16} {:>9} {:>9}  label",
            "metric", "A median", "B median", "change", "A spread"
        );
        let names: Vec<String> = match ra[0].get("metrics") {
            Some(Value::Obj(members)) => members.iter().map(|(n, _)| n.clone()).collect(),
            _ => Vec::new(),
        };
        for name in names {
            let va: Vec<f64> = ra.iter().filter_map(|r| value(r, &name)).collect();
            let vb: Vec<f64> = rb.iter().filter_map(|r| value(r, &name)).collect();
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (sa, sb) = (summarize(&va), summarize(&vb));
            let tag = if is_simulated(&name) {
                if simulated_changed(&ra, &rb, |r| value(r, &name).map(f64::to_bits)) {
                    ok = false;
                    "CHANGED"
                } else {
                    "same"
                }
            } else {
                let (higher, bound) = rule(spec, &name);
                let l = label(&va, &vb, higher, bound);
                ok &= l != "loss";
                l
            };
            let pct = |x: f64| 100.0 * x / sa.median.abs().max(f64::MIN_POSITIVE);
            println!(
                "{:<36} {:>16.6} {:>16.6} {:>8.2}% {:>8.2}%  {tag}",
                name,
                sa.median,
                sb.median,
                pct(sb.median - sa.median),
                pct(sa.p75 - sa.p25)
            );
        }
        let digest = |r: &Value| {
            r.get("sim_digest")
                .and_then(Value::as_str)
                .map(str::to_string)
        };
        if simulated_changed(&ra, &rb, digest) {
            ok = false;
            println!("sim_digest CHANGED for a seed both files ran");
        }
        let (ea, eb) = (error_rate(&ra), error_rate(&rb));
        let grew = eb > ea;
        ok &= !grew;
        println!(
            "{:<36} {:>16.6} {:>16.6}  {}",
            "error_rate",
            ea,
            eb,
            if grew { "loss" } else { "ok" }
        );
        println!();
    }
    Ok(ok)
}

/// Does any seed both sides ran give a different simulated value?
fn simulated_changed<T: PartialEq>(
    a: &[&Value],
    b: &[&Value],
    f: impl Fn(&Value) -> Option<T>,
) -> bool {
    let seed = |r: &Value| r.get("seed").and_then(Value::as_f64);
    a.iter().any(|ra| {
        b.iter()
            .filter(|rb| seed(rb) == seed(ra))
            .any(|rb| f(ra) != f(rb))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_follow_the_rule() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let better: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        let worse: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(label(&a, &better, true, Some(0.1)), "win");
        assert_eq!(label(&a, &worse, true, Some(0.1)), "loss");
        assert_eq!(label(&a, &a, true, Some(0.1)), "noise");
        let wide: Vec<f64> = (0..10).map(|i| 50.0 + i as f64 * 20.0).collect();
        assert_eq!(label(&wide, &wide, true, Some(0.1)), "unresolved");
        assert_eq!(label(&a, &worse, true, None), "loss");
        assert_eq!(label(&a[..2], &worse[..2], true, None), "noise");
    }

    #[test]
    fn runs_of_different_lengths_are_refused() {
        let run = |seconds: u32, failed: u32| {
            obs::json::parse(&format!(
                "{{\"seconds\": {seconds}, \"attempted\": 10, \"failed\": {failed}}}"
            ))
            .expect("record")
        };
        let (a, b, short) = (run(30, 0), run(30, 1), run(10, 0));
        assert!(same_length(&[&a, &a], &[&b]).is_ok());
        assert!(same_length(&[&a], &[&b, &short]).is_err());
        assert_eq!(error_rate(&[&a, &b]), 0.05);
    }
}
