//! What one workload run produces: metrics, correctness checks, and the
//! JSON record the run process hands back.

use std::fmt::Write as _;

use crate::stats::{summarize, Digest, Hist};

/// One reported number. `p25`/`p75` are the quartiles of the samples the
/// value summarizes (per-repetition values, or pooled latencies) and `n`
/// their count; exact values carry `n = 1`.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub p25: f64,
    pub p75: f64,
    pub n: usize,
}

impl Metric {
    /// An exact value: a count, a ratio of counts, or a simulated quantity.
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            p25: value,
            p75: value,
            n: 1,
        }
    }

    /// The median of per-repetition values.
    pub fn median(name: &'static str, unit: &'static str, values: &[f64]) -> Metric {
        let s = summarize(values);
        Metric {
            name,
            unit,
            value: s.median,
            p25: s.p25,
            p75: s.p75,
            n: s.n,
        }
    }

    /// A rate over every repetition: total work over total host time, with
    /// the quartiles of the per-repetition rates. `reps` holds each
    /// repetition's (work, ns). Unlike a median of per-repetition rates, it
    /// moves in proportion to the share of a run the host spent in its slow
    /// regime, rather than jumping when that share crosses one half.
    pub fn rate(name: &'static str, unit: &'static str, reps: &[(u64, u64)]) -> Metric {
        let per_s = |work: u64, ns: u64| work as f64 * 1e9 / ns.max(1) as f64;
        let s = summarize(&reps.iter().map(|&(w, ns)| per_s(w, ns)).collect::<Vec<_>>());
        let (work, ns) = reps.iter().fold((0, 0), |(w, n), r| (w + r.0, n + r.1));
        Metric {
            name,
            unit,
            value: per_s(work, ns),
            p25: s.p25,
            p75: s.p75,
            n: s.n,
        }
    }

    /// Quantile `q` of latencies pooled over a run, converted from ns by
    /// dividing by `per_unit`.
    pub fn pooled(
        name: &'static str,
        unit: &'static str,
        h: &Hist,
        q: f64,
        per_unit: f64,
    ) -> Metric {
        Metric {
            name,
            unit,
            value: h.quantile(q) / per_unit,
            p25: h.quantile(0.25) / per_unit,
            p75: h.quantile(0.75) / per_unit,
            n: h.count() as usize,
        }
    }

    /// The mean of latencies pooled over a run, converted from ns by
    /// dividing by `per_unit`. Like a rate, and unlike a percentile, it
    /// moves in proportion to the share of slow regime the run met.
    pub fn pooled_mean(name: &'static str, unit: &'static str, h: &Hist, per_unit: f64) -> Metric {
        Metric {
            value: h.mean() / per_unit,
            ..Metric::pooled(name, unit, h, 0.5, per_unit)
        }
    }
}

/// Tally of one named correctness check.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

/// Every correctness check and counted operation of a run. Each failure
/// counts in the record's `failed` and fails the run.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    pub entries: Vec<Check>,
}

impl Checks {
    fn entry(&mut self, name: &'static str) -> &mut Check {
        if let Some(i) = self.entries.iter().position(|c| c.name == name) {
            return &mut self.entries[i];
        }
        self.entries.push(Check {
            name,
            attempted: 0,
            failed: 0,
            first_failure: None,
        });
        self.entries.last_mut().expect("just pushed")
    }

    pub fn check(&mut self, name: &'static str, result: Result<(), String>) {
        let e = self.entry(name);
        e.attempted += 1;
        if let Err(why) = result {
            e.failed += 1;
            e.first_failure.get_or_insert(why);
        }
    }

    /// Repetitions with the same seed must simulate identically.
    pub fn same_digest(&mut self, first: Digest, d: Digest) {
        self.check(
            "repetitions with the same seed give identical sim_digest",
            (d == first)
                .then_some(())
                .ok_or_else(|| format!("{:016x} != {:016x}", d.0, first.0)),
        );
    }

    pub fn attempted(&self) -> u64 {
        self.entries.iter().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.entries.iter().map(|c| c.failed).sum()
    }
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub reps: usize,
    pub metrics: Vec<Metric>,
    pub checks: Checks,
    pub digest: Digest,
    /// Files the traced run leaves behind: (file name, contents).
    pub artefacts: Vec<(String, String)>,
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

fn num(v: f64) -> String {
    obs::json::fmt_f64(v)
}

/// The run record: one JSON object per workload run, the line a run
/// process prints and a line of a results file. Its metrics are exactly
/// `listed`, the BENCHMARK.json list for the mode, in that order. A
/// per-layer metric of a layer the workload does not exercise reads 0; an
/// end-to-end metric the run did not measure is an error.
pub fn record_json(
    workload: &str,
    seed: u64,
    trace: bool,
    seconds: u64,
    o: &Outcome,
    listed: &[(String, String)],
) -> Result<String, String> {
    let attempted = o.checks.attempted();
    let failed = o.checks.failed();
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \"seconds\": {seconds}, \"reps\": {}, \"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"sim_digest\": \"{:016x}\", \"checks\": [",
        u8::from(trace),
        o.reps,
        failed == 0,
        o.digest.0
    );
    for (i, c) in o.checks.entries.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"name\": \"{}\", \"attempted\": {}, \"failed\": {}, \"first_failure\": {}}}",
            if i == 0 { "" } else { ", " },
            c.name,
            c.attempted,
            c.failed,
            c.first_failure
                .as_deref()
                .map_or("null".to_string(), |f| format!(
                    "\"{}\"",
                    obs::json::escape(f)
                ))
        );
    }
    s.push_str("], \"metrics\": {");
    for (i, (name, unit)) in listed.iter().enumerate() {
        let m = match o.metrics.iter().find(|m| m.name == name) {
            Some(m) if m.unit != unit => {
                return Err(format!(
                    "`{name}` in {}, BENCHMARK.json says {unit}",
                    m.unit
                ))
            }
            Some(m) if m.value.is_finite() => m.clone(),
            Some(_) => return Err(format!("no finite value for `{name}`")),
            None if trace => Metric::exact("", "", 0.0),
            None => return Err(format!("the run did not measure `{name}`")),
        };
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"p25\": {}, \"p75\": {}, \"n\": {}}}",
            if i == 0 { "" } else { ", " },
            num(m.value),
            num(m.p25),
            num(m.p75),
            m.n
        );
    }
    s.push_str("}}");
    Ok(s)
}
