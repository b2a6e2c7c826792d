//! No input from outside the process panics obs's parsers: arbitrary
//! bytes fed to the timings-JSON parser (`obs::json`) and the Prometheus
//! validator (`obs::prom::validate`) come back as a value or an error.
//! Clippy denies indexing, slicing and division in this crate's non-test
//! code; these properties also cover what no lint sees, such as
//! `BTreeMap` indexing. Each input mixes raw bytes with the format's own
//! tokens, or corrupts a valid document, so cases get past the first byte.
//!
//! The validator must also answer exactly as [`reference`] does, a copy of
//! the implementation that owned a `String` per label: the same `Ok`
//! counts, or the same first error message.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use obs::prom::PromText;
use proptest::prelude::*;

/// The validator as it was before it parsed labels as slices of its
/// input, kept as the oracle of `obs::prom::validate`.
mod reference {
    use super::*;

    fn escape_label_into(out: &mut String, v: &str) {
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                other => out.push(other),
            }
        }
    }

    fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
        let mut out = Vec::new();
        if s.is_empty() {
            return Ok(out);
        }
        let mut it = s.chars().peekable();
        loop {
            let mut name = String::new();
            while let Some(&c) = it.peek() {
                if c.is_ascii_alphanumeric() || c == '_' {
                    name.push(c);
                    it.next();
                } else {
                    break;
                }
            }
            if name.is_empty() || name.starts_with(|c: char| c.is_ascii_digit()) {
                return Err(format!(
                    "bad label name before `{}`",
                    it.collect::<String>()
                ));
            }
            if it.next() != Some('=') || it.next() != Some('"') {
                return Err(format!("label `{name}` is not followed by =\"...\""));
            }
            let mut value = String::new();
            loop {
                match it.next() {
                    None => return Err(format!("label `{name}` has an unterminated value")),
                    Some('"') => break,
                    Some('\\') => match it.next() {
                        Some('\\') => value.push('\\'),
                        Some('"') => value.push('"'),
                        Some('n') => value.push('\n'),
                        other => {
                            return Err(format!(
                                "label `{name}` uses illegal escape `\\{}`",
                                other.map(String::from).unwrap_or_default()
                            ))
                        }
                    },
                    Some(c) => value.push(c),
                }
            }
            out.push((name, value));
            match it.next() {
                None => break,
                Some(',') => continue,
                Some(c) => return Err(format!("unexpected `{c}` after a label pair")),
            }
        }
        Ok(out)
    }

    fn family_of<'a>(name: &'a str, types: &BTreeMap<String, String>) -> &'a str {
        for suffix in ["_count", "_sum", "_bucket"] {
            if let Some(base) = name.strip_suffix(suffix) {
                if let Some(kind) = types.get(base) {
                    if kind == "summary" || kind == "histogram" {
                        return base;
                    }
                }
            }
        }
        name
    }

    /// `(families, samples)` on success, the first error otherwise.
    pub fn validate(text: &str, required: &[&str]) -> Result<(usize, usize), String> {
        let mut types: BTreeMap<String, String> = BTreeMap::new();
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut samples = 0usize;
        for (idx, raw) in text.lines().enumerate() {
            let n = idx + 1;
            let line = raw.trim_end();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let (fam, kind) = match (it.next(), it.next()) {
                    (Some(f), Some(k)) => (f, k),
                    _ => return Err(format!("line {n}: malformed TYPE line `{line}`")),
                };
                if !matches!(
                    kind,
                    "counter" | "gauge" | "summary" | "histogram" | "untyped"
                ) {
                    return Err(format!("line {n}: unknown metric type `{kind}`"));
                }
                if !obs::prom::is_mangled(fam) {
                    return Err(format!(
                        "line {n}: family `{fam}` is not in pathfinder_ mangled form"
                    ));
                }
                if types.insert(fam.to_string(), kind.to_string()).is_some() {
                    return Err(format!("line {n}: duplicate TYPE line for `{fam}`"));
                }
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let (series, value) = match line.rsplit_once(' ') {
                Some(pair) => pair,
                None => return Err(format!("line {n}: malformed sample `{line}`")),
            };
            if value.parse::<f64>().is_err() {
                return Err(format!("line {n}: value `{value}` is not a number"));
            }
            let (name, labels) = match series.split_once('{') {
                Some((nm, rest)) => match rest.strip_suffix('}') {
                    Some(lbl) => (nm, lbl),
                    None => return Err(format!("line {n}: unterminated label set `{series}`")),
                },
                None => (series, ""),
            };
            if !obs::prom::is_mangled(name) {
                return Err(format!(
                    "line {n}: sample `{name}` is not in pathfinder_ mangled form"
                ));
            }
            if !types.contains_key(family_of(name, &types)) {
                return Err(format!(
                    "line {n}: sample `{name}` has no preceding # TYPE line"
                ));
            }
            let mut pairs = match parse_labels(labels) {
                Ok(p) => p,
                Err(e) => return Err(format!("line {n}: `{series}`: {e}")),
            };
            pairs.sort();
            let key = pairs.iter().fold(name.to_string(), |mut k, (lk, lv)| {
                let _ = write!(k, "\u{0}{lk}\u{0}");
                escape_label_into(&mut k, lv);
                k
            });
            if !seen.insert(key) {
                return Err(format!("line {n}: duplicate sample `{series}`"));
            }
            samples += 1;
        }
        for r in required {
            if !types.contains_key(*r) {
                return Err(format!("required metric family `{r}` missing"));
            }
        }
        Ok((types.len(), samples))
    }
}

/// `obs::prom::validate` and the reference give the same answer on `text`.
fn same_verdict(text: &str, required: &[&str]) -> Result<(), TestCaseError> {
    let got = obs::prom::validate(text, required).map(|s| (s.families, s.samples));
    prop_assert_eq!(got, reference::validate(text, required), "on {:?}", text);
    Ok(())
}

/// The bytes `picks` spell: a pick below `tokens.len()` appends that
/// token, any other pick its raw byte.
fn assemble(tokens: &[&str], picks: &[(usize, u8)]) -> String {
    let mut out = Vec::new();
    for &(pick, raw) in picks {
        match tokens.get(pick) {
            Some(token) => out.extend_from_slice(token.as_bytes()),
            None => out.push(raw),
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// `doc` with each `(at, byte)` written over it, cut to `len` bytes.
fn corrupt(doc: &str, edits: &[(usize, u8)], len: usize) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for &(at, byte) in edits {
        if let Some(b) = bytes.get_mut(at) {
            *b = byte;
        }
    }
    bytes.truncate(len);
    String::from_utf8_lossy(&bytes).into_owned()
}

const JSON_TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"",
    ":",
    ",",
    " ",
    "-",
    "0",
    "12.5e-3",
    "E+",
    "true",
    "false",
    "null",
    "\\",
    "\\u",
    "00e9",
    "\"phases\"",
    "\u{e9}",
    "\u{1F600}",
];

const TIMINGS: &str = r#"{"schema":"pathfinder-obs-v1","phases":[{"name":"epoch.machine","count":3,"total_ns":1.5e6,"label":"a\"\\é\u00e9"}],"metrics":{"gauges":[],"ok":true,"none":null}}"#;

const PROM_TOKENS: &[&str] = &[
    "# TYPE ",
    "# HELP x",
    "pathfinder_a",
    "pathfinder_a_sum",
    "_count",
    " counter",
    " gauge",
    " summary",
    " bogus",
    "{",
    "}",
    "=",
    "\"",
    ",",
    "\\",
    "\\\"",
    " ",
    "\n",
    "1",
    "-2.5e3",
    "NaN",
    "+Inf",
    "quantile=\"0.5\"",
    "host=\"7\"",
    "A.b",
];

const EXPOSITION: &str = "# TYPE pathfinder_a counter\npathfinder_a{host=\"1\"} 3\n\
    # TYPE pathfinder_b summary\npathfinder_b{quantile=\"0.5\"} 2\npathfinder_b_sum 4\n\
    pathfinder_b_count 2\n";

proptest! {
    #[test]
    fn timings_json_parser_never_panics(
        picks in proptest::collection::vec((0usize..2 * JSON_TOKENS.len(), 0u8..=255), 0..96),
        edits in proptest::collection::vec((0usize..TIMINGS.len(), 0u8..=255), 0..4),
        len in 0usize..=TIMINGS.len(),
    ) {
        let _ = obs::json::parse(&assemble(JSON_TOKENS, &picks));
        let _ = obs::json::parse(&corrupt(TIMINGS, &edits, len));
    }

    #[test]
    fn prom_validator_never_panics(
        picks in proptest::collection::vec((0usize..2 * PROM_TOKENS.len(), 0u8..=255), 0..96),
        edits in proptest::collection::vec((0usize..EXPOSITION.len(), 0u8..=255), 0..4),
        len in 0usize..=EXPOSITION.len(),
    ) {
        same_verdict(&assemble(PROM_TOKENS, &picks), &["pathfinder_a"])?;
        same_verdict(&corrupt(EXPOSITION, &edits, len), &["pathfinder_a"])?;
    }

    /// A fleet's `/metrics` body, as fleetd renders it, then corrupted.
    /// Every body holds at least 43 samples, past the 32 at which the
    /// validator's identity table first grows, and up to 409.
    #[test]
    fn prom_validator_matches_the_reference_on_fleet_bodies(
        hosts in 16usize..200,
        labels in proptest::collection::vec(proptest::collection::vec(0u8..=255, 0..6), 1..4),
        edits in proptest::collection::vec((0usize..FLEET_BODY.len(), 0u8..=255), 0..4),
        len in 0usize..=FLEET_BODY.len(),
    ) {
        let body = fleet_body(hosts, &labels);
        same_verdict(&body, &["pathfinder_host_inst_retired_any"])?;
        same_verdict(&corrupt(&body, &edits, body.len()), &[])?;
        same_verdict(&corrupt(FLEET_BODY, &edits, len), &["pathfinder_fleet_inst_retired_any"])?;
    }
}

/// fleetd's committed `/metrics` golden, as `render_metrics` writes it:
/// the full counter set of a 7-host fleet and four hosts' headline
/// counters.
const FLEET_BODY: &str = include_str!("../../fleetd/tests/golden/render_metrics.prom");

/// A body shaped like fleetd's: the registry's counters, a summary per
/// fleet counter family, then per-host counters labelled by host and by
/// `raw` label values (escaped by the writer, whatever their bytes).
fn fleet_body(hosts: usize, raw: &[Vec<u8>]) -> String {
    let h = obs::metrics::HistSnapshot {
        count: hosts as u64,
        min: 0,
        max: 9,
        mean: 4.5,
        p50: 4,
        p95: 8,
        p99: 9,
    };
    let mut w = PromText::new();
    w.counter("obs.dropped_events", &[], 0);
    for family in ["fleet.inst_retired.any", "fleet.cpu_clk_unhalted.thread"] {
        w.summary(family, &[], &h);
    }
    let extra: Vec<String> = raw
        .iter()
        .map(|b| String::from_utf8_lossy(b).into_owned())
        .collect();
    for host in 0..hosts {
        let id = host.to_string();
        let v = &extra[host % extra.len()];
        w.counter("host.inst_retired.any", &[("host", &id)], host as u64);
        w.counter(
            "host.cpu_clk_unhalted.thread",
            &[("host", &id), ("app", v)],
            7,
        );
    }
    w.into_string()
}

/// Label sets whose identity hinges on the parse: repeated names, pairs
/// reordered, escapes that unescape to the same bytes or to other ones.
#[test]
fn label_identity_edge_cases_match_the_reference() {
    let head = "# TYPE pathfinder_x counter\n";
    let pairs = [
        ("a=\"1\",a=\"2\"", "a=\"2\",a=\"1\""),
        ("a=\"1\",b=\"2\"", "b=\"2\",a=\"1\""),
        ("k=\"x\\\\n\"", "k=\"x\\n\""),
        ("k=\"x\\\"\"", "k=\"x\\\"\""),
        ("k=\"\"", "k=\"\",j=\"\""),
        ("k=\"\\\\\"", "k=\"\\\\\",k=\"\""),
        // A value holding the identity's own separators: the reference
        // keys both samples alike.
        ("a=\"x\u{0}b\u{0}c\"", "a=\"x\",b=\"c\""),
    ];
    for (a, b) in pairs {
        let text = format!("{head}pathfinder_x{{{a}}} 1\npathfinder_x{{{b}}} 2\n");
        let got = obs::prom::validate(&text, &[]).map(|s| (s.families, s.samples));
        assert_eq!(got, reference::validate(&text, &[]), "on {text:?}");
    }
}

/// The validator accepts a real fleet body and agrees with the reference
/// on it.
#[test]
fn committed_fleet_body_validates_as_the_reference_does() {
    let got = obs::prom::validate(FLEET_BODY, &["pathfinder_fleet_inst_retired_any"]);
    assert!(got.is_ok(), "{got:?}");
    assert_eq!(
        got.map(|s| (s.families, s.samples)),
        reference::validate(FLEET_BODY, &["pathfinder_fleet_inst_retired_any"])
    );
}

/// The seed documents are valid, so corrupting them starts from a parse
/// that reaches every branch.
#[test]
fn seed_documents_are_valid() {
    assert!(obs::json::parse(TIMINGS).is_ok());
    assert!(obs::prom::validate(EXPOSITION, &["pathfinder_a", "pathfinder_b"]).is_ok());
}
