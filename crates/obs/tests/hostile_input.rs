//! No input from outside the process panics obs's parsers: arbitrary
//! bytes fed to the timings-JSON parser (`obs::json`) and the Prometheus
//! validator (`obs::prom::validate`) come back as a value or an error.
//! Clippy denies indexing, slicing and division in this crate's non-test
//! code; these properties also cover what no lint sees, such as
//! `BTreeMap` indexing. Each input mixes raw bytes with the format's own
//! tokens, or corrupts a valid document, so cases get past the first byte.

use proptest::prelude::*;

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
        let _ = obs::prom::validate(&assemble(PROM_TOKENS, &picks), &["pathfinder_a"]);
        let _ = obs::prom::validate(&corrupt(EXPOSITION, &edits, len), &["pathfinder_a"]);
    }
}

/// The seed documents are valid, so corrupting them starts from a parse
/// that reaches every branch.
#[test]
fn seed_documents_are_valid() {
    assert!(obs::json::parse(TIMINGS).is_ok());
    assert!(obs::prom::validate(EXPOSITION, &["pathfinder_a", "pathfinder_b"]).is_ok());
}
