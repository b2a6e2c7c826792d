//! Prometheus text exposition: name mangling, a small writer, and a
//! validator.
//!
//! PathFinder metric names are dotted (`subsystem.phase`, e.g.
//! `tsdb.points`); Prometheus requires `[a-zA-Z_:][a-zA-Z0-9_:]*`. The
//! mangling contract (documented in FLEET.md) is:
//!
//! * prefix every exported family with `pathfinder_`;
//! * map every non-alphanumeric character to `_`;
//! * lowercase the result.
//!
//! So `tsdb.resident_bytes` becomes `pathfinder_tsdb_resident_bytes` and
//! `fleet.inst_retired.any` becomes `pathfinder_fleet_inst_retired_any`.
//!
//! [`PromText`] renders counters, gauges and summaries (obs histograms map
//! to Prometheus summaries with `quantile` labels plus `_sum`/`_count`),
//! emitting each family's `# TYPE` line exactly once, before its first
//! sample. [`validate`] checks the inverse: every sample belongs to a typed
//! family, every name is in mangled form, and no (name, label-set) pair
//! repeats. `obs_validate --prom` drives it from the command line so
//! `scripts/tier1.sh` can gate the fleetd smoke run on a well-formed
//! scrape.
//!
//! Like the rest of this crate the module is panic-free: clippy denies
//! indexing, slicing, integer division and release asserts in it
//! (`lib.rs`), and `tests/hostile_input.rs` feeds [`validate`] arbitrary
//! bytes.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::json::write_f64;
use crate::metrics::HistSnapshot;

/// Mangle a dotted PathFinder metric name into Prometheus form.
pub fn mangle(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 11);
    mangle_into(&mut out, name);
    out
}

fn mangle_into(out: &mut String, name: &str) {
    out.push_str("pathfinder_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else {
            out.push('_');
        }
    }
}

/// Does `name` have the shape the mangler produces (`pathfinder_` prefix,
/// then lowercase alphanumerics and underscores only)?
pub fn is_mangled(name: &str) -> bool {
    match name.strip_prefix("pathfinder_") {
        Some(rest) => {
            !rest.is_empty()
                && rest
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        }
        None => false,
    }
}

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

/// Incremental Prometheus text writer. Families are typed once, on first
/// use; callers pass raw dotted names and the writer mangles them.
/// Samples are written straight into the output buffer, so only a
/// family's first sample allocates (its entry in the typed set).
#[derive(Default)]
pub struct PromText {
    out: String,
    typed: BTreeSet<String>,
    /// Reused buffer for the mangled name of the sample being written.
    name: String,
}

impl PromText {
    pub fn new() -> PromText {
        PromText::default()
    }

    /// `name` mangled into the reused name buffer; hand the buffer back
    /// through `self.name` when done with it.
    fn mangled(&mut self, name: &str) -> String {
        let mut m = std::mem::take(&mut self.name);
        m.clear();
        mangle_into(&mut m, name);
        m
    }

    fn family(&mut self, family: &str, kind: &str) {
        if !self.typed.contains(family) {
            self.typed.insert(family.to_string());
            let _ = writeln!(self.out, "# TYPE {family} {kind}");
        }
    }

    /// Write a sample's name (`family` + `suffix`), its label set with
    /// `extra` appended, and the space before its value.
    fn series(
        &mut self,
        family: &str,
        suffix: &str,
        labels: &[(&str, &str)],
        extra: Option<(&str, &str)>,
    ) {
        self.out.push_str(family);
        self.out.push_str(suffix);
        let mut sep = '{';
        for (k, v) in labels.iter().copied().chain(extra) {
            self.out.push(sep);
            sep = ',';
            self.out.push_str(k);
            self.out.push_str("=\"");
            escape_label_into(&mut self.out, v);
            self.out.push('"');
        }
        if sep == ',' {
            self.out.push('}');
        }
        self.out.push(' ');
    }

    /// Type the family of the dotted `name` if it is new, then write a
    /// sample of it up to its value.
    fn open_sample(&mut self, name: &str, kind: &str, labels: &[(&str, &str)]) {
        let family = self.mangled(name);
        self.family(&family, kind);
        self.series(&family, "", labels, None);
        self.name = family;
    }

    /// Emit a counter sample (monotone, u64).
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.open_sample(name, "counter", labels);
        let _ = writeln!(self.out, "{value}");
    }

    /// Emit a gauge sample.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.open_sample(name, "gauge", labels);
        write_f64(&mut self.out, value);
        self.out.push('\n');
    }

    /// Emit an obs histogram as a Prometheus summary: p50/p95/p99 as
    /// `quantile` samples, plus `_sum` (reconstructed from the mean) and
    /// `_count`.
    pub fn summary(&mut self, name: &str, labels: &[(&str, &str)], h: &HistSnapshot) {
        let family = self.mangled(name);
        self.summary_family(&family, labels, h);
        self.name = family;
    }

    /// [`PromText::summary`] under a family name already in [`mangle`]d
    /// form, for callers that render the same families on every scrape
    /// and mangle them once.
    pub fn summary_family(&mut self, family: &str, labels: &[(&str, &str)], h: &HistSnapshot) {
        self.family(family, "summary");
        for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
            self.series(family, "", labels, Some(("quantile", q)));
            let _ = writeln!(self.out, "{v}");
        }
        self.series(family, "_sum", labels, None);
        write_f64(&mut self.out, h.mean * h.count as f64);
        self.out.push('\n');
        self.series(family, "_count", labels, None);
        let _ = writeln!(self.out, "{}", h.count);
    }

    /// Render every metric currently in the obs registry (counters,
    /// gauges, histograms-as-summaries) plus the span-buffer drop counter,
    /// which lives outside the registry.
    pub fn render_registry(&mut self) {
        let snap = crate::metrics::snapshot();
        for (name, v) in &snap.counters {
            self.counter(name, &[], *v);
        }
        for (name, v) in &snap.gauges {
            self.gauge(name, &[], *v);
        }
        for (name, h) in &snap.hists {
            self.summary(name, &[], h);
        }
        self.counter("obs.dropped_events", &[], crate::span::dropped_events());
    }

    /// Finish and take the rendered exposition text.
    pub fn into_string(self) -> String {
        self.out
    }
}

/// Summary statistics from a successful [`validate`] pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PromStats {
    /// Distinct `# TYPE`-declared families.
    pub families: usize,
    /// Total samples.
    pub samples: usize,
}

/// Parse a Prometheus label set body (the text between `{` and `}`) into
/// `(name, unescaped value)` pairs, in `out`, cleared first. Names and
/// values are slices of `s`; a value is copied only to unescape it.
///
/// Grammar enforced: comma-separated `name="value"` pairs; label names
/// `[a-zA-Z_][a-zA-Z0-9_]*`; inside a value only `\\`, `\"` and `\n` are
/// legal escapes and a bare `"` always terminates it. Anything else —
/// stray bytes between pairs, an unterminated value, an illegal escape —
/// is exactly the shape a hostile label value would need to smuggle a
/// fake sample past a scraper, and is rejected.
fn parse_labels<'t>(s: &'t str, out: &mut Vec<(&'t str, Cow<'t, str>)>) -> Result<(), String> {
    out.clear();
    if s.is_empty() {
        return Ok(());
    }
    let mut rest = s;
    loop {
        let after = rest.trim_start_matches(|c: char| c.is_ascii_alphanumeric() || c == '_');
        let name = rest.get(..rest.len() - after.len()).unwrap_or_default();
        if name.is_empty() || name.starts_with(|c: char| c.is_ascii_digit()) {
            return Err(format!("bad label name before `{after}`"));
        }
        let Some(body) = after.strip_prefix("=\"") else {
            return Err(format!("label `{name}` is not followed by =\"...\""));
        };
        let (value, tail) = parse_value(name, body)?;
        out.push((name, value));
        let mut tail = tail.chars();
        match tail.next() {
            None => return Ok(()),
            Some(',') => rest = tail.as_str(),
            Some(c) => return Err(format!("unexpected `{c}` after a label pair")),
        }
    }
}

/// Label `name`'s value at the start of `body`, unescaped, and the text
/// after its closing quote. The value borrows from `body` unless it holds
/// an escape.
fn parse_value<'t>(name: &str, body: &'t str) -> Result<(Cow<'t, str>, &'t str), String> {
    let mut owned: Option<String> = None;
    let mut chars = body.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => {
                let value = match owned {
                    Some(v) => Cow::Owned(v),
                    None => Cow::Borrowed(body.get(..i).unwrap_or_default()),
                };
                return Ok((value, chars.as_str()));
            }
            '\\' => {
                let v = owned.get_or_insert_with(|| body.get(..i).unwrap_or_default().to_owned());
                match chars.next().map(|(_, c)| c) {
                    Some('\\') => v.push('\\'),
                    Some('"') => v.push('"'),
                    Some('n') => v.push('\n'),
                    other => {
                        return Err(format!(
                            "label `{name}` uses illegal escape `\\{}`",
                            other.map(String::from).unwrap_or_default()
                        ))
                    }
                }
            }
            c => {
                if let Some(v) = owned.as_mut() {
                    v.push(c);
                }
            }
        }
    }
    Err(format!("label `{name}` has an unterminated value"))
}

/// Resolve a sample name to its family: `_sum`/`_count`/`_bucket`
/// suffixes fold into a preceding summary or histogram family.
fn family_of<'a>(name: &'a str, types: &BTreeMap<&str, &str>) -> &'a str {
    for suffix in ["_count", "_sum", "_bucket"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if let Some(&kind) = types.get(base) {
                if kind == "summary" || kind == "histogram" {
                    return base;
                }
            }
        }
    }
    name
}

/// Validate Prometheus text exposition:
///
/// * every `# TYPE` line is well-formed, names a known metric kind, and
///   appears at most once per family;
/// * every sample name (and family name) is in `pathfinder_` mangled form;
/// * every sample is preceded by its family's `# TYPE` line;
/// * every label set parses as `name="value"` pairs with only the three
///   legal escapes (`\\`, `\"`, `\n`) — see `parse_labels`;
/// * no (name, label-set) pair appears twice, where identity is the
///   *parsed* label set (label order does not make two samples distinct);
/// * every value parses as a float;
/// * every family in `required` is present.
///
/// Returns family/sample counts on success, a one-line diagnosis on the
/// first failure.
pub fn validate(text: &str, required: &[&str]) -> Result<PromStats, String> {
    let mut types: BTreeMap<&str, &str> = BTreeMap::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut pairs = Vec::new();
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
            if !is_mangled(fam) {
                return Err(format!(
                    "line {n}: family `{fam}` is not in pathfinder_ mangled form"
                ));
            }
            if types.insert(fam, kind).is_some() {
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
        if !is_mangled(name) {
            return Err(format!(
                "line {n}: sample `{name}` is not in pathfinder_ mangled form"
            ));
        }
        if !types.contains_key(family_of(name, &types)) {
            return Err(format!(
                "line {n}: sample `{name}` has no preceding # TYPE line"
            ));
        }
        if let Err(e) = parse_labels(labels, &mut pairs) {
            return Err(format!("line {n}: `{series}`: {e}"));
        }
        // Identity is the parsed set: sort, then re-escape each value so
        // the key stays unambiguous whatever bytes the values contain.
        pairs.sort();
        let mut key = String::with_capacity(
            name.len()
                + pairs
                    .iter()
                    .map(|(lk, lv)| 2 + lk.len() + 2 * lv.len())
                    .sum::<usize>(),
        );
        key.push_str(name);
        for (lk, lv) in &pairs {
            key.push('\u{0}');
            key.push_str(lk);
            key.push('\u{0}');
            escape_label_into(&mut key, lv);
        }
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
    Ok(PromStats {
        families: types.len(),
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mangling_maps_dots_and_case() {
        assert_eq!(
            mangle("tsdb.resident_bytes"),
            "pathfinder_tsdb_resident_bytes"
        );
        assert_eq!(
            mangle("fleet.inst_retired.any"),
            "pathfinder_fleet_inst_retired_any"
        );
        assert_eq!(mangle("A-B c"), "pathfinder_a_b_c");
        assert!(is_mangled("pathfinder_tsdb_points"));
        assert!(!is_mangled("tsdb_points"));
        assert!(!is_mangled("pathfinder_Bad"));
        assert!(!is_mangled("pathfinder_"));
    }

    #[test]
    fn writer_output_validates() {
        let mut w = PromText::new();
        w.counter("fleetd.rounds", &[], 3);
        w.counter("fleetd.rounds", &[("shard", "1")], 2);
        w.gauge("tsdb.resident_bytes", &[], 4096.0);
        let h = HistSnapshot {
            count: 10,
            min: 1,
            max: 100,
            mean: 40.0,
            p50: 30,
            p95: 90,
            p99: 99,
        };
        w.summary("fleetd.scrape_ns", &[], &h);
        let text = w.into_string();
        assert_eq!(
            text.matches("# TYPE pathfinder_fleetd_rounds counter")
                .count(),
            1,
            "TYPE emitted once per family:\n{text}"
        );
        let stats = validate(
            &text,
            &["pathfinder_fleetd_rounds", "pathfinder_fleetd_scrape_ns"],
        )
        .expect("writer output validates");
        assert_eq!(stats.families, 3);
        assert_eq!(stats.samples, 8);
    }

    #[test]
    fn validate_rejects_duplicates_untyped_and_unmangled() {
        let dup = "# TYPE pathfinder_x counter\npathfinder_x 1\npathfinder_x 2\n";
        assert!(validate(dup, &[]).unwrap_err().contains("duplicate sample"));

        let untyped = "pathfinder_y 1\n";
        assert!(validate(untyped, &[])
            .unwrap_err()
            .contains("no preceding # TYPE"));

        let unmangled = "# TYPE pathfinder_z counter\nraw.name 1\n";
        assert!(validate(unmangled, &[])
            .unwrap_err()
            .contains("mangled form"));

        let ok = "# TYPE pathfinder_x counter\npathfinder_x 1\n";
        assert!(validate(ok, &["pathfinder_missing"])
            .unwrap_err()
            .contains("missing"));
        assert!(validate(ok, &["pathfinder_x"]).is_ok());
    }

    #[test]
    fn hostile_label_values_round_trip_through_render_and_validate() {
        // The classic exposition-injection payloads: embedded quotes,
        // backslashes, newlines, and a value that *spells* a second
        // sample. Rendered through the writer they must come out escaped,
        // and the validator must accept the result as exactly one sample
        // per (name, label-set).
        let hostile = [
            "he said \"hi\"",
            "back\\slash",
            "multi\nline",
            "\"} pathfinder_fake 1\n# TYPE pathfinder_fake counter",
        ];
        let mut w = PromText::new();
        for (i, v) in hostile.iter().enumerate() {
            let idx = i.to_string();
            w.counter("fleetd.rounds", &[("idx", &idx), ("evil", v)], 1);
        }
        let text = w.into_string();
        let stats = validate(&text, &["pathfinder_fleetd_rounds"])
            .expect("escaped hostile labels must validate");
        assert_eq!(stats.families, 1, "no injected family:\n{text}");
        assert_eq!(stats.samples, hostile.len());
    }

    #[test]
    fn validate_parses_label_sets_strictly() {
        let head = "# TYPE pathfinder_x counter\n";
        let bad = [
            // A raw quote ends the value early and leaves garbage behind.
            "pathfinder_x{k=\"a\"b\"} 1\n",
            // Only \\ \" \n are legal escapes.
            "pathfinder_x{k=\"a\\t\"} 1\n",
            // Unterminated value.
            "pathfinder_x{k=\"a} 1\n",
            // Label names cannot start with a digit or be empty.
            "pathfinder_x{1k=\"a\"} 1\n",
            "pathfinder_x{=\"a\"} 1\n",
            // Unquoted values and stray separators.
            "pathfinder_x{k=a} 1\n",
            "pathfinder_x{k=\"a\",} 1\n",
            "pathfinder_x{k=\"a\";j=\"b\"} 1\n",
        ];
        for b in bad {
            let text = format!("{head}{b}");
            assert!(
                validate(&text, &[]).is_err(),
                "must reject label set in {b:?}"
            );
        }
        // Label order is not identity: the same pairs reordered are a
        // duplicate sample, not a new one.
        let dup =
            format!("{head}pathfinder_x{{a=\"1\",b=\"2\"}} 1\npathfinder_x{{b=\"2\",a=\"1\"}} 2\n");
        assert!(validate(&dup, &[])
            .unwrap_err()
            .contains("duplicate sample"));
        // Escapes that unescape to the same bytes also collide...
        let esc = format!("{head}pathfinder_x{{k=\"a\\\\n\"}} 1\npathfinder_x{{k=\"a\\\\n\"}} 2\n");
        assert!(validate(&esc, &[]).unwrap_err().contains("duplicate"));
        // ...but a literal backslash-n and a real newline stay distinct.
        let distinct =
            format!("{head}pathfinder_x{{k=\"a\\\\n\"}} 1\npathfinder_x{{k=\"a\\n\"}} 2\n");
        assert_eq!(
            validate(&distinct, &[]).expect("distinct samples").samples,
            2
        );
    }

    #[test]
    fn summary_suffixes_fold_into_family() {
        let text = "# TYPE pathfinder_s summary\n\
                    pathfinder_s{quantile=\"0.5\"} 1\n\
                    pathfinder_s_sum 2\n\
                    pathfinder_s_count 2\n";
        let stats = validate(text, &["pathfinder_s"]).expect("summary validates");
        assert_eq!(stats.families, 1);
        assert_eq!(stats.samples, 3);
    }
}
