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
//! [`validate`] reads the body once, front to back, and allocates per
//! family and per table growth, not per sample: a sample first resolves
//! its family against the `# TYPE` line just read, an all-digit value is
//! taken as a number without a float parse, and duplicates are found by
//! hashing each sample's parsed identity into an open-addressing table of
//! earlier samples' text, compared exactly when two hashes match.
//!
//! Like the rest of this crate the module is panic-free: clippy denies
//! indexing, slicing, integer division and release asserts in it
//! (`lib.rs`), and `tests/hostile_input.rs` feeds [`validate`] arbitrary
//! bytes.

use std::collections::BTreeSet;

use crate::json::{write_f64, write_u64};
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
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
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

    /// A writer whose output buffer holds `bytes` before it grows.
    pub fn with_capacity(bytes: usize) -> PromText {
        PromText {
            out: String::with_capacity(bytes),
            ..PromText::default()
        }
    }

    /// The families typed so far, in mangled form, in byte order.
    pub fn typed(&self) -> impl Iterator<Item = &str> {
        self.typed.iter().map(String::as_str)
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
            for part in ["# TYPE ", family, " ", kind, "\n"] {
                self.out.push_str(part);
            }
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

    /// Write `value` and end the sample's line.
    fn integer(&mut self, value: u64) {
        write_u64(&mut self.out, value);
        self.out.push('\n');
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
        self.integer(value);
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
        self.family(&family, "summary");
        for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
            self.series(&family, "", labels, Some(("quantile", q)));
            self.integer(v);
        }
        self.series(&family, "_sum", labels, None);
        write_f64(&mut self.out, h.mean * h.count as f64);
        self.out.push('\n');
        self.series(&family, "_count", labels, None);
        self.integer(h.count);
        self.name = family;
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

/// A label pair as written: its name and its value between the quotes,
/// escapes still in place.
type Pair<'t> = (&'t str, &'t str);

/// Parse a Prometheus label set body (the text between `{` and `}`) into
/// its pairs, in `out`, cleared first. Names and values are slices of
/// `s`; a value keeps its escapes, which [`unescaped`] reads.
///
/// Grammar enforced: comma-separated `name="value"` pairs; label names
/// `[a-zA-Z_][a-zA-Z0-9_]*`; inside a value only `\\`, `\"` and `\n` are
/// legal escapes and a bare `"` always terminates it. Anything else —
/// stray bytes between pairs, an unterminated value, an illegal escape —
/// is exactly the shape a hostile label value would need to smuggle a
/// fake sample past a scraper, and is rejected.
fn parse_labels<'t>(s: &'t str, out: &mut Vec<Pair<'t>>) -> Result<(), String> {
    out.clear();
    if s.is_empty() {
        return Ok(());
    }
    let mut rest = s;
    loop {
        let end = rest
            .bytes()
            .position(|b| !(b.is_ascii_alphanumeric() || b == b'_'))
            .unwrap_or(rest.len());
        let (name, after) = rest.split_at_checked(end).unwrap_or((rest, ""));
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

/// Label `name`'s value at the start of `body`, as written, and the text
/// after its closing quote. A quote or a backslash is one byte that no
/// other character's UTF-8 encoding contains, so the scan is bytewise.
fn parse_value<'t>(name: &str, body: &'t str) -> Result<(&'t str, &'t str), String> {
    let bytes = body.as_bytes();
    let mut from = 0;
    while let Some(at) = bytes
        .get(from..)
        .and_then(|b| b.iter().position(|&c| c == b'"' || c == b'\\'))
        .map(|off| from + off)
    {
        if bytes.get(at) == Some(&b'"') {
            return Ok((
                body.get(..at).unwrap_or_default(),
                body.get(at + 1..).unwrap_or_default(),
            ));
        }
        match bytes.get(at + 1) {
            Some(b'\\' | b'"' | b'n') => from = at + 2,
            _ => {
                let other = body.get(at + 1..).and_then(|s| s.chars().next());
                return Err(format!(
                    "label `{name}` uses illegal escape `\\{}`",
                    other.map(String::from).unwrap_or_default()
                ));
            }
        }
    }
    Err(format!("label `{name}` has an unterminated value"))
}

/// The bytes a label value as written stands for. Only the three legal
/// escapes reach here, so each backslash takes the byte after it.
fn unescaped(raw: &str) -> impl Iterator<Item = u8> + '_ {
    let mut bytes = raw.bytes();
    std::iter::from_fn(move || match bytes.next()? {
        b'\\' => match bytes.next()? {
            b'n' => Some(b'\n'),
            b => Some(b),
        },
        b => Some(b),
    })
}

/// Sort a label set into identity order: by name, then by unescaped
/// value.
fn sort_pairs(pairs: &mut [Pair<'_>]) {
    pairs.sort_unstable_by(|(ka, va), (kb, vb)| {
        ka.cmp(kb).then_with(|| unescaped(va).cmp(unescaped(vb)))
    });
}

/// A sample's name and label-set body, or `None` for a label set without
/// its closing brace.
fn split_series(series: &str) -> Option<(&str, &str)> {
    match series.split_once('{') {
        Some((name, rest)) => Some((name, rest.strip_suffix('}')?)),
        None => Some((series, "")),
    }
}

/// Write a sample's identity into `key`: its name, then per pair of its
/// sorted label set `\0`, the label name, `\0` and the value as written.
/// A value as written is its unescaped value escaped again, so two
/// samples are the same series exactly when their keys are equal.
fn identity_into(key: &mut Vec<u8>, name: &str, pairs: &[Pair<'_>]) {
    key.clear();
    key.extend_from_slice(name.as_bytes());
    for (k, v) in pairs {
        key.push(0);
        key.extend_from_slice(k.as_bytes());
        key.push(0);
        key.extend_from_slice(v.as_bytes());
    }
}

/// A word-at-a-time multiplicative hash of `bytes`, folded so that the
/// low bits a table masks depend on every word.
fn hash_bytes(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mix = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    let mut h = (&mut words).fold(bytes.len() as u64, |h, w| {
        mix(h, <[u8; 8]>::try_from(w).map_or(0, u64::from_le_bytes))
    });
    let mut tail = [0u8; 8];
    for (t, b) in tail.iter_mut().zip(words.remainder()) {
        *t = *b;
    }
    h = mix(h, u64::from_le_bytes(tail));
    h ^ (h >> 29)
}

/// An open-addressing table (linear probing, at most half full) of
/// slices of the text being validated, each stored with its hash and a
/// value. What makes two slices the same entry is the caller's test.
struct Table<'t, V> {
    slots: Vec<Option<(u64, &'t str, V)>>,
    len: usize,
}

impl<'t, V: Copy> Table<'t, V> {
    /// Slots of a new table, a power of two: it first grows at its 33rd
    /// entry, and doubles each time it would pass half full.
    const FIRST_SLOTS: usize = 64;

    fn new() -> Table<'t, V> {
        Table {
            slots: vec![None; Self::FIRST_SLOTS],
            len: 0,
        }
    }

    /// The value of the entry stored under `hash` whose text `is`
    /// accepts.
    fn get(&self, hash: u64, is: impl Fn(&str) -> bool) -> Option<V> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while let Some(Some((h, text, value))) = self.slots.get(i) {
            if *h == hash && is(text) {
                return Some(*value);
            }
            i = (i + 1) & mask;
        }
        None
    }

    /// Store `text` and `value` under `hash`, unless an entry stored
    /// under `hash` has a text that `is` accepts; true when stored.
    fn insert(
        &mut self,
        hash: u64,
        text: &'t str,
        value: V,
        mut is: impl FnMut(&'t str) -> bool,
    ) -> bool {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while let Some(slot) = self.slots.get_mut(i) {
            match *slot {
                None => {
                    *slot = Some((hash, text, value));
                    self.len += 1;
                    return true;
                }
                Some((h, earlier, _)) if h == hash && is(earlier) => return false,
                Some(_) => i = (i + 1) & mask,
            }
        }
        false
    }

    fn grow(&mut self) {
        let grown = vec![None; 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, grown);
        let mask = self.slots.len() - 1;
        for entry in old.into_iter().flatten() {
            let mut i = entry.0 as usize & mask;
            while let Some(slot) = self.slots.get_mut(i) {
                if slot.is_none() {
                    *slot = Some(entry);
                    break;
                }
                i = (i + 1) & mask;
            }
        }
    }
}

/// The kind of family `fam` in `types`.
fn kind_of<'t>(types: &Table<'t, &'t str>, fam: &str) -> Option<&'t str> {
    types.get(hash_bytes(fam.as_bytes()), |t| t == fam)
}

/// Does a sample value parse as a float? An all-digit value does without
/// parsing.
fn is_number(value: &str) -> bool {
    (!value.is_empty() && value.bytes().all(|b| b.is_ascii_digit())) || value.parse::<f64>().is_ok()
}

/// Is `name` a sample of the family `fam` of kind `kind`: the family
/// itself, or its `_sum`, `_count` or `_bucket` when it is a summary or
/// histogram?
fn of_family(name: &str, (fam, kind): (&str, &str)) -> bool {
    match name.strip_prefix(fam) {
        Some("") => true,
        Some("_count" | "_sum" | "_bucket") => kind == "summary" || kind == "histogram",
        _ => false,
    }
}

/// Is `name` a sample of some family in `types`? Its `_count`, `_sum`
/// or `_bucket` suffix folds into a summary or histogram family.
fn is_typed<'t>(types: &Table<'t, &'t str>, name: &str) -> bool {
    ["_count", "_sum", "_bucket"].into_iter().any(|suffix| {
        name.strip_suffix(suffix)
            .and_then(|base| kind_of(types, base))
            .is_some_and(|kind| kind == "summary" || kind == "histogram")
    }) || kind_of(types, name).is_some()
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
///
/// A family, once typed, stays typed, and a name that has resolved to
/// one always resolves again. So a sample of the family of the last
/// `# TYPE` line, or with the name of one of the last two samples that
/// resolved through the family map, skips both the mangling check and
/// the lookup.
pub fn validate(text: &str, required: &[&str]) -> Result<PromStats, String> {
    let mut types = Table::new();
    let mut last_type = None;
    let mut resolved = [None; 2];
    let mut seen = Table::new();
    let (mut pairs, mut key) = (Vec::new(), Vec::new());
    let (mut earlier_pairs, mut earlier_key) = (Vec::new(), Vec::new());
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
            if !types.insert(hash_bytes(fam.as_bytes()), fam, kind, |t| t == fam) {
                return Err(format!("line {n}: duplicate TYPE line for `{fam}`"));
            }
            last_type = Some((fam, kind));
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => return Err(format!("line {n}: malformed sample `{line}`")),
        };
        if !is_number(value) {
            return Err(format!("line {n}: value `{value}` is not a number"));
        }
        let Some((name, labels)) = split_series(series) else {
            return Err(format!("line {n}: unterminated label set `{series}`"));
        };
        if !last_type.is_some_and(|t| of_family(name, t)) && !resolved.contains(&Some(name)) {
            if !is_mangled(name) {
                return Err(format!(
                    "line {n}: sample `{name}` is not in pathfinder_ mangled form"
                ));
            }
            if !is_typed(&types, name) {
                return Err(format!(
                    "line {n}: sample `{name}` has no preceding # TYPE line"
                ));
            }
            let [newest, older] = &mut resolved;
            *older = newest.replace(name);
        }
        if let Err(e) = parse_labels(labels, &mut pairs) {
            return Err(format!("line {n}: `{series}`: {e}"));
        }
        sort_pairs(&mut pairs);
        identity_into(&mut key, name, &pairs);
        // Two hashes match: parse the earlier sample again and compare
        // the two identities exactly.
        let stored = seen.insert(hash_bytes(&key), series, (), |earlier| {
            let Some((name, labels)) = split_series(earlier) else {
                return false;
            };
            if parse_labels(labels, &mut earlier_pairs).is_err() {
                return false;
            }
            sort_pairs(&mut earlier_pairs);
            identity_into(&mut earlier_key, name, &earlier_pairs);
            earlier_key == key
        });
        if !stored {
            return Err(format!("line {n}: duplicate sample `{series}`"));
        }
        samples += 1;
    }
    for r in required {
        if kind_of(&types, r).is_none() {
            return Err(format!("required metric family `{r}` missing"));
        }
    }
    Ok(PromStats {
        families: types.len,
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
