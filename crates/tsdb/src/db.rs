//! The store: interned, columnar series addressed by [`SeriesId`].
//!
//! A series is identified by (measurement, tag set) and holds its data as
//! columns: one `Vec<u64>` of timestamps plus one `Vec<f64>` per field.
//! [`Db::series_handle`] creates a series and fixes its field columns;
//! [`Db::ingest`] is the only way a row enters the store, so every row
//! carries every column. The ingest path works purely on resolved
//! [`SeriesId`] handles and appends to columns: zero string formatting
//! and zero map insertion per record.
//!
//! Two memory numbers coexist on purpose (PERFORMANCE.md):
//! * [`Db::footprint_bytes`] — the §5.9 *logical* accounting the profiler
//!   reports: what a row-oriented store (one struct per row, owning its
//!   measurement, tag map and field map) would retain. Every row of a
//!   series costs the same, so it is one constant per series, fixed from
//!   the measurement, tag and field lengths when the series is created.
//! * [`Db::resident_bytes`] — actual heap bytes of the columnar layout.
//!
//! Every `&mut self` method bumps the store's generation, so a reader that
//! keeps what it read can tell whether the store changed since: it keeps a
//! [`Stamp`] and asks [`Db::is_at`].

use std::collections::BTreeMap;
use std::sync::{Arc, Weak};

use crate::intern::{Interner, Symbol};
use crate::query::{Filters, Query};

/// §5.9 logical bytes of one row outside its strings: the row struct (a
/// `String` measurement, a `u64` timestamp and two `BTreeMap`s, as the
/// row-oriented store laid it out on x86_64).
const ROW_BYTES: usize = 80;
/// §5.9 logical bytes of one tag entry outside its key and value text.
const TAG_BYTES: usize = 48;
/// §5.9 logical bytes of one field entry outside its name.
const FIELD_BYTES: usize = 32;

/// A resolved series handle: a dense index, stable for the lifetime of the
/// `Db` (deletes empty a series but never invalidate its handle).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesId(u32);

impl SeriesId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// One field column: one value per row of its series.
#[derive(Debug)]
struct FieldCol {
    name: Symbol,
    values: Vec<f64>,
}

/// One series: interned identity plus columnar data.
#[derive(Debug)]
struct Series {
    measurement: Symbol,
    /// Tag pairs in tag-key order (the canonical series-key order).
    tags: Vec<(Symbol, Symbol)>,
    /// Length of the canonical series key (footprint term for a live
    /// series).
    key_len: usize,
    /// Logical bytes of one row (§5.9 terms: the row struct, the
    /// measurement text, and the tag and field entries with their text).
    row_bytes: usize,
    ts: Vec<u64>,
    cols: Vec<FieldCol>,
    /// False once a row arrived with a timestamp below its predecessor;
    /// queries then fall back to a stable sort (lazy sort-on-query).
    sorted: bool,
}

impl Series {
    fn len(&self) -> usize {
        self.ts.len()
    }
}

/// Row indices of one series restricted to a time range, in stable time
/// order. In-order series answer with a contiguous index range found by
/// binary search — no sort, no allocation; out-of-order series fall back
/// to a stable permutation.
enum Rows {
    Sorted(std::ops::Range<usize>),
    Perm(Vec<u32>),
}

impl Rows {
    fn for_each(self, mut f: impl FnMut(usize)) {
        match self {
            Rows::Sorted(r) => r.for_each(&mut f),
            Rows::Perm(p) => p.into_iter().for_each(|i| f(i as usize)),
        }
    }

    fn count(&self) -> usize {
        match self {
            Rows::Sorted(r) => r.len(),
            Rows::Perm(p) => p.len(),
        }
    }
}

/// One state of one store, as [`Db::stamp`] saw it. The default stamp
/// names no store.
#[derive(Clone, Debug, Default)]
pub struct Stamp {
    store: Weak<()>,
    generation: u64,
}

/// An in-memory time-series database.
#[derive(Debug, Default)]
pub struct Db {
    interner: Interner,
    /// `SeriesId::index()` → series, in creation order.
    series: Vec<Series>,
    /// Canonical series key → id. BTreeMap so scans visit series in key
    /// order: records with tied timestamps from different series surface
    /// in key order, never hash order.
    index: BTreeMap<String, SeriesId>,
    points: usize,
    /// Logical retained bytes (§5.9), maintained incrementally on
    /// ingest/delete so overhead accounting is O(1), not a scan.
    retained: usize,
    /// Rows and first-row series [`Db::ingest`] stored since the last
    /// [`Db::publish_metrics`].
    unpublished_points: u64,
    unpublished_series: u64,
    /// Bumped by every `&mut self` method.
    generation: u64,
    /// What a [`Stamp`] names the store by. A stamp holds a weak
    /// reference to it, so no later store can take its address while the
    /// stamp lives.
    identity: Arc<()>,
}

impl Db {
    pub fn new() -> Db {
        Db::default()
    }

    fn bump(&mut self) {
        self.generation = self.generation.wrapping_add(1);
    }

    /// The store's current state, for a later [`Db::is_at`].
    pub fn stamp(&self) -> Stamp {
        Stamp {
            store: Arc::downgrade(&self.identity),
            generation: self.generation,
        }
    }

    /// Is this the store `stamp` was taken of, with no `&mut self` call
    /// since? False for any other store, a replacement included.
    pub fn is_at(&self, stamp: &Stamp) -> bool {
        stamp.generation == self.generation
            && std::ptr::eq(stamp.store.as_ptr(), Arc::as_ptr(&self.identity))
    }

    /// Resolve (creating if needed) the series for `measurement` + `tags`,
    /// with the field columns `fields`. The returned handle stays valid
    /// for the lifetime of the `Db`: resolve once, then [`Db::ingest`]
    /// each epoch with no per-record string work at all.
    ///
    /// `tags` may arrive in any order (they are canonicalised by key);
    /// `fields` fixes the column order that [`Db::ingest`] values follow.
    /// Columns are fixed when the series is created: resolving an
    /// existing series with a different field list panics. A new series
    /// is invisible (not scanned, not counted, no footprint) until its
    /// first row arrives.
    pub fn series_handle(
        &mut self,
        measurement: &str,
        tags: &[(&str, &str)],
        fields: &[&str],
    ) -> SeriesId {
        self.bump();
        let mut sorted_tags: Vec<(&str, &str)> = tags.to_vec();
        sorted_tags.sort_by_key(|&(k, _)| k);
        let mut key = String::from(measurement);
        for (k, v) in &sorted_tags {
            key.push(',');
            key.push_str(k);
            key.push('=');
            key.push_str(v);
        }
        if let Some(&id) = self.index.get(&key) {
            let cols = &self.series[id.index()].cols;
            assert!(
                cols.len() == fields.len()
                    && cols
                        .iter()
                        .zip(fields)
                        .all(|(c, f)| self.interner.lookup(f) == Some(c.name)),
                "series {key} already exists with other field columns"
            );
            return id;
        }
        let row_bytes = ROW_BYTES
            + measurement.len()
            + sorted_tags
                .iter()
                .map(|&(k, v)| TAG_BYTES + k.len() + v.len())
                .sum::<usize>()
            + fields.iter().map(|f| FIELD_BYTES + f.len()).sum::<usize>();
        let m = self.interner.intern(measurement);
        let tags: Vec<(Symbol, Symbol)> = sorted_tags
            .iter()
            .map(|&(k, v)| (self.interner.intern(k), self.interner.intern(v)))
            .collect();
        let cols = fields
            .iter()
            .map(|f| FieldCol {
                name: self.interner.intern(f),
                values: Vec::new(),
            })
            .collect();
        assert!(self.series.len() < u32::MAX as usize, "series id overflow");
        let id = SeriesId(self.series.len() as u32);
        self.series.push(Series {
            measurement: m,
            tags,
            key_len: key.len(),
            row_bytes,
            ts: Vec::new(),
            cols,
            sorted: true,
        });
        self.index.insert(key, id);
        id
    }

    /// Append one row to a resolved series: the only way a row enters
    /// the store. `values` follow the series' column order and must cover
    /// every column. Pure column appends: no string formatting, no map
    /// insertion, no per-record allocation once capacity is reserved
    /// ([`Db::reserve`]). A timestamp below its predecessor is kept and
    /// sorted lazily on query.
    pub fn ingest(&mut self, id: SeriesId, ts: u64, values: &[f64]) {
        self.bump();
        let s = &mut self.series[id.index()];
        assert_eq!(
            values.len(),
            s.cols.len(),
            "ingest values must cover every declared column"
        );
        let was_empty = s.ts.is_empty();
        if !was_empty && ts < s.ts[s.ts.len() - 1] {
            s.sorted = false;
        }
        s.ts.push(ts);
        for (c, &v) in s.cols.iter_mut().zip(values) {
            c.values.push(v);
        }
        self.points += 1;
        self.retained += s.row_bytes;
        if was_empty {
            self.retained += s.key_len;
            self.unpublished_series += 1;
        }
        self.unpublished_points += 1;
    }

    /// Add what [`Db::ingest`] stored since the last call to the
    /// `tsdb.points` and `tsdb.series` obs counters. `ingest` runs once
    /// per row, so it only counts; callers publish once per batch (a
    /// profiled epoch, a fleet round).
    pub fn publish_metrics(&mut self) {
        self.bump();
        if self.unpublished_points > 0 {
            obs::metrics::counter_add("tsdb.points", self.unpublished_points);
        }
        if self.unpublished_series > 0 {
            obs::metrics::counter_add("tsdb.series", self.unpublished_series);
        }
        self.unpublished_points = 0;
        self.unpublished_series = 0;
    }

    /// Pre-reserve capacity for `additional` rows of `id` (timestamps and
    /// every column), so a known batch of [`Db::ingest`] calls performs
    /// zero allocations.
    pub fn reserve(&mut self, id: SeriesId, additional: usize) {
        self.bump();
        let s = &mut self.series[id.index()];
        s.ts.reserve(additional);
        for c in &mut s.cols {
            c.values.reserve(additional);
        }
    }

    /// Total points stored.
    pub fn len(&self) -> usize {
        self.points
    }

    pub fn is_empty(&self) -> bool {
        self.points == 0
    }

    /// Number of distinct live (non-empty) series. Handle-created series
    /// without rows, and series emptied by [`Db::delete_range`], don't
    /// count.
    pub fn n_series(&self) -> usize {
        self.series.iter().filter(|s| !s.ts.is_empty()).count()
    }

    /// Start a query against a measurement (Flux: `from(bucket)`).
    pub fn from(&self, measurement: &str) -> Query<'_> {
        Query::new(self, measurement)
    }

    /// Logical retained bytes of the store (overhead accounting, §5.9):
    /// per row, 80 bytes plus the measurement text, 48 bytes plus the text
    /// of each tag, and 32 bytes plus the name of each field; per live
    /// series, its key. Maintained incrementally so this is O(1). This is
    /// deliberately the *row-oriented* accounting the paper's overhead
    /// budget uses, not the columnar heap — see [`Db::resident_bytes`]
    /// for that.
    pub fn footprint_bytes(&self) -> usize {
        self.retained
    }

    /// Actual heap bytes of the columnar layout: interner table, series
    /// index, and every column's capacity. This is what the process really
    /// pays; it sits well below [`Db::footprint_bytes`] because strings
    /// are stored once, not per record.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = self.interner.resident_bytes();
        for (key, _) in self.index.iter() {
            bytes += key.len() + size_of::<(String, SeriesId)>();
        }
        bytes += self.series.capacity() * size_of::<Series>();
        for s in &self.series {
            bytes += s.ts.capacity() * size_of::<u64>();
            bytes += s.cols.capacity() * size_of::<FieldCol>();
            for c in &s.cols {
                bytes += c.values.capacity() * size_of::<f64>();
            }
        }
        bytes
    }

    /// Delete every point of `measurement` with a timestamp in
    /// `[start, stop)` (Flux `delete(start:, stop:)`); returns the number
    /// of points removed. An in-order series loses one contiguous run of
    /// rows, found by binary search and cut from each column at once; an
    /// out-of-order series is filtered row by row. An emptied series
    /// returns its key bytes to the footprint accounting (its handle stays
    /// valid and it may be repopulated). A reversed or empty range deletes
    /// nothing.
    pub fn delete_range(&mut self, measurement: &str, start: u64, stop: u64) -> usize {
        let _span = obs::span!("tsdb.delete");
        self.bump();
        if stop <= start {
            return 0;
        }
        let Some(m) = self.interner.lookup(measurement) else {
            return 0;
        };
        let mut removed = 0usize;
        let mut freed = 0usize;
        for s in self.series.iter_mut() {
            if s.measurement != m || s.ts.is_empty() {
                continue;
            }
            let n = s.ts.len();
            if s.sorted {
                let lo = s.ts.partition_point(|&t| t < start);
                let hi = s.ts.partition_point(|&t| t < stop);
                s.ts.drain(lo..hi);
                for c in s.cols.iter_mut() {
                    c.values.drain(lo..hi);
                }
            } else {
                let mut kept = 0usize;
                for i in 0..n {
                    let t = s.ts[i];
                    if t < start || t >= stop {
                        if kept != i {
                            s.ts[kept] = t;
                            for c in s.cols.iter_mut() {
                                c.values[kept] = c.values[i];
                            }
                        }
                        kept += 1;
                    }
                }
                s.ts.truncate(kept);
                for c in s.cols.iter_mut() {
                    c.values.truncate(kept);
                }
            }
            let gone = n - s.ts.len();
            removed += gone;
            freed += gone * s.row_bytes;
            if gone == n {
                freed += s.key_len;
            }
        }
        self.points -= removed;
        self.retained -= freed;
        if removed > 0 {
            obs::metrics::counter_add("tsdb.deleted", removed as u64);
        }
        removed
    }

    // -----------------------------------------------------------------
    // Query plumbing (crate-internal, used by `query::Query`)
    // -----------------------------------------------------------------

    /// Live series of `measurement` whose tag set holds every `filters`
    /// pair, in canonical key order.
    pub(crate) fn matching<'s>(
        &'s self,
        measurement: Symbol,
        filters: &'s Filters,
    ) -> impl Iterator<Item = SeriesId> + 's {
        self.index.values().copied().filter(move |id| {
            let s = &self.series[id.index()];
            s.measurement == measurement
                && !s.ts.is_empty()
                && filters
                    .iter()
                    .all(|&(k, v)| s.tags.iter().any(|&(tk, tv)| tk == k && tv == v))
        })
    }

    /// Resolve a measurement, tag or field text without interning.
    pub(crate) fn symbol(&self, text: &str) -> Option<Symbol> {
        self.interner.lookup(text)
    }

    /// Row indices of `id` within `range`, in stable time order (lazy
    /// sort-on-query: in-order series binary-search their bounds).
    fn rows_in(&self, id: SeriesId, range: Option<(u64, u64)>) -> Rows {
        let s = &self.series[id.index()];
        if s.sorted {
            let (lo, hi) = match range {
                Some((start, stop)) => (
                    s.ts.partition_point(|&t| t < start),
                    s.ts.partition_point(|&t| t < stop),
                ),
                None => (0, s.len()),
            };
            Rows::Sorted(lo..hi.max(lo))
        } else {
            let mut perm: Vec<u32> = (0..s.len() as u32)
                .filter(|&i| match range {
                    Some((start, stop)) => {
                        let t = s.ts[i as usize];
                        t >= start && t < stop
                    }
                    None => true,
                })
                .collect();
            perm.sort_by_key(|&i| s.ts[i as usize]);
            Rows::Perm(perm)
        }
    }

    /// Append `(ts, value)` pairs of one series/field to `out`, in time
    /// order; a series without the field appends nothing. Returns true
    /// when anything was appended.
    pub(crate) fn collect_values(
        &self,
        id: SeriesId,
        field: Symbol,
        range: Option<(u64, u64)>,
        out: &mut Vec<(u64, f64)>,
    ) -> bool {
        let s = &self.series[id.index()];
        let Some(col) = s.cols.iter().find(|c| c.name == field) else {
            return false;
        };
        let before = out.len();
        let rows = self.rows_in(id, range);
        out.reserve(rows.count());
        rows.for_each(|i| out.push((s.ts[i], col.values[i])));
        out.len() > before
    }

    /// Count one series' rows within `range`.
    pub(crate) fn count_rows(&self, id: SeriesId, range: Option<(u64, u64)>) -> usize {
        self.rows_in(id, range).count()
    }

    /// Where a merge can read `field`'s rows of series `id` within `range`
    /// in place: the field's column and a contiguous run of rows. `None`
    /// when the series lacks the field or is out of order.
    pub(crate) fn in_place(
        &self,
        id: SeriesId,
        field: Symbol,
        range: Option<(u64, u64)>,
    ) -> Option<(usize, std::ops::Range<usize>)> {
        let s = &self.series[id.index()];
        if !s.sorted {
            return None;
        }
        let col = s.cols.iter().position(|c| c.name == field)?;
        match self.rows_in(id, range) {
            Rows::Sorted(rows) => Some((col, rows)),
            Rows::Perm(_) => None,
        }
    }

    /// Row `i` of series `id`: its timestamp and column `col`'s value.
    pub(crate) fn row(&self, id: SeriesId, col: usize, i: usize) -> (u64, f64) {
        let s = &self.series[id.index()];
        (s.ts[i], s.cols[col].values[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> Db {
        let mut db = Db::new();
        let core0 = db.series_handle("path_set", &[("core", "0")], &["hits"]);
        let core1 = db.series_handle("path_set", &[("core", "1")], &["hits"]);
        let l2 = db.series_handle("vertex", &[("hw", "L2")], &["occ"]);
        for t in 0..10u64 {
            db.ingest(core0, t * 100, &[t as f64]);
            db.ingest(core1, t * 100, &[2.0 * t as f64]);
            db.ingest(l2, t * 100, &[1.0]);
        }
        db
    }

    #[test]
    fn insert_and_count() {
        let db = sample_db();
        assert_eq!(db.len(), 30);
        assert_eq!(db.n_series(), 3);
    }

    #[test]
    fn scan_filters_by_measurement() {
        let db = sample_db();
        assert_eq!(db.from("path_set").count(), 20);
        assert_eq!(db.from("vertex").count(), 10);
        assert_eq!(db.from("nope").count(), 0);
    }

    #[test]
    fn footprint_is_positive_and_grows() {
        let mut db = Db::new();
        let f0 = db.footprint_bytes();
        let h = db.series_handle("m", &[], &["x"]);
        db.ingest(h, 0, &[1.0]);
        assert!(db.footprint_bytes() > f0);
    }

    #[test]
    fn footprint_follows_the_row_oriented_arithmetic() {
        // Literals of the row-oriented store's §5.9 accounting. A row of
        // (path_set, app=fft, core=0, hits) is 80 + 8 + (48 + 6) + (48 + 5)
        // + (32 + 4) = 231 bytes; its key "path_set,app=fft,core=0" adds 23.
        let mut db = Db::new();
        let h = db.series_handle("path_set", &[("core", "0"), ("app", "fft")], &["hits"]);
        db.ingest(h, 0, &[1.0]);
        assert_eq!(db.footprint_bytes(), 254);
        db.ingest(h, 10, &[2.0]);
        assert_eq!(db.footprint_bytes(), 485);
        let v = db.series_handle("vertex", &[("hw", "L2")], &["queue", "occ"]);
        db.ingest(v, 0, &[1.0, 2.0]);
        assert_eq!(db.footprint_bytes(), 707);
        db.delete_range("path_set", 0, u64::MAX);
        assert_eq!(db.footprint_bytes(), 222);
    }

    #[test]
    #[should_panic(expected = "already exists with other field columns")]
    fn a_second_field_list_for_a_series_panics() {
        let mut db = Db::new();
        db.series_handle("m", &[("core", "0")], &["x"]);
        db.series_handle("m", &[("core", "0")], &["x", "y"]);
    }

    #[test]
    fn distinct_tag_values_give_distinct_handles() {
        let mut db = Db::new();
        let a = db.series_handle("m", &[("core", "0")], &["x"]);
        let b = db.series_handle("m", &[("core", "1")], &["x"]);
        assert_ne!(a, b);
        assert_eq!(db.series_handle("m", &[("core", "0")], &["x"]), a);
    }

    #[test]
    fn handles_are_stable_across_delete_and_repopulate() {
        let mut db = Db::new();
        let h = db.series_handle("m", &[("core", "0")], &["x"]);
        db.ingest(h, 10, &[1.0]);
        db.ingest(h, 20, &[2.0]);
        assert_eq!(db.delete_range("m", 0, u64::MAX), 2);
        assert_eq!(db.n_series(), 0);
        assert_eq!(db.footprint_bytes(), 0);
        // The handle survives the delete.
        db.ingest(h, 30, &[3.0]);
        assert_eq!(db.from("m").values("x"), vec![(30, 3.0)]);
        assert_eq!(db.n_series(), 1);
    }

    #[test]
    fn handle_created_series_is_invisible_until_populated() {
        let mut db = Db::new();
        let h = db.series_handle("m", &[("core", "0")], &["x"]);
        assert_eq!(db.n_series(), 0);
        assert_eq!(db.footprint_bytes(), 0);
        assert_eq!(db.from("m").count(), 0);
        db.ingest(h, 0, &[1.0]);
        assert_eq!(db.n_series(), 1);
    }

    #[test]
    fn series_handle_canonicalises_tag_order() {
        let mut db = Db::new();
        let a = db.series_handle("m", &[("b", "2"), ("a", "1")], &["x"]);
        let b = db.series_handle("m", &[("a", "1"), ("b", "2")], &["x"]);
        assert_eq!(a, b);
    }

    #[test]
    fn reserve_then_ingest_is_queryable() {
        let mut db = Db::new();
        let h = db.series_handle("m", &[], &["x", "y"]);
        db.reserve(h, 100);
        for t in 0..100u64 {
            db.ingest(h, t, &[t as f64, 2.0 * t as f64]);
        }
        assert_eq!(db.from("m").values("y").len(), 100);
        assert_eq!(db.from("m").range(10, 20).count(), 10);
    }

    #[test]
    fn resident_bytes_tracks_the_columnar_heap() {
        let mut db = Db::new();
        let h = db.series_handle("path_set", &[("core", "0"), ("app", "fft")], &["hits"]);
        for t in 0..1000u64 {
            db.ingest(h, t, &[t as f64]);
        }
        let resident = db.resident_bytes();
        assert!(resident > 0);
        // Strings are stored once, so the columnar heap sits far below the
        // logical row-oriented accounting.
        assert!(
            resident < db.footprint_bytes(),
            "resident {resident} vs logical {}",
            db.footprint_bytes()
        );
    }
}
