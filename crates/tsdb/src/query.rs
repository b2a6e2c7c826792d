//! A small Flux-like query builder.
//!
//! PathFinder's analyzer translates a scenario into "a sequence of InfluxDB
//! Flux queries" (§4.6), e.g.
//! `FROM "path_set" WHERE path.mflow.pid = APP_PID AND path.dst = LLC`.
//! The equivalent here:
//!
//! ```
//! use tsdb::Db;
//! let mut db = Db::new();
//! let h = db.series_handle("path_set", &[("pid", "7"), ("dst", "LLC")], &["hits"]);
//! db.ingest(h, 5, &[3.0]);
//! let series = db.from("path_set").filter("pid", "7").filter("dst", "LLC").values("hits");
//! assert_eq!(series, vec![(5, 3.0)]);
//! ```
//!
//! Queries run over the columnar store. A query resolves its measurement
//! and each tag filter to interned symbols as they are given (text the
//! store never saw matches nothing) and keeps no string, so building and
//! running one allocates nothing. Matching series are visited in
//! canonical key order, and each series yields its rows in time order:
//! in-order series skip re-sorting entirely (binary-searched range
//! bounds), out-of-order series fall back to a stable permutation. When
//! more than one series contributes, a final stable sort merges them, so
//! tied timestamps surface in series-key order.
//!
//! [`Db::sum_per_ts`] sums the rows of several queries per timestamp in
//! one k-way merge that reads in-order columns where they lie.

use crate::db::{Db, SeriesId};
use crate::intern::Symbol;

/// Filters a query keeps without allocating; more spill to the heap.
const INLINE_FILTERS: usize = 4;

/// A query's tag filters as interned `(key, value)` pairs.
#[derive(Default)]
pub(crate) struct Filters {
    inline: [(Symbol, Symbol); INLINE_FILTERS],
    len: usize,
    more: Vec<(Symbol, Symbol)>,
}

impl Filters {
    fn push(&mut self, pair: (Symbol, Symbol)) {
        match self.inline.get_mut(self.len) {
            Some(slot) => {
                *slot = pair;
                self.len += 1;
            }
            None => self.more.push(pair),
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &(Symbol, Symbol)> {
        self.inline[..self.len].iter().chain(&self.more)
    }
}

/// A lazily-evaluated query over one measurement.
pub struct Query<'a> {
    db: &'a Db,
    /// `None` once the measurement, a filter key or a filter value is text
    /// the store never saw: the query then matches nothing.
    measurement: Option<Symbol>,
    filters: Filters,
    range: Option<(u64, u64)>,
}

impl<'a> Query<'a> {
    pub(crate) fn new(db: &'a Db, measurement: &str) -> Query<'a> {
        Query {
            db,
            measurement: db.symbol(measurement),
            filters: Filters::default(),
            range: None,
        }
    }

    /// Require an exact tag match (Flux `filter(fn: (r) => r.k == v)`).
    pub fn filter(mut self, key: impl AsRef<str>, value: impl AsRef<str>) -> Self {
        match (self.db.symbol(key.as_ref()), self.db.symbol(value.as_ref())) {
            (Some(k), Some(v)) => self.filters.push((k, v)),
            _ => self.measurement = None,
        }
        self
    }

    /// Restrict to `[start, stop)` timestamps (Flux `range(start:, stop:)`).
    pub fn range(mut self, start: u64, stop: u64) -> Self {
        self.range = Some((start, stop));
        self
    }

    /// Matching series in canonical key order.
    fn series(&self) -> impl Iterator<Item = SeriesId> + '_ {
        self.measurement
            .into_iter()
            .flat_map(|m| self.db.matching(m, &self.filters))
    }

    /// Materialise one field as a `(ts, value)` series, time-sorted;
    /// series without the field contribute nothing.
    pub fn values(self, field: &str) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        self.values_into(field, &mut out);
        out
    }

    /// [`Query::values`] into `out`, cleared first, so a caller that keeps
    /// `out` across queries reuses its capacity.
    pub fn values_into(self, field: &str, out: &mut Vec<(u64, f64)>) {
        let _span = obs::span!("tsdb.query");
        obs::metrics::counter_add("tsdb.queries", 1);
        out.clear();
        let Some(sym) = self.db.symbol(field) else {
            return;
        };
        let mut contributing = 0usize;
        for id in self.series() {
            if self.db.collect_values(id, sym, self.range, out) {
                contributing += 1;
            }
        }
        if contributing > 1 {
            out.sort_by_key(|&(ts, _)| ts);
        }
    }

    /// Count matching points.
    pub fn count(self) -> usize {
        let _span = obs::span!("tsdb.query");
        obs::metrics::counter_add("tsdb.queries", 1);
        self.series()
            .map(|id| self.db.count_rows(id, self.range))
            .sum()
    }
}

/// The cursors of [`Db::sum_per_ts`]. A caller that keeps one across
/// merges reuses its capacity, so a merge of in-order series allocates
/// nothing.
#[derive(Debug, Default)]
pub struct Merge {
    heads: Vec<Head>,
    /// Rows of the series a merge cannot read in place, each run sorted.
    spill: Vec<(u64, f64)>,
}

/// One contributing series' unread rows: `pos..end` of a column (series,
/// column index) of the store, or of [`Merge::spill`] when `column` is
/// `None`.
#[derive(Debug)]
struct Head {
    column: Option<(SeriesId, usize)>,
    pos: usize,
    end: usize,
}

impl Db {
    /// Sum `field` per timestamp over the rows each of `queries` selects,
    /// into `out` in time order. Each sum starts from `0.0` and adds the
    /// queries' rows in query order, each query's series in canonical key
    /// order, each series' rows in time order (ties in arrival order): the
    /// order in which accumulating each query's [`Query::values`] into
    /// per-timestamp totals, one query after another, adds them, so every
    /// sum has that order's bits.
    ///
    /// In-order series are read where they lie. An out-of-order series,
    /// or a series of a query on another store, is first copied into
    /// `merge`'s spill buffer in time order.
    pub fn sum_per_ts<'q>(
        &self,
        queries: impl IntoIterator<Item = Query<'q>>,
        field: &str,
        merge: &mut Merge,
        out: &mut Vec<(u64, f64)>,
    ) {
        let _span = obs::span!("tsdb.query");
        let Merge { heads, spill } = merge;
        heads.clear();
        spill.clear();
        out.clear();
        let mut n_queries = 0;
        for q in queries {
            n_queries += 1;
            let Some(sym) = q.db.symbol(field) else {
                continue;
            };
            let home = std::ptr::eq(q.db, self);
            for id in q.series() {
                match home.then(|| self.in_place(id, sym, q.range)).flatten() {
                    Some((col, rows)) => heads.push(Head {
                        column: Some((id, col)),
                        pos: rows.start,
                        end: rows.end,
                    }),
                    None => {
                        let pos = spill.len();
                        q.db.collect_values(id, sym, q.range, spill);
                        heads.push(Head {
                            column: None,
                            pos,
                            end: spill.len(),
                        });
                    }
                }
            }
        }
        obs::metrics::counter_add("tsdb.queries", n_queries);
        let row = |h: &Head| {
            (h.pos < h.end).then(|| match h.column {
                Some((id, col)) => self.row(id, col, h.pos),
                None => spill[h.pos],
            })
        };
        out.reserve(heads.iter().map(|h| h.end - h.pos).max().unwrap_or(0));
        while let Some(ts) = heads.iter().filter_map(|h| row(h).map(|(t, _)| t)).min() {
            let mut sum = 0.0;
            for h in heads.iter_mut() {
                while let Some((_, v)) = row(h).filter(|&(t, _)| t == ts) {
                    sum += v;
                    h.pos += 1;
                }
            }
            out.push((ts, sum));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Db {
        let mut db = Db::new();
        let odd = db.series_handle("path_set", &[("pid", "8"), ("dst", "LLC")], &["hits"]);
        let even = db.series_handle("path_set", &[("pid", "7"), ("dst", "LLC")], &["hits"]);
        for t in 0..20u64 {
            db.ingest(if t % 2 == 0 { even } else { odd }, t, &[t as f64]);
        }
        db
    }

    #[test]
    fn filter_by_tag() {
        let d = db();
        assert_eq!(d.from("path_set").filter("pid", "7").count(), 10);
        assert_eq!(d.from("path_set").filter("pid", "9").count(), 0);
    }

    #[test]
    fn filters_compose_conjunctively() {
        let d = db();
        assert_eq!(
            d.from("path_set")
                .filter("pid", "7")
                .filter("dst", "LLC")
                .count(),
            10
        );
        assert_eq!(
            d.from("path_set")
                .filter("pid", "7")
                .filter("dst", "L2")
                .count(),
            0
        );
    }

    #[test]
    fn range_is_half_open() {
        let d = db();
        let rows = d.from("path_set").range(5, 10).values("hits");
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|&(ts, _)| (5..10).contains(&ts)));
    }

    #[test]
    fn values_are_time_sorted() {
        let mut d = Db::new();
        let h = d.series_handle("m", &[], &["x"]);
        d.ingest(h, 30, &[3.0]);
        d.ingest(h, 10, &[1.0]);
        d.ingest(h, 20, &[2.0]);
        let v = d.from("m").values("x");
        assert_eq!(v, vec![(10, 1.0), (20, 2.0), (30, 3.0)]);
    }

    #[test]
    fn out_of_order_series_fall_back_to_a_stable_sort() {
        // The lazy sort-on-query fallback: a series whose rows arrived out
        // of order must still answer every query shape in time order, and
        // tied timestamps must keep insertion order (stable sort).
        let mut d = Db::new();
        let h = d.series_handle("m", &[("core", "0")], &["x"]);
        d.ingest(h, 50, &[5.0]);
        d.ingest(h, 10, &[1.0]);
        d.ingest(h, 50, &[5.5]);
        d.ingest(h, 30, &[3.0]);
        assert_eq!(
            d.from("m").values("x"),
            vec![(10, 1.0), (30, 3.0), (50, 5.0), (50, 5.5)]
        );
        assert_eq!(d.from("m").range(10, 50).count(), 2);
        assert_eq!(
            d.from("m").range(20, 60).values("x"),
            vec![(30, 3.0), (50, 5.0), (50, 5.5)]
        );
    }

    #[test]
    fn tied_timestamps_across_series_surface_in_key_order() {
        // Two series, same timestamps: the merge must order ties by series
        // key ("core=0" before "core=1"): a key-ordered scan, then a stable
        // sort.
        let mut d = Db::new();
        let core1 = d.series_handle("m", &[("core", "1")], &["x"]);
        let core0 = d.series_handle("m", &[("core", "0")], &["x"]);
        for t in [100u64, 200] {
            d.ingest(core1, t, &[1.0]);
            d.ingest(core0, t, &[0.0]);
        }
        assert_eq!(
            d.from("m").values("x"),
            vec![(100, 0.0), (100, 1.0), (200, 0.0), (200, 1.0)]
        );
    }

    #[test]
    fn missing_field_rows_are_skipped() {
        // A series without the field contributes no rows to its values.
        let mut d = Db::new();
        let x = d.series_handle("m", &[("k", "a")], &["x"]);
        let y = d.series_handle("m", &[("k", "b")], &["y"]);
        d.ingest(x, 1, &[1.0]);
        d.ingest(y, 2, &[9.0]);
        assert_eq!(d.from("m").values("x"), vec![(1, 1.0)]);
        assert_eq!(d.from("m").count(), 2);
    }

    #[test]
    fn missing_tag_never_matches() {
        let mut d = Db::new();
        let h = d.series_handle("m", &[], &["x"]);
        d.ingest(h, 1, &[1.0]);
        assert_eq!(d.from("m").filter("core", "0").count(), 0);
    }
}
