//! Property-based equivalence: the interned, columnar [`tsdb::Db`] must be
//! observationally identical to a naive row-oriented reference model under
//! arbitrary interleavings of ingests (in- and out-of-order timestamps),
//! range deletes, and queries. The reference model encodes the documented
//! semantics of `tests/edge_cases.rs`: half-open `[start, stop)` ranges,
//! reversed ranges match nothing, query rows ordered by timestamp with ties
//! broken by canonical series-key order, and §5.9 footprint accounting that
//! returns exactly to baseline when series empty.

use std::collections::BTreeMap;

use proptest::prelude::*;
use tsdb::Db;

const MEASUREMENTS: &[&str] = &["path_set", "vertex", "progress"];
const DSTS: &[&str] = &["L2", "LLC", "CXL Memory"];
const FIELDS: &[&str] = &["hits", "occ"];

/// One record of the reference model: what a row-oriented store keeps
/// per row.
#[derive(Clone, Debug)]
struct Row {
    measurement: String,
    ts: u64,
    tags: BTreeMap<String, String>,
    fields: BTreeMap<String, f64>,
}

impl Row {
    /// The series key: measurement plus the sorted tag set.
    fn series_key(&self) -> String {
        let mut key = self.measurement.clone();
        for (k, v) in &self.tags {
            key.push_str(&format!(",{k}={v}"));
        }
        key
    }

    /// §5.9 logical bytes of the row: an 80-byte row struct plus the
    /// measurement text, 48 bytes plus the text of each tag, and 32 bytes
    /// plus the name of each field.
    fn retained_bytes(&self) -> usize {
        80 + self.measurement.len()
            + self
                .tags
                .iter()
                .map(|(k, v)| 48 + k.len() + v.len())
                .sum::<usize>()
            + self.fields.keys().map(|k| 32 + k.len()).sum::<usize>()
    }
}

/// Naive reference store: a flat list of rows, queried by scan.
#[derive(Default)]
struct ModelDb {
    rows: Vec<Row>,
}

impl ModelDb {
    fn insert(&mut self, r: Row) {
        self.rows.push(r);
    }

    fn delete_range(&mut self, measurement: &str, start: u64, stop: u64) -> usize {
        if stop <= start {
            return 0;
        }
        let before = self.rows.len();
        self.rows
            .retain(|r| !(r.measurement == measurement && r.ts >= start && r.ts < stop));
        before - self.rows.len()
    }

    fn matches(r: &Row, measurement: &str, filters: &[(String, String)]) -> bool {
        r.measurement == measurement
            && filters
                .iter()
                .all(|(k, v)| r.tags.get(k).map(String::as_str) == Some(v.as_str()))
    }

    /// Query semantics: matching series visited in canonical key order,
    /// each series' rows in stable time order, then one stable global sort
    /// by timestamp (so ties keep key order).
    fn query(
        &self,
        measurement: &str,
        filters: &[(String, String)],
        start: u64,
        stop: u64,
    ) -> Vec<Row> {
        let mut keys: Vec<String> = self
            .rows
            .iter()
            .filter(|r| Self::matches(r, measurement, filters))
            .map(Row::series_key)
            .collect();
        keys.sort();
        keys.dedup();
        let mut out: Vec<Row> = Vec::new();
        for key in &keys {
            let mut rows: Vec<Row> = self
                .rows
                .iter()
                .filter(|r| {
                    Self::matches(r, measurement, filters)
                        && r.series_key() == *key
                        && r.ts >= start
                        && r.ts < stop
                })
                .cloned()
                .collect();
            rows.sort_by_key(|r| r.ts); // stable: insertion order survives ties
            out.extend(rows);
        }
        out.sort_by_key(|r| r.ts); // stable: key order survives ties
        out
    }

    fn n_series(&self) -> usize {
        let mut keys: Vec<String> = self.rows.iter().map(Row::series_key).collect();
        keys.sort();
        keys.dedup();
        keys.len()
    }

    /// §5.9 accounting: per-row retained bytes plus one key's bytes per
    /// non-empty series.
    fn footprint_bytes(&self) -> usize {
        let mut keys: Vec<String> = self.rows.iter().map(Row::series_key).collect();
        keys.sort();
        keys.dedup();
        self.rows.iter().map(Row::retained_bytes).sum::<usize>()
            + keys.iter().map(String::len).sum::<usize>()
    }
}

/// One scripted operation, decoded from a generated tuple.
fn apply_op(db: &mut Db, model: &mut ModelDb, op: &(u8, u8, u8, u8, u64, u64)) {
    let &(kind, m_idx, core, sel, ts, span) = op;
    let measurement = MEASUREMENTS[m_idx as usize % MEASUREMENTS.len()];
    if kind % 8 == 7 {
        // Range delete. `span` may produce empty/huge windows — both are
        // interesting; reversed ranges are exercised via span == 0 plus the
        // explicit edge-case tests.
        let (start, stop) = (ts, ts.saturating_add(span));
        let a = db.delete_range(measurement, start, stop);
        let b = model.delete_range(measurement, start, stop);
        assert_eq!(a, b, "delete_range removed counts diverged");
        return;
    }
    // Ingest: tag grid (core, sometimes dst). A series' fields are a
    // function of its tags: both, `hits` only, or `occ` only.
    let core = (core % 3) as usize;
    let dst = (sel % 2 == 0).then(|| DSTS[sel as usize % DSTS.len()]);
    let fields: &[&str] = match (core + dst.map_or(0, str::len)) % 3 {
        0 => FIELDS,
        1 => &FIELDS[..1],
        _ => &FIELDS[1..],
    };
    let core = core.to_string();
    let mut tags = vec![("core", core.as_str())];
    tags.extend(dst.map(|d| ("dst", d)));
    let values: Vec<f64> = (0..fields.len())
        .map(|i| (ts as f64) * 0.5 + i as f64)
        .collect();
    let id = db.series_handle(measurement, &tags, fields);
    db.ingest(id, ts, &values);
    model.insert(Row {
        measurement: measurement.to_string(),
        ts,
        tags: tags
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        fields: fields
            .iter()
            .zip(&values)
            .map(|(f, &v)| (f.to_string(), v))
            .collect(),
    });
}

/// The store's answer for one query shape matches the model's: the same
/// row count, and for each field the same `(ts, value)` rows in the same
/// order. `range: None` queries without a time range.
fn assert_same_rows(
    db: &Db,
    model: &ModelDb,
    measurement: &str,
    filters: &[(String, String)],
    range: Option<(u64, u64)>,
) {
    let query = || {
        let q = filters
            .iter()
            .fold(db.from(measurement), |q, (k, v)| q.filter(k, v));
        match range {
            Some((start, stop)) => q.range(start, stop),
            None => q,
        }
    };
    let (start, stop) = range.unwrap_or((0, u64::MAX));
    let want = model.query(measurement, filters, start, stop);
    assert_eq!(
        query().count(),
        want.len(),
        "{measurement} {filters:?}: row count diverged"
    );
    for &f in FIELDS {
        let rows: Vec<(u64, f64)> = want
            .iter()
            .filter_map(|r| r.fields.get(f).map(|&v| (r.ts, v)))
            .collect();
        assert_eq!(
            query().values(f),
            rows,
            "{measurement} {filters:?}: {f} diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn columnar_db_matches_reference_model(
        ops in proptest::collection::vec(
            (0u8..16, 0u8..4, 0u8..4, 0u8..8, 0u64..2_000, 0u64..1_000),
            1..120,
        ),
        q_start in 0u64..1_500,
        q_span in 0u64..1_500,
    ) {
        let mut db = Db::new();
        let mut model = ModelDb::default();
        for op in &ops {
            apply_op(&mut db, &mut model, op);
        }

        prop_assert_eq!(db.len(), model.rows.len());
        prop_assert_eq!(db.n_series(), model.n_series());
        prop_assert_eq!(db.footprint_bytes(), model.footprint_bytes());

        let (start, stop) = (q_start, q_start.saturating_add(q_span));
        let core1 = vec![("core".to_string(), "1".to_string())];
        for &m in MEASUREMENTS {
            // Unfiltered full-range, windowed, and tag-filtered queries.
            assert_same_rows(&db, &model, m, &[], None);
            assert_same_rows(&db, &model, m, &[], Some((start, stop)));
            assert_same_rows(&db, &model, m, &core1, Some((start, stop)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// In-order series lose a deleted range as one cut per column. Every
    /// ingest here moves a shared clock forward, so each series stays in
    /// order, and each delete cuts at the head (from 0), in the middle, or
    /// at the tail (to `u64::MAX`) of what the store holds.
    #[test]
    fn in_order_cuts_match_reference_model(
        ops in proptest::collection::vec(
            (0u8..8, 0u8..4, 0u8..4, 0u8..8, 0u64..40, 0u64..1_000),
            1..160,
        ),
    ) {
        let mut db = Db::new();
        let mut model = ModelDb::default();
        let mut now = 0u64;
        for &(kind, m_idx, core, sel, step, at) in &ops {
            now += step;
            if kind < 6 {
                apply_op(&mut db, &mut model, &(kind, m_idx, core, sel, now, 0));
                continue;
            }
            let measurement = MEASUREMENTS[m_idx as usize % MEASUREMENTS.len()];
            let cut = at % (now + 1);
            let (start, stop) = match sel % 3 {
                0 => (0, cut),
                1 => (cut, cut + step),
                _ => (cut, u64::MAX),
            };
            prop_assert_eq!(
                db.delete_range(measurement, start, stop),
                model.delete_range(measurement, start, stop)
            );
            prop_assert_eq!(db.len(), model.rows.len());
            prop_assert_eq!(db.footprint_bytes(), model.footprint_bytes());
        }
        prop_assert_eq!(db.n_series(), model.n_series());
        for &m in MEASUREMENTS {
            assert_same_rows(&db, &model, m, &[], None);
            assert_same_rows(&db, &model, m, &[], Some((now / 3, now / 3 * 2)));
        }
    }
}
