//! Differential test of PFMaterializer's analysis reads. `hit_series`,
//! `orthogonality` and `correlate_cores` merge the time-sorted results of
//! `tsdb` queries in one pass; here they must agree, bit for bit, with a
//! reference that aggregates the same query results through ordered maps.
//!
//! The stores are random and deliberately awkward: 2–3 cores with two apps
//! each (so one (core, dst, path) scope spans several series), duplicate
//! and out-of-order timestamps, non-integer values of mixed magnitude (so
//! the order of additions shows in the bits), and random range deletes.
//!
//! The materializer memoizes its reads until the store changes, so the
//! reads are interleaved with the writes and deletes, each made twice in a
//! row (the second is served from the memo). Once per case `m.db` is
//! replaced wholesale by a twin store that took the same calls with other
//! values: the same number of changes, so only the store's identity tells
//! the two apart.

use std::collections::BTreeMap;

use pathfinder::model::{HitLevel, PathGroup};
use pathfinder::Materializer;
use proptest::prelude::*;
use tsdb::{tsa, Db};

/// The hit levels the generated records land on: two, so each scope
/// gathers many rows.
const LEVELS: [HitLevel; 2] = [HitLevel::LocalLlc, HitLevel::CxlMemory];

/// A non-integer value from raw bits: sign, a magnitude from 1e-4 to 1e15,
/// and a fraction with a repeating binary expansion.
fn value(raw: u64) -> f64 {
    let sign = if raw & 1 == 0 { 1.0 } else { -1.0 };
    let exp = ((raw >> 1) % 20) as i32 - 4;
    let mantissa = ((raw >> 6) % 1000) as f64 / 7.0;
    sign * mantissa * 10f64.powi(exp)
}

/// One scripted operation on the store, decoded from a generated tuple:
/// a `path_set` record, an `app` record, or a range delete. Reads (kinds
/// 8 and 9) leave the store alone.
fn apply(db: &mut Db, cores: usize, op: (u8, u8, u8, u8, u64, u64)) {
    let (kind, core, app, sel, ts, raw) = op;
    let core = (core as usize % cores).to_string();
    let app = format!("app{core}.{}", app % 2);
    match kind {
        0..=4 => {
            let path = PathGroup::ALL[sel as usize % PathGroup::COUNT];
            let level = LEVELS[sel as usize / PathGroup::COUNT % LEVELS.len()];
            let tags = [
                ("core", core.as_str()),
                ("app", app.as_str()),
                ("path", path.label()),
                ("dst", level.label()),
            ];
            let id = db.series_handle("path_set", &tags, &["hits"]);
            db.ingest(id, ts, &[value(raw)]);
        }
        5 | 6 => {
            let id = db.series_handle("app", &[("core", &core), ("app", &app)], &["ops"]);
            db.ingest(id, ts, &[value(raw)]);
        }
        7 => {
            let measurement = if sel % 2 == 0 { "path_set" } else { "app" };
            db.delete_range(measurement, ts, ts + raw % 12);
        }
        _ => {}
    }
}

/// `op` with another value: the twin store takes the same calls.
fn twin_op(op: (u8, u8, u8, u8, u64, u64)) -> (u8, u8, u8, u8, u64, u64) {
    let (kind, core, app, sel, ts, raw) = op;
    (kind, core, app, sel, ts, raw ^ 1 << 6)
}

/// Reference `hit_series`: every path's rows summed per timestamp in an
/// ordered map, path by path in `PathGroup::ALL` order.
fn ref_hit_series(db: &Db, core: usize, level: HitLevel) -> Vec<(u64, f64)> {
    let mut acc: BTreeMap<u64, f64> = BTreeMap::new();
    for p in PathGroup::ALL {
        let rows = db
            .from("path_set")
            .filter("core", core.to_string())
            .filter("dst", level.label())
            .filter("path", p.label())
            .values("hits");
        for (ts, v) in rows {
            *acc.entry(ts).or_insert(0.0) += v;
        }
    }
    acc.into_iter().collect()
}

fn ref_ops_series(db: &Db, core: usize) -> Vec<(u64, f64)> {
    db.from("app")
        .filter("core", core.to_string())
        .values("ops")
}

/// Reference pairing: `b` collected into an ordered map (a later row at a
/// timestamp replaces an earlier one), then looked up for every row of `a`.
fn ref_pearson(a: Vec<(u64, f64)>, b: Vec<(u64, f64)>) -> Option<f64> {
    let mb: BTreeMap<u64, f64> = b.into_iter().collect();
    let (xs, ys): (Vec<f64>, Vec<f64>) = a
        .into_iter()
        .filter_map(|(ts, v)| mb.get(&ts).map(|&w| (v, w)))
        .unzip();
    tsa::pearsonr(&xs, &ys)
}

fn bits(series: &[(u64, f64)]) -> Vec<(u64, u64)> {
    series.iter().map(|&(ts, v)| (ts, v.to_bits())).collect()
}

/// Every read of scopes `a` and `b` at `level`, twice, against the
/// reference on the store as it is now.
fn check_reads(m: &Materializer, a: usize, b: usize, level: HitLevel) -> Result<(), TestCaseError> {
    for _ in 0..2 {
        prop_assert_eq!(
            bits(&m.hit_series(a, level)),
            bits(&ref_hit_series(&m.db, a, level))
        );
        prop_assert_eq!(bits(&m.ops_series(b)), bits(&ref_ops_series(&m.db, b)));
        let want = ref_pearson(
            ref_hit_series(&m.db, a, level),
            ref_hit_series(&m.db, b, level),
        );
        prop_assert_eq!(
            m.correlate_cores(a, b, level).map(f64::to_bits),
            want.map(f64::to_bits)
        );
        let want = ref_pearson(ref_ops_series(&m.db, a), ref_ops_series(&m.db, b));
        prop_assert_eq!(
            m.orthogonality(a, b).map(f64::to_bits),
            want.map(f64::to_bits)
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merged_reads_match_the_ordered_map_reference(
        cores in 2usize..4,
        ops in proptest::collection::vec(
            (0u8..10, 0u8..4, 0u8..2, 0u8..8, 0u64..48, 0u64..1 << 20),
            1..240,
        ),
        replace_at in 0usize..240,
    ) {
        let mut m = Materializer::new();
        let mut twin = Db::new();
        for (i, &op) in ops.iter().enumerate() {
            apply(&mut m.db, cores, op);
            apply(&mut twin, cores, twin_op(op));
            // One core past the populated ones reads an empty scope.
            let (kind, core, _, sel, ..) = op;
            let a = core as usize % (cores + 1);
            let b = sel as usize / LEVELS.len() % (cores + 1);
            let level = LEVELS[sel as usize % LEVELS.len()];
            if kind >= 8 {
                check_reads(&m, a, b, level)?;
            }
            if i == replace_at.min(ops.len() - 1) {
                check_reads(&m, a, b, level)?;
                twin = std::mem::replace(&mut m.db, twin);
                check_reads(&m, a, b, level)?;
            }
        }
        // One core past the populated ones reads an empty scope.
        for level in LEVELS {
            for a in 0..=cores {
                let got = m.hit_series(a, level);
                prop_assert_eq!(bits(&got), bits(&ref_hit_series(&m.db, a, level)));
                prop_assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
                for b in 0..=cores {
                    let want = ref_pearson(
                        ref_hit_series(&m.db, a, level),
                        ref_hit_series(&m.db, b, level),
                    );
                    prop_assert_eq!(
                        m.correlate_cores(a, b, level).map(f64::to_bits),
                        want.map(f64::to_bits),
                        "correlate_cores({}, {}, {:?})", a, b, level
                    );
                }
            }
        }
        for a in 0..=cores {
            for b in 0..=cores {
                let want = ref_pearson(ref_ops_series(&m.db, a), ref_ops_series(&m.db, b));
                prop_assert_eq!(
                    m.orthogonality(a, b).map(f64::to_bits),
                    want.map(f64::to_bits),
                    "orthogonality({}, {})", a, b
                );
            }
        }
    }
}
