//! Edge cases of the store and query layer: degenerate ranges, singleton
//! series, and footprint accounting across deletes (§5.9 overhead math
//! must stay exact when snapshots are pruned).

use tsdb::Db;

fn seeded() -> Db {
    let mut db = Db::new();
    let hits = db.series_handle("path_set", &[("core", "0")], &["hits"]);
    for t in 0..10u64 {
        db.ingest(hits, t * 100, &[t as f64]);
    }
    let occ = db.series_handle("vertex", &[("hw", "L2")], &["occ"]);
    db.ingest(occ, 42, &[1.0]);
    db
}

#[test]
fn empty_range_matches_nothing() {
    let db = seeded();
    assert_eq!(db.from("path_set").range(500, 500).count(), 0);
    assert!(db.from("path_set").range(0, 0).values("hits").is_empty());
    assert!(db
        .from("path_set")
        .range(500, 500)
        .values("hits")
        .is_empty());
}

#[test]
fn reversed_range_matches_nothing() {
    let db = seeded();
    assert_eq!(db.from("path_set").range(900, 100).count(), 0);
    assert!(db
        .from("path_set")
        .range(u64::MAX, 0)
        .values("hits")
        .is_empty());
}

#[test]
fn single_point_series_is_queryable_at_its_timestamp() {
    let db = seeded();
    // [ts, ts+1) is the tightest half-open window that can hold the point.
    assert_eq!(db.from("vertex").range(42, 43).count(), 1);
    assert_eq!(
        db.from("vertex").range(42, 43).values("occ"),
        vec![(42, 1.0)]
    );
    assert_eq!(db.from("vertex").range(43, 44).count(), 0);
    assert_eq!(db.from("vertex").values("occ"), vec![(42, 1.0)]);
}

#[test]
fn delete_range_removes_only_the_window() {
    let mut db = seeded();
    // Points live at t = 0, 100, ..., 900; delete [200, 500) → 200/300/400.
    let removed = db.delete_range("path_set", 200, 500);
    assert_eq!(removed, 3);
    assert_eq!(db.from("path_set").count(), 7);
    assert_eq!(db.from("path_set").range(200, 500).count(), 0);
    // The other measurement is untouched.
    assert_eq!(db.from("vertex").count(), 1);
    assert_eq!(db.len(), 8);
}

#[test]
fn delete_with_degenerate_range_is_a_no_op() {
    let mut db = seeded();
    let before = db.footprint_bytes();
    assert_eq!(db.delete_range("path_set", 500, 500), 0);
    assert_eq!(db.delete_range("path_set", 900, 100), 0);
    assert_eq!(db.delete_range("nope", 0, u64::MAX), 0);
    assert_eq!(db.len(), 11);
    assert_eq!(db.footprint_bytes(), before);
}

#[test]
fn footprint_shrinks_with_deletes_and_returns_key_bytes_when_a_series_empties() {
    let mut db = Db::new();
    let empty = db.footprint_bytes();
    let h = db.series_handle("m", &[("core", "0")], &["x"]);
    for t in 0..5u64 {
        db.ingest(h, t, &[t as f64]);
    }
    let full = db.footprint_bytes();
    assert!(full > empty);

    // A partial delete frees the points' bytes but keeps the series key.
    let mid = {
        db.delete_range("m", 0, 2);
        db.footprint_bytes()
    };
    assert!(mid < full);
    assert_eq!(db.n_series(), 1);

    // Deleting the rest empties the series: its key bytes come back too,
    // restoring the footprint to the empty-store baseline exactly.
    db.delete_range("m", 0, u64::MAX);
    assert_eq!(db.len(), 0);
    assert_eq!(db.n_series(), 0);
    assert_eq!(db.footprint_bytes(), empty);
}

#[test]
fn deleted_window_can_be_repopulated() {
    let mut db = seeded();
    db.delete_range("path_set", 0, u64::MAX);
    assert_eq!(db.from("path_set").count(), 0);
    let h = db.series_handle("path_set", &[("core", "0")], &["hits"]);
    db.ingest(h, 100, &[9.0]);
    assert_eq!(db.from("path_set").values("hits"), vec![(100, 9.0)]);
}
