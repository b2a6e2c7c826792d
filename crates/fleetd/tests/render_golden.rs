//! Golden bytes for one `/metrics` render: a fixed [`FleetSnapshot`]
//! rendered with an empty obs registry must reproduce
//! `tests/golden/render_metrics.prom` byte for byte. The golden was
//! captured before `obs::prom::PromText` learned to write samples in
//! place and fleets to mangle their family names once.
//!
//! The snapshot covers every registry counter with sums that do not
//! divide evenly by the host count (fractional `_sum` reconstruction),
//! values past 1e15 (float formatting without the integer fast path),
//! zeros, and sparse host ids. obs stays disabled in this binary, so the
//! registry part of the body is the span-drop counter alone.
//!
//! Refresh (only when the exposition format legitimately changes):
//! `FLEETD_GOLDEN_REFRESH=1 cargo test -p fleetd --test render_golden`.

use std::path::PathBuf;
use std::sync::Arc;

use fleetd::aggregate::CounterStat;
use fleetd::server::{fleet_families, render_metrics};
use fleetd::shard::FleetSnapshot;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/render_metrics.prom")
}

fn fixed_snapshot() -> FleetSnapshot {
    let names = fleetd::host::counter_names();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let counters = (0..names.len())
        .map(|i| {
            let sum = match i % 5 {
                0 => 0,
                1 => next() % 1_000,
                2 => next() % 1_000_000_007,
                3 => next() >> 4,
                _ => next(),
            };
            let p50 = sum / 9;
            CounterStat {
                sum,
                p50,
                p95: p50.saturating_mul(2),
                p99: p50.saturating_mul(3),
            }
        })
        .collect();
    FleetSnapshot {
        round: 18,
        hosts: 7,
        epochs: 126,
        points: 126,
        resident_bytes: 1 << 20,
        families: Arc::new(fleet_families(&names)),
        counters,
        headline: vec![
            (0, [12_345, 67_890]),
            (3, [0, 0]),
            (17, [u64::MAX, 1]),
            (4096, [987_654_321, 123_456_789]),
        ],
    }
}

#[test]
fn fixed_snapshot_renders_golden_bytes() {
    let body = render_metrics(&fixed_snapshot());
    if std::env::var_os("FLEETD_GOLDEN_REFRESH").is_some() {
        std::fs::write(golden_path(), &body).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(golden_path())
        .expect("read golden render_metrics.prom (run once with FLEETD_GOLDEN_REFRESH=1)");
    assert!(
        body == want,
        "render_metrics diverged from its golden\n--- golden ---\n{want}\n--- fresh ---\n{body}",
    );
}
