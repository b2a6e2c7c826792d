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
//!
//! `render_metrics` writes the fleet part from text built once per fleet
//! ([`FleetText`]). [`reference`] is the render it replaced, which wrote
//! every sample through `PromText`; a property test requires the same
//! bytes from both on random snapshots, after random registry parts that
//! type some of the fleet's own families.

use std::path::PathBuf;
use std::sync::Arc;

use fleetd::aggregate::CounterStat;
use fleetd::server::{render_fleet, render_metrics, FleetText};
use fleetd::shard::FleetSnapshot;
use obs::metrics::HistSnapshot;
use obs::prom::PromText;
use proptest::prelude::*;

/// The fleet part as `render_metrics` wrote it before the fleet text was
/// built once: each counter's summary and each host counter through
/// `PromText`, which types a family on its first sample.
fn reference(mut w: PromText, snap: &FleetSnapshot, names: &[String]) -> String {
    let hosts = snap.hosts;
    for (name, stat) in names.iter().zip(snap.counters.iter()) {
        let mean = if hosts == 0 {
            0.0
        } else {
            stat.sum as f64 / hosts as f64
        };
        let h = HistSnapshot {
            count: hosts,
            min: 0,
            max: stat.p99,
            mean,
            p50: stat.p50,
            p95: stat.p95,
            p99: stat.p99,
        };
        w.summary(&format!("fleet.{name}"), &[], &h);
    }
    for (host, [inst, cycles]) in &snap.headline {
        let id = host.to_string();
        w.counter("host.inst_retired.any", &[("host", &id)], *inst);
        w.counter("host.cpu_clk_unhalted.thread", &[("host", &id)], *cycles);
    }
    w.into_string()
}

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
        text: Arc::new(FleetText::new(&names)),
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

/// The committed snapshot renders as the reference does too.
#[test]
fn fixed_snapshot_renders_as_the_reference() {
    let names = fleetd::host::counter_names();
    let snap = fixed_snapshot();
    let mut w = PromText::new();
    w.render_registry();
    assert_eq!(render_metrics(&snap), reference(w, &snap, &names));
}

/// Families a registry part may type, some of them the fleet's own: a
/// counter column's summary family and both host families.
const REGISTRY: [&str; 5] = [
    "fleetd.rounds",
    "fleet.inst_retired.any",
    "fleet.l2_rqsts.all_demand_miss",
    "host.inst_retired.any",
    "host.cpu_clk_unhalted.thread",
];

/// A registry part typing the `REGISTRY` families that `mask` picks,
/// counters on even bits and gauges on odd ones.
fn registry_part(mask: u32) -> PromText {
    let mut w = PromText::new();
    for (bit, name) in REGISTRY.iter().enumerate() {
        match (mask >> (2 * bit)) & 3 {
            1 => w.counter(name, &[], 1),
            2 => w.gauge(name, &[], 0.5),
            _ => {}
        }
    }
    w
}

/// A random snapshot of `hosts` hosts: sparse ids (the last one
/// `u32::MAX` on some seeds), and counter values drawn from 0, `u64::MAX`
/// and random ones, so that sums seldom divide by the host count.
fn random_snapshot(names: &[String], hosts: usize, seed: u64) -> FleetSnapshot {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut value = move || match next() & 3 {
        0 => 0,
        1 => u64::MAX,
        2 => next() % 1_000_003,
        _ => next(),
    };
    let counters = names
        .iter()
        .map(|_| CounterStat {
            sum: value(),
            p50: value(),
            p95: value(),
            p99: value(),
        })
        .collect();
    let mut id = 0u32;
    let mut headline: Vec<(u32, [u64; 2])> = (0..hosts)
        .map(|_| {
            id += 1 + (value() % 1_000) as u32;
            (id, [value(), value()])
        })
        .collect();
    if let Some(last) = headline.last_mut().filter(|_| seed & 1 == 0) {
        last.0 = u32::MAX;
    }
    FleetSnapshot {
        round: seed,
        hosts: hosts as u64,
        epochs: 0,
        points: 0,
        resident_bytes: 0,
        text: Arc::new(FleetText::new(names)),
        counters,
        headline,
    }
}

proptest! {
    #[test]
    fn render_matches_the_reference_on_random_snapshots(
        hosts in 0usize..=300,
        seed in 0u64..u64::MAX,
        mask in 0u32..1 << (2 * REGISTRY.len()),
    ) {
        let names = fleetd::host::counter_names();
        let snap = random_snapshot(&names, hosts, seed);
        let got = render_fleet(registry_part(mask), &snap);
        let want = reference(registry_part(mask), &snap, &names);
        prop_assert!(got == want, "hosts {hosts}, seed {seed}, mask {mask:#x}");
    }
}
