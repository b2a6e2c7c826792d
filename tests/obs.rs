//! Integration tests for the observability layer (ISSUE 2 acceptance):
//!
//! * nested spans aggregate correctly and the Chrome trace round-trips
//!   through the minimal JSON parser;
//! * an end-to-end profile with obs enabled renders byte-identically to
//!   one with obs disabled (observation never perturbs the model);
//! * histogram percentile edge cases (empty, single sample, saturated
//!   bucket) behave.
//!
//! The obs recorder is process-global, so every test that enables or
//! resets it serialises on [`obs_lock`].

use pathfinder::profiler::{ProfileSpec, Profiler};
use simarch::trace::SeqReadTrace;
use simarch::{Machine, MachineConfig, MemPolicy, Workload};

/// Serialise tests that touch the global recorder. The lock is the one
/// sanctioned shared-state exception in the test tree.
#[expect(
    clippy::disallowed_types,
    reason = "the obs recorder is process-global; its tests take turns"
)]
fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn run_stream(ops: usize) -> String {
    let mut m = Machine::new(MachineConfig::tiny());
    m.attach(
        0,
        Workload::new(
            "stream",
            Box::new(SeqReadTrace::new(1 << 20, ops)),
            MemPolicy::Cxl,
        ),
    );
    let mut p = Profiler::new(m, ProfileSpec::default());
    p.run(500).render()
}

#[test]
fn nested_spans_aggregate_and_chrome_trace_round_trips() {
    let _l = obs_lock();
    obs::reset();
    obs::enable();
    {
        let _outer = obs::span!("t.outer");
        for _ in 0..2 {
            let _inner = obs::span!("t.inner");
        }
    }
    obs::disable();

    let phases = obs::span::phases();
    let outer = phases.iter().find(|p| p.name == "t.outer").expect("outer");
    let inner = phases.iter().find(|p| p.name == "t.inner").expect("inner");
    assert_eq!(outer.count, 1);
    assert_eq!(inner.count, 2);
    assert_eq!(outer.depth, 0, "top-level spans sit at depth 0");
    assert_eq!(inner.depth, 1, "inner spans nest one level below outer");
    assert!(
        outer.total_ns >= inner.total_ns,
        "an enclosing span covers its children: outer {} < inner {}",
        outer.total_ns,
        inner.total_ns
    );

    // The Chrome trace must parse with the bundled minimal parser and
    // carry one complete event per guard, with nesting depth in args.
    let trace = obs::json::parse(&obs::export::chrome_trace_json()).expect("valid trace JSON");
    let events = trace
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert_eq!(events.len(), 3);
    for ev in events {
        assert_eq!(ev.get("ph").and_then(|v| v.as_str()), Some("X"));
        let name = ev.get("name").and_then(|v| v.as_str()).unwrap();
        let depth = ev
            .get("args")
            .and_then(|a| a.get("depth"))
            .and_then(|v| v.as_f64())
            .unwrap();
        match name {
            "t.outer" => assert_eq!(depth, 0.0),
            "t.inner" => assert_eq!(depth, 1.0),
            other => panic!("unexpected event {other}"),
        }
    }

    // The timings JSON validates, with both phases present.
    let timings = obs::export::timings_json();
    let found = obs::export::validate_timings(&timings, &["t.outer", "t.inner"])
        .expect("timings JSON validates");
    assert!(found.contains(&"t.outer".to_string()));
    obs::reset();
}

#[test]
fn report_is_byte_identical_with_obs_on_and_off() {
    let _l = obs_lock();
    obs::reset();
    obs::disable();
    let plain = run_stream(30_000);

    obs::reset();
    obs::enable();
    let observed = run_stream(30_000);
    obs::disable();

    assert!(
        !obs::span::phases().is_empty(),
        "instrumented run must actually record spans"
    );
    assert_eq!(
        plain, observed,
        "observation must never change the rendered report"
    );
    obs::reset();
}

#[test]
fn observed_run_covers_the_wall_time() {
    let _l = obs_lock();
    obs::reset();
    obs::enable();
    let _ = run_stream(30_000);
    obs::disable();

    // The two top-level phases must exist and explain >= 90% of the
    // observed window (ISSUE 2 acceptance).
    assert!(obs::span::total_ns("epoch.machine") > 0);
    let phases = obs::span::phases();
    assert!(phases.iter().any(|p| p.name == "epoch.profiler"));
    let cov = obs::export::coverage();
    assert!(cov >= 0.9, "phase coverage {cov:.3} below 0.9");
    assert_eq!(obs::span::dropped_events(), 0);
    obs::reset();
}

#[test]
fn span_buffer_overflow_keeps_aggregating_and_reports_drops() {
    let _l = obs_lock();
    obs::reset();
    obs::enable();

    // Push past the 2^20-event cap: every span keeps aggregating into the
    // phase stats, but the event list stops growing and counts the drops.
    let extra: u64 = 1024;
    let total = obs::span::EVENT_CAP as u64 + extra;
    for _ in 0..total {
        let _s = obs::span!("t.flood");
    }
    obs::disable();

    let phases = obs::span::phases();
    let flood = phases.iter().find(|p| p.name == "t.flood").expect("flood");
    assert_eq!(
        flood.count, total,
        "aggregates must keep counting past the event cap"
    );
    let dropped = obs::span::dropped_events();
    assert_eq!(dropped, extra, "exactly the overflow is dropped");

    // The drop count surfaces in the phase-table footer...
    let table = obs::export::phase_table();
    assert!(
        table.contains(&format!("({dropped} dropped)")),
        "footer must report drops: {table}"
    );

    // ...and in the timings JSON.
    let timings = obs::export::timings_json();
    let doc = obs::json::parse(&timings).expect("timings parse");
    let reported = doc
        .get("dropped_events")
        .and_then(|v| v.as_f64())
        .expect("dropped_events field");
    assert_eq!(reported as u64, dropped);

    obs::reset();
    assert_eq!(obs::span::dropped_events(), 0, "reset clears the counter");
}

#[test]
fn histogram_percentile_edge_cases() {
    let _l = obs_lock();
    obs::reset();
    obs::enable();

    // Empty: never-observed histograms simply don't exist.
    assert!(obs::metrics::histogram_snapshot("t.empty").is_none());

    // Single sample: every percentile is exactly that sample.
    obs::metrics::observe("t.single", 1234);
    let h = obs::metrics::histogram_snapshot("t.single").expect("single");
    assert_eq!(h.count, 1);
    assert_eq!((h.min, h.max), (1234, 1234));
    assert_eq!((h.p50, h.p95, h.p99), (1234, 1234, 1234));

    // Saturated top bucket: u64::MAX lands in the last bucket and the
    // percentile clamps to the observed max instead of overflowing.
    obs::metrics::observe("t.sat", u64::MAX);
    obs::metrics::observe("t.sat", u64::MAX - 1);
    let h = obs::metrics::histogram_snapshot("t.sat").expect("sat");
    assert_eq!(h.count, 2);
    assert_eq!(h.max, u64::MAX);
    assert!(h.p99 >= u64::MAX - 1);

    obs::disable();
    obs::reset();
}
