//! # obs — self-observability for the PathFinder pipeline
//!
//! The paper's §5.9 claims PathFinder itself is lightweight (1.3% CPU,
//! 38 MB). Verifying that claim — and finding the hot phases of
//! `Machine::run_epoch`, the four techniques, and `tsdb` ingest — needs
//! telemetry *about the profiler*, kept strictly apart from the telemetry
//! the profiler produces about the machine. This crate is that layer:
//!
//! * [`mod@span`] — RAII phase tracing: `let _s = obs::span!("epoch.machine");`
//!   records nested wall time into a process-wide, thread-safe recorder.
//! * [`metrics`] — named counters, gauges, and fixed-bucket histograms
//!   (p50/p95/p99) for profiler-internal quantities.
//! * [`export`] — human-readable phase tables, Chrome trace-event JSON
//!   (loadable in `chrome://tracing` / Perfetto), and a machine-readable
//!   timings JSON combining phases and metrics.
//! * [`json`] — a minimal JSON value parser so exported artefacts can be
//!   validated without external dependencies.
//!
//! ## Determinism contract
//!
//! Observation never feeds model state or report ordering: every API is
//! read-only with respect to the simulation, and the whole layer is a no-op
//! until [`enable`] is called. When disabled, `span!` takes no timestamp and
//! metric updates return before touching any lock, so model runs with obs
//! off and on are byte-identical (enforced by `tests/obs.rs`). The only
//! wall-clock read in the workspace's model crates lives behind the single
//! choke point in [`clock`], enforced by the root `clippy.toml`
//! (see STATIC_ANALYSIS.md).
//!
//! Naming scheme (see OBSERVABILITY.md): `epoch.*` for machine/profiler
//! epoch phases, `technique.*` for the four PathFinder techniques,
//! `tsdb.*` for the materializer's store.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::string_slice,
        clippy::integer_division_remainder_used,
        clippy::disallowed_macros
    )
)]

use std::sync::atomic::Ordering;

pub mod cli;
pub mod clock;
pub mod export;
pub mod json;
pub mod metrics;
pub mod prom;
pub mod span;

#[expect(
    clippy::disallowed_types,
    reason = "the process-wide enabled flag every recording call checks"
)]
static ENABLED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Turn the observability layer on. Spans and metrics recorded before this
/// call are lost (they were never taken).
pub fn enable() {
    // Pin the clock origin first so the earliest span gets ts >= 0.
    clock::origin_ns();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn the layer off again: subsequent spans/metrics are no-ops. Already
/// recorded data stays available for export.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Is recording currently enabled? This is the zero-cost gate every
/// recording call checks first (one relaxed atomic load).
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Discard all recorded spans and metrics (the enabled flag is untouched).
pub fn reset() {
    span::reset();
    metrics::reset();
}

/// Open a phase span. Expression form: bind the guard to keep the span
/// alive for the scope, or call [`span::SpanGuard::finish`] to close it
/// early and read the measured duration.
///
/// ```
/// obs::enable();
/// {
///     let _s = obs::span!("epoch.machine");
///     // ... the phase ...
/// }
/// assert!(obs::span::phases().iter().any(|p| p.name == "epoch.machine"));
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name)
    };
}

/// Unit tests toggling the global enabled flag serialise on this lock so
/// the parallel test harness cannot interleave enable/disable.
#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "serialises tests on the global recorder"
)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    #[test]
    fn disabled_layer_records_nothing() {
        let _lock = crate::test_lock();
        super::disable();
        super::reset();
        {
            let _s = crate::span!("test.nothing");
        }
        crate::metrics::counter_add("test.nothing", 5);
        assert_eq!(crate::span::total_ns("test.nothing"), 0);
        assert_eq!(crate::metrics::counter_value("test.nothing"), 0);
    }
}
