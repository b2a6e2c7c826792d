//! Span-based phase tracing: RAII guards record nested wall time into a
//! process-wide recorder.
//!
//! A span is opened with [`crate::span!`] and closed when the guard drops
//! (or explicitly via [`SpanGuard::finish`], which also hands back the
//! measured duration — the profiler's `Overhead` accounting is built on
//! that). Every closed span updates two structures under one lock:
//!
//! * an **aggregate** per span name (count, total, max, a log2 latency
//!   histogram, and the minimum nesting depth observed), feeding the phase
//!   table and timings JSON;
//! * an **event list** (name, thread, start, duration, depth), feeding the
//!   Chrome trace export. The list is capped; overflow increments a
//!   dropped-events counter instead of growing without bound.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::Duration;

use crate::clock;
use crate::metrics::{HistSnapshot, Histogram};

/// Cap on retained trace events (~44 MB at the `SpanEvent` size); beyond
/// it spans still aggregate but no longer appear in the Chrome trace.
pub const EVENT_CAP: usize = 1 << 20;

/// One closed span, as exported to Chrome trace JSON.
#[derive(Clone, Copy, Debug)]
pub struct SpanEvent {
    pub name: &'static str,
    /// Dense per-process thread id (first thread to record = 1).
    pub tid: u64,
    /// Start, nanoseconds since the clock origin.
    pub ts_ns: u64,
    pub dur_ns: u64,
    /// Nesting depth at open (0 = outermost span on its thread).
    pub depth: u32,
}

struct PhaseStat {
    count: u64,
    total_ns: u64,
    max_ns: u64,
    min_depth: u32,
    hist: Histogram,
}

/// Aggregated view of one span name.
#[derive(Clone, Debug)]
pub struct PhaseSnapshot {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
    /// Minimum nesting depth this phase was observed at.
    pub depth: u32,
    pub hist: HistSnapshot,
}

#[derive(Default)]
struct Recorder {
    events: Vec<SpanEvent>,
    dropped: u64,
    agg: BTreeMap<&'static str, PhaseStat>,
}

#[expect(
    clippy::disallowed_types,
    reason = "the process-wide recorder; spans close on any thread"
)]
static RECORDER: std::sync::Mutex<Option<Recorder>> = std::sync::Mutex::new(None);
#[expect(clippy::disallowed_types, reason = "dense thread ids across threads")]
static NEXT_TID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

thread_local! {
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn thread_id() -> u64 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            return v;
        }
        let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

fn with_recorder<R>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    let mut guard = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(Recorder::default))
}

struct ActiveSpan {
    name: &'static str,
    start_ns: u64,
    depth: u32,
}

/// The RAII guard returned by [`crate::span!`]. Closing records the span;
/// a guard opened while the layer was disabled records nothing.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    pub fn enter(name: &'static str) -> SpanGuard {
        if !crate::is_enabled() {
            return SpanGuard { active: None };
        }
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        SpanGuard {
            active: Some(ActiveSpan {
                name,
                start_ns: clock::now_ns(),
                depth,
            }),
        }
    }

    /// Close the span now and return the measured duration (`None` when the
    /// guard was opened with the layer disabled).
    pub fn finish(mut self) -> Option<Duration> {
        self.close()
    }

    fn close(&mut self) -> Option<Duration> {
        let span = self.active.take()?;
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let dur_ns = clock::now_ns().saturating_sub(span.start_ns);
        let event = SpanEvent {
            name: span.name,
            tid: thread_id(),
            ts_ns: span.start_ns,
            dur_ns,
            depth: span.depth,
        };
        with_recorder(|r| {
            if r.events.len() < EVENT_CAP {
                r.events.push(event);
            } else {
                r.dropped += 1;
            }
            if let Some(s) = r.agg.get_mut(span.name) {
                s.count += 1;
                s.total_ns += dur_ns;
                s.max_ns = s.max_ns.max(dur_ns);
                s.min_depth = s.min_depth.min(span.depth);
                s.hist.record(dur_ns);
            } else {
                let mut hist = Histogram::default();
                hist.record(dur_ns);
                r.agg.insert(
                    span.name,
                    PhaseStat {
                        count: 1,
                        total_ns: dur_ns,
                        max_ns: dur_ns,
                        min_depth: span.depth,
                        hist,
                    },
                );
            }
        });
        Some(Duration::from_nanos(dur_ns))
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

/// Aggregated phases, name-sorted.
pub fn phases() -> Vec<PhaseSnapshot> {
    with_recorder(|r| {
        r.agg
            .iter()
            .map(|(&name, s)| PhaseSnapshot {
                name: name.to_string(),
                count: s.count,
                total_ns: s.total_ns,
                max_ns: s.max_ns,
                depth: s.min_depth,
                hist: s.hist.snapshot(),
            })
            .collect()
    })
}

/// All retained trace events, in completion order.
pub fn events() -> Vec<SpanEvent> {
    with_recorder(|r| r.events.clone())
}

/// Events lost to the [`EVENT_CAP`].
pub fn dropped_events() -> u64 {
    with_recorder(|r| r.dropped)
}

/// Total recorded nanoseconds of one phase name (0 if never seen).
pub fn total_ns(name: &str) -> u64 {
    with_recorder(|r| r.agg.get(name).map_or(0, |s| s.total_ns))
}

/// Drop all recorded spans.
pub fn reset() {
    let mut guard = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    *guard = None;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_measures_and_aggregates() {
        let _lock = crate::test_lock();
        crate::enable();
        reset();
        {
            let outer = SpanGuard::enter("t.outer");
            for _ in 0..3 {
                let _inner = SpanGuard::enter("t.inner");
            }
            outer.finish().expect("enabled span yields a duration");
        }
        let phases = phases();
        let outer = phases.iter().find(|p| p.name == "t.outer").unwrap();
        let inner = phases.iter().find(|p| p.name == "t.inner").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 3);
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(inner.total_ns <= outer.total_ns);
        crate::disable();
    }

    #[test]
    fn depth_rebalances_after_drop() {
        let _lock = crate::test_lock();
        crate::enable();
        {
            let _a = SpanGuard::enter("t.depth");
        }
        {
            let b = SpanGuard::enter("t.depth2");
            assert_eq!(b.active.as_ref().unwrap().depth, 0);
        }
        crate::disable();
    }
}
