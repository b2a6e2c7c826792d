//! The traced run's span recorder.
//!
//! The benchmark times each layer from outside, by wrapping its calls into
//! the layer's public functions in [`time`]. A span records its layer, start,
//! end, parent and epoch. Spans stay on the recording thread: per-layer
//! totals (count, total time, self time, self allocator calls) cover every
//! span, and the first [`SPAN_CAP`] spans are kept for the Chrome trace
//! written when the benchmark ends. Self time is a span's duration minus the
//! part its child spans cover; the same holds for allocator calls.
//!
//! Recording is off unless [`start`] armed it, so the untraced loops that
//! give the end-to-end metrics read no clock here.

use std::cell::RefCell;
use std::fmt::Write as _;

use crate::alloc::allocs;

/// Spans kept per thread for the Chrome trace.
pub const SPAN_CAP: usize = 1 << 16;

/// The layers the benchmark wraps. `Epoch` is the traced loop's root: its
/// self time is the loop's own glue and the tracing cost, not a layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Epoch,
    Simarch,
    Workloads,
    Pmu,
    Builder,
    Estimator,
    Analyzer,
    Ingest,
    Delete,
    Query,
    Round,
    Scrape,
    Render,
}

impl Layer {
    pub const ALL: [Layer; 13] = [
        Layer::Epoch,
        Layer::Simarch,
        Layer::Workloads,
        Layer::Pmu,
        Layer::Builder,
        Layer::Estimator,
        Layer::Analyzer,
        Layer::Ingest,
        Layer::Delete,
        Layer::Query,
        Layer::Round,
        Layer::Scrape,
        Layer::Render,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Epoch => "bench.epoch",
            Layer::Simarch => "simarch.run_epoch",
            Layer::Workloads => "workloads.fill_ops",
            Layer::Pmu => "pmu.delta",
            Layer::Builder => "core.builder",
            Layer::Estimator => "core.estimator",
            Layer::Analyzer => "core.analyzer",
            Layer::Ingest => "core.materializer.ingest",
            Layer::Delete => "tsdb.delete_range",
            Layer::Query => "core.materializer.query",
            Layer::Round => "fleetd.run_round",
            Layer::Scrape => "fleetd.scrape",
            Layer::Render => "fleetd.render_metrics",
        }
    }
}

/// Totals for one layer on one thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerStat {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub self_allocs: u64,
}

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's span list.
    pub parent: Option<usize>,
    pub epoch: u64,
}

/// Everything one thread recorded.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub stats: [LayerStat; Layer::ALL.len()],
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn stat(&self, layer: Layer) -> LayerStat {
        self.stats[layer as usize]
    }

    /// Add another trace's totals (spans are not merged).
    pub fn absorb(&mut self, other: &Trace) {
        for (a, b) in self.stats.iter_mut().zip(other.stats.iter()) {
            a.calls += b.calls;
            a.total_ns += b.total_ns;
            a.self_ns += b.self_ns;
            a.self_allocs += b.self_allocs;
        }
    }
}

struct Open {
    layer: Layer,
    start_ns: u64,
    allocs0: u64,
    child_ns: u64,
    child_allocs: u64,
    slot: Option<usize>,
}

#[derive(Default)]
struct Recorder {
    on: bool,
    epoch: u64,
    stack: Vec<Open>,
    trace: Trace,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Arm recording on this thread with empty totals. Buffers are reserved
/// here so that recording itself never calls the allocator.
pub fn start() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = true;
        r.stack = Vec::with_capacity(16);
        r.trace = Trace {
            spans: Vec::with_capacity(SPAN_CAP),
            ..Trace::default()
        };
    });
}

/// Disarm recording and hand back what this thread recorded.
pub fn stop() -> Trace {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = false;
        std::mem::take(&mut r.trace)
    })
}

/// Tag the spans that follow with an epoch (or round) number.
pub fn set_epoch(epoch: u64) {
    REC.with(|r| r.borrow_mut().epoch = epoch);
}

/// Run `f` inside a span of `layer` when recording is armed.
pub fn time<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !REC.with(|r| r.borrow().on) {
        return f();
    }
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let r = &mut *r;
        let slot = r.trace.spans.len();
        let slot = if slot < SPAN_CAP {
            let parent = r.stack.last().and_then(|o| o.slot);
            r.trace.spans.push(Span {
                layer,
                start_ns: 0,
                end_ns: 0,
                parent,
                epoch: r.epoch,
            });
            Some(slot)
        } else {
            None
        };
        r.stack.push(Open {
            layer,
            start_ns: 0,
            allocs0: allocs(),
            child_ns: 0,
            child_allocs: 0,
            slot,
        });
        let start = obs::clock::now_ns();
        if let Some(open) = r.stack.last_mut() {
            open.start_ns = start;
        }
    });
    let out = f();
    let end = obs::clock::now_ns();
    let a1 = allocs();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let r = &mut *r;
        let Some(open) = r.stack.pop() else { return };
        let dur = end.saturating_sub(open.start_ns);
        let a = a1 - open.allocs0;
        let s = &mut r.trace.stats[open.layer as usize];
        s.calls += 1;
        s.total_ns += dur;
        s.self_ns += dur.saturating_sub(open.child_ns);
        s.self_allocs += a.saturating_sub(open.child_allocs);
        if let Some(i) = open.slot {
            r.trace.spans[i].start_ns = open.start_ns;
            r.trace.spans[i].end_ns = end;
        }
        if let Some(parent) = r.stack.last_mut() {
            parent.child_ns += dur;
            parent.child_allocs += a;
        }
    });
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) for the spans of
/// several threads, one `tid` each.
pub fn chrome_trace(threads: &[&Trace]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    for (tid, t) in threads.iter().enumerate() {
        for s in &t.spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"epoch\": {}, \"parent\": {}}}}}",
                s.layer.name(),
                tid + 1,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.epoch,
                parent
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Self-time table: one row per layer that recorded a span.
pub fn self_time_table(t: &Trace, per: &str, units: u64) -> String {
    let all: u64 = t.stats.iter().map(|s| s.self_ns).sum();
    let mut out = format!(
        "{:<28} {:>10} {:>12} {:>12} {:>7} {:>14}\n",
        "layer",
        "calls",
        "total ms",
        "self ms",
        "self %",
        format!("self ns/{per}")
    );
    for layer in Layer::ALL {
        let s = t.stat(layer);
        if s.calls == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>12.3} {:>12.3} {:>7.2} {:>14.1}",
            layer.name(),
            s.calls,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            100.0 * s.self_ns as f64 / all.max(1) as f64,
            s.self_ns as f64 / units.max(1) as f64
        );
    }
    out
}
