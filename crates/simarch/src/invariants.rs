//! Conservation invariants for every queue-bearing component.
//!
//! The simulator's credibility rests on flow conservation: every request
//! enqueued at a Clos stage must be dequeued, in flight, or dropped —
//! nothing is created or lost in transit. Each queue-bearing module
//! implements [`Invariants`] and reports any violated conservation laws;
//! [`crate::Machine`] audits the whole hierarchy at every epoch boundary
//! when built with `debug_assertions` or `--features invariants`.
//!
//! The audit-coverage law keeps a component from silently opting out:
//! every queue ([`FifoServer`], [`Coverage`], [`BoundedWindow`]) that
//! `Machine::new` or `Fabric::new` builds is visited by that owner's epoch
//! audit. Debug and `invariants` builds count, per thread, each queue
//! built (by `new`, `Default` or `Clone`) and each queue audited; an owner
//! keeps the count its constructor built as a `QueueCensus`, and its
//! audit reports a violation unless it visited exactly that many. Release
//! builds count nothing, so the law holds trivially there.
//!
//! [`FifoServer`]: crate::queues::FifoServer
//! [`Coverage`]: crate::queues::Coverage
//! [`BoundedWindow`]: crate::queues::BoundedWindow

/// One violated conservation law.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which component the law belongs to (e.g. `"queues::BoundedWindow"`).
    pub component: &'static str,
    /// Human-readable statement of the violated law with observed values.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.component, self.detail)
    }
}

/// A component that can audit its own conservation invariants.
///
/// Implementations must be side-effect free: auditing a component twice in
/// a row yields the same answer and perturbs no simulation state.
pub trait Invariants {
    /// Stable component name used in violation reports.
    fn component(&self) -> &'static str;

    /// Append every currently violated law to `out`. An empty `out` after
    /// the call means the component is conservation-clean.
    fn collect_violations(&self, out: &mut Vec<Violation>);
}

/// Audit one component and panic with the full list if any law is broken.
pub fn assert_invariants(c: &dyn Invariants) {
    let mut v = Vec::new();
    c.collect_violations(&mut v);
    if !v.is_empty() {
        let lines: Vec<String> = v.iter().map(|x| x.to_string()).collect();
        panic!(
            "conservation invariant(s) violated in {}:\n  {}",
            c.component(),
            lines.join("\n  ")
        );
    }
}

/// Per-thread counts of queues built and queues audited.
#[cfg(any(debug_assertions, feature = "invariants"))]
pub(crate) mod census {
    use std::cell::Cell;

    thread_local! {
        static BUILT: Cell<u64> = const { Cell::new(0) };
        static VISITED: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn built() -> u64 {
        BUILT.get()
    }

    pub(crate) fn visited() -> u64 {
        VISITED.get()
    }

    /// Count one queue audit; each queue's `collect_violations` calls it.
    pub(crate) fn visit() {
        VISITED.set(VISITED.get() + 1);
    }

    /// A field of every queue type: building or cloning the queue counts
    /// it as built.
    #[derive(Debug)]
    pub(crate) struct Counted;

    impl Counted {
        pub(crate) fn new() -> Counted {
            BUILT.set(BUILT.get() + 1);
            Counted
        }
    }

    impl Default for Counted {
        fn default() -> Counted {
            Counted::new()
        }
    }

    impl Clone for Counted {
        fn clone(&self) -> Counted {
            Counted::new()
        }
    }
}

/// Release builds count nothing.
#[cfg(not(any(debug_assertions, feature = "invariants")))]
pub(crate) mod census {
    pub(crate) fn built() -> u64 {
        0
    }

    pub(crate) fn visited() -> u64 {
        0
    }

    pub(crate) fn visit() {}
}

/// The queues an owner's constructor built on this thread.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct QueueCensus {
    built: u64,
}

impl QueueCensus {
    /// Queues built so far on this thread: read it before the owner's
    /// constructor runs, then take [`QueueCensus::since`].
    pub(crate) fn mark() -> u64 {
        census::built()
    }

    pub(crate) fn since(mark: u64) -> QueueCensus {
        QueueCensus {
            built: census::built() - mark,
        }
    }

    #[cfg(test)]
    pub(crate) fn built(self) -> u64 {
        self.built
    }

    /// Queue audits so far on this thread: read it before the owner's
    /// audit runs, then [`QueueCensus::check`].
    pub(crate) fn visits() -> u64 {
        census::visited()
    }

    /// The law: report a violation of `component` unless its audit, since
    /// `visits`, visited exactly the queues its constructor built.
    pub(crate) fn check(self, component: &'static str, visits: u64, out: &mut Vec<Violation>) {
        let visited = census::visited() - visits;
        crate::invariant!(
            out,
            component,
            visited == self.built,
            "audit visited {visited} queues, the constructor built {}",
            self.built
        );
    }
}

/// Helper: push a violation when `law` does not hold.
#[macro_export]
macro_rules! invariant {
    ($out:expr, $component:expr, $law:expr, $($fmt:tt)*) => {
        if !$law {
            $out.push($crate::invariants::Violation {
                component: $component,
                detail: format!($($fmt)*),
            });
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Broken;
    impl Invariants for Broken {
        fn component(&self) -> &'static str {
            "test::Broken"
        }
        fn collect_violations(&self, out: &mut Vec<Violation>) {
            invariant!(
                out,
                self.component(),
                1 + 1 == 3,
                "arithmetic drifted: {}",
                2
            );
        }
    }

    struct Clean;
    impl Invariants for Clean {
        fn component(&self) -> &'static str {
            "test::Clean"
        }
        fn collect_violations(&self, _out: &mut Vec<Violation>) {}
    }

    #[test]
    fn clean_component_passes() {
        assert_invariants(&Clean);
    }

    #[test]
    #[should_panic(expected = "conservation invariant")]
    fn broken_component_panics_with_detail() {
        assert_invariants(&Broken);
    }

    /// An owner whose audit skips one of its queues breaks the law.
    #[test]
    #[cfg(any(debug_assertions, feature = "invariants"))]
    fn an_audit_that_skips_a_queue_is_a_violation() {
        use crate::queues::{BoundedWindow, FifoServer};
        let mark = QueueCensus::mark();
        let (server, window) = (FifoServer::new(), BoundedWindow::new(2));
        let census = QueueCensus::since(mark);
        let mut out = Vec::new();
        let visits = QueueCensus::visits();
        server.collect_violations(&mut out);
        window.collect_violations(&mut out);
        census.check("test::Owner", visits, &mut out);
        assert!(out.is_empty(), "{out:?}");
        let visits = QueueCensus::visits();
        server.collect_violations(&mut out);
        census.check("test::Owner", visits, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].to_string(),
            "test::Owner: audit visited 1 queues, the constructor built 2"
        );
    }

    #[test]
    fn violation_display_names_component() {
        let v = Violation {
            component: "x::Y",
            detail: "a != b".into(),
        };
        assert_eq!(v.to_string(), "x::Y: a != b");
    }
}
