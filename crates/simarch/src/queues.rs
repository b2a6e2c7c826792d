//! Timing primitives: FIFO servers, occupancy coverage, bounded windows.
//!
//! These three small structures carry the whole timing model:
//!
//! * [`FifoServer`] — a work-conserving server with a fixed service latency
//!   and an issue gap (1/bandwidth). Queueing delay emerges from
//!   `start = max(arrival, next_free)`, which for deterministic service is
//!   exactly a G/D/1 queue.
//! * [`Coverage`] — a union-of-intervals accumulator that turns per-request
//!   residency intervals into "cycles the queue was non-empty" counters
//!   (`unc_m_rpq_cycles_ne`, `unc_m2p_rxc_cycles_ne`,
//!   `unc_cxlcm_rxc_pack_buf_ne.*`, TOR threshold1).
//! * [`BoundedWindow`] — a finite set of in-flight entries (SB, LFB, super
//!   queue). When full, the next acquisition blocks until the earliest
//!   in-flight entry completes; the blocked cycles are the PMU's
//!   `resource_stalls.sb` / `l1d_pend_miss.fb_full` stalls.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::invariant;
use crate::invariants::{census, Invariants, Violation};

/// A FIFO server with deterministic service time and issue gap.
#[derive(Clone, Debug, Default)]
pub struct FifoServer {
    next_free: u64,
    /// Total busy (serving) cycles — for utilisation accounting.
    busy: u64,
    /// Total queueing delay imposed on requests.
    queue_delay: u64,
    /// Requests served.
    served: u64,
    #[cfg(any(debug_assertions, feature = "invariants"))]
    _counted: census::Counted,
}

/// The outcome of offering a request to a [`FifoServer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Service {
    /// When the server began working on the request (≥ arrival).
    pub start: u64,
    /// When the response is ready.
    pub finish: u64,
}

impl Service {
    /// Queueing delay experienced before service began.
    pub fn wait(&self, arrival: u64) -> u64 {
        self.start - arrival
    }
}

impl FifoServer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Offer a request arriving at `arrival`; the server occupies its issue
    /// slot for `gap` cycles and the response is ready after `service`
    /// cycles (`service >= gap` is typical: latency ≥ 1/bandwidth).
    pub fn serve(&mut self, arrival: u64, service: u64, gap: u64) -> Service {
        let start = arrival.max(self.next_free);
        self.next_free = start + gap;
        self.busy += gap;
        self.queue_delay += start - arrival;
        self.served += 1;
        Service {
            start,
            finish: start + service,
        }
    }

    /// The earliest cycle a new request could start service.
    pub fn next_free(&self) -> u64 {
        self.next_free
    }

    /// Push the issue horizon out to at least `cycle` without serving
    /// anything — a transient stall (fault injection, firmware pause). The
    /// blocked cycles surface as queueing delay on whatever arrives next;
    /// no busy time is charged because the server did no work.
    pub fn block_until(&mut self, cycle: u64) {
        self.next_free = self.next_free.max(cycle);
    }

    /// Total cycles spent serving (busy time).
    pub fn busy_cycles(&self) -> u64 {
        self.busy
    }

    /// Total queueing delay imposed so far.
    pub fn total_queue_delay(&self) -> u64 {
        self.queue_delay
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.served
    }
}

impl Invariants for FifoServer {
    fn component(&self) -> &'static str {
        "queues::FifoServer"
    }

    fn collect_violations(&self, out: &mut Vec<Violation>) {
        census::visit();
        // Work conservation: the server cannot have been busy for longer
        // than its issue horizon (idle gaps only push next_free further).
        invariant!(
            out,
            self.component(),
            self.busy <= self.next_free,
            "busy cycles exceed issue horizon: busy={} next_free={}",
            self.busy,
            self.next_free
        );
        // Nothing served ⇒ no busy time and no queueing delay charged.
        invariant!(
            out,
            self.component(),
            self.served > 0 || (self.busy == 0 && self.queue_delay == 0),
            "idle server accumulated work: busy={} queue_delay={}",
            self.busy,
            self.queue_delay
        );
    }
}

/// Union-of-intervals accumulator.
///
/// Exact when intervals are added in non-decreasing start order (the
/// simulator's per-resource residency intervals are); degrades gracefully
/// (never over-counts) otherwise.
#[derive(Clone, Debug, Default)]
pub struct Coverage {
    covered: u64,
    covered_until: u64,
    #[cfg(any(debug_assertions, feature = "invariants"))]
    _counted: census::Counted,
}

impl Coverage {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add the half-open interval `[start, end)`.
    pub fn add(&mut self, start: u64, end: u64) {
        if end <= start {
            return;
        }
        if start >= self.covered_until {
            self.covered += end - start;
            self.covered_until = end;
        } else if end > self.covered_until {
            self.covered += end - self.covered_until;
            self.covered_until = end;
        }
    }

    /// Total covered cycles.
    pub fn total(&self) -> u64 {
        self.covered
    }
}

impl Invariants for Coverage {
    fn component(&self) -> &'static str {
        "queues::Coverage"
    }

    fn collect_violations(&self, out: &mut Vec<Violation>) {
        census::visit();
        // A union of intervals inside [0, covered_until) can never cover
        // more than covered_until cycles.
        invariant!(
            out,
            self.component(),
            self.covered <= self.covered_until,
            "covered cycles exceed high water: covered={} until={}",
            self.covered,
            self.covered_until
        );
    }
}

/// A finite window of in-flight entries keyed by completion cycle.
#[derive(Clone, Debug)]
pub struct BoundedWindow {
    capacity: usize,
    inflight: BinaryHeap<Reverse<u64>>,
    /// Entries admitted (committed) over the window's lifetime.
    committed: u64,
    /// Entries retired (completed and dropped) over the window's lifetime.
    retired: u64,
    #[cfg(any(debug_assertions, feature = "invariants"))]
    _counted: census::Counted,
}

/// Result of acquiring a window slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Admission {
    /// When the slot became available (≥ request time).
    pub at: u64,
    /// Cycles the requester was blocked waiting for a slot.
    pub blocked: u64,
}

impl BoundedWindow {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        BoundedWindow {
            capacity,
            inflight: BinaryHeap::new(),
            committed: 0,
            retired: 0,
            #[cfg(any(debug_assertions, feature = "invariants"))]
            _counted: census::Counted::new(),
        }
    }

    /// Drop entries that completed at or before `now`.
    fn retire(&mut self, now: u64) {
        while let Some(&Reverse(f)) = self.inflight.peek() {
            if f <= now {
                self.inflight.pop();
                self.retired += 1;
            } else {
                break;
            }
        }
    }

    /// Acquire a slot at `now`, blocking (in simulated time) until one frees
    /// if the window is full. The caller must follow up with
    /// [`Self::commit`] once it knows the entry's completion cycle.
    pub fn acquire(&mut self, now: u64) -> Admission {
        self.retire(now);
        if self.inflight.len() < self.capacity {
            return Admission {
                at: now,
                blocked: 0,
            };
        }
        // Window full: wait for the earliest completion.
        let Reverse(earliest) = self.inflight.pop().expect("full window is non-empty");
        self.retired += 1;
        debug_assert!(earliest > now);
        Admission {
            at: earliest,
            blocked: earliest - now,
        }
    }

    /// Register the completion time of the entry admitted by the last
    /// [`Self::acquire`].
    pub fn commit(&mut self, finish: u64) {
        self.committed += 1;
        self.inflight.push(Reverse(finish));
    }

    /// Entries still in flight at `now`.
    pub fn outstanding(&mut self, now: u64) -> usize {
        self.retire(now);
        self.inflight.len()
    }

    /// The earliest in-flight completion, if any.
    pub fn earliest(&self) -> Option<u64> {
        self.inflight.peek().map(|Reverse(f)| *f)
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries admitted over the window's lifetime.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Entries retired over the window's lifetime.
    pub fn retired(&self) -> u64 {
        self.retired
    }
}

impl Invariants for BoundedWindow {
    fn component(&self) -> &'static str {
        "queues::BoundedWindow"
    }

    fn collect_violations(&self, out: &mut Vec<Violation>) {
        census::visit();
        // Flow conservation: every entry ever committed is either retired
        // or still in flight — the window neither creates nor loses them.
        invariant!(
            out,
            self.component(),
            self.committed == self.retired + self.inflight.len() as u64,
            "flow not conserved: committed={} retired={} in_flight={}",
            self.committed,
            self.retired,
            self.inflight.len()
        );
        // The finite window can never hold more than its capacity.
        invariant!(
            out,
            self.component(),
            self.inflight.len() <= self.capacity,
            "occupancy exceeds capacity: in_flight={} capacity={}",
            self.inflight.len(),
            self.capacity
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_serves_immediately() {
        let mut s = FifoServer::new();
        let r = s.serve(100, 50, 10);
        assert_eq!(
            r,
            Service {
                start: 100,
                finish: 150
            }
        );
        assert_eq!(r.wait(100), 0);
    }

    #[test]
    fn back_to_back_requests_queue_at_gap_rate() {
        let mut s = FifoServer::new();
        let a = s.serve(0, 50, 10);
        let b = s.serve(0, 50, 10);
        let c = s.serve(0, 50, 10);
        assert_eq!(a.start, 0);
        assert_eq!(b.start, 10);
        assert_eq!(c.start, 20);
        assert_eq!(c.wait(0), 20);
        assert_eq!(s.total_queue_delay(), 30);
        assert_eq!(s.served(), 3);
    }

    #[test]
    fn server_goes_idle_between_sparse_arrivals() {
        let mut s = FifoServer::new();
        s.serve(0, 50, 10);
        let b = s.serve(1000, 50, 10);
        assert_eq!(b.start, 1000);
        assert_eq!(s.busy_cycles(), 20);
    }

    #[test]
    fn block_until_stalls_later_arrivals_without_busy_time() {
        let mut s = FifoServer::new();
        s.serve(0, 50, 10);
        s.block_until(500);
        // The stall is pure queueing delay: no busy cycles were added and
        // the next request waits for the horizon.
        assert_eq!(s.busy_cycles(), 10);
        let r = s.serve(100, 50, 10);
        assert_eq!(r.start, 500);
        assert_eq!(r.wait(100), 400);
        // A horizon already past `cycle` is left alone.
        s.block_until(200);
        assert_eq!(s.next_free(), 510);
    }

    #[test]
    fn coverage_merges_overlaps() {
        let mut c = Coverage::new();
        c.add(0, 10);
        c.add(5, 15); // overlap: adds 5
        c.add(20, 30); // gap: adds 10
        c.add(25, 27); // fully inside: adds 0
        assert_eq!(c.total(), 25);
    }

    #[test]
    fn coverage_ignores_empty_intervals() {
        let mut c = Coverage::new();
        c.add(10, 10);
        c.add(10, 5);
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn window_blocks_when_full() {
        let mut w = BoundedWindow::new(2);
        let a = w.acquire(0);
        assert_eq!(a, Admission { at: 0, blocked: 0 });
        w.commit(100);
        let b = w.acquire(0);
        assert_eq!(b.blocked, 0);
        w.commit(200);
        // Full now; next acquire at t=10 must wait for the t=100 completion.
        let c = w.acquire(10);
        assert_eq!(
            c,
            Admission {
                at: 100,
                blocked: 90
            }
        );
        w.commit(300);
        assert_eq!(w.outstanding(150), 2); // 200 and 300 remain
    }

    #[test]
    fn window_retires_completed_entries() {
        let mut w = BoundedWindow::new(1);
        w.acquire(0);
        w.commit(50);
        // At t=60 the single slot is free again.
        let a = w.acquire(60);
        assert_eq!(a.blocked, 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_window_rejected() {
        let _ = BoundedWindow::new(0);
    }

    // ---- backpressure edges (module-level, no Machine involved) ---------

    #[test]
    fn full_window_rejects_until_earliest_completion() {
        let mut w = BoundedWindow::new(3);
        for fin in [100, 200, 300] {
            let a = w.acquire(0);
            assert_eq!(a.blocked, 0);
            w.commit(fin);
        }
        // Full: each further acquire is pushed to the earliest completion,
        // in completion order, never earlier.
        let a = w.acquire(0);
        assert_eq!(
            a,
            Admission {
                at: 100,
                blocked: 100
            }
        );
        w.commit(400);
        let b = w.acquire(0);
        assert_eq!(
            b,
            Admission {
                at: 200,
                blocked: 200
            }
        );
        w.commit(500);
        let c = w.acquire(250);
        assert_eq!(
            c,
            Admission {
                at: 300,
                blocked: 50
            }
        );
    }

    #[test]
    fn window_drains_in_completion_order() {
        let mut w = BoundedWindow::new(4);
        // Commit out of order; the window must retire earliest-first.
        for fin in [400, 100, 300, 200] {
            w.acquire(0);
            w.commit(fin);
        }
        assert_eq!(w.earliest(), Some(100));
        assert_eq!(w.outstanding(150), 3);
        assert_eq!(w.earliest(), Some(200));
        assert_eq!(w.outstanding(350), 1);
        assert_eq!(w.earliest(), Some(400));
        assert_eq!(w.outstanding(400), 0);
        assert_eq!(w.retired(), w.committed());
    }

    #[test]
    fn window_credit_returns_exactly_one_slot_per_retirement() {
        let mut w = BoundedWindow::new(2);
        w.acquire(0);
        w.commit(100);
        w.acquire(0);
        w.commit(100);
        // Both entries retire at the same cycle; both credits come back, and
        // the two freed slots admit exactly two requests without blocking.
        let a = w.acquire(100);
        assert_eq!(a.blocked, 0);
        w.commit(250);
        let b = w.acquire(100);
        assert_eq!(b.blocked, 0);
        w.commit(250);
        // Third request finds no credit until t=250.
        let c = w.acquire(100);
        assert_eq!(
            c,
            Admission {
                at: 250,
                blocked: 150
            }
        );
    }
}
