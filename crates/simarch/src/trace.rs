//! Workload attachment: trace sources and thread descriptors.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::arena::OpRing;
use crate::config::MemPolicy;
use crate::request::MemOp;

/// A stream of memory operations — the program under profile.
///
/// Implementations must be deterministic: the `workloads` crate seeds every
/// generator explicitly. The `Send` bound lets whole machines migrate into
/// long-lived shard worker threads (fleetd) — generators are plain seeded
/// state, so this costs implementors nothing.
pub trait TraceSource: Send {
    /// The next operation, or `None` when the program finishes.
    fn next_op(&mut self) -> Option<MemOp>;

    /// Virtual address-space size this trace touches, in bytes. The machine
    /// sizes the thread's page table from this.
    fn footprint(&self) -> usize;

    /// Decode up to `max` ops into `ring`, returning how many were pushed.
    /// `0` means the trace is finished (a [`TraceSource`] is terminal: once
    /// `next_op` returns `None` it stays `None`).
    ///
    /// The machine calls this once per chunk through the
    /// `Box<dyn TraceSource>`, replacing one virtual call per op with one
    /// per chunk. Default methods are monomorphized per implementing type,
    /// so the `next_op` calls *inside* this body dispatch statically even
    /// when invoked through the trait object.
    // Chunk refill of the machine's per-op pull.
    fn fill_ops(&mut self, ring: &mut OpRing, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            let Some(op) = self.next_op() else { break };
            ring.push(op);
            n += 1;
        }
        n
    }
}

/// A workload thread pinned to a core with a memory placement policy
/// (the paper's "running environment": pinned cores + mapped memory nodes).
pub struct Workload {
    /// Report label, e.g. `"519.lbm_r"` or `"GUPS-2"`.
    pub name: String,
    /// The op stream.
    pub trace: Box<dyn TraceSource>,
    /// Page placement policy for this thread's address space.
    pub policy: MemPolicy,
    /// Which CXL device backs this thread's CXL pages.
    pub cxl_device: u8,
}

impl Workload {
    pub fn new(
        name: impl Into<String>,
        trace: Box<dyn TraceSource>,
        policy: MemPolicy,
    ) -> Workload {
        Workload {
            name: name.into(),
            trace,
            policy,
            cxl_device: 0,
        }
    }
}

/// A sequential read sweep over `footprint` bytes, `iters` times — the
/// simplest possible streaming trace, used by unit tests (rich generators
/// live in the `workloads` crate).
pub struct SeqReadTrace {
    footprint: usize,
    stride: usize,
    remaining: usize,
    pos: u64,
    work: u32,
}

impl SeqReadTrace {
    pub fn new(footprint: usize, total_ops: usize) -> Self {
        SeqReadTrace {
            footprint,
            stride: 64,
            remaining: total_ops,
            pos: 0,
            work: 2,
        }
    }

    pub fn with_work(mut self, work: u32) -> Self {
        self.work = work;
        self
    }
}

impl TraceSource for SeqReadTrace {
    fn next_op(&mut self) -> Option<MemOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let addr = self.pos;
        self.pos = (self.pos + self.stride as u64) % self.footprint as u64;
        Some(MemOp::load(addr).with_work(self.work))
    }

    fn footprint(&self) -> usize {
        self.footprint
    }
}

/// A sequential read+write sweep (`write_every` gives the store mix).
pub struct SeqRwTrace {
    inner: SeqReadTrace,
    write_every: usize,
    n: usize,
}

impl SeqRwTrace {
    pub fn new(footprint: usize, total_ops: usize, write_every: usize) -> Self {
        assert!(write_every > 0);
        SeqRwTrace {
            inner: SeqReadTrace::new(footprint, total_ops),
            write_every,
            n: 0,
        }
    }
}

impl TraceSource for SeqRwTrace {
    fn next_op(&mut self) -> Option<MemOp> {
        let op = self.inner.next_op()?;
        self.n += 1;
        if self.n.is_multiple_of(self.write_every) {
            Some(MemOp::store(op.vaddr).with_work(op.work))
        } else {
            Some(op)
        }
    }

    fn footprint(&self) -> usize {
        self.inner.footprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::AccessKind;

    #[test]
    fn seq_trace_wraps_and_terminates() {
        let mut t = SeqReadTrace::new(256, 10);
        let mut addrs = Vec::new();
        while let Some(op) = t.next_op() {
            addrs.push(op.vaddr);
        }
        assert_eq!(addrs.len(), 10);
        assert!(addrs.iter().all(|&a| a < 256));
        assert_eq!(addrs[0], 0);
        assert_eq!(addrs[4], 0); // wrapped after 4 lines of 64B
    }

    #[test]
    fn fill_ops_matches_per_op_pulls_and_signals_exhaustion() {
        use crate::arena::OpRing;
        let mut a = SeqReadTrace::new(1 << 12, 10);
        let mut b = SeqReadTrace::new(1 << 12, 10);
        let mut ring = OpRing::new();
        // First chunk is bounded by `max`, second by the trace tail.
        assert_eq!(a.fill_ops(&mut ring, 7), 7);
        for _ in 0..7 {
            assert_eq!(ring.pop(), b.next_op());
        }
        assert_eq!(a.fill_ops(&mut ring, 7), 3);
        for _ in 0..3 {
            assert_eq!(ring.pop(), b.next_op());
        }
        assert_eq!(a.fill_ops(&mut ring, 7), 0, "terminal trace refills empty");
        assert_eq!(b.next_op(), None);
    }

    #[test]
    fn rw_trace_mixes_stores() {
        let mut t = SeqRwTrace::new(1 << 20, 100, 4);
        let mut stores = 0;
        while let Some(op) = t.next_op() {
            if matches!(op.kind, AccessKind::Store) {
                stores += 1;
            }
        }
        assert_eq!(stores, 25);
    }
}
