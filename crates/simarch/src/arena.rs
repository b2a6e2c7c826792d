//! Allocation-free request bookkeeping: an open-addressed line map and a
//! struct-of-arrays request pool with a free-list arena.
//!
//! The seed kept per-request state in `BTreeMap`s (`CoreState::inflight`,
//! the snoop-filter directory, …). Every insert allocated a tree node and
//! every lookup chased pointers — together ~15% of profiled wall time,
//! and another chunk of the ~16% spent inside the allocator itself (see
//! PERFORMANCE.md). Both structures here are flat `Vec`s that reach a
//! steady-state capacity within the first few epochs and never allocate
//! again on the hot path. They back the core's in-flight fill and store
//! tracking; the snoop-filter directory lives in the LLC lines instead
//! (see `cha.rs`).
//!
//! Determinism: neither container's *iteration* order is ever observed by
//! the simulation — callers only get/insert/remove by key and sweep with
//! order-independent predicates — so replacing the ordered maps cannot
//! perturb a counter stream (the byte-identity anchor of the golden
//! tests).

/// Sentinel key marking an empty [`LineMap`] slot. Line addresses are
/// physical-address bits shifted right by the cache-line width, so the
/// all-ones key cannot occur.
const EMPTY: u64 = u64::MAX;

/// Multiplicative (Fibonacci) hash: spreads consecutive line addresses —
/// the common streaming case — across the table.
#[inline]
fn hash(key: u64, mask: usize) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
}

/// An open-addressed `u64 → V` map with linear probing and backward-shift
/// deletion, stored struct-of-arrays (keys and values in separate flat
/// vectors). Tombstone-free: load factor stays below 1/2, so probe chains
/// stay short even under the adversarial streaming patterns the figure
/// workloads produce.
#[derive(Clone, Debug)]
pub struct LineMap<V: Copy> {
    keys: Vec<u64>,
    vals: Vec<V>,
    len: usize,
    mask: usize,
}

impl<V: Copy + Default> Default for LineMap<V> {
    fn default() -> Self {
        LineMap::new()
    }
}

impl<V: Copy + Default> LineMap<V> {
    pub fn new() -> Self {
        LineMap::with_capacity(16)
    }

    /// Capacity is rounded up to a power of two of at least 16 slots.
    pub fn with_capacity(cap: usize) -> Self {
        let slots = cap.next_power_of_two().max(16);
        LineMap {
            keys: vec![EMPTY; slots],
            vals: vec![V::default(); slots],
            len: 0,
            mask: slots - 1,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot index of `key`, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        debug_assert_ne!(key, EMPTY);
        let mut i = hash(key, self.mask);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(i);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    #[inline]
    pub fn get(&self, key: u64) -> Option<V> {
        self.find(key).map(|i| self.vals[i])
    }

    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Insert or overwrite; returns the previous value if the key was
    /// present. Grows (the only allocation) at 1/2 load.
    pub fn insert(&mut self, key: u64, val: V) -> Option<V> {
        debug_assert_ne!(key, EMPTY);
        if (self.len + 1) * 2 > self.keys.len() {
            self.grow();
        }
        let mut i = hash(key, self.mask);
        loop {
            let k = self.keys[i];
            if k == key {
                let prev = self.vals[i];
                self.vals[i] = val;
                return Some(prev);
            }
            if k == EMPTY {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Remove `key`, closing the probe chain by backward-shift deletion
    /// (no tombstones, so probe lengths never degrade over a long run).
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let i = self.find(key)?;
        let prev = self.vals[i];
        self.delete_slot(i);
        Some(prev)
    }

    /// Backward-shift deletion at slot `i`: walk the probe chain after the
    /// hole and move back every entry whose home slot precedes the hole.
    fn delete_slot(&mut self, mut i: usize) {
        self.len -= 1;
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            let k = self.keys[j];
            if k == EMPTY {
                break;
            }
            // `k` may fill the hole only if its home slot does not sit
            // strictly inside the (i, j] arc — otherwise moving it would
            // break its own probe chain.
            let home = hash(k, self.mask);
            let dist_home = j.wrapping_sub(home) & self.mask;
            let dist_hole = j.wrapping_sub(i) & self.mask;
            if dist_home >= dist_hole {
                self.keys[i] = k;
                self.vals[i] = self.vals[j];
                i = j;
            }
        }
        self.keys[i] = EMPTY;
    }

    fn grow(&mut self) {
        let new_slots = self.keys.len() * 2;
        let keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_slots]);
        let vals = std::mem::replace(&mut self.vals, vec![V::default(); new_slots]);
        self.mask = new_slots - 1;
        self.len = 0;
        for (i, k) in keys.into_iter().enumerate() {
            if k != EMPTY {
                self.insert(k, vals[i]);
            }
        }
    }
}

/// A struct-of-arrays buffer of decoded trace operations, one per core.
///
/// Each core's `Machine`-owned ring is refilled in chunks from the trace
/// (one virtual `fill_ops` call per chunk instead of one `next_op` call
/// per op) and drained front-to-back by `step_core`. Fields are
/// parallel flat vectors (`arena.rs` style): the kind is packed to one
/// byte so a refill touches three dense arrays and the backing storage
/// reaches steady-state capacity after the first chunk — no per-op
/// allocation on the hot path.
///
/// Determinism: the ring is strictly FIFO, so buffering never reorders
/// the op stream; only *when* ops are decoded changes, never which op
/// executes next.
#[derive(Debug, Default)]
pub struct OpRing {
    /// Virtual addresses, parallel to `kinds`/`works`. Ops are buffered
    /// by *virtual* address and translated at execution time, so a page
    /// migration between refill and execution behaves exactly as an
    /// unbuffered per-op pull.
    vaddrs: Vec<u64>,
    /// Packed [`AccessKind`](crate::request::AccessKind) per op.
    kinds: Vec<u8>,
    /// `work` cycles per op.
    works: Vec<u32>,
    /// Next op to execute; the ring is empty when `head == vaddrs.len()`.
    head: usize,
}

const KIND_LOAD: u8 = 0;
const KIND_DEP_LOAD: u8 = 1;
const KIND_STORE: u8 = 2;
const KIND_SWPF: u8 = 3;

impl OpRing {
    pub fn new() -> Self {
        OpRing::default()
    }

    pub fn len(&self) -> usize {
        self.vaddrs.len() - self.head
    }

    pub fn is_empty(&self) -> bool {
        self.head == self.vaddrs.len()
    }

    /// Drop any buffered ops (workload re-attachment).
    pub fn clear(&mut self) {
        self.vaddrs.clear();
        self.kinds.clear();
        self.works.clear();
        self.head = 0;
    }

    /// Append one decoded op. Amortized allocation-free: the backing
    /// vectors keep their chunk-sized capacity across refills.
    // Chunk refill of the per-op pull.
    #[inline]
    pub fn push(&mut self, op: crate::request::MemOp) {
        use crate::request::AccessKind;
        if self.head == self.vaddrs.len() {
            // Fully drained: rewind instead of growing without bound.
            self.clear();
        }
        self.vaddrs.push(op.vaddr);
        self.works.push(op.work);
        self.kinds.push(match op.kind {
            AccessKind::Load { dependent: false } => KIND_LOAD,
            AccessKind::Load { dependent: true } => KIND_DEP_LOAD,
            AccessKind::Store => KIND_STORE,
            AccessKind::SwPrefetch => KIND_SWPF,
        });
    }

    /// The next buffered op, front-to-back.
    // The per-op pull.
    #[inline]
    pub fn pop(&mut self) -> Option<crate::request::MemOp> {
        use crate::request::{AccessKind, MemOp};
        if self.head == self.vaddrs.len() {
            return None;
        }
        let i = self.head;
        self.head += 1;
        Some(MemOp {
            vaddr: self.vaddrs[i],
            work: self.works[i],
            kind: match self.kinds[i] {
                KIND_LOAD => AccessKind::Load { dependent: false },
                KIND_DEP_LOAD => AccessKind::Load { dependent: true },
                KIND_STORE => AccessKind::Store,
                _ => AccessKind::SwPrefetch,
            },
        })
    }
}

/// A struct-of-arrays pool of in-flight requests: each live request is a
/// slot holding its line address and completion cycle, slots are recycled
/// through a free list, and a [`LineMap`] indexes line → slot for the
/// merge lookups (`CoreState::inflight` / `sb_inflight` in the seed).
///
/// Parallel `lines`/`finishes` vectors instead of a `Vec<struct>`: the
/// completion-sweep (`gc`) only touches `finishes`, so it scans a dense
/// u64 array instead of striding over padded records.
#[derive(Clone, Debug, Default)]
pub struct RequestPool {
    /// Line address per slot (`EMPTY` when the slot is free).
    lines: Vec<u64>,
    /// Completion cycle per slot, parallel to `lines`.
    finishes: Vec<u64>,
    /// Recycled slot indices.
    free: Vec<u32>,
    /// line → slot.
    index: LineMap<u32>,
}

impl RequestPool {
    pub fn new() -> Self {
        RequestPool::default()
    }

    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Completion cycle of the in-flight request on `line`, if any.
    #[inline]
    pub fn get(&self, line: u64) -> Option<u64> {
        self.index.get(line).map(|s| self.finishes[s as usize])
    }

    #[inline]
    pub fn contains(&self, line: u64) -> bool {
        self.index.contains_key(line)
    }

    /// Track (or refresh) an in-flight request. A request already in
    /// flight on the line keeps its slot; only the finish time moves.
    pub fn insert(&mut self, line: u64, finish: u64) {
        if let Some(slot) = self.index.get(line) {
            self.finishes[slot as usize] = finish;
            return;
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.lines[s as usize] = line;
                self.finishes[s as usize] = finish;
                s
            }
            None => {
                let s = self.lines.len() as u32;
                self.lines.push(line);
                self.finishes.push(finish);
                s
            }
        };
        self.index.insert(line, slot);
    }

    /// Free every request that completed at or before `now`. The sweep is
    /// order-independent, so pool reuse cannot perturb determinism.
    pub fn gc(&mut self, now: u64) {
        for slot in 0..self.lines.len() {
            let line = self.lines[slot];
            if line != EMPTY && self.finishes[slot] <= now {
                self.lines[slot] = EMPTY;
                self.free.push(slot as u32);
                self.index.remove(line);
            }
        }
    }

    /// Visit every live `(line, finish)` pair (tests/audits only).
    pub fn for_each(&self, mut f: impl FnMut(u64, u64)) {
        for (slot, &line) in self.lines.iter().enumerate() {
            if line != EMPTY {
                f(line, self.finishes[slot]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_insert_get_remove_roundtrip() {
        let mut m: LineMap<u64> = LineMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(7, 70), None);
        assert_eq!(m.insert(7, 71), Some(70));
        assert_eq!(m.get(7), Some(71));
        assert!(m.contains_key(7));
        assert_eq!(m.remove(7), Some(71));
        assert_eq!(m.remove(7), None);
        assert!(m.is_empty());
    }

    #[test]
    fn map_survives_growth_and_collisions() {
        let mut m: LineMap<u64> = LineMap::with_capacity(16);
        // Streaming keys + a colliding arithmetic series, well past the
        // initial capacity.
        for k in 0..1000u64 {
            m.insert(k * 17, k);
        }
        assert_eq!(m.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(m.get(k * 17), Some(k), "key {k}");
        }
    }

    #[test]
    fn map_backward_shift_keeps_chains_reachable() {
        let mut m: LineMap<u64> = LineMap::with_capacity(16);
        for k in 1..=12u64 {
            m.insert(k, k);
        }
        // Delete interleaved keys, then verify every survivor.
        for k in (2..=12u64).step_by(2) {
            assert_eq!(m.remove(k), Some(k));
        }
        for k in (1..=11u64).step_by(2) {
            assert_eq!(m.get(k), Some(k), "key {k}");
        }
        assert_eq!(m.len(), 6);
    }

    #[test]
    fn pool_merge_and_gc() {
        let mut p = RequestPool::new();
        p.insert(10, 500);
        p.insert(20, 80);
        assert_eq!(p.get(10), Some(500));
        assert!(p.contains(20));
        assert_eq!(p.len(), 2);
        p.gc(100); // line 20 completed, 10 still flying
        assert_eq!(p.get(20), None);
        assert_eq!(p.get(10), Some(500));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn pool_recycles_slots_without_growth() {
        let mut p = RequestPool::new();
        for round in 0..50u64 {
            for l in 0..64u64 {
                p.insert(round * 64 + l + 1, round * 100 + 50);
            }
            p.gc(round * 100 + 60);
            assert!(p.is_empty());
        }
        // Steady state: the backing arrays never exceeded one round.
        assert!(p.lines.len() <= 64, "arena grew to {}", p.lines.len());
    }

    #[test]
    fn op_ring_roundtrips_all_kinds_in_order() {
        use crate::request::{AccessKind, MemOp};
        let mut r = OpRing::new();
        let ops = [
            MemOp::load(64).with_work(3),
            MemOp::dependent_load(128),
            MemOp::store(192).with_work(7),
            MemOp::swpf(256),
        ];
        for op in ops {
            r.push(op);
        }
        assert_eq!(r.len(), 4);
        for op in ops {
            assert_eq!(r.pop(), Some(op));
        }
        assert!(r.is_empty());
        assert_eq!(r.pop(), None);
        // Mixed dependent flags survive the packed-kind encoding.
        assert_eq!(ops[1].kind, AccessKind::Load { dependent: true });
    }

    #[test]
    fn op_ring_rewinds_instead_of_growing() {
        use crate::request::MemOp;
        let mut r = OpRing::new();
        for round in 0..50u64 {
            for i in 0..64u64 {
                r.push(MemOp::load(round * 4096 + i * 64));
            }
            while r.pop().is_some() {}
        }
        assert!(
            r.vaddrs.capacity() <= 128,
            "ring grew to {}",
            r.vaddrs.capacity()
        );
    }

    #[test]
    fn pool_reinsert_refreshes_finish() {
        let mut p = RequestPool::new();
        p.insert(5, 10);
        p.insert(5, 99);
        assert_eq!(p.get(5), Some(99));
        assert_eq!(p.len(), 1);
    }
}
