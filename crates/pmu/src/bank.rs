//! A fixed-size counter file for one architectural module.

use crate::event::Event;

/// A counter file: one 64-bit free-running counter per event of an event
/// space `E`. This mirrors a hardware PMU's MSR bank — all counters count
/// simultaneously (unlike real PMUs we are not limited to 4–8 programmable
/// slots, which is fine: PathFinder multiplexes counter groups on real
/// hardware and the union is what a snapshot logically contains).
#[derive(Clone, Debug)]
pub struct Bank<E: Event> {
    counters: Vec<u64>,
    _marker: core::marker::PhantomData<E>,
}

impl<E: Event> Default for Bank<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Event> Bank<E> {
    /// A bank with all counters at zero.
    pub fn new() -> Self {
        Bank {
            counters: vec![0; E::CARD],
            _marker: core::marker::PhantomData,
        }
    }

    /// Increment `event` by one.
    #[inline]
    pub fn inc(&mut self, event: E) {
        self.counters[event.index()] += 1;
    }

    /// Add `n` to `event` (used for occupancy accumulation: `+= queue_len`).
    #[inline]
    pub fn add(&mut self, event: E, n: u64) {
        self.counters[event.index()] += n;
    }

    /// Read the current value of `event`.
    #[inline]
    pub fn read(&self, event: E) -> u64 {
        self.counters[event.index()]
    }

    /// Raw view over all counters, index order. Used by snapshots.
    pub fn raw(&self) -> &[u64] {
        &self.counters
    }

    /// Overwrite this bank's counters with `other`'s, reusing the existing
    /// allocation (`Vec::clone_from` is a memcpy when capacities match).
    /// Semantically identical to `*self = other.clone()` without the heap
    /// round-trip — the basis of snapshot pooling (see PERFORMANCE.md).
    pub fn copy_from(&mut self, other: &Bank<E>) {
        self.counters.clone_from(&other.counters);
    }

    /// Element-wise difference `self - earlier`, saturating at zero.
    ///
    /// Counters are free-running, so a profiling epoch's activity is the
    /// delta between two successive snapshots.
    pub fn delta(&self, earlier: &Bank<E>) -> Bank<E> {
        let counters = self
            .counters
            .iter()
            .zip(earlier.counters.iter())
            .map(|(now, then)| now.saturating_sub(*then))
            .collect();
        Bank {
            counters,
            _marker: core::marker::PhantomData,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CoreEvent, ImcEvent};

    #[test]
    fn inc_add_read_roundtrip() {
        let mut b: Bank<CoreEvent> = Bank::new();
        b.inc(CoreEvent::ResourceStallsSb);
        b.add(CoreEvent::ResourceStallsSb, 9);
        assert_eq!(b.read(CoreEvent::ResourceStallsSb), 10);
        assert_eq!(b.read(CoreEvent::InstRetired), 0);
    }

    #[test]
    fn delta_is_saturating_elementwise() {
        let mut early: Bank<ImcEvent> = Bank::new();
        let mut late: Bank<ImcEvent> = Bank::new();
        early.add(ImcEvent::CasCountRd, 5);
        late.add(ImcEvent::CasCountRd, 12);
        late.add(ImcEvent::CasCountWr, 3);
        let d = late.delta(&early);
        assert_eq!(d.read(ImcEvent::CasCountRd), 7);
        assert_eq!(d.read(ImcEvent::CasCountWr), 3);
        // Reversed order saturates rather than wrapping.
        let d2 = early.delta(&late);
        assert_eq!(d2.read(ImcEvent::CasCountRd), 0);
    }
}
