//! A generic set-associative cache with MESIF-like line states.
//!
//! Used for L1D, L2 and the LLC slices. Lines carry a `ready_at` cycle so a
//! line that is architecturally present but still in flight (a prefetch that
//! has not landed yet) delays a demand hit until the fill completes — this
//! is how prefetch timeliness and LFB-style merge-on-fill behave.

/// MESIF coherence state of a cached line. Absence from the cache is the
/// Invalid state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineState {
    Modified,
    Exclusive,
    Shared,
    /// The MESIF Forward state: shared, but this cache answers snoops.
    Forward,
}

impl LineState {
    /// Whether a store can hit this line without an ownership upgrade.
    pub fn writable(self) -> bool {
        matches!(self, LineState::Modified | LineState::Exclusive)
    }
}

/// One cached line. `P` is a per-line payload: the LLC slices keep their
/// snoop-filter owner mask there; `()` takes no space in L1D and L2 lines.
#[derive(Clone, Copy, Debug)]
pub struct Line<P = ()> {
    pub tag: u64,
    pub state: LineState,
    /// Cycle at which the fill completes; a demand access before this merges
    /// (waits) rather than hitting instantly.
    pub ready_at: u64,
    lru: u64,
    pub payload: P,
}

/// What fell out of the cache on an insertion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Eviction<P = ()> {
    pub line_addr: u64,
    pub state: LineState,
    pub payload: P,
}

/// A set-associative cache, LRU replacement.
///
/// Storage is a single flat slab (`sets × ways` lines, set-major) with a
/// per-set occupancy count instead of a `Vec<Vec<Line>>` — one allocation
/// per cache, no pointer chase per set, and insertion never allocates.
#[derive(Clone, Debug)]
pub struct SetAssocCache<P = ()> {
    lines: Vec<Line<P>>,
    /// Occupied ways per set; `lines[s*ways .. s*ways + lens[s]]` are live.
    lens: Vec<u16>,
    ways: usize,
    set_mask: u64,
    lru_clock: u64,
}

impl SetAssocCache {
    /// A cache without payload; [`Self::with_payload`] has the geometry.
    pub fn new(size_bytes: usize, ways: usize) -> Self {
        Self::with_payload(size_bytes, ways)
    }
}

impl<P: Copy + Default> SetAssocCache<P> {
    /// Build a cache with `size_bytes / 64 / ways` sets, rounded down to a
    /// power of two so set selection is a mask — except that an exact power
    /// of two is halved (`next_power_of_two() / 2`): SPR and EMR model 384
    /// of 768 L1D lines and 16 384 of 32 768 L2 lines.
    pub fn with_payload(size_bytes: usize, ways: usize) -> Self {
        let lines = (size_bytes / crate::mem::CACHELINE).max(1);
        let sets = (lines / ways).max(1).next_power_of_two() / 2;
        let sets = sets.max(1);
        let empty = Line {
            tag: 0,
            state: LineState::Shared,
            ready_at: 0,
            lru: 0,
            payload: P::default(),
        };
        SetAssocCache {
            lines: vec![empty; sets * ways],
            lens: vec![0; sets],
            ways,
            set_mask: sets as u64 - 1,
            lru_clock: 0,
        }
    }

    fn set_of(&self, line_addr: u64) -> usize {
        // Mix the upper bits in so node/ASID fields don't alias whole sets.
        let h = line_addr ^ (line_addr >> 17);
        (h & self.set_mask) as usize
    }

    /// The live slots of set `s` as a flat-slab range.
    #[inline]
    fn set_range(&self, s: usize) -> std::ops::Range<usize> {
        let base = s * self.ways;
        base..base + self.lens[s] as usize
    }

    /// Total lines currently resident.
    pub fn len(&self) -> usize {
        self.lens.iter().map(|&n| n as usize).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capacity in lines.
    pub fn capacity(&self) -> usize {
        self.lens.len() * self.ways
    }

    /// Number of sets (for geometry-aware tests).
    pub fn n_sets(&self) -> usize {
        self.lens.len()
    }

    /// Look a line up, touching LRU on hit.
    // Per-access path; must not allocate.
    pub fn lookup(&mut self, line_addr: u64) -> Option<&mut Line<P>> {
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let set = self.set_of(line_addr);
        let r = self.set_range(set);
        let line = self.lines[r].iter_mut().find(|l| l.tag == line_addr)?;
        line.lru = clock;
        Some(line)
    }

    /// Look a line up without touching LRU (snoops, probes).
    // Per-snoop path; must not allocate.
    pub fn peek(&self, line_addr: u64) -> Option<&Line<P>> {
        let set = self.set_of(line_addr);
        self.lines[self.set_range(set)]
            .iter()
            .find(|l| l.tag == line_addr)
    }

    /// Mutable [`Self::peek`]: LRU order is left as it is.
    // Per-spill path; must not allocate.
    pub fn peek_mut(&mut self, line_addr: u64) -> Option<&mut Line<P>> {
        let set = self.set_of(line_addr);
        let r = self.set_range(set);
        self.lines[r].iter_mut().find(|l| l.tag == line_addr)
    }

    /// Insert (or overwrite) a line, evicting LRU if the set is full. An
    /// overwritten line keeps its payload; a new one starts at the default.
    // Per-fill path; must not allocate.
    pub fn insert(
        &mut self,
        line_addr: u64,
        state: LineState,
        ready_at: u64,
    ) -> Option<Eviction<P>> {
        self.insert_with(line_addr, state, ready_at, |_| {})
    }

    /// [`Self::insert`], then apply `update` to the line's payload, all in
    /// one scan of the set.
    // Per-fill path; must not allocate.
    pub fn insert_with(
        &mut self,
        line_addr: u64,
        state: LineState,
        ready_at: u64,
        update: impl FnOnce(&mut P),
    ) -> Option<Eviction<P>> {
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let set_idx = self.set_of(line_addr);
        let base = set_idx * self.ways;
        let n = self.lens[set_idx] as usize;
        let set = &mut self.lines[base..base + n];
        if let Some(l) = set.iter_mut().find(|l| l.tag == line_addr) {
            l.state = state;
            l.ready_at = ready_at;
            l.lru = clock;
            update(&mut l.payload);
            return None;
        }
        let mut new = Line {
            tag: line_addr,
            state,
            ready_at,
            lru: clock,
            payload: P::default(),
        };
        update(&mut new.payload);
        if n >= self.ways {
            // Same victim as Vec::swap_remove + push: the LRU slot takes the
            // last live line and the new line lands in the last slot.
            let (victim_idx, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .expect("set non-empty");
            let v = set[victim_idx];
            set[victim_idx] = set[n - 1];
            set[n - 1] = new;
            Some(Eviction {
                line_addr: v.tag,
                state: v.state,
                payload: v.payload,
            })
        } else {
            self.lines[base + n] = new;
            self.lens[set_idx] += 1;
            None
        }
    }

    /// Remove a line (back-invalidation / snoop-invalidate), returning its
    /// state if it was present.
    pub fn invalidate(&mut self, line_addr: u64) -> Option<LineState> {
        let set_idx = self.set_of(line_addr);
        let base = set_idx * self.ways;
        let n = self.lens[set_idx] as usize;
        let set = &mut self.lines[base..base + n];
        let pos = set.iter().position(|l| l.tag == line_addr)?;
        let state = set[pos].state;
        set[pos] = set[n - 1];
        self.lens[set_idx] -= 1;
        Some(state)
    }

    /// Downgrade a line to Shared (snoop for read). Returns the previous
    /// state if present.
    pub fn downgrade(&mut self, line_addr: u64) -> Option<LineState> {
        let set = self.set_of(line_addr);
        let r = self.set_range(set);
        let l = self.lines[r].iter_mut().find(|l| l.tag == line_addr)?;
        let prev = l.state;
        l.state = LineState::Shared;
        Some(prev)
    }

    /// Iterate all resident lines (diagnostics/tests).
    pub fn iter(&self) -> impl Iterator<Item = &Line<P>> {
        self.lens
            .iter()
            .enumerate()
            .flat_map(move |(s, &n)| self.lines[s * self.ways..s * self.ways + n as usize].iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_4x2() -> SetAssocCache {
        // 8 lines total: 4 sets × 2 ways.
        SetAssocCache::new(8 * 64, 2)
    }

    #[test]
    fn geometry_is_power_of_two_sets() {
        let c = SetAssocCache::new(48 << 10, 12);
        assert!(c.n_sets().is_power_of_two());
        assert!(c.capacity() <= 48 << 10 >> 6);
    }

    /// Lines modelled by each preset's L1D, L2 and LLC slice (TINY's L2
    /// holds 512 lines, SPR's 32 768; `with_payload` says why half).
    #[test]
    fn preset_geometries_are_pinned() {
        use crate::config::MachineConfig;
        for (c, want) in [
            (MachineConfig::spr(), [384, 16_384, 15_360]),
            (MachineConfig::emr(), [384, 16_384, 65_536]),
            (MachineConfig::tiny(), [48, 256, 960]),
        ] {
            let slice = c.llc.size_bytes / c.llc_slices;
            let geometry = [(c.l1d.size_bytes, c.l1d.ways), (c.l2.size_bytes, c.l2.ways)];
            let got = [geometry[0], geometry[1], (slice, c.llc.ways)]
                .map(|(bytes, ways)| SetAssocCache::new(bytes, ways).capacity());
            assert_eq!(got, want, "{}", c.name);
        }
    }

    #[test]
    fn hit_after_insert() {
        let mut c = cache_4x2();
        c.insert(100, LineState::Exclusive, 0);
        assert!(c.lookup(100).is_some());
        assert!(c.lookup(101).is_none());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = SetAssocCache::new(2 * 64, 2); // 1 set × 2 ways
        assert_eq!(c.n_sets(), 1);
        c.insert(1, LineState::Exclusive, 0);
        c.insert(2, LineState::Exclusive, 0);
        c.lookup(1); // 1 becomes MRU
        let ev = c.insert(3, LineState::Exclusive, 0).expect("must evict");
        assert_eq!(ev.line_addr, 2);
        assert!(c.peek(1).is_some());
        assert!(c.peek(3).is_some());
    }

    #[test]
    fn insert_existing_updates_in_place() {
        let mut c = cache_4x2();
        c.insert(5, LineState::Shared, 0);
        let ev = c.insert(5, LineState::Modified, 9);
        assert!(ev.is_none());
        let l = c.peek(5).unwrap();
        assert_eq!(l.state, LineState::Modified);
        assert_eq!(l.ready_at, 9);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = cache_4x2();
        c.insert(7, LineState::Modified, 0);
        assert_eq!(c.invalidate(7), Some(LineState::Modified));
        assert!(c.peek(7).is_none());
        assert_eq!(c.invalidate(7), None);
    }

    #[test]
    fn downgrade_to_shared() {
        let mut c = cache_4x2();
        c.insert(9, LineState::Exclusive, 0);
        assert_eq!(c.downgrade(9), Some(LineState::Exclusive));
        assert_eq!(c.peek(9).unwrap().state, LineState::Shared);
    }

    #[test]
    fn writable_states() {
        assert!(LineState::Modified.writable());
        assert!(LineState::Exclusive.writable());
        assert!(!LineState::Shared.writable());
        assert!(!LineState::Forward.writable());
    }
}
