//! Irregular-access generators: GUPS and pointer chasing.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simarch::request::MemOp;
use simarch::TraceSource;

/// GUPS (giga-updates per second): random read-modify-write over a table.
///
/// Matches the paper's GUPS configuration knobs (§5.8): an optional hot set
/// covering `hot_fraction` of the table receiving `hot_probability` of the
/// accesses, and a read:write ratio (1:1 in the paper's TPP case study).
pub struct Gups {
    footprint: usize,
    remaining: u64,
    rng: StdRng,
    hot_fraction: f64,
    hot_probability: f64,
    read_only: bool,
    pending_store: Option<u64>,
    work: u32,
}

impl Gups {
    pub fn new(footprint: usize, total_ops: u64, seed: u64) -> Self {
        Gups {
            footprint,
            remaining: total_ops,
            rng: StdRng::seed_from_u64(seed),
            hot_fraction: 1.0,
            hot_probability: 1.0,
            read_only: false,
            pending_store: None,
            work: 2,
        }
    }

    /// Configure a hot set: `fraction` of the table gets `probability` of
    /// the traffic (paper: 24 GB hot of 72 GB total, 90% probability).
    pub fn hot_set(mut self, fraction: f64, probability: f64) -> Self {
        self.hot_fraction = fraction.clamp(0.0, 1.0);
        self.hot_probability = probability.clamp(0.0, 1.0);
        self
    }

    /// Loads only (no update half).
    pub fn read_only(mut self) -> Self {
        self.read_only = true;
        self
    }

    pub fn work(mut self, work: u32) -> Self {
        self.work = work;
        self
    }
}

impl TraceSource for Gups {
    fn next_op(&mut self) -> Option<MemOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // The update half of a read-modify-write.
        if let Some(addr) = self.pending_store.take() {
            return Some(MemOp::store(addr).with_work(0));
        }
        let hot_bytes = (self.footprint as f64 * self.hot_fraction) as u64;
        let addr = if self.rng.random_bool(self.hot_probability) && hot_bytes >= 64 {
            self.rng.random_range(0..hot_bytes / 64) * 64
        } else {
            self.rng.random_range(0..self.footprint as u64 / 64) * 64
        };
        if !self.read_only {
            self.pending_store = Some(addr);
        }
        Some(MemOp::dependent_load(addr).with_work(self.work))
    }

    fn footprint(&self) -> usize {
        self.footprint
    }
}

/// Pointer chasing over a keyed random order of the lines — fully
/// dependent loads, zero memory-level parallelism. Models `505.mcf_r` and
/// the Intel-MLC idle-latency probe (§2.3): the measured per-op time *is*
/// the load-to-use latency of the backing memory.
///
/// Lap k visits lines `f(0), f(1), …, f(n − 1)` for a keyed bijection `f`
/// on the `n` lines, so each lap loads every line once. `f` is a
/// four-round Feistel network on the smallest power of two with an even
/// bit count that is ≥ n, cycle-walked back into `[0, n)`: the generator
/// holds a few words whatever the footprint, and the low address bits,
/// which pick the cache set, are as mixed as the high ones.
pub struct PointerChase {
    /// Round keys, drawn from the seed.
    keys: [u64; 4],
    /// Bits per Feistel half.
    half: u32,
    lines: u64,
    /// Position within the current lap.
    pos: u64,
    remaining: u64,
    work: u32,
}

impl PointerChase {
    pub fn new(footprint: usize, total_ops: u64, seed: u64) -> Self {
        let lines = (footprint / 64).max(2) as u64;
        // Smallest h with 4^h ≥ lines, so the domain is at most 4× lines.
        let half = (64 - (lines - 1).leading_zeros()).div_ceil(2);
        let mut rng = StdRng::seed_from_u64(seed);
        PointerChase {
            keys: std::array::from_fn(|_| rng.random()),
            half,
            lines,
            pos: 0,
            remaining: total_ops,
            work: 1,
        }
    }

    pub fn work(mut self, work: u32) -> Self {
        self.work = work;
        self
    }

    /// One pass of the Feistel network over `[0, 4^half)`.
    fn feistel(&self, x: u64) -> u64 {
        let mask = (1u64 << self.half) - 1;
        let (mut l, mut r) = (x >> self.half, x & mask);
        for &key in &self.keys {
            // SplitMix64's finaliser as the keyed round function.
            let mut z = r ^ key;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (l, r) = (r, l ^ ((z ^ (z >> 31)) & mask));
        }
        (l << self.half) | r
    }

    /// The line visited at lap position `i`: the network applied until it
    /// lands below `lines` (cycle walking keeps it a bijection).
    fn line(&self, i: u64) -> u64 {
        let mut x = self.feistel(i);
        while x >= self.lines {
            x = self.feistel(x);
        }
        x
    }
}

impl TraceSource for PointerChase {
    fn next_op(&mut self) -> Option<MemOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let addr = self.line(self.pos) * 64;
        self.pos += 1;
        if self.pos == self.lines {
            self.pos = 0;
        }
        Some(MemOp::dependent_load(addr).with_work(self.work))
    }

    fn footprint(&self) -> usize {
        self.lines as usize * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simarch::request::AccessKind;

    #[test]
    fn gups_alternates_load_store() {
        let mut g = Gups::new(1 << 20, 10, 42);
        let ops: Vec<_> = std::iter::from_fn(|| g.next_op()).collect();
        assert_eq!(ops.len(), 10);
        for pair in ops.chunks(2) {
            assert!(matches!(pair[0].kind, AccessKind::Load { dependent: true }));
            if pair.len() == 2 {
                assert!(matches!(pair[1].kind, AccessKind::Store));
                assert_eq!(
                    pair[0].vaddr, pair[1].vaddr,
                    "RMW must store where it loaded"
                );
            }
        }
    }

    #[test]
    fn gups_read_only_has_no_stores() {
        let mut g = Gups::new(1 << 20, 100, 1).read_only();
        while let Some(op) = g.next_op() {
            assert!(!matches!(op.kind, AccessKind::Store));
        }
    }

    #[test]
    fn gups_hot_set_concentrates_traffic() {
        let mut g = Gups::new(1 << 22, 20_000, 7).hot_set(0.25, 0.9).read_only();
        let hot_limit = ((1u64 << 22) as f64 * 0.25) as u64;
        let mut hot = 0;
        let mut total = 0;
        while let Some(op) = g.next_op() {
            total += 1;
            if op.vaddr < hot_limit {
                hot += 1;
            }
        }
        let frac = hot as f64 / total as f64;
        // 90% directed + 25% of the residual uniform ≈ 92.5%.
        assert!(frac > 0.85, "hot fraction {frac}");
    }

    #[test]
    fn gups_is_deterministic_per_seed() {
        let collect = |seed| {
            let mut g = Gups::new(1 << 20, 50, seed);
            std::iter::from_fn(move || g.next_op())
                .map(|o| o.vaddr)
                .collect::<Vec<_>>()
        };
        assert_eq!(collect(5), collect(5));
        assert_ne!(collect(5), collect(6));
    }

    #[test]
    fn pointer_chase_visits_every_line_once_per_lap() {
        let n_lines = 256;
        let mut p = PointerChase::new(n_lines * 64, n_lines as u64, 3);
        let mut seen = std::collections::BTreeSet::new();
        while let Some(op) = p.next_op() {
            assert!(matches!(op.kind, AccessKind::Load { dependent: true }));
            assert!(
                seen.insert(op.vaddr),
                "revisited {} within one lap",
                op.vaddr
            );
        }
        assert_eq!(seen.len(), n_lines);
    }

    #[test]
    fn pointer_chase_cycle_returns_to_start() {
        let n_lines = 64u64;
        let mut p = PointerChase::new(n_lines as usize * 64, n_lines + 1, 9);
        let first = p.next_op().unwrap().vaddr;
        let mut last = 0;
        while let Some(op) = p.next_op() {
            last = op.vaddr;
        }
        assert_eq!(first, last, "a Hamiltonian cycle closes after n steps");
    }

    /// One lap over `n` lines, as line indices.
    fn lap(n: u64, seed: u64) -> Vec<u64> {
        let mut p = PointerChase::new(n as usize * 64, n, seed);
        std::iter::from_fn(|| p.next_op())
            .map(|op| op.vaddr / 64)
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Any line count, powers of two with an odd bit count and cycle
        /// walking included: a lap is a permutation of the lines, and the
        /// seed picks it. Laps of a few lines coincide by chance (two lines
        /// have two orders), so the seed check starts at 64 lines.
        #[test]
        fn pointer_chase_laps_are_seeded_permutations(
            n in 2u64..=10_000,
            seed in 0u64..u64::MAX,
            other in 0u64..u64::MAX,
        ) {
            let order = lap(n, seed);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            proptest::prop_assert!(
                sorted.into_iter().eq(0..n),
                "lap of {} lines is not a permutation",
                n
            );
            if n >= 64 && other != seed {
                proptest::prop_assert_ne!(order, lap(n, other));
            }
        }
    }
}
