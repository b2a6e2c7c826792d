//! Phase-changing and compute-bound generators.
//!
//! `MixedPhase` models compiler-like applications (`602.gcc_s`) whose
//! behaviour shifts between phases — the paper's Case 1 compares two
//! `602.gcc_s` snapshots where the RFO share of CXL hits jumps from 1.1% to
//! 69.0%. `ComputeBound` models `541.leela_r` / `548.exchange2_r`: tiny
//! working sets, high work per access.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simarch::request::MemOp;
use simarch::TraceSource;

/// One phase of a [`MixedPhase`] program.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Ops in this phase.
    pub ops: u64,
    /// Fraction of accesses that are stores.
    pub write_ratio: f64,
    /// Fraction of accesses that are random (rest is streaming).
    pub random_ratio: f64,
    /// Non-memory work per access.
    pub work: u32,
    /// Working-set fraction of the footprint this phase touches.
    pub ws_fraction: f64,
}

/// A program that cycles through a list of phases.
pub struct MixedPhase {
    footprint: usize,
    phases: Vec<Phase>,
    rng: StdRng,
    phase_idx: usize,
    ops_in_phase: u64,
    remaining: u64,
    pos: u64,
    n: u64,
}

impl MixedPhase {
    pub fn new(footprint: usize, phases: Vec<Phase>, total_ops: u64, seed: u64) -> Self {
        assert!(!phases.is_empty());
        MixedPhase {
            footprint,
            phases,
            rng: StdRng::seed_from_u64(seed),
            phase_idx: 0,
            ops_in_phase: 0,
            remaining: total_ops,
            pos: 0,
            n: 0,
        }
    }

    /// A gcc-like two-phase program: a read-mostly streaming parse phase and
    /// a write-heavy random codegen phase (drives the paper's Case-1 RFO
    /// shift between snapshots).
    pub fn gcc_like(footprint: usize, total_ops: u64, seed: u64) -> Self {
        MixedPhase::new(
            footprint,
            vec![
                Phase {
                    ops: 200_000,
                    write_ratio: 0.05,
                    random_ratio: 0.3,
                    work: 6,
                    ws_fraction: 0.25,
                },
                Phase {
                    ops: 200_000,
                    write_ratio: 0.45,
                    random_ratio: 0.7,
                    work: 2,
                    ws_fraction: 1.0,
                },
            ],
            total_ops,
            seed,
        )
    }
}

impl TraceSource for MixedPhase {
    fn next_op(&mut self) -> Option<MemOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.n += 1;
        let phase = self.phases[self.phase_idx];
        self.ops_in_phase += 1;
        if self.ops_in_phase >= phase.ops {
            self.ops_in_phase = 0;
            self.phase_idx = (self.phase_idx + 1) % self.phases.len();
        }
        let ws = ((self.footprint as f64 * phase.ws_fraction) as u64).max(4096);
        let addr = if self.rng.random_bool(phase.random_ratio) {
            self.rng.random_range(0..ws / 64) * 64
        } else {
            self.pos = (self.pos + 64) % ws;
            self.pos
        };
        let op = if self.rng.random_bool(phase.write_ratio) {
            MemOp::store(addr)
        } else {
            MemOp::load(addr)
        };
        Some(op.with_work(phase.work))
    }

    fn footprint(&self) -> usize {
        self.footprint
    }
}

/// A compute-bound program: a small hot working set and lots of arithmetic
/// between accesses (`541.leela_r`, `548.exchange2_r`, `511.povray_r`).
pub struct ComputeBound {
    footprint: usize,
    rng: StdRng,
    remaining: u64,
    work: u32,
}

impl ComputeBound {
    pub fn new(footprint: usize, total_ops: u64, work: u32, seed: u64) -> Self {
        ComputeBound {
            footprint,
            rng: StdRng::seed_from_u64(seed),
            remaining: total_ops,
            work,
        }
    }
}

impl TraceSource for ComputeBound {
    fn next_op(&mut self) -> Option<MemOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let addr = self.rng.random_range(0..self.footprint as u64 / 64) * 64;
        Some(MemOp::load(addr).with_work(self.work))
    }

    fn footprint(&self) -> usize {
        self.footprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simarch::request::AccessKind;

    #[test]
    fn phases_rotate_at_their_op_budget() {
        let phases = vec![
            Phase {
                ops: 10,
                write_ratio: 0.0,
                random_ratio: 0.0,
                work: 1,
                ws_fraction: 1.0,
            },
            Phase {
                ops: 10,
                write_ratio: 1.0,
                random_ratio: 0.0,
                work: 1,
                ws_fraction: 1.0,
            },
        ];
        let mut m = MixedPhase::new(1 << 16, phases, 40, 1);
        let mut stores_by_chunk = [0usize; 4];
        for stores in &mut stores_by_chunk {
            for _ in 0..10 {
                if matches!(m.next_op().unwrap().kind, AccessKind::Store) {
                    *stores += 1;
                }
            }
        }
        assert_eq!(stores_by_chunk[0], 0);
        assert_eq!(stores_by_chunk[1], 10);
        assert_eq!(stores_by_chunk[2], 0);
        assert_eq!(stores_by_chunk[3], 10);
    }

    #[test]
    fn gcc_like_second_phase_is_write_heavy() {
        let mut m = MixedPhase::gcc_like(1 << 20, 400_000, 3);
        let count_stores = |m: &mut MixedPhase, n: u64| {
            let mut s = 0;
            for _ in 0..n {
                if matches!(m.next_op().unwrap().kind, AccessKind::Store) {
                    s += 1;
                }
            }
            s
        };
        let p1 = count_stores(&mut m, 200_000);
        let p2 = count_stores(&mut m, 200_000);
        assert!(p2 > p1 * 5, "phase2 stores {p2} vs phase1 {p1}");
    }

    #[test]
    fn ws_fraction_limits_addresses() {
        let phases = vec![Phase {
            ops: 1000,
            write_ratio: 0.0,
            random_ratio: 1.0,
            work: 1,
            ws_fraction: 0.1,
        }];
        let mut m = MixedPhase::new(1 << 20, phases, 1000, 2);
        let limit = ((1u64 << 20) as f64 * 0.1) as u64;
        while let Some(op) = m.next_op() {
            assert!(op.vaddr < limit);
        }
    }

    #[test]
    fn compute_bound_carries_high_work() {
        let mut c = ComputeBound::new(8 << 10, 100, 50, 4);
        while let Some(op) = c.next_op() {
            assert_eq!(op.work, 50);
            assert!(op.vaddr < 8 << 10);
        }
    }
}
