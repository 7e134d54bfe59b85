//! Pointer-chase generator — the serialized, low-MLP pattern of linked
//! data structures (mcf/omnetpp/astar-like traversals).

use super::{mix64, rng_for, Generator};
use crate::record::{Instr, Op, Trace};
use rand::Rng;

/// A dependent pointer chase over a working set.
///
/// Every chase load depends on the previous chase load (the "pointer" it
/// follows), so at most one chase miss can be outstanding at a time: `CM`
/// stays near 1 and misses readily become *pure* misses. The next address
/// is derived by hashing the current one, which visits the working set in
/// a fixed pseudo-random permutation-like order without materializing a
/// linked list.
#[derive(Debug, Clone)]
pub struct ChaseGen {
    /// Working set of the chase, bytes.
    pub working_set: u64,
    /// Fraction of instructions that are memory operations.
    pub fmem: f64,
    /// Cache-line granularity of pointers, bytes.
    pub line: u64,
    /// Probability that a compute instruction consumes the latest load.
    pub use_dep: f64,
    /// Probability that a compute instruction extends a compute-compute
    /// dependence chain (bounds intrinsic ILP).
    pub cc_dep: f64,
}

impl ChaseGen {
    /// A chase over `working_set` bytes with the given memory fraction.
    pub fn new(working_set: u64, fmem: f64) -> Self {
        assert!(working_set >= 64, "working set must hold at least a line");
        Self {
            working_set,
            fmem,
            line: 64,
            use_dep: 0.4,
            cc_dep: 0.3,
        }
    }
}

impl Generator for ChaseGen {
    fn generate(&self, n: usize, seed: u64) -> Trace {
        let mut rng = rng_for(seed, 0xC4A5E);
        let lines = (self.working_set / self.line).max(1);
        let mut cur: u64 = rng.gen_range(0..lines);
        let mut instrs = Vec::with_capacity(n);
        let mut last_mem_pos: Option<usize> = None;
        let mut cc_chain: Option<usize> = None;
        let mut step: u64 = 0;
        for pos in 0..n {
            if rng.gen_bool(self.fmem) {
                let addr = cur * self.line;
                // Each load depends on the previous one — the chase.
                let dep = last_mem_pos.map_or(0, |p| (pos - p) as u32);
                instrs.push(Instr {
                    op: Op::Load(addr),
                    dep,
                });
                last_mem_pos = Some(pos);
                // Mix in a step counter so the walk does not collapse into
                // the short rho-cycle of an iterated random function.
                step += 1;
                cur = mix64(cur ^ seed ^ (step << 20)) % lines;
            } else {
                let dep = super::compute_dep(
                    pos,
                    last_mem_pos,
                    self.use_dep,
                    self.cc_dep,
                    &mut cc_chain,
                    &mut rng,
                );
                instrs.push(Instr {
                    op: Op::Compute,
                    dep,
                });
            }
        }
        Trace::from_vec(instrs)
    }

    fn name(&self) -> &str {
        "chase"
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{assert_deterministic, assert_fmem_close};
    use super::*;

    #[test]
    fn deterministic_and_fmem() {
        let g = ChaseGen::new(1 << 20, 0.3);
        assert_deterministic(&g);
        assert_fmem_close(&g, 0.3);
    }

    #[test]
    fn every_load_depends_on_previous_load() {
        let g = ChaseGen::new(1 << 16, 0.5);
        let t = g.generate(2000, 11);
        let mut last: Option<usize> = None;
        for (pos, i) in t.iter().enumerate() {
            if i.op.is_mem() {
                if let Some(p) = last {
                    assert_eq!(i.dep as usize, pos - p);
                }
                last = Some(pos);
            }
        }
    }

    #[test]
    fn addresses_stay_in_working_set_and_line_aligned() {
        let ws = 1u64 << 14;
        let g = ChaseGen::new(ws, 1.0);
        let t = g.generate(1000, 3);
        for i in t.iter() {
            let a = i.op.addr().unwrap();
            assert!(a < ws);
            assert_eq!(a % 64, 0);
        }
    }

    #[test]
    fn chase_covers_a_good_part_of_the_working_set() {
        let ws = 1u64 << 14; // 256 lines
        let g = ChaseGen::new(ws, 1.0);
        let t = g.generate(2000, 3);
        let unique: std::collections::BTreeSet<u64> =
            t.iter().filter_map(|i| i.op.addr()).collect();
        assert!(
            unique.len() > 100,
            "chase revisits too few lines: {}",
            unique.len()
        );
    }
}
