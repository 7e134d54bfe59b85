//! Uniform-random generator — dependence-free accesses spread evenly over a
//! working set (hash-table or sparse-index behaviour).

use super::{rng_for, Generator};
use crate::record::{Instr, Op, Trace};
use rand::Rng;

/// Independent uniform-random accesses over `working_set` bytes.
///
/// Because the loads carry no dependences, memory-level parallelism is
/// limited only by core resources (MSHRs, issue window) — the opposite
/// corner from [`super::ChaseGen`]. Locality is controlled purely by the
/// working-set size relative to the cache.
#[derive(Debug, Clone)]
pub struct RandomGen {
    /// Working set, bytes.
    pub working_set: u64,
    /// Fraction of instructions that are memory operations.
    pub fmem: f64,
    /// Fraction of memory operations that are stores.
    pub store_frac: f64,
    /// Probability that a compute instruction consumes the latest load.
    pub use_dep: f64,
    /// Probability that a compute instruction extends a compute-compute
    /// dependence chain (bounds intrinsic ILP).
    pub cc_dep: f64,
}

impl RandomGen {
    /// Build a generator with the given working set, memory fraction and
    /// store fraction.
    pub fn new(working_set: u64, fmem: f64, store_frac: f64) -> Self {
        assert!(working_set >= 64, "working set must hold at least a line");
        Self {
            working_set,
            fmem,
            store_frac,
            use_dep: 0.2,
            cc_dep: 0.3,
        }
    }
}

impl Generator for RandomGen {
    fn generate(&self, n: usize, seed: u64) -> Trace {
        let mut rng = rng_for(seed, 0x7A4D);
        let lines = (self.working_set / 64).max(1);
        let mut instrs = Vec::with_capacity(n);
        let mut last_load_pos: Option<usize> = None;
        let mut cc_chain: Option<usize> = None;
        for pos in 0..n {
            if rng.gen_bool(self.fmem) {
                let addr = rng.gen_range(0..lines) * 64 + rng.gen_range(0..8u64) * 8;
                let op = if rng.gen_bool(self.store_frac) {
                    Op::Store(addr)
                } else {
                    last_load_pos = Some(pos);
                    Op::Load(addr)
                };
                instrs.push(Instr { op, dep: 0 });
            } else {
                let dep = super::compute_dep(
                    pos,
                    last_load_pos,
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
        "random"
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{assert_deterministic, assert_fmem_close};
    use super::*;

    #[test]
    fn deterministic_and_fmem() {
        let g = RandomGen::new(1 << 16, 0.45, 0.25);
        assert_deterministic(&g);
        assert_fmem_close(&g, 0.45);
    }

    #[test]
    fn addresses_within_working_set() {
        let ws = 1u64 << 13;
        let g = RandomGen::new(ws, 1.0, 0.0);
        let t = g.generate(2000, 4);
        for i in t.iter() {
            assert!(i.op.addr().unwrap() < ws);
        }
    }

    #[test]
    fn coverage_is_broad() {
        // Uniform access over 128 lines should touch most of them quickly.
        let g = RandomGen::new(128 * 64, 1.0, 0.0);
        let t = g.generate(2000, 6);
        let unique: std::collections::BTreeSet<u64> = t
            .iter()
            .filter_map(|i| i.op.addr().map(|a| a / 64))
            .collect();
        assert!(unique.len() > 110, "covered {} of 128 lines", unique.len());
    }

    #[test]
    fn memory_ops_carry_no_dependences() {
        let g = RandomGen::new(1 << 16, 0.6, 0.3);
        let t = g.generate(3000, 8);
        for i in t.iter() {
            if i.op.is_mem() {
                assert_eq!(i.dep, 0);
            }
        }
    }
}
