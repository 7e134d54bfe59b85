//! Zipf-like hot/cold generator — skewed reuse typical of interpreters and
//! compilers (gcc/perlbench/xalancbmk-like behaviour).

use super::{rng_for, Generator};
use crate::record::{Instr, Op, Trace};
use rand::Rng;

/// Tiered hot/cold accesses approximating a Zipf popularity curve.
///
/// The working set is split into geometric tiers: tier 0 is the hottest
/// (smallest) region, each subsequent tier is `growth`× larger and receives
/// the remaining probability mass recursively. With `hot_prob = 0.6` and
/// four tiers over 96 KiB the hit rate keeps improving as the cache grows
/// from 4 KiB to 64 KiB — the gradual-sensitivity profile the paper reports
/// for 403.gcc.
#[derive(Debug, Clone)]
pub struct ZipfLikeGen {
    /// Total working set, bytes.
    pub working_set: u64,
    /// Number of tiers.
    pub tiers: u32,
    /// Probability of choosing tier `i` over tiers `> i`.
    pub hot_prob: f64,
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

impl ZipfLikeGen {
    /// Build a tiered generator. `tiers` must be at least 1.
    pub fn new(working_set: u64, tiers: u32, hot_prob: f64, fmem: f64) -> Self {
        assert!(tiers >= 1, "need at least one tier");
        assert!(working_set >= 64 * tiers as u64, "working set too small");
        assert!((0.0..=1.0).contains(&hot_prob));
        Self {
            working_set,
            tiers,
            hot_prob,
            fmem,
            store_frac: 0.15,
            use_dep: 0.2,
            cc_dep: 0.3,
        }
    }

    /// Tier boundaries in bytes: tier `i` spans `[bounds[i], bounds[i+1])`.
    /// Tier sizes grow geometrically so that they sum to the working set.
    fn tier_bounds(&self) -> Vec<u64> {
        let t = self.tiers as u64;
        // Weights 1, 2, 4, ... 2^(t-1) over the working set, line aligned.
        let total_weight: u64 = (1 << t) - 1;
        let mut bounds = Vec::with_capacity(self.tiers as usize + 1);
        let mut acc = 0u64;
        bounds.push(0);
        for i in 0..t {
            let sz = ((self.working_set * (1 << i)) / total_weight).max(64) / 64 * 64;
            acc += sz;
            bounds.push(acc.min(self.working_set));
        }
        bounds
    }
}

impl Generator for ZipfLikeGen {
    fn generate(&self, n: usize, seed: u64) -> Trace {
        let mut rng = rng_for(seed, 0x21FF);
        let bounds = self.tier_bounds();
        let mut instrs = Vec::with_capacity(n);
        let mut last_load_pos: Option<usize> = None;
        let mut cc_chain: Option<usize> = None;
        for pos in 0..n {
            if rng.gen_bool(self.fmem) {
                // Walk tiers: stop at tier i with probability hot_prob.
                let mut tier = 0usize;
                while tier + 1 < self.tiers as usize && !rng.gen_bool(self.hot_prob) {
                    tier += 1;
                }
                let lo = bounds[tier];
                let hi = bounds[tier + 1].max(lo + 64);
                let lines = (hi - lo) / 64;
                let addr = lo + rng.gen_range(0..lines) * 64;
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
        "zipf-like"
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{assert_deterministic, assert_fmem_close};
    use super::*;

    #[test]
    fn deterministic_and_fmem() {
        let g = ZipfLikeGen::new(96 << 10, 4, 0.6, 0.4);
        assert_deterministic(&g);
        assert_fmem_close(&g, 0.4);
    }

    #[test]
    fn tier_bounds_cover_working_set_in_order() {
        let g = ZipfLikeGen::new(96 << 10, 4, 0.6, 0.4);
        let b = g.tier_bounds();
        assert_eq!(b.len(), 5);
        assert_eq!(b[0], 0);
        for w in b.windows(2) {
            assert!(w[0] < w[1], "bounds not strictly increasing: {b:?}");
        }
        assert!(*b.last().unwrap() <= 96 << 10);
    }

    #[test]
    fn hot_tier_receives_most_accesses() {
        let g = ZipfLikeGen::new(64 << 10, 4, 0.7, 1.0);
        let b = g.tier_bounds();
        let t = g.generate(20_000, 5);
        let hot = t
            .iter()
            .filter_map(|i| i.op.addr())
            .filter(|&a| a < b[1])
            .count() as f64;
        let frac = hot / t.len() as f64;
        assert!(frac > 0.6, "hot tier got only {frac}");
    }

    #[test]
    fn addresses_bounded() {
        let g = ZipfLikeGen::new(32 << 10, 3, 0.6, 1.0);
        let t = g.generate(5000, 2);
        for i in t.iter() {
            assert!(i.op.addr().unwrap() < 32 << 10);
        }
    }
}
