//! Blocked 2-D traversal generator — tiled kernels with strong spatial
//! locality inside a block (h264ref/namd-like behaviour).

use super::{rng_for, Generator};
use crate::record::{Instr, Op, Trace};
use rand::Rng;

/// Row-major traversal of 2-D blocks drawn from a larger matrix.
///
/// The generator repeatedly picks a random block of `block_rows ×
/// block_cols` elements inside a `matrix_rows × matrix_cols` matrix and
/// sweeps it row by row. Within a block the accesses are unit-stride
/// (perfect spatial locality); across blocks locality depends on whether a
/// whole block fits in cache.
#[derive(Debug, Clone)]
pub struct BlockedGen {
    /// Matrix rows.
    pub matrix_rows: u64,
    /// Matrix columns (elements).
    pub matrix_cols: u64,
    /// Block height (rows).
    pub block_rows: u64,
    /// Block width (elements).
    pub block_cols: u64,
    /// Element size, bytes.
    pub elem: u64,
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

impl BlockedGen {
    /// Build a blocked traversal generator.
    pub fn new(
        matrix_rows: u64,
        matrix_cols: u64,
        block_rows: u64,
        block_cols: u64,
        fmem: f64,
    ) -> Self {
        assert!(block_rows >= 1 && block_cols >= 1);
        assert!(matrix_rows >= block_rows && matrix_cols >= block_cols);
        Self {
            matrix_rows,
            matrix_cols,
            block_rows,
            block_cols,
            elem: 8,
            fmem,
            store_frac: 0.2,
            use_dep: 0.25,
            cc_dep: 0.3,
        }
    }

    /// The block working set in bytes.
    pub fn block_bytes(&self) -> u64 {
        self.block_rows * self.block_cols * self.elem
    }
}

impl Generator for BlockedGen {
    fn generate(&self, n: usize, seed: u64) -> Trace {
        let mut rng = rng_for(seed, 0xB10C);
        let mut instrs = Vec::with_capacity(n);
        // Current block origin and sweep position.
        let mut origin_r = 0u64;
        let mut origin_c = 0u64;
        let mut r = 0u64;
        let mut c = 0u64;
        let mut fresh = true;
        let mut last_load_pos: Option<usize> = None;
        let mut cc_chain: Option<usize> = None;
        for pos in 0..n {
            if rng.gen_bool(self.fmem) {
                if fresh {
                    origin_r = rng.gen_range(0..=self.matrix_rows - self.block_rows);
                    origin_c = rng.gen_range(0..=self.matrix_cols - self.block_cols);
                    r = 0;
                    c = 0;
                    fresh = false;
                }
                let addr = ((origin_r + r) * self.matrix_cols + (origin_c + c)) * self.elem;
                c += 1;
                if c == self.block_cols {
                    c = 0;
                    r += 1;
                    if r == self.block_rows {
                        fresh = true;
                    }
                }
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
        "blocked"
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{assert_deterministic, assert_fmem_close};
    use super::*;

    #[test]
    fn deterministic_and_fmem() {
        let g = BlockedGen::new(512, 512, 16, 64, 0.5);
        assert_deterministic(&g);
        assert_fmem_close(&g, 0.5);
    }

    #[test]
    fn block_bytes_computed() {
        let g = BlockedGen::new(512, 512, 16, 64, 0.5);
        assert_eq!(g.block_bytes(), 16 * 64 * 8);
    }

    #[test]
    fn addresses_within_matrix() {
        let g = BlockedGen::new(64, 64, 8, 8, 1.0);
        let t = g.generate(2000, 3);
        let max = 64 * 64 * 8;
        for i in t.iter() {
            assert!(i.op.addr().unwrap() < max);
        }
    }

    #[test]
    fn within_block_accesses_are_unit_stride() {
        // With a 1-row block the sweep is purely sequential inside a block.
        let g = BlockedGen::new(256, 256, 1, 32, 1.0);
        let t = g.generate(64, 7);
        let addrs: Vec<u64> = t.iter().filter_map(|i| i.op.addr()).collect();
        let mut unit = 0;
        for w in addrs.windows(2) {
            if w[1] == w[0] + 8 {
                unit += 1;
            }
        }
        // At least ~90% of consecutive pairs are unit stride (block
        // boundaries break the chain occasionally).
        assert!(unit * 10 >= (addrs.len() - 1) * 9, "unit={unit}");
    }
}
