//! Strided streaming generator — the high-MLP, prefetch-friendly pattern of
//! array sweeps (bwaves/milc/lbm-like inner loops).

use super::{rng_for, Generator};
use crate::record::{Instr, Op, Trace};
use rand::Rng;

/// Round-robin strided streams over a circular region.
///
/// Memory accesses cycle through `streams` independent cursors, each
/// advancing by `stride` bytes and wrapping at `region` bytes. Loads carry
/// no dependences, so an out-of-order core can keep `streams`-deep
/// memory-level parallelism in flight — exactly the behaviour that drives
/// `CM` up in the C-AMAT model.
#[derive(Debug, Clone)]
pub struct StrideGen {
    /// Number of concurrent streams.
    pub streams: usize,
    /// Stride per access, bytes.
    pub stride: u64,
    /// Region (working set) per stream, bytes.
    pub region: u64,
    /// Fraction of instructions that are memory operations.
    pub fmem: f64,
    /// Fraction of memory operations that are stores.
    pub store_frac: f64,
    /// Probability that a compute instruction consumes the most recent
    /// load (creating a load-to-use dependence).
    pub use_dep: f64,
    /// Probability that a compute instruction extends a compute-compute
    /// dependence chain (bounds intrinsic ILP).
    pub cc_dep: f64,
}

impl StrideGen {
    /// A default load-only streaming generator.
    pub fn new(streams: usize, stride: u64, region: u64, fmem: f64) -> Self {
        assert!(streams > 0, "need at least one stream");
        assert!(stride > 0, "stride must be positive");
        assert!(region >= stride, "region must hold at least one stride");
        Self {
            streams,
            stride,
            region,
            fmem,
            store_frac: 0.0,
            use_dep: 0.1,
            cc_dep: 0.3,
        }
    }

    /// Set the store fraction.
    pub fn with_stores(mut self, store_frac: f64) -> Self {
        self.store_frac = store_frac;
        self
    }

    /// Set the load-to-use dependence probability for compute instructions.
    pub fn with_use_dep(mut self, use_dep: f64) -> Self {
        self.use_dep = use_dep;
        self
    }
}

impl Generator for StrideGen {
    fn generate(&self, n: usize, seed: u64) -> Trace {
        let mut rng = rng_for(seed, 0x5714);
        let mut instrs = Vec::with_capacity(n);
        // Stream s occupies [s*region, (s+1)*region).
        let mut cursors: Vec<u64> = (0..self.streams)
            .map(|s| {
                s as u64 * self.region + rng.gen_range(0..self.region / self.stride) * self.stride
            })
            .collect();
        let mut next_stream = 0usize;
        let mut last_load_pos: Option<usize> = None;
        let mut cc_chain: Option<usize> = None;
        for pos in 0..n {
            if rng.gen_bool(self.fmem) {
                let s = next_stream;
                next_stream = (next_stream + 1) % self.streams;
                let base = s as u64 * self.region;
                let addr = cursors[s];
                cursors[s] = base + ((addr - base) + self.stride) % self.region;
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
        "stride"
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{assert_deterministic, assert_fmem_close};
    use super::*;

    #[test]
    fn deterministic_and_fmem() {
        let g = StrideGen::new(4, 64, 1 << 20, 0.4);
        assert_deterministic(&g);
        assert_fmem_close(&g, 0.4);
    }

    #[test]
    fn addresses_stay_in_stream_regions() {
        let g = StrideGen::new(2, 64, 4096, 1.0);
        let t = g.generate(500, 1);
        for i in t.iter() {
            let a = i.op.addr().unwrap();
            assert!(a < 2 * 4096, "address {a} escaped its region");
        }
    }

    #[test]
    fn consecutive_stream_accesses_differ_by_stride() {
        let g = StrideGen::new(1, 64, 1 << 16, 1.0);
        let t = g.generate(100, 9);
        let addrs: Vec<u64> = t.iter().filter_map(|i| i.op.addr()).collect();
        for w in addrs.windows(2) {
            let diff = (w[1] + (1 << 16) - w[0]) % (1 << 16);
            assert_eq!(diff, 64);
        }
    }

    #[test]
    fn stores_appear_at_requested_rate() {
        let g = StrideGen::new(2, 64, 1 << 16, 1.0).with_stores(0.3);
        let t = g.generate(20_000, 5);
        let stores = t.iter().filter(|i| matches!(i.op, Op::Store(_))).count() as f64;
        let frac = stores / t.len() as f64;
        assert!((frac - 0.3).abs() < 0.02, "store fraction {frac}");
    }

    #[test]
    fn loads_are_dependence_free() {
        let g = StrideGen::new(4, 64, 1 << 16, 0.5);
        let t = g.generate(5000, 2);
        for i in t.iter() {
            if i.op.is_mem() {
                assert_eq!(i.dep, 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn zero_streams_rejected() {
        StrideGen::new(0, 64, 4096, 0.5);
    }
}
