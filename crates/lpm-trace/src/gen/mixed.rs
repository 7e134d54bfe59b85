//! Mixed-pattern generator — the workhorse behind the SPEC-like suite.
//!
//! Real programs are never a single pure pattern: a compiler streams over
//! its IR, hashes into symbol tables and chases pointer-linked ASTs in the
//! same loop nest. [`MixedGen`] draws each memory access from one of three
//! primitive patterns according to a probability [`Mix`], with each pattern
//! living in its own disjoint address region so footprints compose
//! predictably.

use super::{mix64, rng_for, Generator};
use crate::record::{Instr, Op, Trace};
use rand::Rng;

/// Probability mix over the three primitive access patterns.
///
/// The three fields must sum to 1 (within floating-point slack).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    /// Strided streaming fraction.
    pub stream: f64,
    /// Uniform-random fraction.
    pub random: f64,
    /// Pointer-chase fraction.
    pub chase: f64,
}

impl Mix {
    /// Validated constructor: fractions must be non-negative and sum to 1.
    pub fn new(stream: f64, random: f64, chase: f64) -> Self {
        assert!(stream >= 0.0 && random >= 0.0 && chase >= 0.0);
        let sum = stream + random + chase;
        assert!((sum - 1.0).abs() < 1e-9, "mix must sum to 1, got {sum}");
        Self {
            stream,
            random,
            chase,
        }
    }

    /// Pure chase.
    pub fn all_chase() -> Self {
        Self::new(0.0, 0.0, 1.0)
    }
}

/// Region base offsets keeping the three patterns' footprints disjoint.
const STREAM_BASE: u64 = 0;
const RANDOM_BASE: u64 = 1 << 30;
const CHASE_BASE: u64 = 2 << 30;

/// A composite generator mixing stream, random and chase accesses.
#[derive(Debug, Clone)]
pub struct MixedGen {
    /// Memory instruction fraction.
    pub fmem: f64,
    /// Pattern probabilities.
    pub mix: Mix,
    /// Number of concurrent stride streams.
    pub streams: usize,
    /// Stride per stream access, bytes.
    pub stride: u64,
    /// Per-stream region, bytes.
    pub stream_region: u64,
    /// Random-pattern working set, bytes.
    pub random_ws: u64,
    /// Chase-pattern working set, bytes.
    pub chase_ws: u64,
    /// Store fraction among stream/random accesses (chases are loads).
    pub store_frac: f64,
    /// Probability a compute instruction consumes the latest load.
    pub use_dep: f64,
    /// Probability that a compute instruction extends a compute-compute
    /// dependence chain (bounds intrinsic ILP).
    pub cc_dep: f64,
}

impl MixedGen {
    /// A balanced default over modest working sets; tune fields directly.
    pub fn new(fmem: f64, mix: Mix) -> Self {
        Self {
            fmem,
            mix,
            streams: 4,
            stride: 64,
            stream_region: 1 << 20,
            random_ws: 32 << 10,
            chase_ws: 256 << 10,
            store_frac: 0.2,
            use_dep: 0.2,
            cc_dep: 0.3,
        }
    }

    /// Total distinct footprint in bytes (upper bound).
    pub fn footprint(&self) -> u64 {
        self.streams as u64 * self.stream_region + self.random_ws + self.chase_ws
    }
}

impl Generator for MixedGen {
    fn generate(&self, n: usize, seed: u64) -> Trace {
        let mut rng = rng_for(seed, 0x313D);
        let mut instrs = Vec::with_capacity(n);
        let mut cursors: Vec<u64> = (0..self.streams)
            .map(|s| STREAM_BASE + s as u64 * self.stream_region)
            .collect();
        let mut next_stream = 0usize;
        let chase_lines = (self.chase_ws / 64).max(1);
        let mut chase_cur: u64 = rng.gen_range(0..chase_lines);
        let mut chase_step: u64 = 0;
        let mut last_chase_pos: Option<usize> = None;
        let mut last_load_pos: Option<usize> = None;
        let mut cc_chain: Option<usize> = None;
        let random_lines = (self.random_ws / 64).max(1);

        for pos in 0..n {
            if !rng.gen_bool(self.fmem) {
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
                continue;
            }
            let x: f64 = rng.gen();
            if x < self.mix.stream {
                let s = next_stream;
                next_stream = (next_stream + 1) % self.streams;
                let base = STREAM_BASE + s as u64 * self.stream_region;
                let addr = cursors[s];
                cursors[s] = base + ((addr - base) + self.stride) % self.stream_region;
                let op = if rng.gen_bool(self.store_frac) {
                    Op::Store(addr)
                } else {
                    last_load_pos = Some(pos);
                    Op::Load(addr)
                };
                instrs.push(Instr { op, dep: 0 });
            } else if x < self.mix.stream + self.mix.random {
                let addr = RANDOM_BASE + rng.gen_range(0..random_lines) * 64;
                let op = if rng.gen_bool(self.store_frac) {
                    Op::Store(addr)
                } else {
                    last_load_pos = Some(pos);
                    Op::Load(addr)
                };
                instrs.push(Instr { op, dep: 0 });
            } else {
                let addr = CHASE_BASE + chase_cur * 64;
                let dep = last_chase_pos.map_or(0, |p| (pos - p) as u32);
                instrs.push(Instr {
                    op: Op::Load(addr),
                    dep,
                });
                last_chase_pos = Some(pos);
                last_load_pos = Some(pos);
                // Mix in a step counter so the walk does not collapse into
                // the short rho-cycle of an iterated random function.
                chase_step += 1;
                chase_cur = mix64(chase_cur ^ seed ^ (chase_step << 20)) % chase_lines;
            }
        }
        Trace::from_vec(instrs)
    }

    fn name(&self) -> &str {
        "mixed"
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{assert_deterministic, assert_fmem_close};
    use super::*;

    #[test]
    fn deterministic_and_fmem() {
        let g = MixedGen::new(0.4, Mix::new(0.5, 0.3, 0.2));
        assert_deterministic(&g);
        assert_fmem_close(&g, 0.4);
    }

    #[test]
    fn mix_must_sum_to_one() {
        let m = Mix::new(0.2, 0.3, 0.5);
        assert_eq!(m.stream + m.random + m.chase, 1.0);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_mix_rejected() {
        Mix::new(0.5, 0.5, 0.5);
    }

    #[test]
    fn regions_are_disjoint() {
        let g = MixedGen::new(1.0, Mix::new(0.34, 0.33, 0.33));
        let t = g.generate(10_000, 5);
        for i in t.iter() {
            let a = i.op.addr().unwrap();
            // Every address falls in exactly one declared region.
            let in_stream = a < STREAM_BASE + g.streams as u64 * g.stream_region;
            let in_random = (RANDOM_BASE..RANDOM_BASE + g.random_ws).contains(&a);
            let in_chase = (CHASE_BASE..CHASE_BASE + g.chase_ws).contains(&a);
            assert_eq!(
                in_stream as u8 + in_random as u8 + in_chase as u8,
                1,
                "address {a:#x} not in exactly one region"
            );
        }
    }

    #[test]
    fn pattern_fractions_respected() {
        let g = MixedGen::new(1.0, Mix::new(0.6, 0.2, 0.2));
        let t = g.generate(30_000, 9);
        let stream = t
            .iter()
            .filter_map(|i| i.op.addr())
            .filter(|&a| a < RANDOM_BASE)
            .count() as f64;
        let frac = stream / t.len() as f64;
        assert!((frac - 0.6).abs() < 0.02, "stream fraction {frac}");
    }

    #[test]
    fn chase_loads_are_dependent() {
        let g = MixedGen::new(1.0, Mix::all_chase());
        let t = g.generate(1000, 2);
        // All are chase loads; after the first, every one depends backwards.
        for (pos, i) in t.iter().enumerate().skip(1) {
            assert!(i.dep > 0, "chase load at {pos} has no dependence");
        }
    }

    #[test]
    fn footprint_is_sum_of_regions() {
        let g = MixedGen::new(0.5, Mix::new(0.5, 0.3, 0.2));
        assert_eq!(g.footprint(), 4 * (1 << 20) + (32 << 10) + (256 << 10));
    }
}
