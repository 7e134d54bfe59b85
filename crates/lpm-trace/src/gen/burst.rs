//! Bursty generator — ON/OFF memory bursts over a compute background, with
//! ground-truth burst positions for the §IV interval-sizing study.
//!
//! The paper reports that with a 10-cycle measurement interval 96% of burst
//! data-access patterns are "perceived and processed timely", 89% at 20
//! cycles and 73% at 40 cycles. Reproducing that experiment requires knowing
//! exactly where the bursts are — so this generator exposes them.

use super::{rng_for, Generator};
use crate::record::{Instr, Op, Trace};
use rand::Rng;

/// A burst of memory activity: instruction index range in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstSpan {
    /// First instruction of the burst.
    pub start: usize,
    /// One past the last instruction of the burst.
    pub end: usize,
}

impl BurstSpan {
    /// Burst length in instructions.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the span is empty.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Alternating OFF (compute background) and ON (memory burst) segments with
/// seed-jittered lengths.
#[derive(Debug, Clone)]
pub struct BurstGen {
    /// Mean OFF-segment length, instructions.
    pub off_len: usize,
    /// Mean ON-segment (burst) length, instructions.
    pub on_len: usize,
    /// ± jitter applied to each segment length, as a fraction of the mean.
    pub jitter: f64,
    /// Memory fraction inside bursts.
    pub on_fmem: f64,
    /// Memory fraction in the background.
    pub off_fmem: f64,
    /// Working set of burst accesses, bytes.
    pub working_set: u64,
}

impl BurstGen {
    /// Bursty generator with the given segment lengths.
    pub fn new(off_len: usize, on_len: usize) -> Self {
        assert!(off_len > 0 && on_len > 0);
        Self {
            off_len,
            on_len,
            jitter: 0.3,
            on_fmem: 0.9,
            off_fmem: 0.05,
            working_set: 4 << 20,
        }
    }

    fn jittered(&self, mean: usize, rng: &mut impl Rng) -> usize {
        let j = (mean as f64 * self.jitter) as i64;
        if j == 0 {
            return mean;
        }
        (mean as i64 + rng.gen_range(-j..=j)).max(1) as usize
    }

    /// Generate the trace together with the ground-truth burst spans.
    pub fn generate_with_spans(&self, n: usize, seed: u64) -> (Trace, Vec<BurstSpan>) {
        let mut rng = rng_for(seed, 0xB057);
        let lines = (self.working_set / 64).max(1);
        let mut instrs = Vec::with_capacity(n);
        let mut spans = Vec::new();
        let mut pos = 0usize;
        let mut on = false;
        while pos < n {
            let seg = if on {
                self.jittered(self.on_len, &mut rng)
            } else {
                self.jittered(self.off_len, &mut rng)
            }
            .min(n - pos);
            let fmem = if on { self.on_fmem } else { self.off_fmem };
            if on {
                spans.push(BurstSpan {
                    start: pos,
                    end: pos + seg,
                });
            }
            for _ in 0..seg {
                if rng.gen_bool(fmem) {
                    let addr = rng.gen_range(0..lines) * 64;
                    instrs.push(Instr {
                        op: Op::Load(addr),
                        dep: 0,
                    });
                } else {
                    instrs.push(Instr::compute());
                }
            }
            pos += seg;
            on = !on;
        }
        (Trace::from_vec(instrs), spans)
    }
}

impl Generator for BurstGen {
    fn generate(&self, n: usize, seed: u64) -> Trace {
        self.generate_with_spans(n, seed).0
    }

    fn name(&self) -> &str {
        "burst"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_with_spans() {
        let g = BurstGen::new(200, 50);
        let (t1, s1) = g.generate_with_spans(10_000, 5);
        let (t2, s2) = g.generate_with_spans(10_000, 5);
        assert_eq!(t1, t2);
        assert_eq!(s1, s2);
        assert!(!s1.is_empty());
    }

    #[test]
    fn spans_are_ordered_and_disjoint() {
        let g = BurstGen::new(100, 40);
        let (_, spans) = g.generate_with_spans(20_000, 3);
        for w in spans.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
        for s in &spans {
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn bursts_are_memory_dense_background_is_not() {
        let g = BurstGen::new(300, 100);
        let (t, spans) = g.generate_with_spans(30_000, 7);
        let in_burst = |p: usize| spans.iter().any(|s| (s.start..s.end).contains(&p));
        let mut on_mem = 0usize;
        let mut on_tot = 0usize;
        let mut off_mem = 0usize;
        let mut off_tot = 0usize;
        for (p, i) in t.iter().enumerate() {
            if in_burst(p) {
                on_tot += 1;
                on_mem += i.op.is_mem() as usize;
            } else {
                off_tot += 1;
                off_mem += i.op.is_mem() as usize;
            }
        }
        let on_frac = on_mem as f64 / on_tot as f64;
        let off_frac = off_mem as f64 / off_tot as f64;
        assert!(on_frac > 0.8, "burst fmem {on_frac}");
        assert!(off_frac < 0.15, "background fmem {off_frac}");
    }

    #[test]
    fn span_lengths_jitter_around_mean() {
        let g = BurstGen::new(200, 50);
        let (_, spans) = g.generate_with_spans(100_000, 11);
        let mean: f64 = spans.iter().map(|s| s.len() as f64).sum::<f64>() / spans.len() as f64;
        assert!((mean - 50.0).abs() < 10.0, "mean burst length {mean}");
        // Jitter ±30%: all spans within [35, 65] except possibly a final
        // truncated one.
        for s in &spans[..spans.len() - 1] {
            assert!((35..=65).contains(&s.len()), "span length {}", s.len());
        }
    }
}
