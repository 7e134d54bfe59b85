//! Phased generator — periodic program behaviour (the paper's observation 3
//! and the SimPoint-style sampling it cites).

use super::Generator;
use crate::record::Trace;

/// Cycles through sub-generators, emitting a fixed-length segment of each.
///
/// `PhasedGen` models the large-scale periodicity of real programs: a
/// compute-dominated phase followed by a memory-dominated phase, repeating.
/// The LPM algorithm is interval-driven precisely to adapt to such phase
/// changes, and the phase boundaries produced here are exact (segment
/// lengths are constant), which lets tests assert detection latencies.
pub struct PhasedGen {
    phases: Vec<(Box<dyn Generator + Send + Sync>, usize)>,
}

impl PhasedGen {
    /// Build from `(generator, segment_length)` pairs. Panics if empty or
    /// if any segment length is zero.
    pub fn new(phases: Vec<(Box<dyn Generator + Send + Sync>, usize)>) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        assert!(phases.iter().all(|&(_, len)| len > 0), "zero-length phase");
        Self { phases }
    }

    /// Total length of one full period.
    pub fn period(&self) -> usize {
        self.phases.iter().map(|&(_, len)| len).sum()
    }

    /// The phase index active at instruction `pos`.
    pub fn phase_at(&self, pos: usize) -> usize {
        let mut off = pos % self.period();
        for (i, &(_, len)) in self.phases.iter().enumerate() {
            if off < len {
                return i;
            }
            off -= len;
        }
        // lpm-lint: allow(P001) unreachable by arithmetic: off < period() == sum of phase lengths
        unreachable!("phase_at: offset exceeded period")
    }
}

impl Generator for PhasedGen {
    fn generate(&self, n: usize, seed: u64) -> Trace {
        let mut instrs = Vec::with_capacity(n);
        let mut produced = 0usize;
        let mut round = 0u64;
        'outer: loop {
            for (pi, (g, len)) in self.phases.iter().enumerate() {
                let want = (*len).min(n - produced);
                if want == 0 {
                    break 'outer;
                }
                // Decorrelate segments across rounds and phases.
                let seg = g.generate(want, seed ^ (round << 8) ^ pi as u64);
                instrs.extend_from_slice(seg.instrs());
                produced += want;
                if produced == n {
                    break 'outer;
                }
            }
            round += 1;
        }
        Trace::from_vec(instrs)
    }

    fn name(&self) -> &str {
        "phased"
    }
}

#[cfg(test)]
mod tests {
    use super::super::{RandomGen, StrideGen};
    use super::*;

    fn two_phase() -> PhasedGen {
        PhasedGen::new(vec![
            (Box::new(StrideGen::new(2, 64, 1 << 16, 0.9)), 1000),
            (Box::new(RandomGen::new(1 << 14, 0.1, 0.0)), 500),
        ])
    }

    #[test]
    fn period_and_phase_at() {
        let g = two_phase();
        assert_eq!(g.period(), 1500);
        assert_eq!(g.phase_at(0), 0);
        assert_eq!(g.phase_at(999), 0);
        assert_eq!(g.phase_at(1000), 1);
        assert_eq!(g.phase_at(1499), 1);
        assert_eq!(g.phase_at(1500), 0);
    }

    #[test]
    fn deterministic() {
        let g = two_phase();
        assert_eq!(g.generate(5000, 3), g.generate(5000, 3));
    }

    #[test]
    fn produces_exact_length_even_mid_phase() {
        let g = two_phase();
        assert_eq!(g.generate(1234, 3).len(), 1234);
        assert_eq!(g.generate(1, 3).len(), 1);
    }

    #[test]
    fn phases_have_distinct_memory_intensity() {
        let g = two_phase();
        let t = g.generate(3000, 5);
        let seg0 = &t.instrs()[..1000];
        let seg1 = &t.instrs()[1000..1500];
        let f0 = seg0.iter().filter(|i| i.op.is_mem()).count() as f64 / 1000.0;
        let f1 = seg1.iter().filter(|i| i.op.is_mem()).count() as f64 / 500.0;
        assert!(f0 > 0.8, "phase 0 fmem {f0}");
        assert!(f1 < 0.2, "phase 1 fmem {f1}");
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_rejected() {
        PhasedGen::new(vec![]);
    }
}
