//! Trace statistics: memory fraction, footprint and reuse behaviour.
//!
//! These are *workload*-side measurements (properties of the trace alone),
//! as opposed to the analyzer counters in `lpm-model`, which are
//! *system*-side (properties of a trace running on a particular hierarchy).
//! The scheduler case study uses footprints for sanity checks and the test
//! suite uses reuse distances to validate generator signatures.

use crate::record::Trace;
use std::collections::BTreeMap;

/// Summary statistics of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Total instructions.
    pub instructions: usize,
    /// Memory operations.
    pub mem_ops: usize,
    /// Loads.
    pub loads: usize,
    /// Stores.
    pub stores: usize,
    /// Memory-instruction fraction `fmem`.
    pub fmem: f64,
    /// Distinct 64-byte lines touched.
    pub unique_lines: usize,
    /// Footprint in bytes (unique lines × 64).
    pub footprint: u64,
    /// Fraction of memory ops that carry a dependence.
    pub dependent_mem_frac: f64,
    /// Histogram of log2-bucketed LRU reuse distances (in lines).
    /// `reuse_hist[k]` counts accesses with stack distance in
    /// `[2^k, 2^(k+1))`; bucket 0 also covers distance 0 (immediate reuse)
    /// and the last bucket counts cold (first-touch) accesses.
    pub reuse_hist: Vec<usize>,
}

/// Number of log2 buckets in the reuse histogram (covers distances up to
/// 2^22 lines = 256 MiB) plus one cold bucket.
const REUSE_BUCKETS: usize = 24;

impl TraceStats {
    /// Measure a trace.
    ///
    /// The reuse-distance computation uses the standard O(n log n)
    /// timestamp + Fenwick-tree algorithm over 64-byte lines.
    pub fn measure(trace: &Trace) -> TraceStats {
        let mut loads = 0usize;
        let mut stores = 0usize;
        let mut dependent_mem = 0usize;

        // Reuse distance: for each access, count distinct lines touched
        // since its previous access. Fenwick tree over access timestamps.
        let mem_count = trace.mem_ops();
        let mut fenwick = Fenwick::new(mem_count + 1);
        let mut last_seen: BTreeMap<u64, usize> = BTreeMap::new();
        let mut reuse_hist = vec![0usize; REUSE_BUCKETS + 1];
        let mut t = 0usize; // memory-op timestamp

        for i in trace.iter() {
            let Some(addr) = i.op.addr() else { continue };
            match i.op {
                crate::record::Op::Load(_) => loads += 1,
                crate::record::Op::Store(_) => stores += 1,
                // addr() returned Some, so the op carries an address;
                // skipping is the panic-free way to encode that.
                crate::record::Op::Compute => continue,
            }
            if i.dep > 0 {
                dependent_mem += 1;
            }
            let line = addr / 64;
            match last_seen.insert(line, t) {
                None => {
                    // Cold miss: last bucket.
                    reuse_hist[REUSE_BUCKETS] += 1;
                }
                Some(prev) => {
                    // Stack distance = distinct lines touched since the
                    // previous access of this line, counting the line
                    // itself — an LRU cache of C lines hits iff d <= C.
                    let d = fenwick.range_sum(prev + 1, t) as usize + 1;
                    let bucket = if d <= 1 {
                        0
                    } else {
                        (usize::BITS - 1 - d.leading_zeros()) as usize
                    }
                    .min(REUSE_BUCKETS - 1);
                    reuse_hist[bucket] += 1;
                    // Unmark the previous timestamp of this line.
                    fenwick.add(prev, -1);
                }
            }
            fenwick.add(t, 1);
            t += 1;
        }

        let mem_ops = loads + stores;
        let unique_lines = last_seen.len();
        TraceStats {
            instructions: trace.len(),
            mem_ops,
            loads,
            stores,
            fmem: if trace.is_empty() {
                0.0
            } else {
                mem_ops as f64 / trace.len() as f64
            },
            unique_lines,
            footprint: unique_lines as u64 * 64,
            dependent_mem_frac: if mem_ops == 0 {
                0.0
            } else {
                dependent_mem as f64 / mem_ops as f64
            },
            reuse_hist,
        }
    }

    /// Fraction of (warm) reuses whose stack distance is guaranteed at most
    /// `lines` — a conservative lower bound on the hit ratio of a fully
    /// associative LRU cache of that many lines (buckets straddling the
    /// boundary are excluded).
    pub fn reuse_below(&self, lines: usize) -> f64 {
        let warm: usize = self.reuse_hist[..REUSE_BUCKETS].iter().sum();
        if warm == 0 {
            return 0.0;
        }
        // Include bucket k iff its whole range [2^k, 2^(k+1)) — capped at
        // 2^(k+1)-1 < ... — fits below `lines`: 2^(k+1) <= lines.
        let cutoff = if lines < 2 {
            0
        } else {
            (usize::BITS - 1 - lines.leading_zeros()) as usize
        }
        .min(REUSE_BUCKETS);
        let below: usize = self.reuse_hist[..cutoff].iter().sum();
        below as f64 / warm as f64
    }

    /// Number of cold (first-touch) accesses.
    pub fn cold_accesses(&self) -> usize {
        self.reuse_hist[REUSE_BUCKETS]
    }
}

/// A Fenwick (binary indexed) tree over i64 counts.
struct Fenwick {
    tree: Vec<i64>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    /// Add `delta` at position `i` (0-based).
    fn add(&mut self, i: usize, delta: i64) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `[0, i]` (0-based, inclusive).
    fn prefix_sum(&self, i: usize) -> i64 {
        let mut i = i + 1;
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Sum over `[lo, hi)` (0-based, half-open). Returns 0 for empty ranges.
    fn range_sum(&self, lo: usize, hi: usize) -> i64 {
        if lo >= hi {
            return 0;
        }
        let upper = self.prefix_sum(hi - 1);
        if lo == 0 {
            upper
        } else {
            upper - self.prefix_sum(lo - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{ChaseGen, Generator, RandomGen, StrideGen};
    use crate::record::{Instr, Trace};

    #[test]
    fn fenwick_basics() {
        let mut f = Fenwick::new(10);
        f.add(0, 1);
        f.add(3, 2);
        f.add(9, 5);
        assert_eq!(f.prefix_sum(0), 1);
        assert_eq!(f.prefix_sum(3), 3);
        assert_eq!(f.prefix_sum(9), 8);
        assert_eq!(f.range_sum(1, 4), 2);
        assert_eq!(f.range_sum(4, 4), 0);
        f.add(3, -2);
        assert_eq!(f.range_sum(0, 10), 6);
    }

    #[test]
    fn counts_and_fmem() {
        let t = Trace::from_vec(vec![
            Instr::compute(),
            Instr::load(0),
            Instr::store(64),
            Instr::load(0),
        ]);
        let s = TraceStats::measure(&t);
        assert_eq!(s.instructions, 4);
        assert_eq!(s.mem_ops, 3);
        assert_eq!(s.loads, 2);
        assert_eq!(s.stores, 1);
        assert_eq!(s.unique_lines, 2);
        assert_eq!(s.footprint, 128);
        assert!((s.fmem - 0.75).abs() < 1e-12);
    }

    #[test]
    fn immediate_reuse_lands_in_bucket_zero() {
        // A A A A: three warm reuses at distance 1.
        let t = Trace::from_vec(vec![Instr::load(0); 4]);
        let s = TraceStats::measure(&t);
        assert_eq!(s.reuse_hist[0], 3);
        assert_eq!(s.cold_accesses(), 1);
        assert!((s.reuse_below(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cyclic_sweep_has_reuse_at_working_set_distance() {
        // Sweep 8 lines repeatedly: warm reuses all at stack distance 8.
        let mut v = Vec::new();
        for _ in 0..10 {
            for l in 0..8u64 {
                v.push(Instr::load(l * 64));
            }
        }
        let s = TraceStats::measure(&Trace::from_vec(v));
        assert_eq!(s.cold_accesses(), 8);
        // Distance 8 → bucket log2(8) = 3.
        assert_eq!(s.reuse_hist[3], 72);
        assert!(s.reuse_below(8) < 0.01);
        assert!((s.reuse_below(16) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn generator_signatures_show_up_in_stats() {
        let stream = StrideGen::new(1, 64, 8 * 64, 1.0).generate(5000, 1);
        let chase = ChaseGen::new(1 << 20, 1.0).generate(5000, 1);
        let ss = TraceStats::measure(&stream);
        let cs = TraceStats::measure(&chase);
        // The 8-line circular stream has perfect short reuse...
        assert!(ss.reuse_below(16) > 0.99);
        // ...while a 16 Ki-line chase has almost none.
        assert!(cs.reuse_below(16) < 0.05);
        // And the chase is dependence-bound while the stream is not.
        assert!(cs.dependent_mem_frac > 0.99);
        assert!(ss.dependent_mem_frac < 0.01);
    }

    #[test]
    fn random_working_set_bounds_footprint() {
        let t = RandomGen::new(128 * 64, 1.0, 0.0).generate(20_000, 2);
        let s = TraceStats::measure(&t);
        assert!(s.unique_lines <= 128);
        assert!(s.unique_lines > 100);
    }

    #[test]
    fn empty_trace() {
        let s = TraceStats::measure(&Trace::default());
        assert_eq!(s.fmem, 0.0);
        assert_eq!(s.mem_ops, 0);
        assert_eq!(s.reuse_below(100), 0.0);
    }
}
