//! Replacement policies: LRU, FIFO, Random and tree-PLRU.
//!
//! Policies keep per-set metadata separate from the tag array so the array
//! stays policy-agnostic. All policies are deterministic given the cache's
//! seed (Random uses a per-cache PRNG), keeping whole-system runs
//! reproducible.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The one sanctioned RNG-construction point in this crate (the D003
/// lint rule forbids ad-hoc seeding elsewhere). The salt decorrelates
/// this stream from other consumers of the same user-visible seed and
/// is part of the byte-identity contract — changing it moves every
/// Random-policy golden result.
fn salted_rng(seed: u64, salt: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ salt)
}

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Evict the least recently used way.
    Lru,
    /// Evict the earliest-filled way (no update on hit).
    Fifo,
    /// Evict a uniformly random way.
    Random,
    /// Tree pseudo-LRU (requires power-of-two associativity).
    Plru,
}

/// Per-set replacement state for a whole cache.
#[derive(Debug)]
pub struct ReplacementState {
    policy: Policy,
    assoc: usize,
    /// LRU/FIFO: per-way stamp. PLRU: per-set tree bits in `tree`.
    stamps: Vec<u64>,
    tree: Vec<u64>,
    counter: u64,
    rng: SmallRng,
}

impl ReplacementState {
    /// Create state for `sets` sets of `assoc` ways.
    pub fn new(policy: Policy, sets: usize, assoc: usize, seed: u64) -> Self {
        assert!(assoc >= 1);
        if policy == Policy::Plru {
            assert!(
                assoc.is_power_of_two(),
                "tree-PLRU needs power-of-two associativity"
            );
            assert!(
                assoc <= 64,
                "tree-PLRU keeps one u64 tree per set: at most 64 ways"
            );
        }
        ReplacementState {
            policy,
            assoc,
            stamps: vec![0; sets * assoc],
            tree: vec![0; sets],
            counter: 0,
            rng: salted_rng(seed, 0x9E3779B97F4A7C15),
        }
    }

    /// Record a hit on `(set, way)`.
    pub fn on_hit(&mut self, set: usize, way: usize) {
        match self.policy {
            Policy::Lru => {
                self.counter += 1;
                self.stamps[set * self.assoc + way] = self.counter;
            }
            Policy::Fifo | Policy::Random => {}
            Policy::Plru => self.touch_plru(set, way),
        }
    }

    /// Record a fill into `(set, way)`.
    pub fn on_fill(&mut self, set: usize, way: usize) {
        match self.policy {
            Policy::Lru | Policy::Fifo => {
                self.counter += 1;
                self.stamps[set * self.assoc + way] = self.counter;
            }
            Policy::Random => {}
            Policy::Plru => self.touch_plru(set, way),
        }
    }

    /// Choose the way to evict from the full `set`.
    pub fn victim(&mut self, set: usize) -> usize {
        match self.policy {
            // The oldest stamp; the lowest way among equals.
            Policy::Lru | Policy::Fifo => self.stamps[set * self.assoc..(set + 1) * self.assoc]
                .iter()
                .enumerate()
                .min_by_key(|&(_, &stamp)| stamp)
                .map_or(0, |(way, _)| way),
            Policy::Random => self.rng.gen_range(0..self.assoc),
            Policy::Plru => self.plru_victim(set),
        }
    }

    /// Flip the PLRU tree bits along the path to `way` so they point away
    /// from it.
    fn touch_plru(&mut self, set: usize, way: usize) {
        let mut bits = self.tree[set];
        let mut node = 0usize; // tree node index, 0-based heap layout
        let levels = self.assoc.trailing_zeros() as usize;
        for level in 0..levels {
            // Bit of `way` at this level, MSB first.
            let bit = (way >> (levels - 1 - level)) & 1;
            // Point away from the accessed side.
            if bit == 0 {
                bits |= 1 << node; // 1 = right is LRU side
            } else {
                bits &= !(1 << node);
            }
            node = 2 * node + 1 + bit;
        }
        self.tree[set] = bits;
    }

    /// Follow the PLRU tree bits to the pseudo-LRU way.
    fn plru_victim(&self, set: usize) -> usize {
        let bits = self.tree[set];
        let levels = self.assoc.trailing_zeros() as usize;
        let mut node = 0usize;
        let mut way = 0usize;
        for _ in 0..levels {
            let b = ((bits >> node) & 1) as usize;
            way = (way << 1) | b;
            node = 2 * node + 1 + b;
        }
        way
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut r = ReplacementState::new(Policy::Lru, 1, 4, 0);
        for w in 0..4 {
            r.on_fill(0, w);
        }
        r.on_hit(0, 0); // way 0 is now most recent; way 1 is LRU.
        assert_eq!(r.victim(0), 1);
        r.on_hit(0, 1);
        assert_eq!(r.victim(0), 2);
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut r = ReplacementState::new(Policy::Fifo, 1, 4, 0);
        for w in 0..4 {
            r.on_fill(0, w);
        }
        r.on_hit(0, 0); // FIFO: does not refresh way 0.
        assert_eq!(r.victim(0), 0);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let mut a = ReplacementState::new(Policy::Random, 1, 8, 42);
        let mut b = ReplacementState::new(Policy::Random, 1, 8, 42);
        for _ in 0..32 {
            let va = a.victim(0);
            let vb = b.victim(0);
            assert_eq!(va, vb);
            assert!(va < 8);
        }
    }

    #[test]
    fn plru_victim_avoids_recent_ways() {
        let mut r = ReplacementState::new(Policy::Plru, 1, 4, 0);
        // Touch ways 0..3 in order; the victim should be way 0 afterwards
        // (tree points fully away from the most recent path).
        for w in 0..4 {
            r.on_fill(0, w);
        }
        let v = r.victim(0);
        assert_eq!(v, 0);
        // Touch 0: victim must no longer be 0.
        r.on_hit(0, 0);
        assert_ne!(r.victim(0), 0);
    }

    #[test]
    fn plru_single_way() {
        let mut r = ReplacementState::new(Policy::Plru, 1, 1, 0);
        r.on_fill(0, 0);
        assert_eq!(r.victim(0), 0);
    }

    #[test]
    fn sets_are_independent() {
        let mut r = ReplacementState::new(Policy::Lru, 2, 2, 0);
        r.on_fill(0, 0);
        r.on_fill(0, 1);
        r.on_fill(1, 1);
        r.on_fill(1, 0);
        assert_eq!(r.victim(0), 0);
        assert_eq!(r.victim(1), 1);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plru_rejects_non_power_assoc() {
        ReplacementState::new(Policy::Plru, 1, 3, 0);
    }
}
