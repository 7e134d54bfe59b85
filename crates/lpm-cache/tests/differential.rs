//! Differential testing: the production tag array against a naive
//! reference model (randomized, and exhaustively on tiny arrays), and
//! the timed cache against basic liveness/uniqueness laws, under
//! randomized operation sequences.

use lpm_cache::array::TagArray;
use lpm_cache::{AccessId, BypassPolicy, Cache, CacheConfig, Policy, PrefetchKind};
use proptest::prelude::*;

/// One line held by the reference model.
#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
    prefetched: bool,
}

/// What one eviction dropped: `(writeback, evicted_clean)`.
type Evicted = (Option<u64>, Option<u64>);

/// A deliberately naive set-associative cache under LRU or FIFO.
#[derive(Debug)]
struct Reference {
    sets: usize,
    assoc: usize,
    /// LRU moves a hit line to the back; FIFO leaves it in place.
    refresh_on_hit: bool,
    /// Per set: the lines in eviction order, the next victim FIRST.
    ways: Vec<Vec<Line>>,
}

impl Reference {
    fn new(sets: usize, assoc: usize, policy: Policy) -> Self {
        Reference {
            sets,
            assoc,
            refresh_on_hit: match policy {
                Policy::Lru => true,
                Policy::Fifo => false,
                other => panic!("no reference for {other:?}"),
            },
            ways: vec![Vec::new(); sets],
        }
    }

    fn decompose(&self, line_addr: u64) -> (usize, u64) {
        let idx = line_addr / 64;
        ((idx as usize) % self.sets, idx / self.sets as u64)
    }

    /// `Some(first_prefetch_use)` on a hit, `None` on a miss.
    fn access(&mut self, line_addr: u64, is_store: bool) -> Option<bool> {
        let (s, tag) = self.decompose(line_addr);
        let set = &mut self.ways[s];
        let pos = set.iter().position(|l| l.tag == tag)?;
        let mut line = set[pos];
        let first_use = line.prefetched;
        line.dirty |= is_store;
        line.prefetched = false;
        set[pos] = line;
        if self.refresh_on_hit {
            set.remove(pos);
            set.push(line);
        }
        Some(first_use)
    }

    /// Install a line. A fill for a present line merges its flags and
    /// counts as a fresh fill under both policies, like the production
    /// array.
    fn fill(&mut self, line_addr: u64, dirty: bool, prefetched: bool) -> Evicted {
        let (s, tag) = self.decompose(line_addr);
        let (assoc, sets) = (self.assoc, self.sets as u64);
        let set = &mut self.ways[s];
        if let Some(pos) = set.iter().position(|l| l.tag == tag) {
            let mut line = set.remove(pos);
            line.dirty |= dirty;
            line.prefetched &= prefetched;
            set.push(line);
            return (None, None);
        }
        let mut evicted = (None, None);
        if set.len() == assoc {
            let victim = set.remove(0);
            let addr = (victim.tag * sets + s as u64) * 64;
            evicted = if victim.dirty {
                (Some(addr), None)
            } else {
                (None, Some(addr))
            };
        }
        set.push(Line {
            tag,
            dirty,
            prefetched,
        });
        evicted
    }
}

/// One tag-array operation on a line: demand loads and stores, and
/// fills that arrive clean, dirty (a write-allocate store miss) or
/// prefetched.
#[derive(Debug, Clone, Copy)]
enum Op {
    Load,
    Store,
    Fill,
    DirtyFill,
    PrefetchFill,
}

const OPS: [Op; 5] = [
    Op::Load,
    Op::Store,
    Op::Fill,
    Op::DirtyFill,
    Op::PrefetchFill,
];

/// What one operation reports: a lookup's `Some(first_prefetch_use)`
/// or miss, or what a fill evicted.
#[derive(Debug, PartialEq)]
enum Outcome {
    Lookup(Option<bool>),
    Fill(Evicted),
}

/// Apply `op` to both models and compare every outcome the array
/// reports: hit/miss with the first-prefetch-use flag, the dirty
/// writeback and the clean eviction.
fn step(
    real: &mut TagArray,
    reference: &mut Reference,
    line_addr: u64,
    op: Op,
) -> Result<(), String> {
    let (got, want) = match op {
        Op::Load | Op::Store => {
            let is_store = matches!(op, Op::Store);
            (
                Outcome::Lookup(real.access(line_addr, is_store)),
                Outcome::Lookup(reference.access(line_addr, is_store)),
            )
        }
        Op::Fill | Op::DirtyFill | Op::PrefetchFill => {
            let (dirty, prefetched) = (matches!(op, Op::DirtyFill), matches!(op, Op::PrefetchFill));
            let out = real.fill(line_addr, dirty, prefetched);
            (
                Outcome::Fill((out.writeback, out.evicted_clean)),
                Outcome::Fill(reference.fill(line_addr, dirty, prefetched)),
            )
        }
    };
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{op:?} {line_addr:#x}: array {got:?}, reference {want:?}"
        ))
    }
}

fn tiny_cfg(sets: u64, policy: Policy) -> CacheConfig {
    CacheConfig {
        size_bytes: sets * 2 * 64,
        assoc: 2,
        policy,
        ..small_cfg()
    }
}

/// Every sequence of `len` operations over `lines` on a `sets` × 2
/// array, under `policy`, agrees with the reference after every step.
/// Checking each step covers every shorter sequence too. Returns the
/// number of sequences run.
fn exhaustive(sets: u64, lines: &[u64], len: u32, policy: Policy) -> usize {
    let symbols = lines.len() * OPS.len();
    let total = symbols.pow(len);
    for mut code in 0..total {
        let mut real = TagArray::new(&tiny_cfg(sets, policy), 0);
        let mut reference = Reference::new(sets as usize, 2, policy);
        let mut done = Vec::new();
        for _ in 0..len {
            let (line, op) = (lines[code % symbols / OPS.len()], OPS[code % OPS.len()]);
            code /= symbols;
            done.push((line, op));
            if let Err(e) = step(&mut real, &mut reference, line * 64, op) {
                panic!("{policy:?} {sets}x2 after {done:?}: {e}");
            }
        }
    }
    total
}

#[test]
fn tiny_arrays_match_the_reference_on_every_short_sequence() {
    for policy in [Policy::Lru, Policy::Fifo] {
        // One set: three lines compete for two ways.
        assert_eq!(exhaustive(1, &[0, 1, 2], 4, policy), 15usize.pow(4));
        // Two sets: lines 0, 2 and 4 share set 0, line 1 has set 1.
        assert_eq!(exhaustive(2, &[0, 1, 2, 4], 4, policy), 20usize.pow(4));
    }
}

fn small_cfg() -> CacheConfig {
    CacheConfig {
        size_bytes: 2048, // 8 sets × 4 ways
        assoc: 4,
        line_bytes: 64,
        hit_latency: 1,
        ports: 8,
        banks: 1,
        mshrs: 8,
        targets_per_mshr: 8,
        pipelined: true,
        policy: Policy::Lru,
        prefetch: PrefetchKind::None,
        bypass: BypassPolicy::None,
    }
}

proptest! {
    /// The production tag array and the reference model agree on every
    /// outcome, under LRU and FIFO, for any interleaving of demand
    /// accesses and clean, dirty or prefetched fills.
    #[test]
    fn tag_array_matches_reference(
        ops in proptest::collection::vec((0u64..64, 0usize..OPS.len()), 1..300),
    ) {
        for policy in [Policy::Lru, Policy::Fifo] {
            let cfg = CacheConfig { policy, ..small_cfg() };
            let mut real = TagArray::new(&cfg, 0);
            let mut reference = Reference::new(8, 4, policy);
            for &(line_idx, op) in &ops {
                let stepped = step(&mut real, &mut reference, line_idx * 64, OPS[op]);
                prop_assert_eq!(stepped, Ok(()), "{:?}", policy);
            }
        }
    }

    /// Liveness and uniqueness of the timed cache: every accepted demand
    /// access completes exactly once, provided fills are eventually
    /// delivered.
    #[test]
    fn every_access_completes_exactly_once(
        schedule in proptest::collection::vec((0u64..32, 1u64..40, any::<bool>()), 1..120),
    ) {
        let mut cache = Cache::new(small_cfg(), 1);
        let mut pending_fills: Vec<(u64, u64)> = Vec::new();
        let mut completions: std::collections::BTreeMap<u64, u32> =
            std::collections::BTreeMap::new();
        let mut accepted = 0u64;
        let mut next = schedule.iter();
        let mut upcoming = next.next();
        let mut id = 0u64;
        let mut now = 0u64;
        loop {
            if let Some(&(line, _, is_store)) = upcoming {
                id += 1;
                // Plenty of ports: acceptance is guaranteed.
                assert_eq!(
                    cache.access(now, AccessId(id), line * 64, is_store),
                    lpm_cache::AccessResponse::Accepted
                );
                accepted += 1;
                upcoming = next.next();
            }
            let mut i = 0;
            while i < pending_fills.len() {
                if pending_fills[i].0 <= now {
                    let (_, l) = pending_fills.swap_remove(i);
                    cache.fill(l);
                } else {
                    i += 1;
                }
            }
            let out = cache.step(now);
            for c in out.completions {
                *completions.entry(c.id.0).or_insert(0) += 1;
            }
            for line in out.outgoing_misses {
                // Use the schedule's latency stream for variety.
                let lat = schedule[(line as usize / 64) % schedule.len()].1;
                pending_fills.push((now + lat, line));
            }
            now += 1;
            let drained = upcoming.is_none()
                && pending_fills.is_empty()
                && cache.miss_phase_count() == 0
                && cache.hit_phase_count(now) == 0;
            if drained || now > 20_000 {
                break;
            }
        }
        prop_assert_eq!(completions.len() as u64, accepted, "missing completions");
        prop_assert!(completions.values().all(|&n| n == 1), "duplicate completion");
    }
}
