//! The tag array: sets × ways of line tags with dirty bits.
//!
//! Each way is one `u64` word, `tag << 3 | prefetched << 2 | dirty << 1 |
//! valid`, and 0 is an invalid way. The array starts as zeroed memory, so
//! only the pages of sets a run fills ever become resident: a large
//! shared L2 that a short run touches sparsely costs what it holds.

use crate::config::CacheConfig;
use crate::replacement::ReplacementState;

const VALID: u64 = 1;
const DIRTY: u64 = 1 << 1;
/// Installed by a prefetch and not yet touched by demand.
const PREFETCHED: u64 = 1 << 2;
const TAG_SHIFT: u32 = 3;

/// Outcome of installing a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// The way the line landed in.
    pub way: usize,
    /// A dirty victim line address that must be written back, if any.
    pub writeback: Option<u64>,
    /// A clean victim line address that was silently dropped, if any.
    pub evicted_clean: Option<u64>,
}

/// The tag array plus replacement metadata.
#[derive(Debug)]
pub struct TagArray {
    sets: usize,
    assoc: usize,
    line_bytes: u64,
    /// One word per way, set-major (see the module doc for the layout).
    ways: Vec<u64>,
    repl: ReplacementState,
}

impl TagArray {
    /// Build an empty array for `cfg`, seeding the (Random-policy) PRNG.
    pub fn new(cfg: &CacheConfig, seed: u64) -> Self {
        // A line of at least 8 bytes leaves a tag below 2^61, so
        // `tag << TAG_SHIFT` cannot drop tag bits.
        assert!(cfg.line_bytes >= 8, "line size must be >= 8 bytes");
        let sets = cfg.sets() as usize;
        let assoc = cfg.assoc as usize;
        TagArray {
            sets,
            assoc,
            line_bytes: cfg.line_bytes,
            ways: vec![0; sets * assoc],
            repl: ReplacementState::new(cfg.policy, sets, assoc, seed),
        }
    }

    fn decompose(&self, line_addr: u64) -> (usize, u64) {
        let line_idx = line_addr / self.line_bytes;
        let set = (line_idx as usize) & (self.sets - 1);
        let tag = line_idx / self.sets as u64;
        (set, tag)
    }

    fn line_addr(&self, set: usize, tag: u64) -> u64 {
        (tag * self.sets as u64 + set as u64) * self.line_bytes
    }

    /// The way of `set` holding `tag`, if it is present.
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let want = tag << TAG_SHIFT | VALID;
        let base = set * self.assoc;
        self.ways[base..base + self.assoc]
            .iter()
            .position(|&w| w & !(DIRTY | PREFETCHED) == want)
    }

    /// Look up a line; on hit updates replacement state and, for stores,
    /// the dirty bit. Returns `Some(first_prefetch_use)` on a hit — true
    /// exactly once per line that a prefetch installed and demand is now
    /// touching for the first time — and `None` on a miss.
    pub fn access(&mut self, line_addr: u64, is_store: bool) -> Option<bool> {
        let (set, tag) = self.decompose(line_addr);
        let way = self.find(set, tag)?;
        let w = &mut self.ways[set * self.assoc + way];
        let first_use = *w & PREFETCHED != 0;
        *w = *w & !PREFETCHED | if is_store { DIRTY } else { 0 };
        self.repl.on_hit(set, way);
        Some(first_use)
    }

    /// Whether a line is present, without touching replacement state.
    pub fn probe(&self, line_addr: u64) -> bool {
        let (set, tag) = self.decompose(line_addr);
        self.find(set, tag).is_some()
    }

    /// Install a line (after a fill), evicting a victim if the set is full.
    /// `dirty` marks the incoming line (write-allocate store miss);
    /// `prefetched` marks a line installed by a prefetch with no demand
    /// consumer yet.
    pub fn fill(&mut self, line_addr: u64, dirty: bool, prefetched: bool) -> FillOutcome {
        let (set, tag) = self.decompose(line_addr);
        let base = set * self.assoc;
        let dirty = if dirty { DIRTY } else { 0 };
        // Idempotence: a fill for a line already present updates it in
        // place (merging the dirty bit) instead of installing a duplicate.
        // The MSHR file normally prevents duplicate fills, but the array
        // must stay correct if one slips through.
        if let Some(way) = self.find(set, tag) {
            let w = &mut self.ways[base + way];
            *w |= dirty;
            if !prefetched {
                *w &= !PREFETCHED;
            }
            self.repl.on_fill(set, way);
            return FillOutcome {
                way,
                writeback: None,
                evicted_clean: None,
            };
        }
        // Prefer an invalid way.
        let way = self.ways[base..base + self.assoc]
            .iter()
            .position(|&w| w == 0)
            .unwrap_or_else(|| self.repl.victim(set));
        let prior = self.ways[base + way];
        let mut writeback = None;
        let mut evicted_clean = None;
        if prior & VALID != 0 {
            let victim_addr = self.line_addr(set, prior >> TAG_SHIFT);
            if prior & DIRTY != 0 {
                writeback = Some(victim_addr);
            } else {
                evicted_clean = Some(victim_addr);
            }
        }
        let prefetched = if prefetched { PREFETCHED } else { 0 };
        self.ways[base + way] = tag << TAG_SHIFT | prefetched | dirty | VALID;
        self.repl.on_fill(set, way);
        FillOutcome {
            way,
            writeback,
            evicted_clean,
        }
    }

    /// Number of valid lines (for tests and occupancy reports).
    pub fn valid_lines(&self) -> usize {
        self.ways.iter().filter(|&&w| w & VALID != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bypass::BypassPolicy;
    use crate::prefetch::PrefetchKind;
    use crate::replacement::Policy;

    fn small_cfg() -> CacheConfig {
        CacheConfig {
            size_bytes: 1024, // 4 sets × 4 ways × 64 B
            assoc: 4,
            line_bytes: 64,
            hit_latency: 1,
            ports: 1,
            banks: 1,
            mshrs: 4,
            targets_per_mshr: 4,
            pipelined: true,
            policy: Policy::Lru,
            prefetch: PrefetchKind::None,
            bypass: BypassPolicy::None,
        }
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let cfg = small_cfg();
        let mut a = TagArray::new(&cfg, 0);
        assert!(a.access(0, false).is_none());
        let f = a.fill(0, false, false);
        assert_eq!(f.writeback, None);
        assert!(a.access(0, false).is_some());
        assert_eq!(a.valid_lines(), 1);
    }

    #[test]
    fn eviction_after_set_fills_up() {
        let cfg = small_cfg();
        let mut a = TagArray::new(&cfg, 0);
        // 4 sets → lines 0, 4, 8, 12, 16 (×64) all map to set 0.
        let set_stride = 4 * 64;
        for i in 0..4u64 {
            a.fill(i * set_stride, false, false);
        }
        assert_eq!(a.valid_lines(), 4);
        // Fifth fill evicts LRU (line 0).
        let f = a.fill(4 * set_stride, false, false);
        assert_eq!(f.evicted_clean, Some(0));
        assert!(!a.probe(0));
        assert!(a.probe(4 * set_stride));
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let cfg = small_cfg();
        let mut a = TagArray::new(&cfg, 0);
        let set_stride = 4 * 64;
        a.fill(0, false, false);
        assert!(a.access(0, true).is_some()); // store makes it dirty
        for i in 1..4u64 {
            a.fill(i * set_stride, false, false);
        }
        let f = a.fill(4 * set_stride, false, false);
        assert_eq!(f.writeback, Some(0));
        assert_eq!(f.evicted_clean, None);
    }

    #[test]
    fn fill_dirty_marks_line() {
        let cfg = small_cfg();
        let mut a = TagArray::new(&cfg, 0);
        let set_stride = 4 * 64;
        // Set 1: a dirty fill, then three clean ones.
        a.fill(64, true, false);
        for i in 1..4u64 {
            a.fill(64 + i * set_stride, false, false);
        }
        let f = a.fill(64 + 4 * set_stride, false, false);
        assert_eq!(f.writeback, Some(64));
        assert_eq!(f.evicted_clean, None);
        let f = a.fill(64 + 5 * set_stride, false, false);
        assert_eq!(f.writeback, None);
        assert_eq!(f.evicted_clean, Some(64 + set_stride));
    }

    #[test]
    fn store_hit_dirties_a_present_line_only() {
        let cfg = small_cfg();
        let mut a = TagArray::new(&cfg, 0);
        let set_stride = 4 * 64;
        // A store to an absent line is a miss that installs nothing.
        assert_eq!(a.access(4096, true), None);
        assert_eq!(a.valid_lines(), 0);
        // Set 2: a store hit dirties the line, which is written back
        // exactly once, when it is evicted.
        a.fill(128, false, false);
        assert_eq!(a.access(128, true), Some(false));
        for i in 1..4u64 {
            a.fill(128 + i * set_stride, false, false);
        }
        let f = a.fill(128 + 4 * set_stride, false, false);
        assert_eq!(f.writeback, Some(128));
        assert!(!a.probe(128));
        // Refilled clean, the line carries no stale dirty bit.
        a.fill(128, false, false);
        for i in 5..9u64 {
            let f = a.fill(128 + i * set_stride, false, false);
            assert_eq!(f.writeback, None);
        }
        assert!(!a.probe(128));
    }

    #[test]
    fn hits_refresh_lru_order() {
        let cfg = small_cfg();
        let mut a = TagArray::new(&cfg, 0);
        let set_stride = 4 * 64;
        for i in 0..4u64 {
            a.fill(i * set_stride, false, false);
        }
        // Touch line 0 → line at 1×stride becomes LRU.
        assert!(a.access(0, false).is_some());
        let f = a.fill(4 * set_stride, false, false);
        assert_eq!(f.evicted_clean, Some(set_stride));
        assert!(a.probe(0));
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let cfg = small_cfg();
        let mut a = TagArray::new(&cfg, 0);
        a.fill(0, false, false); // set 0
        a.fill(64, false, false); // set 1
        assert!(a.probe(0));
        assert!(a.probe(64));
        assert_eq!(a.valid_lines(), 2);
    }
}
