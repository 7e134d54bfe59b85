//! The C-AMAT analyzer of Fig. 4: Hit Concurrency Detector (HCD) and Miss
//! Concurrency Detector (MCD).
//!
//! Each simulated cycle, the analyzer samples its cache **before** the
//! cache's `step` (so the final hit-phase cycle and final waiting cycle of
//! every access are observed) and classifies the cycle:
//!
//! * hit activity present (`h > 0`) → hit cycle, `h` hit access-cycles
//!   (the HCD's job);
//! * outstanding misses (`m > 0`) → miss cycle, `m` miss access-cycles;
//! * misses without hit activity (`m > 0 && h == 0`) → **pure miss
//!   cycle**; every currently waiting access is flagged a pure miss (the
//!   MCD's job — "with the information provided by the HCD, the MCD is
//!   able to determine whether a cycle is a pure miss cycle").
//!
//! The accumulated [`LayerCounters`] feed every C-AMAT/LPMR derivation in
//! `lpm-model`.

use lpm_cache::Cache;
use lpm_model::LayerCounters;

/// HCD + MCD for one cache layer.
#[derive(Debug)]
pub struct CacheAnalyzer {
    counters: LayerCounters,
    /// Cache event counts at the last reset (warmup exclusion).
    base_accesses: u64,
    base_misses: u64,
}

impl CacheAnalyzer {
    /// An analyzer for a layer with the given hit time.
    pub fn new(hit_time: u64) -> Self {
        CacheAnalyzer {
            counters: LayerCounters::new(hit_time),
            base_accesses: 0,
            base_misses: 0,
        }
    }

    /// Zero the accumulated counters, treating the cache's current event
    /// counts as the new baseline (performance-counter reset after
    /// warmup). In-flight accesses keep contributing to the new window.
    pub fn reset(&mut self, cache: &Cache) {
        let hit_time = self.counters.hit_time;
        self.counters = LayerCounters::new(hit_time);
        self.base_accesses = cache.stats().accesses;
        self.base_misses = cache.stats().misses;
    }

    /// Sample `n` consecutive cycles whose hit/miss phase populations
    /// are constant: one real step (`n = 1`) or a coalesced idle span
    /// from the event-driven fast path. Every simulated cycle must be
    /// covered exactly once, after new accesses were presented and
    /// before `cache.step(now)`. `mark_all_pure` is idempotent, so one
    /// call stands in for `n`: only the first cycle of a pure-miss span
    /// flags anything new.
    #[inline]
    pub fn sample(&mut self, now: u64, cache: &mut Cache, n: u64) {
        let h = cache.hit_phase_count(now);
        let m = cache.miss_phase_count();
        if h > 0 {
            self.counters.hit_cycles += n;
            self.counters.hit_access_cycles += h * n;
        }
        if m > 0 {
            self.counters.miss_cycles += n;
            self.counters.miss_access_cycles += m * n;
            if h == 0 {
                self.counters.pure_miss_cycles += n;
                self.counters.pure_miss_access_cycles += m * n;
                self.counters.pure_misses += cache.mark_all_pure();
            }
        }
        if h > 0 || m > 0 {
            self.counters.active_cycles += n;
        }
        // Event counts mirror the cache's functional statistics,
        // relative to the last reset.
        self.counters.accesses = cache.stats().accesses - self.base_accesses;
        self.counters.misses = cache.stats().misses - self.base_misses;
    }

    /// The counters accumulated so far.
    pub fn counters(&self) -> LayerCounters {
        self.counters
    }
}

/// Occupancy analyzer for the main-memory layer (the third boundary,
/// LPMR3). DRAM has no hit/miss split at this granularity; its C-AMAT is
/// measured purely through APC: active cycles over accesses.
#[derive(Debug, Default, Clone, Copy)]
pub struct DramAnalyzer {
    /// Cycles with at least one request queued or in flight.
    pub active_cycles: u64,
    /// Requests accepted by the controller (since the last reset).
    pub accesses: u64,
    base_accesses: u64,
}

impl DramAnalyzer {
    /// Zero the window, keeping current controller totals as baseline.
    pub fn reset(&mut self, dram: &lpm_dram::Dram) {
        self.active_cycles = 0;
        self.accesses = 0;
        self.base_accesses = dram.stats().accepted;
    }

    /// Sample `n` consecutive cycles with constant occupancy (one real
    /// step, or a coalesced idle span) before `dram.step(now)`.
    #[inline]
    pub fn sample(&mut self, dram: &lpm_dram::Dram, n: u64) {
        if dram.outstanding() > 0 {
            self.active_cycles += n;
        }
        self.accesses = dram.stats().accepted - self.base_accesses;
    }

    /// Measured APC3 (accesses per active cycle).
    pub fn apc(&self) -> f64 {
        if self.active_cycles == 0 {
            0.0
        } else {
            self.accesses as f64 / self.active_cycles as f64
        }
    }

    /// Measured C-AMAT3 = 1/APC3 (0 when idle).
    pub fn camat(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.active_cycles as f64 / self.accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpm_cache::{AccessId, AccessResponse, CacheConfig};
    use lpm_model::example;

    fn fig1_cache() -> lpm_cache::Cache {
        let cfg = CacheConfig {
            size_bytes: 4096,
            assoc: 4,
            line_bytes: 64,
            hit_latency: 3,
            ports: 4,
            banks: 4,
            mshrs: 4,
            targets_per_mshr: 4,
            pipelined: true,
            policy: lpm_cache::Policy::Lru,
            prefetch: lpm_cache::prefetch::PrefetchKind::None,
            bypass: lpm_cache::bypass::BypassPolicy::None,
        };
        lpm_cache::Cache::new(cfg, 0)
    }

    /// Replay the Fig. 1 timeline through the real cache + analyzer and
    /// check the analyzer reproduces the paper's numbers *exactly*.
    ///
    /// Lines: a=0 (bank 0), b=64 (bank 1), d=128 (bank 2, missing),
    /// e=192 (bank 3, missing), c=256 (bank 0). Lines a, b, c are
    /// pre-filled so accesses 1, 2 and 5 hit.
    ///
    /// Schedule (cycles relative to the measurement window):
    /// A1@0→a, A2@0→b, A3@2→d (fill at 7 → miss cycles 5,6,7, two pure),
    /// A4@2→e (fill at 5 → one miss cycle, masked by A5's hit phase),
    /// A5@3→c.
    #[test]
    fn analyzer_reproduces_fig1() {
        let mut cache = fig1_cache();
        // Warmup fills (not demand accesses — stats stay clean).
        cache.fill(0);
        cache.fill(64);
        cache.fill(256);
        cache.step(0);
        assert!(cache.probe(0) && cache.probe(64) && cache.probe(256));

        let t0 = 10u64; // measurement window start
        let mut analyzer = CacheAnalyzer::new(3);
        let mut completions = Vec::new();
        for now in t0..t0 + 9 {
            let rel = now - t0;
            let start = |cache: &mut lpm_cache::Cache, id: u64, addr: u64| {
                assert_eq!(
                    cache.access(now, AccessId(id), addr, false),
                    AccessResponse::Accepted,
                    "access {id} rejected at rel cycle {rel}"
                );
            };
            match rel {
                0 => {
                    start(&mut cache, 1, 0);
                    start(&mut cache, 2, 64);
                }
                2 => {
                    start(&mut cache, 3, 128);
                    start(&mut cache, 4, 192);
                }
                3 => start(&mut cache, 5, 256),
                _ => {}
            }
            // Sample before fills/step, per the analyzer contract —
            // but only for the 8 cycles of the Fig. 1 window.
            if rel < 8 {
                analyzer.sample(now, &mut cache, 1);
            }
            if rel == 5 {
                cache.fill(192); // access 4's line
            }
            if rel == 7 {
                cache.fill(128); // access 3's line
            }
            completions.extend(cache.step(now).completions);
        }

        let got = analyzer.counters();
        let want = example::fig1_counters();
        assert_eq!(got, want, "analyzer counters diverge from Fig. 1");
        assert!((got.camat() - example::FIG1_CAMAT).abs() < 1e-12);
        got.check_identity(0.0).unwrap();

        // All five accesses completed; only access 3 is a pure miss.
        assert_eq!(completions.len(), 5);
        for c in &completions {
            assert_eq!(c.pure_miss, c.id == AccessId(3), "{c:?}");
            assert_eq!(c.hit, c.id != AccessId(3) && c.id != AccessId(4));
        }
    }

    #[test]
    fn idle_cycles_accumulate_nothing() {
        let mut cache = fig1_cache();
        let mut analyzer = CacheAnalyzer::new(3);
        for now in 0..50 {
            analyzer.sample(now, &mut cache, 1);
            cache.step(now);
        }
        let c = analyzer.counters();
        assert_eq!(c.active_cycles, 0);
        assert_eq!(c.accesses, 0);
        c.validate().unwrap();
    }

    #[test]
    fn single_hit_has_unit_concurrency() {
        let mut cache = fig1_cache();
        cache.fill(0);
        cache.step(0);
        let mut analyzer = CacheAnalyzer::new(3);
        cache.access(10, AccessId(1), 0, false);
        for now in 10..20 {
            analyzer.sample(now, &mut cache, 1);
            cache.step(now);
        }
        let c = analyzer.counters();
        assert_eq!(c.hit_cycles, 3);
        assert_eq!(c.hit_access_cycles, 3);
        assert_eq!(c.accesses, 1);
        assert_eq!(c.misses, 0);
        assert!((c.camat() - 3.0).abs() < 1e-12);
        c.check_identity(0.0).unwrap();
    }

    #[test]
    fn lone_miss_is_pure() {
        let mut cache = fig1_cache();
        let mut analyzer = CacheAnalyzer::new(3);
        cache.access(0, AccessId(1), 0, false);
        for now in 0..30 {
            analyzer.sample(now, &mut cache, 1);
            if now == 12 {
                cache.fill(0);
            }
            cache.step(now);
        }
        let c = analyzer.counters();
        assert_eq!(c.misses, 1);
        assert_eq!(c.pure_misses, 1, "an unaccompanied miss must be pure");
        // Miss phase spans cycles 3..=12 inclusive → 10 pure miss cycles.
        assert_eq!(c.pure_miss_cycles, 10);
        assert_eq!(c.pamp(), 10.0);
        c.check_identity(0.0).unwrap();
    }

    /// Span sampling must accumulate exactly what per-cycle sampling
    /// does over a window where the phase populations are constant
    /// (here: one access waiting out its miss phase).
    #[test]
    fn span_sampling_matches_per_cycle_sampling() {
        let run = |span: bool| -> LayerCounters {
            let mut cache = fig1_cache();
            let mut analyzer = CacheAnalyzer::new(3);
            cache.access(0, AccessId(1), 0, false);
            // Cycles 0..=2: hit phase; resolve at step(2); cycles 3..=11:
            // pure miss phase (constant m=1); fill at 12.
            for now in 0..3u64 {
                analyzer.sample(now, &mut cache, 1);
                cache.step(now);
            }
            if span {
                analyzer.sample(3, &mut cache, 9);
                for now in 3..12u64 {
                    cache.step(now);
                }
            } else {
                for now in 3..12u64 {
                    analyzer.sample(now, &mut cache, 1);
                    cache.step(now);
                }
            }
            cache.fill(0);
            analyzer.sample(12, &mut cache, 1);
            cache.step(12);
            analyzer.counters()
        };
        let per_cycle = run(false);
        let spanned = run(true);
        assert_eq!(per_cycle, spanned);
        assert_eq!(spanned.pure_misses, 1, "pure flag set exactly once");
        assert_eq!(spanned.pure_miss_cycles, 10);
    }

    #[test]
    fn dram_span_sampling_matches_per_cycle_sampling() {
        let run = |span: bool| -> (u64, u64) {
            let mut dram = lpm_dram::Dram::new(lpm_dram::DramConfig::ddr3_default());
            let mut an = DramAnalyzer::default();
            dram.enqueue(
                0,
                lpm_dram::DramRequest {
                    id: 1,
                    addr: 0,
                    is_write: false,
                },
            );
            an.sample(&dram, 1);
            dram.step(0);
            if span {
                an.sample(&dram, 55);
            } else {
                for _ in 1..56u64 {
                    an.sample(&dram, 1);
                }
            }
            for now in 1..56u64 {
                dram.step(now);
            }
            (an.active_cycles, an.accesses)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn dram_analyzer_tracks_occupancy() {
        let mut dram = lpm_dram::Dram::new(lpm_dram::DramConfig::ddr3_default());
        let mut an = DramAnalyzer::default();
        dram.enqueue(
            0,
            lpm_dram::DramRequest {
                id: 1,
                addr: 0,
                is_write: false,
            },
        );
        for now in 0..100 {
            an.sample(&dram, 1);
            dram.step(now);
        }
        assert_eq!(an.accesses, 1);
        assert!(an.active_cycles >= 56);
        assert!(an.camat() >= 56.0);
        assert!((an.apc() * an.camat() - 1.0).abs() < 1e-9);
    }
}
