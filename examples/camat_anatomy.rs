//! Anatomy of C-AMAT: replays the paper's Fig. 1 five-access example
//! through the real cache + analyzer, prints every counter the Hit/Miss
//! Concurrency Detectors accumulate, and shows how concurrency halves the
//! apparent memory access time relative to classic AMAT.
//!
//! Run with:
//! ```text
//! cargo run --release -p lpm --example camat_anatomy
//! ```

use lpm::cache::bypass::BypassPolicy;
use lpm::cache::prefetch::PrefetchKind;
use lpm::cache::{AccessId, Cache, CacheConfig, Policy};
use lpm::model::example;
use lpm::sim::CacheAnalyzer;

fn main() {
    println!("Fig. 1 timeline (H = 3 cycles):");
    println!("cycle:      0   1   2   3   4   5   6   7");
    println!("Access 1:   H   H   H");
    println!("Access 2:   H   H   H");
    println!("Access 3:           H   H   H   M   M*  M*");
    println!("Access 4:           H   H   H   M");
    println!("Access 5:               H   H   H");
    println!("(M = miss cycle, M* = pure miss cycle)\n");

    // A cache wide enough to start two accesses per cycle.
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
        policy: Policy::Lru,
        prefetch: PrefetchKind::None,
        bypass: BypassPolicy::None,
    };
    let mut cache = Cache::new(cfg, 0);

    // Pre-fill the lines accesses 1, 2 and 5 will hit.
    cache.fill(0);
    cache.fill(64);
    cache.fill(256);
    cache.step(0);

    let t0 = 10u64;
    let mut analyzer = CacheAnalyzer::new(3);
    for now in t0..t0 + 9 {
        match now - t0 {
            0 => {
                cache.access(now, AccessId(1), 0, false);
                cache.access(now, AccessId(2), 64, false);
            }
            2 => {
                cache.access(now, AccessId(3), 128, false);
                cache.access(now, AccessId(4), 192, false);
            }
            3 => {
                cache.access(now, AccessId(5), 256, false);
            }
            _ => {}
        }
        if now - t0 < 8 {
            analyzer.sample(now, &mut cache, 1);
        }
        if now - t0 == 5 {
            cache.fill(192); // access 4's line: masked by access 5's hits
        }
        if now - t0 == 7 {
            cache.fill(128); // access 3's line: two pure miss cycles
        }
        for c in cache.step(now).completions {
            println!(
                "cycle {:>2}: access {} completes ({}{})",
                now - t0,
                c.id.0,
                if c.hit { "hit" } else { "miss" },
                if c.pure_miss { ", PURE miss" } else { "" }
            );
        }
    }

    let got = analyzer.counters();
    let want = example::fig1_counters();
    assert_eq!(got, want, "analyzer must reproduce the paper's counters");

    println!("\n== analyzer counters (HCD + MCD, Fig. 4) ==");
    println!("accesses            = {}", got.accesses);
    println!("misses / pure       = {} / {}", got.misses, got.pure_misses);
    println!("hit cycles          = {}", got.hit_cycles);
    println!("hit access-cycles   = {}", got.hit_access_cycles);
    println!("miss cycles         = {}", got.miss_cycles);
    println!("pure miss cycles    = {}", got.pure_miss_cycles);
    println!("memory active cycles= {}", got.active_cycles);

    println!("\n== derived parameters ==");
    println!("CH   = {:.3}  (paper: 5/2)", got.ch());
    println!("CM   = {:.3}  (paper: 1)", got.cm_pure());
    println!("pMR  = {:.3}  (paper: 1/5)", got.pmr());
    println!("pAMP = {:.3}  (paper: 2)", got.pamp());
    println!("AMP  = {:.3}, Cm = {:.3}", got.amp(), got.cm_conventional());
    println!(
        "η1   = {:.3}",
        got.eta().expect("nonzero miss rate").value()
    );

    println!("\n== the punchline ==");
    println!("AMAT   (Eq. 1) = {:.2} cycles/access", got.amat());
    println!("C-AMAT (Eq. 2) = {:.2} cycles/access", got.camat());
    println!("1/APC  (Eq. 3) = {:.2} cycles/access", got.camat_via_apc());
    println!(
        "concurrency improved apparent memory performance by {:.2}x",
        got.amat() / got.camat()
    );
}
