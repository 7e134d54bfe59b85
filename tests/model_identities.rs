//! Property-based tests of the paper's analytical identities, driven
//! through the public facade: the algebra of Eq. 1–15 must cohere for any
//! physically realizable parameter set, and the simulator's measured
//! counters must satisfy it too.

use lpm::model::{
    AmatParams, CamatParams, CoreParams, Eta, Grain, LayerRecursion, Lpmr, StallModel, Thresholds,
};
use proptest::prelude::*;

proptest! {
    /// C-AMAT degenerates to AMAT exactly when concurrency is 1 and the
    /// pure-miss statistics coincide with the conventional ones.
    #[test]
    fn camat_contains_amat_as_special_case(
        h in 1.0f64..20.0, mr in 0.0f64..1.0, amp in 0.0f64..200.0,
    ) {
        let amat = AmatParams::new(h, mr, amp).unwrap().amat();
        let camat = CamatParams::new(h, 1.0, mr, amp, 1.0).unwrap().camat();
        prop_assert!((amat - camat).abs() < 1e-9);
    }

    /// Eq. 4 self-consistency: when C-AMAT2 equals AMP1/Cm1, the layered
    /// recursion reproduces the direct Eq. 2 value exactly.
    #[test]
    fn recursion_is_exact_at_the_consistent_point(
        h in 1.0f64..10.0, ch in 1.0f64..8.0, pmr in 0.001f64..0.5,
        cm in 1.0f64..8.0, amp in 5.0f64..200.0, cmc in 1.0f64..8.0,
        pamp_frac in 0.1f64..1.0,
    ) {
        let pamp = amp * pamp_frac; // pure penalty is a part of the whole
        let upper = CamatParams::new(h, ch, pmr, pamp, cm).unwrap();
        let eta = Eta::new(pamp, amp, cmc, cm).unwrap();
        let rec = LayerRecursion { upper, eta };
        let camat2 = amp / cmc;
        let via_recursion = rec.camat1(camat2).unwrap();
        prop_assert!((via_recursion - upper.camat()).abs() < 1e-9,
            "recursion {via_recursion} vs direct {}", upper.camat());
        // And the implied consistent point round-trips.
        let implied = rec.implied_camat2().unwrap();
        prop_assert!((implied - camat2).abs() < 1e-6 * camat2.max(1.0));
    }

    /// Eq. 7 and Eq. 12 are algebraically identical.
    #[test]
    fn eq7_equals_eq12(
        fmem in 0.01f64..1.0, cpi in 0.05f64..4.0, o in 0.0f64..1.0,
        camat in 0.01f64..100.0,
    ) {
        let core = CoreParams::new(fmem, cpi, o).unwrap();
        let model = StallModel::new(core);
        let via7 = model.from_camat(camat).unwrap();
        let lpmr1 = Lpmr::layer1(camat, fmem, cpi).unwrap();
        let via12 = model.from_lpmr1(lpmr1);
        prop_assert!((via7 - via12).abs() < 1e-9);
    }

    /// Meeting T1 exactly yields exactly the Δ stall budget (Eq. 14 is the
    /// inversion of Eq. 12).
    #[test]
    fn t1_inverts_eq12(
        fmem in 0.01f64..1.0, cpi in 0.05f64..4.0, o in 0.0f64..0.95,
        delta in 0.005f64..0.5,
    ) {
        let core = CoreParams::new(fmem, cpi, o).unwrap();
        let l1 = CamatParams::new(2.0, 4.0, 0.02, 10.0, 2.0).unwrap();
        let th = Thresholds::compute(Grain::Custom(delta), &core, &l1, 0.3).unwrap();
        let stall = StallModel::new(core).from_lpmr1(Lpmr(th.t1));
        prop_assert!((stall - delta * cpi).abs() < 1e-9);
    }

    /// Meeting T2 exactly yields exactly the Δ budget through Eq. 13
    /// (whenever T2 is attainable).
    #[test]
    fn t2_inverts_eq13(
        fmem in 0.01f64..0.6, cpi in 0.2f64..4.0, o in 0.0f64..0.9,
        delta in 0.05f64..0.5, eta in 0.01f64..1.0,
        ch in 1.0f64..8.0,
    ) {
        let core = CoreParams::new(fmem, cpi, o).unwrap();
        let l1 = CamatParams::new(1.0, ch, 0.02, 10.0, 2.0).unwrap();
        let th = Thresholds::compute(Grain::Custom(delta), &core, &l1, eta).unwrap();
        if let Some(t2) = th.t2 {
            if t2.is_finite() {
                let stall = StallModel::new(core)
                    .from_lpmr2(&l1, eta, Lpmr(t2))
                    .unwrap();
                prop_assert!((stall - delta * cpi).abs() < 1e-9,
                    "stall {stall} vs budget {}", delta * cpi);
            }
        }
    }

    /// The LPMR cascade: deeper ratios never exceed what the miss-rate
    /// chain allows.
    #[test]
    fn lpmr_cascade_is_filtered(
        camat1 in 0.1f64..50.0, k2 in 1.0f64..20.0, k3 in 1.0f64..20.0,
        fmem in 0.01f64..1.0, cpi in 0.05f64..4.0,
        mr1 in 0.0f64..1.0, mr2 in 0.0f64..1.0,
    ) {
        // Lower layers are slower per access (camat2 = k2×camat1, ...).
        let camat2 = camat1 * k2;
        let camat3 = camat2 * k3;
        let l1 = Lpmr::layer1(camat1, fmem, cpi).unwrap().value();
        let l2 = Lpmr::layer2(camat2, fmem, mr1.max(1e-9), cpi).unwrap().value();
        let l3 = Lpmr::layer3(camat3, fmem, mr1.max(1e-9), mr2.max(1e-9), cpi)
            .unwrap()
            .value();
        prop_assert!(l2 <= l1 * k2 + 1e-9);
        prop_assert!(l3 <= l2 * k3 + 1e-9);
    }
}

/// Live-counter identity: random short cache timelines satisfy Eq. 2 ≡
/// Eq. 3 exactly when driven without port contention.
#[test]
fn live_analyzer_identity_fuzz() {
    use lpm::cache::bypass::BypassPolicy;
    use lpm::cache::prefetch::PrefetchKind;
    use lpm::cache::{AccessId, Cache, CacheConfig, Policy};
    use lpm::sim::CacheAnalyzer;

    let mut failures = Vec::new();
    for seed in 0..30u64 {
        let cfg = CacheConfig {
            size_bytes: 2048,
            assoc: 2,
            line_bytes: 64,
            hit_latency: 2,
            ports: 8,
            banks: 1,
            mshrs: 8,
            targets_per_mshr: 8,
            pipelined: true,
            policy: Policy::Lru,
            prefetch: PrefetchKind::None,
            bypass: BypassPolicy::None,
        };
        let mut cache = Cache::new(cfg, seed);
        let mut analyzer = CacheAnalyzer::new(2);
        // A deterministic pseudo-random schedule of accesses and fills.
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut pending_fills: Vec<(u64, u64)> = Vec::new();
        let mut id = 0u64;
        let mut now = 0u64;
        // Issue for 300 cycles, then drain: the Eq. 2 ≡ Eq. 3 identity is
        // exact only once every access has been fully observed.
        loop {
            if now < 300 && next() % 3 == 0 {
                let addr = (next() % 64) * 64;
                id += 1;
                cache.access(now, AccessId(id), addr, next() % 4 == 0);
            }
            analyzer.sample(now, &mut cache, 1);
            let mut i = 0;
            while i < pending_fills.len() {
                if pending_fills[i].0 <= now {
                    let (_, line) = pending_fills.swap_remove(i);
                    cache.fill(line);
                } else {
                    i += 1;
                }
            }
            let out = cache.step(now);
            for line in out.outgoing_misses {
                pending_fills.push((now + 1 + next() % 30, line));
            }
            let drained = now >= 300
                && pending_fills.is_empty()
                && cache.miss_phase_count() == 0
                && cache.hit_phase_count(now + 1) == 0;
            now += 1;
            if drained || now > 2000 {
                break;
            }
        }
        let c = analyzer.counters();
        if c.validate().is_err() || c.check_identity(0.0).is_err() {
            failures.push((seed, c));
        }
    }
    assert!(failures.is_empty(), "identity failures: {failures:?}");
}
