//! Empirical verification of the Eq. (4) layer recursion on *measured*
//! counters:
//!
//! ```text
//! C-AMAT1 = H1/CH1 + pMR1 × η1 × C-AMAT2
//! ```
//!
//! The identity is exact when the L1's miss phase coincides with the L2's
//! activity (every cycle an L1 miss is outstanding, the L2 is serving it).
//! In the full simulator there is a one-cycle routing queue between the
//! levels plus writeback traffic, so we verify the recursion holds within
//! a small tolerance across structurally different workloads — which is
//! precisely the claim the paper builds its matching theory on.

use lpm_sim::{System, SystemConfig};
use lpm_trace::{Generator, SpecWorkload};

/// Relative gap between measured C-AMAT1 and its Eq. (4) reconstruction.
fn recursion_gap(w: SpecWorkload, n: usize, seed: u64) -> (f64, f64, f64) {
    let trace = w.generator().generate(n, seed);
    let r = System::steady_report(SystemConfig::default(), trace, seed)
        .unwrap_or_else(|e| panic!("{w}: {e}"));
    let l1 = r.l1;
    let camat1 = r.camat1();
    let camat2 = r.camat2();
    let eta1 = l1.eta().map(|e| e.value()).unwrap_or(0.0);
    let reconstructed = l1.hit_time as f64 / l1.ch() + l1.pmr() * eta1 * camat2;
    let gap = (reconstructed - camat1).abs() / camat1.max(1e-9);
    (camat1, reconstructed, gap)
}

#[test]
fn eq4_recursion_holds_on_measured_counters() {
    // Workloads spanning the locality/concurrency space. The recursion's
    // cross-layer term (pMR1·η1·C-AMAT2) must reconstruct the L1 C-AMAT
    // from L2 measurements within the inter-level queueing slack.
    for (w, tolerance) in [
        (SpecWorkload::BwavesLike, 0.25),
        (SpecWorkload::GccLike, 0.25),
        (SpecWorkload::McfLike, 0.25),
        (SpecWorkload::MilcLike, 0.25),
    ] {
        let (measured, reconstructed, gap) = recursion_gap(w, 20_000, 5);
        assert!(
            gap < tolerance,
            "{w}: Eq. 4 gap {gap:.3} (measured {measured:.3} vs \
             reconstructed {reconstructed:.3})"
        );
    }
}

#[test]
fn eq4_cross_layer_term_vanishes_for_resident_workloads() {
    // bzip2-like almost never misses L1: the recursion degenerates to the
    // hit component and the cross-layer term is negligible.
    let trace = SpecWorkload::Bzip2Like.generator().generate(20_000, 5);
    let r = System::steady_report(SystemConfig::default(), trace, 5).unwrap();
    let l1 = r.l1;
    let hit_component = l1.hit_time as f64 / l1.ch();
    assert!(
        (r.camat1() - hit_component).abs() / r.camat1() < 0.05,
        "resident workload: C-AMAT1 {:.3} vs hit component {:.3}",
        r.camat1(),
        hit_component
    );
}

#[test]
fn eta_reflects_hit_miss_overlap_strength() {
    // η compares pure-miss to conventional-miss statistics: an MLP-rich
    // stream hides most miss cycles under hits (small η); a serialized
    // chase cannot (η near 1).
    let eta_of = |w: SpecWorkload| -> f64 {
        let trace = w.generator().generate(20_000, 5);
        let r = System::steady_report(SystemConfig::default(), trace, 5).unwrap();
        r.l1.eta_extended().unwrap_or(0.0)
    };
    let chase = eta_of(SpecWorkload::McfLike);
    let resident_or_mixed = eta_of(SpecWorkload::GamessLike);
    assert!(
        chase > resident_or_mixed,
        "serialized chase η {chase:.3} should exceed compute-mixed η \
         {resident_or_mixed:.3}"
    );
}
