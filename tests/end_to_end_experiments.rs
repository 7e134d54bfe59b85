//! Scaled-down end-to-end versions of the paper's experiments, asserting
//! the qualitative *shapes* the full benchmark harness reproduces at scale
//! (see `lpm-bench` and EXPERIMENTS.md).

use lpm::core::burst::BurstStudy;
use lpm::core::design_space::{measure_config, HwConfig};
use lpm::core::profile::{profile_suite, FIG5_L1_SIZES};
use lpm::core::sched::{evaluate_schedule, profile_traces};
use lpm::prelude::*;

/// Table I shape: LPMR1 and relative stall fall from the starved
/// configuration A to the matched configuration C, where the knee sits:
/// neither over-provisioned D nor E beats C's LPMR1. Configuration E
/// costs less than D.
#[test]
fn table1_shape() {
    let trace = SpecWorkload::BwavesLike.generator().generate(30_000, 11);
    let base = SystemConfig::default();
    let a = measure_config("A", HwConfig::A, &base, &trace, 1).unwrap();
    let b = measure_config("B", HwConfig::B, &base, &trace, 1).unwrap();
    let c = measure_config("C", HwConfig::C, &base, &trace, 1).unwrap();
    let d = measure_config("D", HwConfig::D, &base, &trace, 1).unwrap();
    let e = measure_config("E", HwConfig::E, &base, &trace, 1).unwrap();
    assert!(
        a.lpmr1 > b.lpmr1 && b.lpmr1 > c.lpmr1 * 0.95,
        "LPMR1 not decreasing: A={} B={} C={}",
        a.lpmr1,
        b.lpmr1,
        c.lpmr1
    );
    assert!(a.ipc < b.ipc && b.ipc < c.ipc, "IPC not increasing");
    assert!(
        c.lpmr1 < d.lpmr1 && c.lpmr1 < e.lpmr1,
        "knee not at C: C={} D={} E={}",
        c.lpmr1,
        d.lpmr1,
        e.lpmr1
    );
    assert!(HwConfig::E.cost() < HwConfig::D.cost());
}

/// Fig. 6 shape: per-workload APC1 size sensitivity matches the paper's
/// observations (bzip2 flat, gcc climbing, milc flat, mcf flat under the
/// study LLC, gamess climbing). The mcf and gamess bounds sit just past
/// the values measured at this window (1.04× spread, 2.35× climb).
#[test]
fn fig6_shape() {
    let ws = [
        SpecWorkload::Bzip2Like,
        SpecWorkload::GccLike,
        SpecWorkload::MilcLike,
        SpecWorkload::McfLike,
        SpecWorkload::GamessLike,
    ];
    let profiles = profile_suite(&ws, &FIG5_L1_SIZES, &SystemConfig::default(), 30_000, 5).unwrap();
    let bzip = &profiles[0];
    let gcc = &profiles[1];
    let milc = &profiles[2];
    let mcf = &profiles[3];
    let gamess = &profiles[4];
    assert!(
        bzip.apc1[0] / bzip.best_apc1() > 0.95,
        "bzip2: {:?}",
        bzip.apc1
    );
    assert!(gcc.apc1[3] > gcc.apc1[0] * 1.3, "gcc: {:?}", gcc.apc1);
    assert!(
        milc.best_apc1() / milc.apc1.iter().cloned().fold(f64::MAX, f64::min) < 1.1,
        "milc: {:?}",
        milc.apc1
    );
    assert!(
        mcf.best_apc1() / mcf.apc1.iter().cloned().fold(f64::MAX, f64::min) < 1.06,
        "mcf: {:?}",
        mcf.apc1
    );
    assert!(
        gamess.apc1.windows(2).all(|w| w[1] > w[0]) && gamess.apc1[3] > gamess.apc1[0] * 2.2,
        "gamess: {:?}",
        gamess.apc1
    );
}

/// Fig. 7 shape: L2 demand responds to L1 size the way the paper reports
/// (gcc/gamess shrink; milc barely moves).
#[test]
fn fig7_shape() {
    let ws = [SpecWorkload::GamessLike, SpecWorkload::MilcLike];
    let profiles = profile_suite(&ws, &FIG5_L1_SIZES, &SystemConfig::default(), 16_000, 5).unwrap();
    let gamess = &profiles[0];
    let milc = &profiles[1];
    assert!(
        gamess.l2_demand[3] < gamess.l2_demand[0] * 0.5,
        "gamess demand: {:?}",
        gamess.l2_demand
    );
    let spread = milc.l2_demand.iter().cloned().fold(0.0, f64::max)
        / milc.l2_demand.iter().cloned().fold(f64::MAX, f64::min);
    assert!(spread < 1.2, "milc demand: {:?}", milc.l2_demand);
}

/// Fig. 8 shape (scaled down to 4 cores): NUCA-SA(fg) beats both
/// baselines; all Hsp values are sane fractions.
#[test]
fn fig8_shape_small() {
    let layout = NucaLayout::small(&[4, 16, 32, 64], 1);
    let ws = [
        SpecWorkload::GccLike,    // wants 64 KiB
        SpecWorkload::Bzip2Like,  // happy at 4 KiB
        SpecWorkload::GamessLike, // mid sensitivity
        SpecWorkload::XalancbmkLike,
    ];
    let base = SystemConfig::default();
    let profiles = profile_suite(&ws, &FIG5_L1_SIZES, &base, 12_000, 3).unwrap();
    // Entitlement Hsp (alone = best size) encodes placement quality even
    // when a small layout has little shared-resource contention.
    let traces = profile_traces(&profiles, 12_000, 3);
    let hsp = |kind| {
        evaluate_schedule(kind, &layout, &profiles, &traces, &base, 12_000, 3)
            .unwrap()
            .hsp_entitled
    };
    let random = hsp(SchedulerKind::Random { seed: 2 });
    let rr = hsp(SchedulerKind::RoundRobin);
    let fg = hsp(SchedulerKind::NucaSa { slack: 0.01 });
    assert!(fg > rr, "fg {fg} must beat round-robin {rr}");
    assert!(fg > random, "fg {fg} must beat random {random}");
    for h in [random, rr, fg] {
        assert!(h > 0.1 && h <= 1.1, "Hsp {h} out of range");
    }
}

/// §IV interval study shape: smaller measurement intervals catch more
/// bursts; the three operating points are ordered 10cy > 20cy > 40cy.
#[test]
fn interval_study_shape() {
    let study = BurstStudy::default();
    let [r10, r20, r40] = study.paper_operating_points(7);
    assert!(r10.rate() > r20.rate() && r20.rate() > r40.rate());
    assert!(r10.rate() > 0.85 && r40.rate() < 0.9);
}

/// The LPM loop, run against the real simulator, improves matching from
/// configuration A and never loops forever.
#[test]
fn lpm_loop_on_real_hardware_model() {
    use lpm::core::design_space::DesignSpaceExplorer;
    use lpm::core::optimizer::run_lpm_loop;
    let trace = SpecWorkload::BwavesLike.generator().generate(20_000, 13);
    let mut ex = DesignSpaceExplorer::new(
        HwConfig::A,
        SystemConfig::default(),
        trace,
        Grain::Custom(0.30),
        1,
    );
    let out = run_lpm_loop(&mut ex, &LpmOptimizer::default(), 12).unwrap();
    let first = out.steps.first().unwrap().measurement.lpmr1;
    let last = out.final_measurement.lpmr1;
    assert!(last < first, "no improvement: {first} → {last}");
    assert!(ex.evaluations <= 16, "search must stay polynomial");
}
