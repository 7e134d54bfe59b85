//! Fault-injection robustness tests.
//!
//! Exercises the seeded fault injector end to end: every fault class runs
//! without panicking, the hardened online controller keeps adapting under
//! each class, disabling injection reproduces the clean run bit-for-bit,
//! and the same seed always replays the same fault schedule.

use lpm::core::design_space::HwConfig;
use lpm::core::online::OnlineLpmController;
use lpm::prelude::*;
use proptest::prelude::*;

/// A named fault-class constructor.
type FaultClass = (&'static str, fn(u64) -> FaultConfig);

/// Every fault-class constructor, by CLI name.
const FAULT_CLASSES: &[FaultClass] = &[
    ("dram-spike", FaultConfig::dram_spike),
    ("refresh-storm", FaultConfig::refresh_storm),
    ("bank-stall", FaultConfig::bank_stall),
    ("mshr-squeeze", FaultConfig::mshr_squeeze),
    ("counter-noise", FaultConfig::counter_noise),
    ("all", FaultConfig::all),
];

fn small_system(seed: u64) -> System {
    let trace = SpecWorkload::GccLike.generator().generate(40_000, 7);
    System::try_new_looping(SystemConfig::default(), trace, 50, seed).expect("valid config")
}

#[test]
fn every_fault_class_runs_without_panicking() {
    for (name, make) in FAULT_CLASSES {
        let mut sys = small_system(1);
        sys.enable_faults(make(42));
        sys.try_run_for_with(120_000, &mut NullRecorder)
            .unwrap_or_else(|e| panic!("{name}: faulted run failed: {e}"));
        let report = sys.report();
        assert!(report.core.cycles > 0, "{name}: no progress under faults");
        // The analyzer read-out may be perturbed, but must degrade to a
        // typed error at worst — never a panic.
        let _ = LpmMeasurement::from_report(&report, Grain::Coarse);
        let stats = sys.fault_stats().expect("injector attached");
        if *name != "counter-noise" {
            assert!(
                stats.faulted_cycles > 0,
                "{name}: injector never fired in 120k cycles"
            );
        }
    }
}

#[test]
fn hardened_controller_survives_every_fault_class() {
    for (name, make) in FAULT_CLASSES {
        let trace = SpecWorkload::BwavesLike.generator().generate(200_000, 11);
        let base = HwConfig::A.apply(&SystemConfig::default());
        let mut sys = System::try_new_looping(base, trace, 100, 1).expect("valid config");
        sys.cmp_mut().try_warm_up(10_000).expect("warm-up");
        sys.enable_faults(make(42));

        let mut ctl = OnlineLpmController::new_hardened(HwConfig::A, 10_000, Grain::Custom(0.5))
            .expect("valid interval");
        let log = ctl
            .try_run(&mut sys, 10, &mut NullRecorder, None)
            .unwrap_or_else(|e| panic!("{name}: hardened controller failed: {e}"));
        assert!(!log.is_empty(), "{name}: controller recorded no intervals");
        // Convergence: on a memory-hungry workload the controller either
        // grew the machine past configuration A or settled at Done.
        assert!(
            ctl.hw != HwConfig::A || matches!(log.last().unwrap().action, LpmAction::Done),
            "{name}: controller neither adapted nor converged (hw {:?})",
            ctl.hw
        );
    }
}

#[test]
fn disabling_injection_is_bit_for_bit_identical_to_clean() {
    let run = |prep: &dyn Fn(&mut System)| {
        let mut sys = small_system(9);
        prep(&mut sys);
        sys.try_run_for_with(80_000, &mut NullRecorder)
            .expect("run");
        format!("{:?}", sys.report())
    };
    let clean = run(&|_| {});
    let none = run(&|s| s.enable_faults(FaultConfig::none(7)));
    let disabled = run(&|s| {
        s.enable_faults(FaultConfig::all(7));
        s.disable_faults();
    });
    assert_eq!(clean, none, "FaultConfig::none perturbed the simulation");
    assert_eq!(clean, disabled, "disable_faults left residual fault state");
}

#[test]
fn same_seed_replays_the_same_fault_schedule() {
    let run = |seed: u64| {
        let mut sys = small_system(3);
        sys.enable_faults(FaultConfig::all(seed));
        sys.try_run_for_with(120_000, &mut NullRecorder)
            .expect("run");
        (
            format!("{:?}", sys.report()),
            format!("{:?}", sys.fault_stats().unwrap()),
        )
    };
    let (r1, s1) = run(123);
    let (r2, s2) = run(123);
    assert_eq!(r1, r2, "same seed produced different reports");
    assert_eq!(s1, s2, "same seed produced different fault stats");
    let (r3, _) = run(321);
    assert_ne!(r1, r3, "different seeds produced identical faulted runs");
}

#[test]
fn controller_rejects_short_intervals_with_a_typed_error() {
    match OnlineLpmController::new(HwConfig::A, 10, Grain::Coarse) {
        Err(LpmError::InvalidInterval { got, min }) => {
            assert_eq!(got, 10);
            assert_eq!(min, 100);
            let msg = LpmError::InvalidInterval { got, min }.to_string();
            assert!(msg.contains("10"), "display should name the bad value");
        }
        other => panic!("expected InvalidInterval, got {other:?}"),
    }
}

#[test]
fn invalid_system_config_is_a_typed_error_not_a_panic() {
    let mut cfg = SystemConfig::default();
    cfg.core.issue_width = 0;
    let trace = SpecWorkload::GccLike.generator().generate(1_000, 1);
    match System::try_new_looping(cfg, trace, 2, 1) {
        Err(SimError::InvalidConfig(msg)) => {
            assert!(msg.contains("issue width"), "unexpected message: {msg}")
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any fault seed: the simulator completes and never panics.
    #[test]
    fn any_seed_survives_full_fault_injection(seed in 0u64..1_000_000) {
        let trace = SpecWorkload::GccLike.generator().generate(20_000, 5);
        let mut sys = System::try_new_looping(SystemConfig::default(), trace, 10, 2)
            .expect("valid config");
        sys.enable_faults(FaultConfig::all(seed));
        prop_assert!(sys.try_run_for_with(50_000, &mut NullRecorder).is_ok());
        prop_assert!(sys.fault_stats().is_some());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any fault seed: the hardened controller completes its run and its
    /// health counters stay internally consistent.
    #[test]
    fn hardened_controller_never_panics_under_random_faults(seed in 0u64..1_000_000) {
        let trace = SpecWorkload::LbmLike.generator().generate(60_000, 13);
        let base = HwConfig::A.apply(&SystemConfig::default());
        let mut sys = System::try_new_looping(base, trace, 20, 4).expect("valid config");
        sys.enable_faults(FaultConfig::all(seed));
        let mut ctl = OnlineLpmController::new_hardened(HwConfig::A, 5_000, Grain::Custom(0.5))
            .expect("valid interval");
        let log = ctl.try_run(&mut sys, 5, &mut NullRecorder, None);
        prop_assert!(log.is_ok());
        let h = ctl.health();
        prop_assert!(h.degenerate_windows + h.sensor_faults <= 5 + 1);
    }
}
