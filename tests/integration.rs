//! Cross-crate integration tests: the whole stack — generators → core →
//! caches → DRAM → analyzers → LPM models — exercised together through the
//! `lpm` facade.

use lpm::prelude::*;

fn run_workload(w: SpecWorkload, n: usize, seed: u64) -> SystemReport {
    let trace = w.generator().generate(n, seed);
    let mut sys =
        System::try_new_looping(SystemConfig::default(), trace, 1, seed).expect("valid config");
    sys.cmp_mut().try_warm_up(n as u64 / 2).expect("warm-up");
    assert!(sys.try_run(500_000_000).expect("run"), "{w} did not drain");
    sys.report()
}

#[test]
fn every_suite_workload_runs_end_to_end() {
    for w in SpecWorkload::ALL {
        let r = run_workload(w, 12_000, 3);
        // Counters internally consistent at every layer (windowed
        // validation: warmup-boundary skew is bounded by in-flight
        // accesses).
        r.l1.validate_windowed(128).unwrap();
        r.l2.validate_windowed(128).unwrap();
        r.check(1.5).unwrap();
        // Basic sanity of derived quantities.
        assert!(r.core.ipc() > 0.0, "{w}: zero IPC");
        assert!(
            r.cpi_exe > 0.0 && r.cpi_exe < 4.0,
            "{w}: CPIexe {}",
            r.cpi_exe
        );
        assert!(
            (r.core.fmem() - w.nominal_fmem()).abs() < 0.06,
            "{w}: fmem {} vs {}",
            r.core.fmem(),
            w.nominal_fmem()
        );
        let lpmrs = r.lpmrs().unwrap();
        assert!(lpmrs.l1.value() > 0.0, "{w}: LPMR1 must be positive");
        assert!(
            lpmrs.l1.value() >= lpmrs.l2.value() * 0.9,
            "{w}: LPMR2 {} should not exceed LPMR1 {} materially",
            lpmrs.l2.value(),
            lpmrs.l1.value()
        );
    }
}

#[test]
fn camat_identity_holds_across_workload_diversity() {
    // Eq. 2 ≡ Eq. 3 on live counters for very different behaviours.
    for w in [
        SpecWorkload::Bzip2Like,  // cache resident
        SpecWorkload::McfLike,    // chase dominated
        SpecWorkload::MilcLike,   // streaming
        SpecWorkload::GamessLike, // compute bound
    ] {
        let r = run_workload(w, 15_000, 11);
        let direct = r.l1.camat();
        let via_apc = r.l1.camat_via_apc();
        // Port contention stretches hit-phase occupancy, so Eq. 2 with
        // the configured H underestimates slightly; the identity must
        // still hold within that slack.
        assert!(
            (direct - via_apc).abs() <= 1.0 + via_apc * 0.05,
            "{w}: Eq.2 {direct} vs 1/APC {via_apc}"
        );
    }
}

#[test]
fn ipc_never_exceeds_issue_width_or_goes_negative() {
    for w in [SpecWorkload::Bzip2Like, SpecWorkload::HmmerLike] {
        let r = run_workload(w, 10_000, 5);
        assert!(r.core.ipc() <= 4.0 + 1e-9);
        assert!(r.measured_stall() >= 0.0);
    }
}

#[test]
fn stall_prediction_tracks_measurement() {
    // Eq. 12's prediction and the simulator's measured stall agree in
    // magnitude (same order, same ranking across workloads).
    let bound = run_workload(SpecWorkload::McfLike, 15_000, 9);
    let resident = run_workload(SpecWorkload::Bzip2Like, 15_000, 9);
    let (pb, mb) = (
        bound.predicted_stall_eq12().unwrap(),
        bound.measured_stall(),
    );
    let (pr, mr) = (
        resident.predicted_stall_eq12().unwrap(),
        resident.measured_stall(),
    );
    assert!(pb > pr, "prediction must rank mcf above bzip2");
    assert!(mb > mr, "measurement must rank mcf above bzip2");
    assert!(
        pb / mb < 5.0 && mb / pb < 5.0,
        "prediction {pb} and measurement {mb} diverge wildly"
    );
}

#[test]
fn multicore_contention_slows_everyone_somewhat() {
    // Two memory-hungry workloads sharing L2/DRAM are no faster than
    // alone, and the shared run remains internally consistent.
    let n = 12_000;
    let mk_slot = || CoreSlot {
        core: lpm::cpu::CoreConfig::small(),
        l1: lpm::cache::CacheConfig::l1_default(),
    };
    let alone_ipc = {
        let t = SpecWorkload::MilcLike.generator().generate(n, 3);
        let mut sys = System::try_new_looping(SystemConfig::default(), t, 1, 3).unwrap();
        assert!(sys.try_run(500_000_000).unwrap());
        sys.report().core.ipc()
    };
    let cfg = SystemConfig::default();
    let traces = vec![
        SpecWorkload::MilcLike.generator().generate(n, 3),
        SpecWorkload::LbmLike.generator().generate(n, 4),
    ];
    let slots = vec![mk_slot(), mk_slot()];
    let mut cmp = Cmp::try_new_with_hierarchy(slots, vec![cfg.l2], cfg.dram, traces, 1, 3).unwrap();
    assert!(cmp.try_run(500_000_000).unwrap());
    let shared_ipc = cmp.core_stats(0).ipc();
    assert!(
        shared_ipc <= alone_ipc * 1.05,
        "sharing cannot speed milc up: alone {alone_ipc} shared {shared_ipc}"
    );
    cmp.l1_counters(0).validate().unwrap();
    cmp.l2_counters().validate().unwrap();
}

#[test]
fn determinism_end_to_end() {
    let a = run_workload(SpecWorkload::AstarLike, 8_000, 21);
    let b = run_workload(SpecWorkload::AstarLike, 8_000, 21);
    assert_eq!(a.core, b.core);
    assert_eq!(a.l1, b.l1);
    assert_eq!(a.l2, b.l2);
    assert_eq!(a.dram_accesses, b.dram_accesses);
}
