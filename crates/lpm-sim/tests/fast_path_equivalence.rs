//! The event-driven fast path's bit-identity contract, differentially
//! tested: for arbitrary hierarchy configurations, workload seeds, fault
//! schedules and cycle budgets, a run with idle-span skipping (the
//! default) must produce byte-identical reports, telemetry streams,
//! cycle attribution and fault statistics to the strict per-cycle
//! reference loop (`set_reference_stepping(true)`).
//!
//! The capture recorder expands every `n`-cycle sample into `n`
//! per-cycle entries itself, so the fast side's streams are compared
//! against the reference at single-cycle granularity — a span whose
//! length, placement or sample content is wrong cannot cancel out.

use lpm_cache::CacheConfig;
use lpm_cpu::CoreConfig;
use lpm_dram::DramConfig;
use lpm_sim::{Cmp, CoreSlot, FaultConfig, SimError};
use lpm_telemetry::{AttrSample, CycleAccum, CycleSample, Event, MetricsSnapshot, Recorder};
use lpm_trace::{Generator, Trace};
use proptest::prelude::*;

/// Captures every emission at per-cycle granularity.
#[derive(Default)]
struct CaptureRecorder {
    events: Vec<Event>,
    cycle_samples: Vec<(usize, usize, usize, usize, usize)>,
    attr_samples: Vec<AttrSample>,
}

impl Recorder for CaptureRecorder {
    const ENABLED: bool = true;
    const PROFILED: bool = true;

    fn event(&mut self, ev: Event) {
        self.events.push(ev);
    }

    fn cycle_sample(&mut self, s: &CycleSample, n: u64) {
        let entry = (
            s.l1_mshrs,
            s.shared_mshrs,
            s.rob,
            s.dram_banks_busy,
            s.dram_banks_total,
        );
        for _ in 0..n {
            self.cycle_samples.push(entry);
        }
    }

    fn attr_sample(&mut self, s: &AttrSample, n: u64) {
        for _ in 0..n {
            self.attr_samples.push(*s);
        }
    }

    fn snapshot(&mut self, _snap: MetricsSnapshot) {}

    fn take_interval(&mut self) -> CycleAccum {
        CycleAccum::default()
    }
}

#[derive(Debug, Clone, Copy)]
struct Scenario {
    seed: u64,
    workload_ix: usize,
    n_cores: usize,
    l1_kib: u64,
    fault_ix: usize,
    /// Absolute cycle budget for the chunked phase; `u64::MAX` = none.
    budget: u64,
}

fn trace_for(s: &Scenario, core: usize) -> Trace {
    let seed = s.seed.wrapping_add(core as u64).wrapping_mul(2654435761) % 10_000;
    match s.workload_ix {
        // DRAM-streaming: long idle waits, the fast path's best case.
        0 => lpm_trace::gen::StrideGen::new(4, 64, 8 << 20, 0.4).generate(6_000, seed),
        // Cache-resident random mix: mostly busy cycles.
        1 => lpm_trace::gen::RandomGen::new(16 << 10, 0.5, 0.3).generate(6_000, seed),
        // Pointer chase: serialized misses, maximal span lengths.
        _ => lpm_trace::gen::ChaseGen::new(4 << 20, 0.3).generate(4_000, seed),
    }
}

fn fault_for(s: &Scenario) -> Option<FaultConfig> {
    let seed = s.seed ^ 0x9E37;
    match s.fault_ix {
        0 => None,
        1 => Some(FaultConfig::all(seed)),
        2 => Some(FaultConfig::dram_spike(seed)),
        3 => Some(FaultConfig::refresh_storm(seed)),
        4 => Some(FaultConfig::bank_stall(seed)),
        5 => Some(FaultConfig::mshr_squeeze(seed)),
        _ => Some(FaultConfig::counter_noise(seed)),
    }
}

fn build(s: &Scenario) -> Cmp {
    let slot = |kib: u64| CoreSlot {
        core: CoreConfig::small(),
        l1: {
            let mut l1 = CacheConfig::l1_default();
            l1.size_bytes = kib << 10;
            l1
        },
    };
    let traces: Vec<Trace> = (0..s.n_cores).map(|i| trace_for(s, i)).collect();
    let mut cmp = Cmp::try_new_with_hierarchy(
        vec![slot(s.l1_kib); s.n_cores],
        vec![CacheConfig::l2_default()],
        DramConfig::ddr3_default(),
        traces,
        2,
        s.seed,
    )
    .expect("valid config");
    if let Some(cfg) = fault_for(s) {
        cmp.enable_faults(cfg);
    }
    cmp
}

/// Everything one side of the differential produces.
#[derive(Debug, PartialEq)]
struct Side {
    now: u64,
    phase_results: Vec<String>,
    reports: Vec<String>,
    fault_stats: String,
    events: Vec<Event>,
    cycle_samples: Vec<(usize, usize, usize, usize, usize)>,
    attr_samples: Vec<AttrSample>,
    l1_stats: Vec<String>,
    l2_stats: String,
    dram_stats: String,
}

/// Drive one simulator through every run-loop flavour the fast path
/// touches: warmup (measurement reset mid-run), chunked budgeted runs
/// with a live recorder, the budget's edges, and a run-to-completion
/// with memory drain.
fn run_side(s: &Scenario, reference: bool) -> Side {
    let mut cmp = build(s);
    cmp.set_reference_stepping(reference);
    let mut rec = CaptureRecorder::default();
    let mut phase_results = Vec::new();
    phase_results.push(format!("warmup: {:?}", cmp.try_warm_up(1_000)));
    for _ in 0..3 {
        phase_results.push(format!(
            "chunk: {:?}",
            cmp.try_run_for_with_budget(5_000, &mut rec, s.budget)
        ));
    }
    // The stepping loop's edges, relative to the current cycle `t`:
    // zero cycles and a 100-cycle run with the budget already passed,
    // then budgets below and exactly at the end of a 100-cycle run.
    let t = cmp.now();
    let edges = [
        (0, t, Ok(t)),
        (100, t, Err(t)),
        (100, t + 50, Err(t + 50)),
        (100, t + 150, Ok(t + 150)),
    ];
    for (cycles, budget, want) in edges {
        let got = cmp.try_run_for_with_budget(cycles, &mut rec, budget);
        let got_at = match got {
            Ok(()) => Ok(cmp.now()),
            Err(SimError::CycleBudgetExceeded { budget: b, now }) if b == budget => {
                assert_eq!(now, cmp.now(), "error cycle is not the clock");
                Err(now)
            }
            Err(e) => panic!("{cycles} cycles, budget {budget}: {e}"),
        };
        assert_eq!(got_at, want, "{cycles} cycles from {t}, budget {budget}");
        phase_results.push(format!("edge: {got_at:?}"));
    }
    phase_results.push(format!("run: {:?}", cmp.try_run(2_000_000)));
    Side {
        now: cmp.now(),
        phase_results,
        reports: (0..s.n_cores)
            .map(|i| format!("{:?}", cmp.report_for(i, 0.3)))
            .collect(),
        fault_stats: format!("{:?}", cmp.fault_stats()),
        events: rec.events,
        cycle_samples: rec.cycle_samples,
        attr_samples: rec.attr_samples,
        l1_stats: (0..s.n_cores)
            .map(|i| format!("{:?}", cmp.l1_stats(i)))
            .collect(),
        l2_stats: format!("{:?}", cmp.l2_stats()),
        dram_stats: format!("{:?}", cmp.dram_stats()),
    }
}

fn assert_sides_equal(s: &Scenario) {
    let fast = run_side(s, false);
    let reference = run_side(s, true);
    assert_eq!(
        fast.phase_results, reference.phase_results,
        "run-loop outcomes diverged for {s:?}"
    );
    assert_eq!(fast.now, reference.now, "cycle counts diverged for {s:?}");
    assert_eq!(
        fast.reports, reference.reports,
        "reports diverged for {s:?}"
    );
    assert_eq!(
        fast.fault_stats, reference.fault_stats,
        "fault stats diverged for {s:?}"
    );
    assert_eq!(fast.events, reference.events, "events diverged for {s:?}");
    assert_eq!(
        fast.cycle_samples.len(),
        reference.cycle_samples.len(),
        "cycle-sample counts diverged for {s:?}"
    );
    assert_eq!(
        fast.cycle_samples, reference.cycle_samples,
        "cycle samples diverged for {s:?}"
    );
    assert_eq!(
        fast.attr_samples, reference.attr_samples,
        "attribution samples diverged for {s:?}"
    );
    assert_eq!(fast, reference, "remaining side state diverged for {s:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary configs × seeds × fault classes × budgets: the fast
    /// path is bit-identical to the per-cycle reference.
    #[test]
    fn fast_path_is_bit_identical_to_reference(
        seed in 0u64..10_000,
        workload_ix in 0usize..3,
        n_cores in 1usize..=2,
        l1_sel in 0usize..2,
        fault_ix in 0usize..7,
        budget_sel in 0usize..3,
    ) {
        let s = Scenario {
            seed,
            workload_ix,
            n_cores,
            l1_kib: [4, 32][l1_sel],
            fault_ix,
            budget: [u64::MAX, 9_000, 60_000][budget_sel],
        };
        assert_sides_equal(&s);
    }
}

/// Deterministic anchor: a clean DRAM-streaming run (maximal skipping).
#[test]
fn clean_streaming_run_matches_reference() {
    assert_sides_equal(&Scenario {
        seed: 7,
        workload_ix: 0,
        n_cores: 2,
        l1_kib: 4,
        fault_ix: 0,
        budget: u64::MAX,
    });
}

/// Deterministic anchor: every fault class at once. Fault onsets land
/// inside skipped spans; the span scan must truncate there, charge
/// `faulted_cycles` per cycle, and emit onset events from their own
/// cycles — `FaultStats` and the event log are compared exactly.
#[test]
fn all_fault_classes_match_reference() {
    let s = Scenario {
        seed: 1234,
        workload_ix: 2,
        n_cores: 1,
        l1_kib: 4,
        fault_ix: 1,
        budget: u64::MAX,
    };
    assert_sides_equal(&s);
    // The schedule must actually have fired for this anchor to mean
    // anything.
    let side = run_side(&s, false);
    assert!(
        side.events
            .iter()
            .any(|e| matches!(e, Event::FaultInjected { .. })),
        "fault schedule never fired; pick a longer run"
    );
}

/// Deterministic anchor: a tight absolute cycle budget trips mid-run.
/// The budget error must fire at the same simulated cycle on both
/// sides (idle spans are capped at the budget, never leapt past it).
#[test]
fn budget_trip_matches_reference() {
    let s = Scenario {
        seed: 99,
        workload_ix: 0,
        n_cores: 1,
        l1_kib: 4,
        fault_ix: 2,
        budget: 9_000,
    };
    let fast = run_side(&s, false);
    assert!(
        fast.phase_results
            .iter()
            .any(|r| r.contains("CycleBudgetExceeded")),
        "budget never tripped: {:?}",
        fast.phase_results
    );
    assert_sides_equal(&s);
}

/// Seeded-divergence canary: two runs that *should* differ (different
/// workload seeds) must be reported as different by the same capture
/// machinery the equivalence assertions use. If the recorder silently
/// captured nothing — or the comparison were vacuous — this test would
/// fail, proving the differential harness can actually detect a
/// divergence.
#[test]
fn divergence_canary_detects_seeded_mismatch() {
    let a = Scenario {
        seed: 42,
        workload_ix: 1,
        n_cores: 1,
        l1_kib: 4,
        fault_ix: 0,
        budget: u64::MAX,
    };
    let b = Scenario { seed: 43, ..a };
    let fast_a = run_side(&a, false);
    let ref_b = run_side(&b, true);
    assert!(
        !fast_a.cycle_samples.is_empty() && !fast_a.attr_samples.is_empty(),
        "capture recorder recorded nothing; equivalence tests are vacuous"
    );
    assert_ne!(
        fast_a, ref_b,
        "differential harness failed to distinguish differently-seeded runs"
    );
}
