//! Differential sim-vs-model test: run the cycle simulator on
//! deterministic microkernel traces, feed the measured analyzer
//! quantities (`H`, `CH`, `pMR`, `pAMP`, `Cm`) into the closed-form
//! `lpm_model` equations, and assert that the simulated C-AMAT, the
//! LPMR1–3 mismatch ratios, and the data stall time (Eq. 12/13) agree
//! with the closed forms within the stated tolerances.
//!
//! Three tiers of agreement are checked, from exact to empirical:
//!
//! 1. **Identity (Eq. 2 ≡ Eq. 3)** — C-AMAT computed from the five
//!    derived parameters must equal `active_cycles / accesses` up to
//!    [`CAMAT_IDENTITY_TOL`] cycles. The identity holds by construction
//!    of the analyzer; the slack covers port-contention stretching,
//!    where occupancy extends past the configured hit time `H`.
//! 2. **Closed-form recomputation (Eq. 9–11, Eq. 12/13)** — LPMR1–3
//!    and the two stall-time forms recomputed *by this test* from the
//!    raw counters must match the library's values to floating-point
//!    precision ([`RECOMPUTE_TOL`]). This is the differential part:
//!    two independent encodings of the same formula must agree.
//! 3. **Prediction vs ground truth (Eq. 12/13)** — the model's stall
//!    prediction vs the stall the core actually measured (ROB head
//!    blocked on memory). This is a *model accuracy* statement, not an
//!    identity; [`STALL_REL_TOL`] matches the accuracy the paper
//!    claims for Eq. 12 and that `lpm_core::validation` reports.
//!
//! A final test corrupts a known-good measurement and asserts the
//! comparison fails — proving the harness can actually catch a
//! divergence between simulator and model.
//!
//! Every run writes a tolerance report (worst observed error per check)
//! to `target/differential-tolerance-report.txt`, overridable via the
//! `DIFFERENTIAL_REPORT_PATH` environment variable; CI uploads it as an
//! artifact.

use lpm_model::{CoreParams, StallModel};
use lpm_sim::{System, SystemConfig, SystemReport};
use lpm_trace::gen::{ChaseGen, StrideGen};
use lpm_trace::{Generator, SpecWorkload, Trace};
use std::fmt::Write as _;

/// Eq. 2 vs Eq. 3 absolute disagreement budget, in cycles. Port
/// contention stretches occupancy beyond the configured `H`, so Eq. 2
/// systematically undershoots Eq. 3 by a fraction of a cycle.
const CAMAT_IDENTITY_TOL: f64 = 0.75;

/// Tolerance for recomputing a closed form the library also computes:
/// pure floating-point noise, nothing physical.
const RECOMPUTE_TOL: f64 = 1e-9;

/// Relative error budget for stall predicted by Eq. 12 vs the stall the
/// core measured. Worst observed: 0.228, on `stride-l1-resident` through
/// [`STALL_ABS_FLOOR`] (an absolute error of 0.011 cy/instr on a
/// near-zero stall); the budget leaves a 0.07 margin above it.
const STALL_REL_TOL: f64 = 0.30;

/// Denominator floor for the stall relative error, cycles per
/// instruction. Relative error is uninformative for near-zero stalls (a
/// compute-bound kernel with 0.001 cy/instr measured stall would show a
/// 1000% error on an absolute error of 0.01); below this floor the
/// check is effectively absolute: `|Δ| ≤ floor × rel-budget`.
const STALL_ABS_FLOOR: f64 = 0.05;

/// Relative error budget for the Eq. 13 (η-extended) stall form vs the
/// measured stall. Eq. 13 rides on the Eq. 4 layer recursion, which is
/// only approximately self-consistent for measured (windowed) counters.
/// Worst observed: 0.079, on `stride-stream`; the budget leaves a 0.04
/// margin above it.
const STALL13_REL_TOL: f64 = 0.12;

/// Instructions per measurement window.
const INSTRUCTIONS: usize = 15_000;

/// One deterministic workload under test.
struct Case {
    name: &'static str,
    trace: Trace,
}

/// Deterministic microkernels plus two SPEC-like generators. Seeds are
/// fixed; the trace bytes and therefore the simulation are identical on
/// every run.
fn cases() -> Vec<Case> {
    let n = INSTRUCTIONS;
    vec![
        Case {
            name: "stride-stream",
            trace: StrideGen::new(4, 64, 1 << 20, 0.40).generate(n, 11),
        },
        Case {
            name: "stride-l1-resident",
            trace: StrideGen::new(1, 64, 16 << 10, 0.30).generate(n, 12),
        },
        Case {
            name: "pointer-chase",
            trace: ChaseGen::new(1 << 20, 0.35).generate(n, 13),
        },
        Case {
            name: "bwaves-like",
            trace: SpecWorkload::BwavesLike.generator().generate(n, 14),
        },
        Case {
            name: "mcf-like",
            trace: SpecWorkload::McfLike.generator().generate(n, 15),
        },
    ]
}

/// Simulate one trace to steady state and return the measurement.
fn measure(name: &str, trace: Trace) -> SystemReport {
    System::steady_report(SystemConfig::default(), trace, 5)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Worst observed error per check, for the tolerance report.
#[derive(Default)]
struct Tolerances {
    camat_identity: f64,
    lpmr_recompute: f64,
    stall12_recompute: f64,
    stall12_rel: f64,
    stall13_rel: f64,
}

/// Compare one measurement against the closed forms. Returns the list
/// of violations (empty = the simulator and the model agree) and
/// appends a row to the human-readable report.
fn check_case(
    name: &str,
    r: &SystemReport,
    report: &mut String,
    worst: &mut Tolerances,
) -> Vec<String> {
    let mut violations = Vec::new();
    let mut fail = |what: String| violations.push(format!("{name}: {what}"));

    // --- Tier 1: the Eq. 2 ≡ Eq. 3 identity per layer -----------------
    // Feed the measured H/CH/pMR/pAMP/Cm into the closed form (Eq. 2)
    // and compare against the direct occupancy measurement (Eq. 3).
    for (layer, c) in [("L1", &r.l1), ("L2", &r.l2)] {
        if c.accesses == 0 {
            continue;
        }
        let params = c.to_params().unwrap_or_else(|e| {
            panic!("{name}/{layer}: counters do not yield valid C-AMAT parameters: {e}")
        });
        let eq2 = params.camat();
        let eq3 = c.camat_via_apc();
        let gap = (eq2 - eq3).abs();
        worst.camat_identity = worst.camat_identity.max(gap);
        if gap > CAMAT_IDENTITY_TOL {
            fail(format!(
                "{layer} C-AMAT identity broken: Eq.2 = {eq2:.4}, Eq.3 = {eq3:.4} \
                 (|Δ| = {gap:.4} > {CAMAT_IDENTITY_TOL})"
            ));
        }
    }
    if let Err(e) = r.check(CAMAT_IDENTITY_TOL) {
        fail(format!("counter sanity check failed: {e}"));
    }

    // --- Tier 2: LPMR1–3 recomputed from raw counters (Eq. 9–11) ------
    let lpmrs = r.lpmrs().expect("measured report must yield LPMRs");
    let fmem = r.core.fmem();
    let cpi_exe = r.cpi_exe;
    let acc1 = r.l1.accesses.max(1) as f64;
    let mr1 = r.l2.accesses as f64 / acc1;
    let mr12 = r.dram_accesses as f64 / acc1;
    let hand = [
        (
            "LPMR1",
            r.camat1().max(1e-12) * fmem / cpi_exe,
            lpmrs.l1.value(),
        ),
        ("LPMR2", r.camat2() * fmem * mr1 / cpi_exe, lpmrs.l2.value()),
        (
            "LPMR3",
            r.camat3() * fmem * mr12 / cpi_exe,
            lpmrs.l3.value(),
        ),
    ];
    for (what, ours, theirs) in hand {
        let gap = (ours - theirs).abs();
        worst.lpmr_recompute = worst.lpmr_recompute.max(gap);
        if gap > RECOMPUTE_TOL {
            fail(format!(
                "{what} closed form diverged: recomputed {ours:.9}, library {theirs:.9}"
            ));
        }
    }

    // --- Tier 2: Eq. 12 through lpm_model vs through lpm_sim ----------
    let core = CoreParams::new(fmem, cpi_exe, r.core.overlap_ratio())
        .expect("measured core parameters must validate");
    let model = StallModel::new(core);
    let stall12_model = model.from_lpmr1(lpmrs.l1);
    let stall12_sim = r.predicted_stall_eq12().expect("measurable");
    let gap12 = (stall12_model - stall12_sim).abs();
    worst.stall12_recompute = worst.stall12_recompute.max(gap12);
    if gap12 > RECOMPUTE_TOL {
        fail(format!(
            "Eq.12 via lpm_model ({stall12_model:.9}) != via lpm_sim ({stall12_sim:.9})"
        ));
    }

    // --- Tier 3: Eq. 12/13 prediction vs measured ground truth --------
    let measured = r.measured_stall();
    let rel = |pred: f64| (pred - measured).abs() / measured.max(STALL_ABS_FLOOR);
    let rel12 = rel(stall12_sim);
    worst.stall12_rel = worst.stall12_rel.max(rel12);
    if rel12 > STALL_REL_TOL {
        fail(format!(
            "Eq.12 stall prediction off: predicted {stall12_sim:.4}, \
             measured {measured:.4} cy/instr (rel {rel12:.3} > {STALL_REL_TOL})"
        ));
    }

    // Eq. 13 needs the η-extended factor, which is undefined when the
    // window saw no (pure) L1 miss.
    let stall13 = r.eta_extended().and_then(|eta| {
        let l1 = r.l1.to_params().ok()?;
        model.from_lpmr2(&l1, eta, lpmrs.l2).ok()
    });
    let rel13 = match stall13 {
        Some(s) => {
            let rel13 = rel(s);
            worst.stall13_rel = worst.stall13_rel.max(rel13);
            if rel13 > STALL13_REL_TOL {
                fail(format!(
                    "Eq.13 stall prediction off: predicted {s:.4}, \
                     measured {measured:.4} cy/instr (rel {rel13:.3} > {STALL13_REL_TOL})"
                ));
            }
            rel13
        }
        None => f64::NAN,
    };

    let _ = writeln!(
        report,
        "{name:<20} camat1 {:>7.3}  camat2 {:>7.3}  lpmr1 {:>7.3}  \
         stall meas {:>6.3}  eq12 {:>6.3} (rel {:>5.3})  eq13 rel {:>5.3}",
        r.camat1(),
        r.camat2(),
        lpmrs.l1.value(),
        measured,
        stall12_sim,
        rel12,
        rel13,
    );
    violations
}

/// Where the tolerance report lands: `DIFFERENTIAL_REPORT_PATH` if set,
/// else `target/differential-tolerance-report.txt` in the workspace.
fn report_path() -> std::path::PathBuf {
    match std::env::var("DIFFERENTIAL_REPORT_PATH") {
        Ok(p) if !p.is_empty() => p.into(),
        _ => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/differential-tolerance-report.txt"),
    }
}

/// The whole differential suite as one test, so the tolerance report is
/// written exactly once with no concurrent-writer races.
#[test]
fn simulator_agrees_with_closed_forms() {
    let mut report = String::from(
        "differential sim-vs-model tolerance report\n\
         ==========================================\n",
    );
    let mut worst = Tolerances::default();
    let mut violations = Vec::new();
    for case in cases() {
        let r = measure(case.name, case.trace);
        violations.extend(check_case(case.name, &r, &mut report, &mut worst));
    }
    let _ = writeln!(
        report,
        "\nworst observed vs budget:\n\
         camat Eq.2-vs-Eq.3 identity: {:.4} cycles (budget {CAMAT_IDENTITY_TOL})\n\
         LPMR1-3 recomputation:       {:.3e} (budget {RECOMPUTE_TOL:.0e})\n\
         Eq.12 model-vs-sim:          {:.3e} (budget {RECOMPUTE_TOL:.0e})\n\
         Eq.12 prediction rel error:  {:.3} (budget {STALL_REL_TOL})\n\
         Eq.13 prediction rel error:  {:.3} (budget {STALL13_REL_TOL})",
        worst.camat_identity,
        worst.lpmr_recompute,
        worst.stall12_recompute,
        worst.stall12_rel,
        worst.stall13_rel,
    );
    let path = report_path();
    if let Err(e) = std::fs::write(&path, &report) {
        eprintln!("note: could not write {}: {e}", path.display());
    }
    println!("{report}");
    assert!(
        violations.is_empty(),
        "simulator and closed-form model diverged:\n{}",
        violations.join("\n")
    );
}

/// The harness must be able to fail: corrupt a known-good measurement
/// and check the comparison reports the mismatch. Without this, a bug
/// that made `check_case` vacuously pass would go unnoticed.
#[test]
fn corrupted_measurement_is_detected() {
    let case = &mut cases()[0];
    let mut r = measure(case.name, std::mem::take(&mut case.trace));

    // Sanity: the uncorrupted measurement passes.
    let mut sink = String::new();
    assert!(
        check_case("control", &r, &mut sink, &mut Tolerances::default()).is_empty(),
        "control case must pass before corruption"
    );

    // Inflate the L1 occupancy by 50%: Eq. 3 (active/accesses) moves,
    // Eq. 2's parameters mostly don't — the identity check must trip.
    // This is exactly the shape of bug the differential suite exists to
    // catch: an analyzer undercounting one side of the identity.
    r.l1.active_cycles += r.l1.active_cycles / 2;
    let violations = check_case("corrupted", &r, &mut sink, &mut Tolerances::default());
    assert!(
        violations
            .iter()
            .any(|v| v.contains("identity") || v.contains("sanity")),
        "corrupted counters must trip the identity check, got: {violations:?}"
    );
}
