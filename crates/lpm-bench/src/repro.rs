//! Human-readable regeneration of every paper result: the text behind
//! `lpm-cli repro <target>`. Each target renders one table or figure
//! (or, for `all`, the compact paper-vs-measured summary EXPERIMENTS.md
//! records); progress goes to stderr, the result comes back as a string.
//!
//! Every number is seeded, so the text is byte-for-byte reproducible;
//! `tests/golden/repro_*.txt` pins it.

use lpm_cache::{BypassPolicy, Policy, PrefetchKind};
use lpm_core::burst::BurstStudy;
use lpm_core::sched::{check_window, NucaLayout};
use lpm_core::validation::{summarize, validate_stall_model};
use lpm_dram::config::SchedPolicy;
use lpm_model::example;
use lpm_sim::{System, SystemConfig};
use lpm_trace::{Generator, Instr, SpecWorkload, Trace};

use crate::{
    fig67_profiles, fig8_results, format_profile_table, format_table1, interval_results,
    table1_rows, FULL_INSTRUCTIONS, SEED,
};

/// Every target `render` accepts, in the order the help text lists them.
pub const TARGETS: [&str; 9] = [
    "fig1",
    "table1",
    "fig6",
    "fig7",
    "fig8",
    "intervals",
    "validation",
    "ablation",
    "all",
];

/// Instruction window of the ablation runs when none is given: a fixed
/// amount of work, so a variant that helps finishes in fewer cycles.
const ABLATION_INSTRUCTIONS: usize = 6_000;

/// Append one formatted line to a `String` (which cannot fail).
macro_rules! w {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        $out.push_str(&format!($($arg)*));
        $out.push('\n');
    }};
}

/// Regenerate `target` over windows of `instructions` (each target's own
/// default when `None`; `fig1` and `intervals` take no window).
pub fn render(target: &str, instructions: Option<usize>) -> Result<String, String> {
    let half = instructions.unwrap_or(FULL_INSTRUCTIONS / 2);
    if matches!(target, "fig8" | "all") {
        // Up front: `fig8_results` panics on a window it cannot measure,
        // and `all` would otherwise run every earlier driver first.
        check_window(half).map_err(|e| format!("repro {target}: {e}"))?;
    }
    match target {
        "fig1" => render_fig1(),
        "table1" => Ok(render_table1(instructions.unwrap_or(FULL_INSTRUCTIONS))),
        "fig6" => Ok(render_fig6(half)),
        "fig7" => Ok(render_fig7(half)),
        "fig8" => Ok(render_fig8(half)),
        "intervals" => Ok(render_intervals()),
        "validation" => Ok(render_validation(half)),
        "ablation" => render_ablation(instructions.unwrap_or(ABLATION_INSTRUCTIONS)),
        "all" => Ok(render_all(half)),
        other => Err(format!(
            "unknown repro target {other:?}; use {}",
            TARGETS.join("|")
        )),
    }
}

/// Fig. 1: the worked C-AMAT example, with the paper's exact values
/// checked.
fn render_fig1() -> Result<String, String> {
    let c = example::fig1_counters();
    let mut out = String::new();
    w!(out, "== Fig. 1: the five-access C-AMAT demonstration ==\n");
    w!(out, "quantity          measured   paper");
    w!(out, "CH                {:>8.3}   {:>5}", c.ch(), "5/2");
    w!(out, "CM                {:>8.3}   {:>5}", c.cm_pure(), "1");
    w!(out, "pMR               {:>8.3}   {:>5}", c.pmr(), "1/5");
    w!(out, "pAMP              {:>8.3}   {:>5}", c.pamp(), "2");
    w!(out, "C-AMAT (Eq. 2)    {:>8.3}   {:>5}", c.camat(), "1.6");
    w!(
        out,
        "1/APC  (Eq. 3)    {:>8.3}   {:>5}",
        c.camat_via_apc(),
        "1.6"
    );
    w!(out, "AMAT   (Eq. 1)    {:>8.3}   {:>5}", c.amat(), "3.8");
    w!(
        out,
        "\nconcurrency gain: {:.2}x (the paper: \"concurrency has doubled \
         memory performance\")",
        c.amat() / c.camat()
    );
    if (c.camat() - example::FIG1_CAMAT).abs() >= 1e-12
        || (c.amat() - example::FIG1_AMAT).abs() >= 1e-12
    {
        return Err(format!(
            "Fig. 1 diverged from the paper: C-AMAT {} (paper {}), AMAT {} (paper {})",
            c.camat(),
            example::FIG1_CAMAT,
            c.amat(),
            example::FIG1_AMAT
        ));
    }
    c.check_identity(0.0)
        .map_err(|e| format!("Fig. 1 breaks Eq. 2 == Eq. 3: {e}"))?;
    w!(out, "\nall values match the paper exactly.");
    w!(out, "(see `cargo run -p lpm --example camat_anatomy` for the live\n cache replay that produces these counters.)");
    Ok(out)
}

/// Table I: LPMRs under configurations A–E on the bwaves-like workload,
/// next to the paper's values (410.bwaves on GEM5). Expected shape:
/// LPMR1 falls steeply with added parallelism, the knee sits at C, and
/// E trades a little ratio for lower hardware cost than D.
fn render_table1(n: usize) -> String {
    eprintln!("measuring 5 configurations × {n} instructions (parallel) ...");
    let rows = table1_rows(n, SEED);
    let mut out = String::new();
    w!(out, "== Table I (reproduced) ==");
    out.push_str(&format_table1(&rows));

    w!(out, "\npaper (for shape comparison):");
    w!(out, "config  LPMR1  LPMR2  LPMR3");
    for (l, a, b, c) in [
        ("A", 8.1, 9.6, 6.4),
        ("B", 6.2, 9.3, 8.1),
        ("C", 2.1, 3.1, 5.8),
        ("D", 1.2, 1.6, 2.3),
        ("E", 1.4, 1.9, 2.6),
    ] {
        w!(out, "{l:<6} {a:>6.1} {b:>6.1} {c:>6.1}");
    }

    let a = &rows[0];
    let c = &rows[2];
    w!(
        out,
        "\nshape check: LPMR1 A→C = {:.2}→{:.2} ({}), IPC gain {:.2}x",
        a.lpmr1,
        c.lpmr1,
        if c.lpmr1 < a.lpmr1 {
            "falls ✓"
        } else {
            "FAILS"
        },
        c.ipc / a.ipc
    );
    let d = &rows[3];
    let e = &rows[4];
    w!(
        out,
        "cost check: E({}) < D({}) with LPMR1 {:.2} vs {:.2} — the Case III trim",
        e.hw.cost(),
        d.hw.cost(),
        e.lpmr1,
        d.lpmr1
    );
    out
}

/// Fig. 6: APC1 of the sixteen workloads across private L1 sizes
/// (4/16/32/64 KiB). Expected shapes (§V.B): bzip2 flat, gcc climbing
/// through 64 KiB, mcf stepping up once its table fits, milc flat and
/// low, gamess climbing.
fn render_fig6(n: usize) -> String {
    eprintln!("profiling 16 workloads × 4 L1 sizes × {n} instructions (parallel) ...");
    let profiles = fig67_profiles(n, SEED);
    let mut out = String::new();
    w!(out, "== Fig. 6 (reproduced): APC1 vs private L1 size ==");
    out.push_str(&format_profile_table(&profiles, "workload / APC1", |p| {
        &p.apc1
    }));
    w!(
        out,
        "\nsize-sensitivity summary (best/worst APC1 across sizes):"
    );
    for p in &profiles {
        let worst = p.apc1.iter().cloned().fold(f64::MAX, f64::min);
        w!(
            out,
            "{:<22} {:>6.2}x  → needs {} KiB (Δ=1%)",
            p.workload.name(),
            p.best_apc1() / worst,
            p.size_need(0.01) >> 10
        );
    }
    out
}

/// Fig. 7: APC2 (shared-L2 activity) across private L1 sizes, plus the
/// L2 traffic demand NUCA-SA minimizes.
fn render_fig7(n: usize) -> String {
    eprintln!("profiling 16 workloads × 4 L1 sizes × {n} instructions (parallel) ...");
    let profiles = fig67_profiles(n, SEED);
    let mut out = String::new();
    w!(out, "== Fig. 7 (reproduced): APC2 vs private L1 size ==");
    out.push_str(&format_profile_table(&profiles, "workload / APC2", |p| {
        &p.apc2
    }));
    w!(
        out,
        "\nL2 traffic demand (accesses per instruction — the bandwidth requirement):"
    );
    out.push_str(&format_profile_table(
        &profiles,
        "workload / L2 demand",
        |p| &p.l2_demand,
    ));
    out
}

/// Fig. 8: harmonic weighted speedup of four scheduling policies on the
/// Fig. 5 16-core CMP. Expected shape: NUCA-SA (fg) > NUCA-SA (cg) >
/// Round Robin ≈ Random.
fn render_fig8(n: usize) -> String {
    eprintln!("profiling 16 workloads × 4 sizes × {n} instructions (parallel) ...");
    let profiles = fig67_profiles(n, SEED);
    eprintln!("running 4 × 16-core CMP schedules (parallel) ...");
    let results = fig8_results(&profiles, n, SEED);

    let mut out = String::new();
    w!(
        out,
        "== Fig. 8 (reproduced): Hsp of different scheduling schemes =="
    );
    w!(
        out,
        "{:<16} {:>10} {:>12}   paper",
        "policy",
        "Hsp",
        "Hsp(entitl.)"
    );
    let paper = [0.7986, 0.8192, 0.8742, 0.9106];
    for (eval, p) in results.iter().zip(paper) {
        w!(
            out,
            "{:<16} {:>10.4} {:>12.4}   {:.4}",
            eval.scheduler,
            eval.hsp,
            eval.hsp_entitled,
            p
        );
    }

    let random = results[0].hsp;
    let rr = results[1].hsp;
    let cg = results[2].hsp;
    let fg = results[3].hsp;
    w!(out, "\nshape checks:");
    w!(
        out,
        "  NUCA-SA(fg) > baselines: {}",
        if fg > rr && fg > random {
            "✓"
        } else {
            "FAILS"
        }
    );
    w!(
        out,
        "  NUCA-SA(fg) ≥ NUCA-SA(cg): {}",
        if fg >= cg { "✓" } else { "FAILS" }
    );
    w!(
        out,
        "  improvement over Random: {:+.2}% (paper: +12.29%)",
        100.0 * (fg - random) / random
    );
    w!(
        out,
        "  improvement over Round Robin: {:+.2}% (paper: +11.16%)",
        100.0 * (fg - rr) / rr
    );

    w!(out, "\nassignment chosen by NUCA-SA (fg):");
    let layout = NucaLayout::fig5();
    for (core, &wl) in results[3].assignment.mapping.iter().enumerate() {
        w!(
            out,
            "  core {core:>2} ({:>2} KiB L1) ← {}",
            layout.l1_sizes[core] >> 10,
            profiles[wl].workload.name()
        );
    }
    out
}

/// The §IV measurement-interval study: the fraction of bursty access
/// patterns "perceived and processed timely" at the paper's three
/// operating points (96% / 89% / 73%), plus an interval-size sweep.
fn render_intervals() -> String {
    let results = interval_results(SEED);
    let mut out = String::new();
    w!(out, "== §IV interval study (reproduced) ==");
    w!(
        out,
        "{:<10} {:>12} {:>8} {:>10}   paper",
        "interval",
        "action cost",
        "bursts",
        "timely"
    );
    let paper = [0.96, 0.89, 0.73];
    for (r, p) in results.iter().zip(paper) {
        w!(
            out,
            "{:<10} {:>12} {:>8} {:>9.1}%   {:.0}%",
            format!("{} cy", r.interval),
            format!("{} cy", r.action_cost),
            r.bursts,
            100.0 * r.rate(),
            100.0 * p
        );
    }

    w!(
        out,
        "\nsensitivity: interval size sweep (4-cycle action cost):"
    );
    let study = BurstStudy::default();
    for k in [5u64, 10, 20, 40, 80, 160, 320] {
        let r = study.run(k, 4, SEED);
        w!(out, "  {:>4} cy → {:>5.1}% timely", k, 100.0 * r.rate());
    }
    out
}

/// Eq. (12)'s stall-time prediction against the simulator's ground
/// truth, for the full workload suite.
fn render_validation(n: usize) -> String {
    eprintln!("validating Eq. 12 across 16 workloads × {n} instructions ...");
    let rows = validate_stall_model(&SpecWorkload::ALL, n, SEED);
    let mut out = String::new();
    w!(
        out,
        "{:<22} {:>9} {:>9} {:>7} {:>8} {:>8}",
        "workload",
        "measured",
        "Eq.12",
        "err%",
        "LPMR1",
        "overlap"
    );
    for r in &rows {
        w!(
            out,
            "{:<22} {:>9.4} {:>9.4} {:>6.1}% {:>8.2} {:>8.3}",
            r.workload.name(),
            r.measured,
            r.predicted,
            100.0 * r.relative_error(),
            r.lpmr1,
            r.overlap,
        );
    }
    let s = summarize(&rows);
    w!(
        out,
        "\nmean |err| {:.3} cy/instr (max {:.3})   mean rel. err {:.1}%   correlation {:.4}",
        s.mean_absolute_error,
        s.max_absolute_error,
        100.0 * s.mean_relative_error,
        s.correlation
    );
    w!(
        out,
        "(stall times are cycles/instruction; predictions use only the \
         analyzer counters the LPM algorithm reads online. Relative error \
         is dominated by compute-bound workloads whose stall is near zero — \
         their absolute error is a few hundredths of a cycle.)"
    );
    out
}

/// Every experiment back to back, as a compact paper-vs-measured
/// summary — the source of the numbers recorded in EXPERIMENTS.md.
fn render_all(n: usize) -> String {
    let mut out = String::new();
    w!(
        out,
        "######## LPM reproduction summary (windows of {n} instructions) ########\n"
    );

    // Fig. 1 — exact.
    let c = example::fig1_counters();
    w!(
        out,
        "[Fig. 1] C-AMAT {:.2} (paper 1.6), AMAT {:.2} (paper 3.8) — exact",
        c.camat(),
        c.amat()
    );

    eprintln!("\n... Table I ...");
    let rows = table1_rows(n, SEED);
    w!(
        out,
        "\n[Table I] LPMR1 by configuration (paper: 8.1 / 6.2 / 2.1 / 1.2 / 1.4):"
    );
    for r in &rows {
        w!(
            out,
            "  {}: LPMR1 {:>5.2}  LPMR2 {:>5.2}  stall {:>5.1}% of CPIexe  IPC {:.2}",
            r.label,
            r.lpmr1,
            r.lpmr2,
            r.stall_over_cpi_exe * 100.0,
            r.ipc
        );
    }
    w!(
        out,
        "  shape: A→C mismatch falls {:.1}x (paper 3.9x); cost E {} < D {}",
        rows[0].lpmr1 / rows[2].lpmr1,
        rows[4].hw.cost(),
        rows[3].hw.cost()
    );

    eprintln!("\n... Fig. 6/7 profiles ...");
    let profiles = fig67_profiles(n, SEED);
    let by_name = |wl: SpecWorkload| {
        profiles
            .iter()
            .find(|p| p.workload == wl)
            // lpm-lint: allow(P001) fig67_profiles returns one profile per SpecWorkload::ALL entry
            .expect("profiled")
    };
    let picked = [
        SpecWorkload::Bzip2Like,
        SpecWorkload::GccLike,
        SpecWorkload::McfLike,
        SpecWorkload::MilcLike,
        SpecWorkload::GamessLike,
    ]
    .map(by_name);
    w!(out, "\n[Fig. 6] APC1 spread (max/min across L1 sizes):");
    for p in picked {
        let worst = p.apc1.iter().cloned().fold(f64::MAX, f64::min);
        w!(
            out,
            "  {:<22} {:>5.2}x  (APC1 {:.3} → {:.3})",
            p.workload.name(),
            p.best_apc1() / worst,
            p.apc1[0],
            p.apc1[3]
        );
    }
    w!(
        out,
        "  paper shapes: bzip2 flat ✓ iff ~1.0x; gcc/gamess climb; milc flat"
    );
    w!(
        out,
        "\n[Fig. 7] L2 demand (per instruction) at 4 KiB → 64 KiB:"
    );
    for p in picked {
        w!(
            out,
            "  {:<22} {:.4} → {:.4}",
            p.workload.name(),
            p.l2_demand[0],
            p.l2_demand[3]
        );
    }

    eprintln!("\n... Fig. 8 (4 × 16-core CMP runs) ...");
    let results = fig8_results(&profiles, n, SEED);
    w!(
        out,
        "\n[Fig. 8] Hsp (paper: 0.7986 / 0.8192 / 0.8742 / 0.9106):"
    );
    for e in &results {
        w!(out, "  {:<14} {:.4}", e.scheduler, e.hsp);
    }
    let fg = results[3].hsp;
    w!(
        out,
        "  NUCA-SA(fg) vs Random {:+.2}% (paper +12.29%), vs RR {:+.2}% (paper +11.16%)",
        100.0 * (fg - results[0].hsp) / results[0].hsp,
        100.0 * (fg - results[1].hsp) / results[1].hsp,
    );

    eprintln!("\n... Eq. 12 validation ...");
    let s = summarize(&validate_stall_model(&SpecWorkload::ALL, n, SEED));
    w!(
        out,
        "\n[Validation] Eq. 12 vs measured stall over 16 workloads: \
         correlation {:.4}, mean |err| {:.3} cy/instr",
        s.correlation,
        s.mean_absolute_error
    );

    w!(
        out,
        "\n[§IV intervals] timely-detection rates (paper: 96% / 89% / 73%):"
    );
    for r in &interval_results(SEED) {
        w!(
            out,
            "  {:>3}-cycle interval, {:>2}-cycle action: {:>5.1}%",
            r.interval,
            r.action_cost,
            100.0 * r.rate()
        );
    }

    w!(out, "\n######## done ########");
    out
}

/// The design-choice ablations DESIGN.md calls out. Each variant runs the
/// same fixed work (`n` instructions, seed 1) to completion on the
/// default system with one knob changed; a variant that helps the
/// workload finishes in fewer simulated cycles.
fn render_ablation(n: usize) -> Result<String, String> {
    // A dependent sequential walk: each load consumes the previous one,
    // so the out-of-order core cannot overlap the misses (MLP-poor), but
    // the addresses are perfectly regular — where prefetching pays.
    let walk: Trace = (0..n)
        .map(|i| {
            if i % 2 == 0 {
                let l = Instr::load((i as u64 / 2) * 64);
                if i >= 2 {
                    l.depending_on(2)
                } else {
                    l
                }
            } else {
                Instr::compute()
            }
        })
        .collect();
    let suite = |wl: SpecWorkload| (wl.name(), wl.generator().generate(n, 1));

    let variant = |edit: &dyn Fn(&mut SystemConfig)| {
        let mut cfg = SystemConfig::default();
        edit(&mut cfg);
        cfg
    };
    let mshrs = |m: u32| {
        variant(&|c| {
            c.l1.mshrs = m;
            c.l2.mshrs = m * 2;
        })
    };
    let studies = [
        (
            "prefetch",
            ("dependent walk", walk),
            vec![
                ("none", variant(&|c| c.l1.prefetch = PrefetchKind::None)),
                (
                    "next-line (2)",
                    variant(&|c| c.l1.prefetch = PrefetchKind::NextLine { degree: 2 }),
                ),
                (
                    "stride (4)",
                    variant(&|c| c.l1.prefetch = PrefetchKind::Stride { distance: 4 }),
                ),
            ],
        ),
        (
            "replacement",
            suite(SpecWorkload::XalancbmkLike),
            vec![
                ("LRU", variant(&|c| c.l1.policy = Policy::Lru)),
                ("FIFO", variant(&|c| c.l1.policy = Policy::Fifo)),
                ("Random", variant(&|c| c.l1.policy = Policy::Random)),
                ("PLRU", variant(&|c| c.l1.policy = Policy::Plru)),
            ],
        ),
        (
            "MSHRs (L2 2x)",
            suite(SpecWorkload::BwavesLike),
            vec![("2", mshrs(2)), ("4", mshrs(4)), ("16", mshrs(16))],
        ),
        (
            "DRAM sched",
            suite(SpecWorkload::LbmLike),
            vec![
                ("FCFS", variant(&|c| c.dram.policy = SchedPolicy::Fcfs)),
                ("FR-FCFS", variant(&|c| c.dram.policy = SchedPolicy::FrFcfs)),
            ],
        ),
        (
            "bypass",
            suite(SpecWorkload::GccLike),
            vec![
                ("off", variant(&|c| c.l1.bypass = BypassPolicy::None)),
                (
                    "on (region reuse)",
                    variant(&|c| c.l1.bypass = BypassPolicy::region_reuse_default()),
                ),
            ],
        ),
    ];

    let mut out = String::new();
    w!(
        out,
        "== Ablations: simulated cycles at a fixed {n}-instruction work =="
    );
    w!(
        out,
        "{:<14} {:<22} {:<18} {:>10} {:>8}",
        "study",
        "trace",
        "variant",
        "cycles",
        "IPC"
    );
    for (study, (trace_name, trace), variants) in &studies {
        eprintln!("ablation: {study} ...");
        for (variant, cfg) in variants {
            let mut sys = System::try_new_looping(cfg.clone(), trace.clone(), 1, 1)
                .map_err(|e| format!("ablation {study} / {variant}: {e}"))?;
            if !sys
                .try_run(500_000_000)
                .map_err(|e| format!("ablation {study} / {variant}: {e}"))?
            {
                return Err(format!(
                    "ablation {study} / {variant}: trace did not drain within the cycle budget"
                ));
            }
            let core = sys.report().core;
            w!(
                out,
                "{:<14} {:<22} {:<18} {:>10} {:>8.4}",
                study,
                trace_name,
                variant,
                core.cycles,
                core.ipc()
            );
        }
    }
    Ok(out)
}
