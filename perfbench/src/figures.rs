//! `figures`: every paper result, through the `lpm_bench` drivers
//! `repro_all` calls, at `repro_all`'s default window.

use std::fmt::Write as _;
use std::time::Instant;

use lpm_bench::{
    fig67_profiles, fig8_results, format_profile_table, format_table1, interval_results,
    study_config, table1_rows, FULL_INSTRUCTIONS,
};
use lpm_core::burst::DetectionResult;
use lpm_core::design_space::TableIRow;
use lpm_core::profile::WorkloadProfile;
use lpm_core::sched::ScheduleEvaluation;
use lpm_core::validation::{summarize, validate_stall_model, ValidationSummary};
use lpm_model::example;
use lpm_trace::SpecWorkload;

use crate::probe::{self, ProbePoint};
use crate::report::Outcome;
use crate::stats::{another, cpu_seconds, peak_rss_mb, Samples};
use crate::Ctx;

/// Paper values (Table I LPMR1 for A–E; Fig. 8 Hsp for Random, Round
/// Robin, NUCA-SA cg, NUCA-SA fg).
const PAPER_LPMR1: [f64; 5] = [8.1, 6.2, 2.1, 1.2, 1.4];
const PAPER_HSP: [f64; 4] = [0.7986, 0.8192, 0.8742, 0.9106];

/// Simulated configurations per pass: Table I (5), Fig. 6/7 (16
/// workloads × 4 L1 sizes), Fig. 8 (4 CMP schedules), Eq. 12 (16).
const SIM_POINTS_PER_PASS: f64 = 89.0;

/// A pass counts toward goodput when it regenerates every figure within
/// this many seconds.
const PASS_LIMIT_S: f64 = 120.0;

/// Set-up repetitions per batch and batches per run; `setup_s` is the
/// median batch divided by the repetitions.
const SETUP_REPS: u32 = 10_000;
const SETUP_BATCHES: usize = 25;

/// Everything one pass computes.
struct Pass {
    table1: Vec<TableIRow>,
    profiles: Vec<WorkloadProfile>,
    fig8: Vec<ScheduleEvaluation>,
    validation: ValidationSummary,
    intervals: [DetectionResult; 3],
}

/// Host wall and CPU seconds of one driver call.
#[derive(Default, Clone, Copy)]
struct Span {
    wall: f64,
    cpu: f64,
}

/// Run `f`, timing it into `spans` when there are spans to fill.
fn timed<T>(spans: &mut Option<&mut Vec<Span>>, f: impl FnOnce() -> T) -> Result<T, String> {
    let Some(spans) = spans else {
        return Ok(f());
    };
    let (w, c) = (Instant::now(), cpu_seconds("self")?);
    let v = f();
    spans.push(Span {
        wall: w.elapsed().as_secs_f64(),
        cpu: cpu_seconds("self")? - c,
    });
    Ok(v)
}

/// One regeneration of every driver's figure. With `spans`, each driver
/// call is timed on its own (the traced pass).
fn pass(n: usize, seed: u64, mut spans: Option<&mut Vec<Span>>) -> Result<Pass, String> {
    let table1 = timed(&mut spans, || table1_rows(n, seed))?;
    let profiles = timed(&mut spans, || fig67_profiles(n, seed))?;
    let fig8 = timed(&mut spans, || fig8_results(&profiles, n, seed))?;
    let validation = timed(&mut spans, || {
        summarize(&validate_stall_model(&SpecWorkload::ALL, n, seed))
    })?;
    let intervals = timed(&mut spans, || interval_results(seed))?;
    Ok(Pass {
        table1,
        profiles,
        fig8,
        validation,
        intervals,
    })
}

/// Fig. 1's C-AMAT and AMAT, exact from the paper's example counters:
/// what `repro_all` computes before it calls the first driver.
fn fig1() -> (f64, f64) {
    let c = std::hint::black_box(example::fig1_counters());
    (c.camat(), c.amat())
}

/// The figures as text: the library's own tables plus every plotted
/// value at full precision. This is the workload's output.
fn render((camat, amat): (f64, f64), p: &Pass) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "fig1 camat {camat:?} amat {amat:?}");
    s.push_str(&format_table1(&p.table1));
    for r in &p.table1 {
        let _ = writeln!(
            s,
            "table1 {} {:?} {:?} {:?} {:?} {:?}",
            r.label, r.lpmr1, r.lpmr2, r.lpmr3, r.stall_over_cpi_exe, r.ipc
        );
    }
    s.push_str(&format_profile_table(&p.profiles, "APC1", |w| &w.apc1));
    s.push_str(&format_profile_table(&p.profiles, "APC2", |w| &w.apc2));
    s.push_str(&format_profile_table(&p.profiles, "L2 demand", |w| {
        &w.l2_demand
    }));
    for w in &p.profiles {
        let _ = writeln!(
            s,
            "fig67 {} {:?} {:?} {:?}",
            w.workload.name(),
            w.apc1,
            w.apc2,
            w.l2_demand
        );
    }
    for e in &p.fig8 {
        let _ = writeln!(s, "fig8 {} {:?}", e.scheduler, e.hsp);
    }
    let v = &p.validation;
    let _ = writeln!(
        s,
        "eq12 corr {:?} mae {:?} mre {:?}",
        v.correlation, v.mean_absolute_error, v.mean_relative_error
    );
    for r in &p.intervals {
        let _ = writeln!(
            s,
            "interval {} action {} bursts {} detected {}",
            r.interval, r.action_cost, r.bursts, r.detected
        );
    }
    s
}

fn mean_relative_error(measured: impl Iterator<Item = f64>, paper: &[f64]) -> f64 {
    let errs: Vec<f64> = measured
        .zip(paper)
        .map(|(m, p)| (m - p).abs() / p)
        .collect();
    errs.iter().sum::<f64>() / errs.len().max(1) as f64
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let n = if ctx.tiny {
        4_000
    } else {
        FULL_INSTRUCTIONS / 2
    };
    out.info("window_instructions", n.to_string());
    out.info(
        "driver_threads",
        "{\"table1\":5,\"fig67\":16,\"fig8\":4}".into(),
    );

    // Set-up: Fig. 1, the one result computed before the drivers. Every
    // driver builds its own traces and systems inside the pass, so this
    // is all the workload does before its timed region: tens of
    // nanoseconds, timed in batches.
    let mut setup = Samples::default();
    let mut fig1_values = fig1();
    for _ in 0..SETUP_BATCHES {
        let t = Instant::now();
        for _ in 0..SETUP_REPS {
            fig1_values = std::hint::black_box(fig1());
        }
        setup.push(t.elapsed().as_secs_f64() / f64::from(SETUP_REPS));
    }
    out.set("setup_s", setup.median());

    let mut wall = Samples::default();
    let mut cpu = Samples::default();
    let mut traced_wall = Samples::default();
    let mut driver: [Samples; 5] = Default::default();
    let mut parallel = Samples::default();
    let mut first: Option<(String, Pass)> = None;
    let mut repeat_ok = true;
    let start = Instant::now();
    loop {
        // A traced run keeps its first pass untraced, as the baseline for
        // the tracing overhead.
        let traced = ctx.trace && !wall.is_empty();
        let mut spans = Vec::new();
        let (w, c) = (Instant::now(), cpu_seconds("self")?);
        let p = pass(n, ctx.seed, traced.then_some(&mut spans))?;
        let (pw, pc) = (w.elapsed().as_secs_f64(), cpu_seconds("self")? - c);
        out.op(true);
        if traced {
            traced_wall.push(pw);
            for (s, span) in driver.iter_mut().zip(&spans) {
                s.push(span.wall);
            }
            let (sw, sc) = spans
                .iter()
                .fold((0.0, 0.0), |(w, c), s| (w + s.wall, c + s.cpu));
            parallel.push(sc / sw);
        } else {
            wall.push(pw);
            cpu.push(pc);
        }
        let text = render(fig1_values, &p);
        match &first {
            None => first = Some((text, p)),
            Some((t, _)) => repeat_ok &= out.bytes_for("figures.repeat", text) == *t,
        }
        let more = another(start.elapsed().as_secs_f64(), pw, ctx.seconds);
        if !more && (!ctx.trace || !traced_wall.is_empty()) {
            break;
        }
    }
    let (text, p) = first.ok_or("no pass ran")?;

    let passes = wall.len() as f64;
    out.set("wall_s", wall.median());
    out.set("cpu_s", cpu.median());
    out.set("points_per_s", SIM_POINTS_PER_PASS * passes / wall.sum());
    let pass_ms = wall.scaled(1e3);
    out.set("job_latency_p50_ms", pass_ms.median());
    let tail = pass_ms.tail();
    out.set("job_latency_tail_ms", tail.value);
    out.info("job_latency_tail", tail.describe());
    let good = pass_ms.count_within(PASS_LIMIT_S * 1e3) as f64;
    out.set("goodput_jobs_per_s", good / wall.sum());
    out.info("latency_limit_ms", format!("{}", PASS_LIMIT_S * 1e3));
    out.set("peak_rss_mb", peak_rss_mb("self")?);

    // Correctness: Fig. 1 is exact; the EXPERIMENTS.md shape bounds hold.
    let (camat, amat) = fig1_values;
    let fig1 = (camat - 1.6).abs() < 1e-9 && (amat - 3.8).abs() < 1e-9;
    let fig1 = out.num_for("figures.fig1_exact", f64::from(u8::from(fig1))) == 1.0;
    out.check(
        "figures.fig1_exact",
        fig1,
        "Fig. 1 C-AMAT/AMAT differ from 1.6/3.8",
    );
    let corr = out.num_for("figures.eq12_corr", p.validation.correlation);
    out.check(
        "figures.eq12_corr",
        corr >= 0.99,
        &format!("Eq. 12 correlation {corr} < 0.99"),
    );
    let falls = out.num_for(
        "figures.table1_falls",
        p.table1[0].lpmr1 / p.table1[2].lpmr1,
    );
    out.check(
        "figures.table1_falls",
        falls > 1.0,
        &format!("Table I A→C LPMR1 ratio {falls} does not fall"),
    );
    if wall.len() + traced_wall.len() > 1 {
        out.check(
            "figures.repeat",
            repeat_ok,
            "a later pass rendered different figures",
        );
    }
    crate::check_digest(ctx, out, "figures", &[text.as_bytes()]);

    out.set(
        "acc.table1_lpmr1_err",
        mean_relative_error(p.table1.iter().map(|r| r.lpmr1), &PAPER_LPMR1),
    );
    out.set(
        "acc.fig8_hsp_err",
        mean_relative_error(p.fig8.iter().map(|e| e.hsp), &PAPER_HSP),
    );
    out.set("acc.eq12_corr", p.validation.correlation);

    if ctx.trace {
        for (name, s) in [
            "core.table1_s",
            "core.fig67_s",
            "core.fig8_s",
            "core.validation_s",
            "core.intervals_s",
        ]
        .into_iter()
        .zip(&driver)
        {
            out.set(name, s.median());
        }
        out.set("core.parallel_ratio", parallel.median());
        out.set(
            "trace.overhead_ratio",
            traced_wall.median() / wall.median() - 1.0,
        );
        let cfg = study_config();
        let points: Vec<ProbePoint> = SpecWorkload::ALL
            .iter()
            .map(|&workload| ProbePoint {
                workload,
                cfg: cfg.clone(),
                instructions: n,
                trace_seed: ctx.seed,
                sim_seed: ctx.seed,
                loop_repeats: 100,
                warmup_instructions: n as u64 / 2,
                cycles: if ctx.tiny { 5_000 } else { 50_000 },
            })
            .collect();
        probe::run(&points, true, out)?;
    }
    Ok(())
}
