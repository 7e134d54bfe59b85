//! `sweep-membound`: a Table I × memory-bound design-space sweep through
//! the harness at `jobs = nproc`, with a checkpoint journal and both
//! exports.

use std::path::Path;
use std::time::Instant;

use lpm_core::design_space::HwConfig;
use lpm_harness::point::{SALT_SIM, SALT_TRACE};
use lpm_harness::{
    derive_stream, evaluate_row, run_sweep_profiled, run_sweep_with, CheckpointJournal,
    SweepOptions, SweepReport, SweepSpec,
};
use lpm_sim::SystemConfig;
use lpm_telemetry::Event;
use lpm_trace::SpecWorkload;

use crate::probe::{self, ProbePoint};
use crate::report::Outcome;
use crate::stats::{another, cpu_seconds, peak_rss_mb, Samples};
use crate::Ctx;

/// Footprints far past L2: the work lands in MSHRs, DRAM and long stall
/// spans.
const MEMBOUND: [SpecWorkload; 5] = [
    SpecWorkload::McfLike,
    SpecWorkload::MilcLike,
    SpecWorkload::LbmLike,
    SpecWorkload::LibquantumLike,
    SpecWorkload::OmnetppLike,
];

/// A sweep counts toward goodput when its report is in hand within this
/// many seconds.
const SWEEP_LIMIT_S: f64 = 120.0;

/// Set-ups per round (each recreates the round's journal); `setup_s`
/// is the median over the run. The journal's fsyncs make set-up time
/// follow the disk's state, so the samples are spread over the run.
const SETUPS_PER_ROUND: usize = 20;

/// Re-runs of each completed sweep against its complete journal (the
/// hit samples: every point is loaded, none simulated).
const HITS_PER_ROUND: usize = 3;

/// Seeds per sweep. A memory-bound trace's seed can switch a point
/// between regimes 3–6× apart in host cost (milc, lbm at 30 000-
/// instruction windows), so one sweep draws many seeds of short points:
/// at this shape one seed's five points varied by 7% in cost between
/// seeds, against 21% at 30 000-instruction windows.
const SEEDS: u64 = 16;

fn spec(ctx: &Ctx) -> SweepSpec {
    let mut spec = SweepSpec {
        configs: HwConfig::TABLE_I
            .iter()
            .map(|(l, hw)| ((*l).to_string(), *hw))
            .collect(),
        workloads: MEMBOUND.to_vec(),
        seeds: (0..SEEDS).map(|i| derive_stream(ctx.seed, i)).collect(),
        instructions: 15_000,
        intervals: 4,
        interval_cycles: 5_000,
        warmup_instructions: 5_000,
        ..SweepSpec::default()
    };
    if ctx.tiny {
        spec.configs.truncate(2);
        spec.workloads.truncate(2);
        spec.seeds.truncate(1);
        spec.instructions = 20_000;
        spec.intervals = 3;
        spec.interval_cycles = 5_000;
        spec.warmup_instructions = 5_000;
    }
    spec
}

/// Expand the spec and create the checkpoint journal the sweep resumes
/// into: the set-up a user pays before the first point runs.
fn set_up(ctx: &Ctx, journal: &Path) -> Result<SweepSpec, String> {
    let spec = spec(ctx);
    spec.validate()?;
    let points = spec.points();
    CheckpointJournal::create(journal, spec.fingerprint(), points.len())?;
    Ok(spec)
}

fn options(journal: &Path) -> SweepOptions {
    SweepOptions {
        checkpoint: Some(journal.to_path_buf()),
        resume: true,
        ..SweepOptions::default()
    }
}

fn exports(report: &SweepReport) -> (String, String) {
    (report.to_csv(), report.to_jsonl())
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let dir = ctx.tmp.join("sweep");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let jobs = ctx.nproc;
    out.info("sweep_jobs", jobs.to_string());

    let mut setup = Samples::default();
    let mut sweep_s = Samples::default();
    let mut job_s = Samples::default();
    let mut cpu = Samples::default();
    let mut export_ms = Samples::default();
    let mut hits = Samples::default();
    let mut points = 0usize;
    let mut first: Option<(String, String, SweepReport)> = None;
    let (mut repeat_ok, mut hit_ok) = (true, true);
    let start = Instant::now();
    for round in 0.. {
        let round_start = Instant::now();
        let journal = dir.join(format!("round{round}.jsonl"));
        let mut spec = None;
        for _ in 0..SETUPS_PER_ROUND {
            let t = Instant::now();
            spec = Some(set_up(ctx, &journal)?);
            setup.push(t.elapsed().as_secs_f64());
        }
        let spec = spec.ok_or("no set-up ran")?;

        let opts = options(&journal);
        let (t0, c0) = (Instant::now(), cpu_seconds("self")?);
        let report = run_sweep_with(&spec, jobs, &opts)?;
        sweep_s.push(t0.elapsed().as_secs_f64());
        let e = Instant::now();
        let (csv, jsonl) = exports(&report);
        export_ms.push_duration_ms(e.elapsed());
        job_s.push(t0.elapsed().as_secs_f64());
        cpu.push(cpu_seconds("self")? - c0);
        points += report.len();
        out.op(report.failed_len() == 0);

        for _ in 0..HITS_PER_ROUND {
            let h = Instant::now();
            let again = run_sweep_with(&spec, jobs, &opts)?;
            let (c2, j2) = exports(&again);
            hits.push_duration_ms(h.elapsed());
            hit_ok &= out.bytes_for("sweep.resume_equal", j2) == jsonl && c2 == csv;
        }
        std::fs::remove_file(&journal)
            .map_err(|e| format!("cannot remove {}: {e}", journal.display()))?;

        match &first {
            None => first = Some((csv, jsonl, report)),
            Some((c, j, _)) => repeat_ok &= out.bytes_for("sweep.repeat", jsonl) == *j && csv == *c,
        }
        // A traced run measures its plain rounds the same way, then the
        // traced passes.
        let unit = round_start.elapsed().as_secs_f64();
        if !another(start.elapsed().as_secs_f64(), unit, ctx.seconds) {
            break;
        }
    }
    let (csv, jsonl, report) = first.ok_or("no sweep ran")?;
    let spec = spec(ctx);

    out.set("setup_s", setup.median());
    out.set("wall_s", job_s.median());
    out.set("cpu_s", cpu.median());
    out.set("points_per_s", points as f64 / job_s.sum());
    let job_ms = job_s.scaled(1e3);
    out.set("job_latency_p50_ms", job_ms.median());
    let tail = job_ms.tail();
    out.set("job_latency_tail_ms", tail.value);
    out.info("job_latency_tail", tail.describe());
    out.set("hit_latency_p50_ms", hits.median());
    let tail = hits.tail();
    out.set("hit_latency_tail_ms", tail.value);
    out.info("hit_latency_tail", tail.describe());
    let good = job_ms.count_within(SWEEP_LIMIT_S * 1e3) as f64;
    out.set("goodput_jobs_per_s", good / job_s.sum());
    out.info("latency_limit_ms", format!("{}", SWEEP_LIMIT_S * 1e3));
    out.info("points", spec.len().to_string());
    out.set("peak_rss_mb", peak_rss_mb("self")?);

    out.check(
        "sweep.all_ok",
        out.num_for("sweep.all_ok", report.failed_len() as f64) == 0.0,
        &format!("{} point(s) failed", report.failed_len()),
    );
    if job_s.len() > 1 {
        out.check(
            "sweep.repeat",
            repeat_ok,
            "a later sweep exported different bytes",
        );
    }
    out.check(
        "sweep.resume_equal",
        hit_ok,
        "resuming a complete journal exported different bytes",
    );
    crate::check_digest(ctx, out, "sweep", &[csv.as_bytes(), jsonl.as_bytes()]);

    // The serial reference: every point in a traced run, the first and
    // last point otherwise.
    let all = spec.points();
    let sample: Vec<usize> = if ctx.trace {
        (0..all.len()).collect()
    } else {
        vec![0, all.len() - 1]
    };
    let mut point_ms = Samples::default();
    let mut serial = Vec::new();
    for &i in &sample {
        let t = Instant::now();
        serial.push(evaluate_row(&all[i], &spec));
        point_ms.push_duration_ms(t.elapsed());
    }
    let parallel = SweepReport {
        rows: sample.iter().map(|&i| report.rows[i].clone()).collect(),
    }
    .to_jsonl();
    let serial = SweepReport { rows: serial }.to_jsonl();
    out.check(
        "sweep.serial_equal",
        out.bytes_for("sweep.serial_equal", serial) == parallel,
        "serial evaluate_row rows differ from the parallel report",
    );

    if ctx.trace {
        traced(ctx, out, &dir, &spec, &report, &point_ms, sweep_s.median())?;
        out.set("harness.export_ms", export_ms.median());
        out.set("harness.export_bytes", (csv.len() + jsonl.len()) as f64);
    }
    Ok(())
}

/// Harness-layer metrics of finished sweeps: every row appended to a
/// fresh checkpoint journal at `path`, each append (write + fsync) timed,
/// plus failed points, retries, controller intervals and knob changes.
pub fn harness_metrics(
    out: &mut Outcome,
    path: &Path,
    sweeps: &[(&SweepSpec, &SweepReport)],
) -> Result<(), String> {
    let mut append_ms = Samples::default();
    let (mut failed, mut retries, mut intervals, mut knobs) = (0usize, 0u32, 0usize, 0usize);
    for (spec, report) in sweeps {
        let mut journal = CheckpointJournal::create(path, spec.fingerprint(), report.len())?;
        for row in &report.rows {
            let t = Instant::now();
            journal.append(row)?;
            append_ms.push_duration_ms(t.elapsed());
        }
        failed += report.failed_len();
        retries += report.rows.iter().map(|r| r.attempts - 1).sum::<u32>();
        intervals += report.results().map(|r| r.intervals_run).sum::<usize>();
        knobs += report
            .results()
            .flat_map(|r| &r.telemetry.events)
            .filter(|e| matches!(e, Event::KnobChange { .. }))
            .count();
    }
    let _ = std::fs::remove_file(path);
    out.set("harness.journal_append_ms", append_ms.median());
    out.set("harness.failed_points", failed as f64);
    out.set("harness.retries", f64::from(retries));
    out.set("core.intervals_run", intervals as f64);
    out.set("core.knob_changes", knobs as f64);
    Ok(())
}

fn traced(
    ctx: &Ctx,
    out: &mut Outcome,
    dir: &Path,
    spec: &SweepSpec,
    report: &SweepReport,
    point_ms: &Samples,
    plain_wall_s: f64,
) -> Result<(), String> {
    out.set("harness.point_p50_ms", point_ms.median());
    out.set("harness.point_tail_ms", point_ms.tail().value);
    out.set("harness.point_max_ms", point_ms.max());
    out.set(
        "harness.sched_idle_ratio",
        1.0 - point_ms.sum() / 1e3 / (ctx.nproc as f64 * plain_wall_s),
    );
    harness_metrics(out, &dir.join("appends.jsonl"), &[(spec, report)])?;

    // The profiled sweep: cycle attribution over every point, and the
    // tracing overhead against the median plain round.
    let path = dir.join("profiled.jsonl");
    set_up(ctx, &path)?;
    let t = Instant::now();
    let profile = run_sweep_profiled(spec, ctx.nproc, &options(&path))?;
    let profiled_s = t.elapsed().as_secs_f64();
    out.check(
        "sweep.profiled_equal",
        out.bytes_for("sweep.profiled_equal", profile.report.to_jsonl()) == report.to_jsonl(),
        "the profiled sweep exported different bytes",
    );
    out.set("trace.overhead_ratio", profiled_s / plain_wall_s - 1.0);
    probe::set_attribution(&profile.total, out);

    // Per-layer host cost of the grid's workloads on the middle
    // configuration, point-shaped.
    let (_, hw) = HwConfig::TABLE_I[2];
    let points: Vec<ProbePoint> = spec
        .workloads
        .iter()
        .map(|&workload| {
            ProbePoint::shaped(
                spec,
                workload,
                hw.apply(&SystemConfig::default()),
                derive_stream(spec.seeds[0], SALT_TRACE),
                derive_stream(spec.seeds[0], SALT_SIM),
            )
        })
        .collect();
    probe::run(&points, false, out)
}
