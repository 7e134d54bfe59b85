//! `serve-mix`: an `lpm-cli serve` daemon in its own process, driven by a
//! fixed-rate open-loop generator that interleaves small fresh jobs with
//! resubmissions of a hot set (report-cache hits).
//!
//! The generator uses two threads and two connections: the main thread
//! submits on schedule (and fetches hit reports), and a poller asks for
//! the status of every outstanding fresh job at a fixed cadence and
//! fetches its report once it completes. Every job is timed from when
//! its submit was due until its report bytes are in hand.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lpm_core::design_space::HwConfig;
use lpm_harness::{derive_stream, evaluate_row, run_sweep, SweepReport, SweepSpec};
use lpm_serve::Client;
use lpm_sim::SystemConfig;
use lpm_telemetry::Value;
use lpm_trace::SpecWorkload;

use crate::probe::{self, ProbePoint};
use crate::report::Outcome;
use crate::stats::{cpu_seconds, peak_rss_mb, remove_tree, Samples};
use crate::sweep::harness_metrics;
use crate::Ctx;

/// Fresh submissions per second; a hit is submitted between every two
/// fresh jobs, so the offered rate is twice this. On a 2-CPU host the
/// runners are about 25% busy. With 1–2-point jobs at 40–50% busy the
/// latency medians moved by up to 4× between runs on a shared host:
/// a loss of CPU capacity pushed the runners toward saturation, and jobs
/// of a few milliseconds were dominated by the host's scheduling and
/// fsync delays.
pub const FRESH_PER_S: f64 = 3.0;
/// A job meets its goal when its report is in hand within this limit
/// after its submit was due; a rejection misses it.
pub const LATENCY_LIMIT_MS: f64 = 600.0;
/// Status poll cadence for outstanding fresh jobs.
pub const POLL: Duration = Duration::from_millis(5);
/// Sweep workers per job; the daemon runs `nproc` runners, so runners ×
/// sweep workers = `nproc`.
const SWEEP_JOBS: usize = 1;
/// Tenants the fresh jobs rotate over: with the per-tenant quota below,
/// 32 jobs may be live before the quota binds.
const TENANTS: usize = 8;
const TENANT_QUOTA: usize = 4;
const QUEUE_CAPACITY: usize = 16;
/// Points per fresh job: enough simulation that a few milliseconds of
/// host delay do not set its latency.
const FRESH_POINTS: u64 = 4;
/// Completed during set-up; every hit resubmits one of them. A hot job
/// is a whole small sweep, so a hit moves a report of ~60 KB.
const HOT_SET: u64 = 4;
const HOT_POINTS: u64 = 16;
/// Daemon start-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fresh jobs whose served reports are recomputed in-process.
const SAMPLED_FRESH: usize = 3;

/// L1-resident workloads: their simulation almost never idles, so the
/// event-driven fast path is bypassed.
const L1_RESIDENT: [SpecWorkload; 3] = [
    SpecWorkload::Bzip2Like,
    SpecWorkload::HmmerLike,
    SpecWorkload::PerlbenchLike,
];

const SALT_FRESH: u64 = 0x4652_4553; // "FRES"
const SALT_HOT: u64 = 0x484F_5421; // "HOT!"

/// Job `i` of a family (`salt`): `points` points of an L1-resident
/// workload on one Table I configuration, with short windows. The shape
/// cycles through every workload × configuration, so the load is the
/// same for every seed; the point seeds are unique to `(seed, salt, i)`.
fn job_spec(seed: u64, salt: u64, i: u64, points: u64) -> SweepSpec {
    let r = derive_stream(seed, salt ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let (label, hw) = HwConfig::TABLE_I[(i / 3 % 5) as usize];
    SweepSpec {
        configs: vec![(label.to_string(), hw)],
        workloads: vec![L1_RESIDENT[(i % 3) as usize]],
        seeds: (0..points).map(|k| derive_stream(r, k)).collect(),
        instructions: 40_000,
        intervals: 4,
        interval_cycles: 10_000,
        warmup_instructions: 10_000,
        ..SweepSpec::default()
    }
}

/// A running `lpm-cli serve` child; killed and reaped if dropped while
/// still running.
struct Daemon {
    child: Child,
    pid: String,
}

impl Daemon {
    fn start(ctx: &Ctx, state: &Path, log: &Path) -> Result<(Daemon, Client), String> {
        remove_tree(state);
        let log = std::fs::File::create(log)
            .map_err(|e| format!("cannot create {}: {e}", log.display()))?;
        let err = log
            .try_clone()
            .map_err(|e| format!("cannot clone log handle: {e}"))?;
        let child = Command::new(&ctx.lpm_cli)
            .arg("serve")
            .arg("--state")
            .arg(state)
            .args(["--runners", &ctx.nproc.to_string()])
            .args(["--jobs", &SWEEP_JOBS.to_string()])
            .args(["--queue-capacity", &QUEUE_CAPACITY.to_string()])
            .args(["--tenant-quota", &TENANT_QUOTA.to_string()])
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ctx.lpm_cli.display()))?;
        let mut d = Daemon {
            pid: child.id().to_string(),
            child,
        };
        let start = Instant::now();
        let client = loop {
            if let Ok(Some(status)) = d.child.try_wait() {
                return Err(format!("serve daemon exited during start-up: {status}"));
            }
            if let Ok(c) = Client::connect_state_dir(state) {
                break c;
            }
            if start.elapsed() > Duration::from_secs(30) {
                return Err("serve daemon did not publish its endpoint".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let mut client = client;
        let pong = client.ping()?;
        if pong.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(format!("ping failed: {}", pong.to_json()));
        }
        Ok((d, client))
    }

    /// Ask the daemon to drain and wait for it to exit.
    fn stop(mut self, client: &mut Client) -> Result<(), String> {
        client.shutdown()?;
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(30) {
            if let Some(status) = self
                .child
                .try_wait()
                .map_err(|e| format!("cannot wait for the daemon: {e}"))?
            {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("serve daemon exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("serve daemon did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Sleep until shortly before `due`, then spin: a timer wake-up can be
/// late by milliseconds on a busy host, and that delay belongs to the
/// generator (`loadgen.late_tail_ms`), not to the job.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_millis(1);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn ok(resp: &Value) -> bool {
    resp.get("ok").and_then(Value::as_bool) == Some(true)
}

fn field<'a>(resp: &'a Value, key: &str) -> &'a str {
    resp.get(key).and_then(Value::as_str).unwrap_or("")
}

/// Submit every spec and wait (polling) until each report is in hand.
fn complete(client: &mut Client, specs: &[SweepSpec]) -> Result<Vec<String>, String> {
    let mut ids = Vec::new();
    for (h, spec) in specs.iter().enumerate() {
        let resp = client.submit(&format!("hot{h}"), spec, None, None)?;
        if !ok(&resp) {
            return Err(format!("hot-set submit rejected: {}", resp.to_json()));
        }
        ids.push(field(&resp, "id").to_string());
    }
    let mut reports = Vec::new();
    for id in ids {
        let start = Instant::now();
        loop {
            let st = client.status(&id)?;
            match field(&st, "status") {
                "completed" => break,
                "failed" | "cancelled" => {
                    return Err(format!("hot-set job failed: {}", st.to_json()))
                }
                _ if start.elapsed() > Duration::from_secs(60) => {
                    return Err(format!("hot-set job {id} did not complete"))
                }
                _ => std::thread::sleep(POLL),
            }
        }
        reports.push(client.report_text(&id)?);
    }
    Ok(reports)
}

/// A fresh job handed from the generator to the poller.
struct Pending {
    index: u64,
    id: String,
    points: usize,
    due: Instant,
    accepted: Instant,
    started: Option<Instant>,
}

/// A fresh job whose report is in hand. The report text is kept for the
/// first `SAMPLED_FRESH` jobs, which are cross-checked.
struct Finished {
    index: u64,
    due: Instant,
    latency_ms: f64,
    queue_ms: f64,
    run_ms: f64,
    points: usize,
    bytes: usize,
    report: Option<String>,
}

/// What the poller measured.
#[derive(Default)]
struct PollLog {
    finished: Vec<Finished>,
    failures: Vec<String>,
    tick_ms: Samples,
    report_rtt_ms: Samples,
    queue_depth_max: u64,
}

/// The poller: every `POLL`, ask for the status of each outstanding
/// fresh job; fetch the report of each that completed.
fn poll_loop(
    client: &mut Client,
    inbox: &Mutex<VecDeque<Pending>>,
    done: &AtomicBool,
    trace_from: Option<Instant>,
    give_up: Instant,
) -> PollLog {
    let mut log = PollLog::default();
    let mut pending: Vec<Pending> = Vec::new();
    let mut next = Instant::now();
    let mut last_tick: Option<Instant> = None;
    loop {
        let tick = Instant::now();
        if let Some(prev) = last_tick {
            log.tick_ms.push_duration_ms(tick - prev);
        }
        last_tick = Some(tick);
        let generator_done = done.load(Ordering::SeqCst);
        pending.extend(inbox.lock().expect("generator thread panicked").drain(..));
        if generator_done && pending.is_empty() {
            return log;
        }
        if tick > give_up {
            for p in pending.drain(..) {
                log.failures
                    .push(format!("job {} did not complete in time", p.id));
            }
            return log;
        }
        let mut i = 0;
        while i < pending.len() {
            let p = &mut pending[i];
            let status = match client.status(&p.id) {
                Ok(s) => field(&s, "status").to_string(),
                Err(e) => {
                    log.failures.push(format!("status {}: {e}", p.id));
                    pending.swap_remove(i);
                    continue;
                }
            };
            let seen = Instant::now();
            match status.as_str() {
                "queued" => {}
                "running" => {
                    p.started.get_or_insert(seen);
                }
                "completed" => {
                    let started = *p.started.get_or_insert(seen);
                    let r = Instant::now();
                    let report = client.report_text(&p.id);
                    let now = Instant::now();
                    log.report_rtt_ms.push_duration_ms(now - r);
                    match report {
                        Ok(text) => log.finished.push(Finished {
                            index: p.index,
                            due: p.due,
                            latency_ms: (now - p.due).as_secs_f64() * 1e3,
                            queue_ms: (started - p.accepted).as_secs_f64() * 1e3,
                            run_ms: (seen - started).as_secs_f64() * 1e3,
                            points: p.points,
                            bytes: text.len(),
                            report: (p.index < SAMPLED_FRESH as u64).then_some(text),
                        }),
                        Err(e) => log.failures.push(format!("report {}: {e}", p.id)),
                    }
                    pending.swap_remove(i);
                    continue;
                }
                other => {
                    log.failures.push(format!("job {} ended {other}", p.id));
                    pending.swap_remove(i);
                    continue;
                }
            }
            i += 1;
        }
        if trace_from.is_some_and(|t| tick >= t) {
            if let Ok(m) = client.metrics("json") {
                let depth = m
                    .get("metrics")
                    .and_then(|m| m.get("queue_depth"))
                    .and_then(Value::as_u64)
                    .unwrap_or(0);
                log.queue_depth_max = log.queue_depth_max.max(depth);
            }
        }
        next += POLL;
        let now = Instant::now();
        if next > now {
            std::thread::sleep(next - now);
        } else {
            next = now;
        }
    }
}

/// The daemon's counters of interest, from a `metrics` reply.
struct Counters {
    busy_ns: u64,
    points_done: u64,
    cache_hits: u64,
    admitted: u64,
    rejected: BTreeMap<String, u64>,
}

fn counters(client: &mut Client) -> Result<Counters, String> {
    let resp = client.metrics("json")?;
    let m = resp.get("metrics").ok_or("metrics reply without metrics")?;
    let n = |k: &str| m.get(k).and_then(Value::as_u64).unwrap_or(0);
    let rejected = match m.get("rejected") {
        Some(Value::Obj(fields)) => fields
            .iter()
            .map(|(k, v)| (k.clone(), v.as_u64().unwrap_or(0)))
            .collect(),
        _ => BTreeMap::new(),
    };
    Ok(Counters {
        busy_ns: n("busy_ns"),
        points_done: n("points_done"),
        cache_hits: n("cache_hits"),
        admitted: n("admitted"),
        rejected,
    })
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    out.info("fresh_per_s", FRESH_PER_S.to_string());
    out.info("offered_per_s", (2.0 * FRESH_PER_S).to_string());
    out.info("latency_limit_ms", LATENCY_LIMIT_MS.to_string());
    out.info("poll_ms", (POLL.as_secs_f64() * 1e3).to_string());
    out.info(
        "daemon",
        format!(
            "{{\"runners\":{},\"jobs\":{},\"queue_capacity\":{QUEUE_CAPACITY},\"tenant_quota\":{TENANT_QUOTA},\"tenants\":{TENANTS}}}",
            ctx.nproc, SWEEP_JOBS
        ),
    );
    let hot: Vec<SweepSpec> = (0..HOT_SET)
        .map(|h| job_spec(ctx.seed, SALT_HOT, h, HOT_POINTS))
        .collect();

    // Set-up, several times: daemon start to first ping, then the hot
    // set completed. The last daemon serves the timed region.
    let mut setup = Samples::default();
    let mut live = None;
    for k in 0..SETUPS {
        let t = Instant::now();
        let state = ctx.tmp.join(format!("serve-state-{k}"));
        let (daemon, mut client) =
            Daemon::start(ctx, &state, &ctx.tmp.join(format!("serve-{k}.log")))?;
        let reports = complete(&mut client, &hot)?;
        setup.push(t.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            daemon.stop(&mut client)?;
            remove_tree(&state);
        } else {
            live = Some((daemon, client, reports, state));
        }
    }
    let (daemon, mut client, hot_reports, state) = live.ok_or("no daemon started")?;
    out.set("setup_s", setup.median());

    let mut poller = Client::connect_state_dir(&state)?;
    let before = counters(&mut client)?;
    let cpu0 = cpu_seconds(&daemon.pid)?;
    let inbox: Mutex<VecDeque<Pending>> = Mutex::new(VecDeque::new());
    let done = AtomicBool::new(false);
    let period = Duration::from_secs_f64(0.5 / FRESH_PER_S);
    let t0 = Instant::now() + Duration::from_millis(20);
    let end = t0 + Duration::from_secs_f64(ctx.seconds);
    let half = t0 + Duration::from_secs_f64(ctx.seconds / 2.0);
    let give_up = end + Duration::from_secs(60);

    let mut late_ms = Samples::default();
    let mut submit_rtt_ms = Samples::default();
    let mut hit_ms = Samples::default();
    let mut hit_rtt_ms = Samples::default();
    let mut rejected_fresh = 0u64;
    let (mut uncached, mut hit_equal) = (0u64, true);
    let mut hits = 0u64;
    let mut fresh_specs: Vec<SweepSpec> = Vec::new();
    let (poller, inbox, done) = (&mut poller, &inbox, &done);
    let log = std::thread::scope(|s| -> Result<PollLog, String> {
        let trace_from = ctx.trace.then_some(half);
        let poll = s.spawn(move || poll_loop(poller, inbox, done, trace_from, give_up));
        let mut gen = || -> Result<(), String> {
            for i in 0u64.. {
                let due = t0 + period * u32::try_from(i).map_err(|e| e.to_string())?;
                if due >= end {
                    return Ok(());
                }
                wait_until(due);
                late_ms.push_duration_ms(Instant::now().saturating_duration_since(due));
                let n = i / 2;
                let tenant = format!("t{}", n as usize % TENANTS);
                if i % 2 == 0 {
                    let spec = job_spec(ctx.seed, SALT_FRESH, n, FRESH_POINTS);
                    let r = Instant::now();
                    let resp = client.submit(&tenant, &spec, None, None)?;
                    let accepted = Instant::now();
                    submit_rtt_ms.push_duration_ms(accepted - r);
                    if ok(&resp) {
                        inbox
                            .lock()
                            .expect("poller thread panicked")
                            .push_back(Pending {
                                index: n,
                                id: field(&resp, "id").to_string(),
                                points: spec.len(),
                                due,
                                accepted,
                                started: None,
                            });
                    } else {
                        eprintln!("perfbench: fresh job rejected: {}", resp.to_json());
                        rejected_fresh += 1;
                    }
                    fresh_specs.push(spec);
                } else {
                    let h = (n % HOT_SET) as usize;
                    let r = Instant::now();
                    let resp = client.submit(&tenant, &hot[h], None, None)?;
                    submit_rtt_ms.push_duration_ms(r.elapsed());
                    hits += 1;
                    let cached = ok(&resp)
                        && resp.get("cached").and_then(Value::as_bool) == Some(true)
                        && field(&resp, "status") == "completed";
                    if !cached {
                        eprintln!(
                            "perfbench: hot resubmission not a cache hit: {}",
                            resp.to_json()
                        );
                        uncached += 1;
                        continue;
                    }
                    let r = Instant::now();
                    let report = client.report_text(field(&resp, "id"))?;
                    let now = Instant::now();
                    hit_rtt_ms.push_duration_ms(now - r);
                    hit_ms.push_duration_ms(now - due);
                    hit_equal &= out.bytes_for("serve.hit_equal", report) == hot_reports[h];
                }
            }
            Ok(())
        };
        let generated = gen();
        done.store(true, Ordering::SeqCst);
        let log = poll
            .join()
            .map_err(|_| "poller thread panicked".to_string())?;
        generated.map(|()| log)
    })?;
    let wall = t0.elapsed().as_secs_f64();
    let after = counters(&mut client)?;
    let cpu = cpu_seconds(&daemon.pid)? - cpu0;
    let rss = peak_rss_mb(&daemon.pid)?;
    daemon.stop(&mut client)?;
    remove_tree(&state);

    for f in &log.failures {
        eprintln!("perfbench: {f}");
    }
    let fresh = fresh_specs.len() as u64;
    let completed = log.finished.len() as u64;
    for _ in 0..completed {
        out.op(true);
    }
    for _ in completed..fresh {
        out.op(false);
    }
    for _ in 0..hits {
        out.op(true);
    }
    let mut job_ms = Samples::default();
    let mut queue_ms = Samples::default();
    let mut run_ms = Samples::default();
    let mut report_bytes = Samples::default();
    let (mut first_half, mut second_half) = (Samples::default(), Samples::default());
    let mut points = 0usize;
    for f in &log.finished {
        job_ms.push(f.latency_ms);
        queue_ms.push(f.queue_ms);
        run_ms.push(f.run_ms);
        points += f.points;
        report_bytes.push(f.bytes as f64);
        if f.due < half {
            first_half.push(f.latency_ms);
        } else {
            second_half.push(f.latency_ms);
        }
    }
    let good = job_ms.count_within(LATENCY_LIMIT_MS) + hit_ms.count_within(LATENCY_LIMIT_MS);

    out.set("wall_s", wall);
    out.set("cpu_s", cpu);
    out.set("points_per_s", points as f64 / wall);
    out.set("job_latency_p50_ms", job_ms.median());
    let tail = job_ms.tail();
    out.set("job_latency_tail_ms", tail.value);
    out.info("job_latency_tail", tail.describe());
    out.set("hit_latency_p50_ms", hit_ms.median());
    let tail = hit_ms.tail();
    out.set("hit_latency_tail_ms", tail.value);
    out.info("hit_latency_tail", tail.describe());
    out.set("goodput_jobs_per_s", good as f64 / wall);
    out.set("peak_rss_mb", rss);
    out.info("fresh_jobs", fresh.to_string());
    out.info("hit_jobs", hits.to_string());

    out.check(
        "serve.jobs_completed",
        out.num_for("serve.jobs_completed", (fresh - completed) as f64) == 0.0
            && rejected_fresh == 0,
        &format!(
            "{} of {fresh} fresh job(s) without a report",
            fresh - completed
        ),
    );
    out.check(
        "serve.hit_cached",
        out.num_for("serve.hit_cached", uncached as f64) == 0.0,
        &format!("{uncached} hot resubmission(s) not served from the cache"),
    );
    out.check(
        "serve.hit_equal",
        hit_equal,
        "a cache-hit report differs from the fresh report",
    );

    // In-process cross-check: the hot set and the first fresh jobs.
    let mut sampled: Vec<(&SweepSpec, &str)> = hot
        .iter()
        .zip(&hot_reports)
        .map(|(s, r)| (s, r.as_str()))
        .collect();
    let mut kept: Vec<(u64, &str)> = log
        .finished
        .iter()
        .filter_map(|f| Some((f.index, f.report.as_deref()?)))
        .collect();
    kept.sort_unstable();
    for (i, r) in kept {
        sampled.push((&fresh_specs[i as usize], r));
    }
    let mut equal = true;
    for (spec, served) in &sampled {
        let local = run_sweep(spec, 1)?.to_jsonl();
        equal &= out.bytes_for("serve.inprocess_equal", local) == *served;
    }
    out.check(
        "serve.inprocess_equal",
        equal,
        "a served report differs from an in-process sweep of its spec",
    );
    let digest_parts: Vec<&[u8]> = sampled.iter().map(|(_, r)| r.as_bytes()).collect();
    crate::check_digest(ctx, out, "serve", &digest_parts);

    if ctx.trace {
        out.set("serve.submit_rtt_ms", submit_rtt_ms.median());
        out.set("serve.queue_wait_ms", queue_ms.median());
        out.set("serve.queue_wait_tail_ms", queue_ms.tail().value);
        out.set("serve.run_ms", run_ms.median());
        out.set("serve.run_tail_ms", run_ms.tail().value);
        let mut rtt = log.report_rtt_ms.clone();
        for v in hit_rtt_ms.values() {
            rtt.push(*v);
        }
        out.set("serve.report_rtt_ms", rtt.median());
        out.set("serve.report_bytes", report_bytes.median());
        let busy_s = (after.busy_ns - before.busy_ns) as f64 / 1e9;
        out.set("serve.busy_ratio", busy_s / (ctx.nproc as f64 * wall));
        out.set("serve.queue_depth_max", log.queue_depth_max as f64);
        let cache_hits = (after.cache_hits - before.cache_hits) as f64;
        let admitted = (after.admitted - before.admitted) as f64;
        out.set(
            "serve.cache_hit_ratio",
            cache_hits / (cache_hits + admitted).max(1.0),
        );
        let mut total = 0u64;
        for (reason, name) in [
            ("queue-full", "serve.rejected.queue-full"),
            ("tenant-quota", "serve.rejected.tenant-quota"),
            ("invalid-spec", "serve.rejected.invalid-spec"),
            ("shutting-down", "serve.rejected.shutting-down"),
        ] {
            let n = after.rejected.get(reason).copied().unwrap_or(0)
                - before.rejected.get(reason).copied().unwrap_or(0);
            total += n;
            out.set(name, n as f64);
        }
        out.set("serve.rejected", total as f64);
        let points_done = (after.points_done - before.points_done) as f64;
        out.set("serve.points_per_busy_s", points_done / busy_s.max(1e-9));
        out.set("loadgen.late_tail_ms", late_ms.tail().value);
        out.set("loadgen.poll_ms", log.tick_ms.median());
        out.set(
            "trace.overhead_ratio",
            second_half.median() / first_half.median() - 1.0,
        );
        let specs: Vec<&SweepSpec> = sampled.iter().map(|(s, _)| *s).collect();
        harness_layer(ctx, out, &specs)?;
    }
    Ok(())
}

/// The harness work behind a served job, in-process: serial
/// `evaluate_row` per point, the JSONL export and journal appends.
fn harness_layer(ctx: &Ctx, out: &mut Outcome, specs: &[&SweepSpec]) -> Result<(), String> {
    let mut point_ms = Samples::default();
    let mut export_ms = Samples::default();
    let mut bytes = Samples::default();
    let mut reports = Vec::new();
    for spec in specs {
        let mut rows = Vec::new();
        for p in spec.points() {
            let t = Instant::now();
            rows.push(evaluate_row(&p, spec));
            point_ms.push_duration_ms(t.elapsed());
        }
        let report = SweepReport { rows };
        let t = Instant::now();
        let text = report.to_jsonl();
        export_ms.push_duration_ms(t.elapsed());
        bytes.push(text.len() as f64);
        reports.push(report);
    }
    out.set("harness.point_p50_ms", point_ms.median());
    out.set("harness.point_tail_ms", point_ms.tail().value);
    out.set("harness.point_max_ms", point_ms.max());
    out.set("harness.export_ms", export_ms.median());
    out.set("harness.export_bytes", bytes.median());
    let sweeps: Vec<(&SweepSpec, &SweepReport)> = specs.iter().copied().zip(&reports).collect();
    harness_metrics(out, &ctx.tmp.join("serve-appends.jsonl"), &sweeps)?;

    let cfg = HwConfig::TABLE_I[0].1.apply(&SystemConfig::default());
    let points: Vec<ProbePoint> = L1_RESIDENT
        .iter()
        .map(|&w| ProbePoint::shaped(specs[0], w, cfg.clone(), ctx.seed, ctx.seed))
        .collect();
    probe::run(&points, true, out)
}
