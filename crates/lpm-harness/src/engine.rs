//! The sweep engine: evaluate one point, or run a whole spec across
//! work-stealing worker threads with deterministically merged results —
//! now crash-safe. A panicking, failing, or runaway point is isolated
//! into its own typed [`PointRow`] instead of taking the sweep down,
//! failed points get bounded deterministic retries before quarantine,
//! and every terminal row can be journaled to a checkpoint for
//! byte-identical resume after a kill.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use lpm_core::online::OnlineLpmController;
use lpm_core::LpmError;
use lpm_model::Grain;
use lpm_sim::{SimError, System};
use lpm_telemetry::{CycleAttribution, Event, Profiled, RingRecorder, RunSummary};

use crate::checkpoint::{load_journal_for_resume, CheckpointJournal};
use crate::outcome::{PointOutcome, PointRow};
use crate::point::{
    derive_stream, PointResult, SweepPoint, SweepSpec, SALT_FAULT, SALT_RETRY, SALT_SIM, SALT_TRACE,
};
use crate::queue::WorkStealingQueue;
use crate::report::SweepReport;
use lpm_vfs::Vfs;

/// How one evaluation *attempt* failed. Internal to the retry driver;
/// terminal failures surface as [`PointOutcome`] variants.
enum AttemptFailure {
    /// Structured error (bad config, sim deadlock, ...).
    Failed(String),
    /// The attempt panicked (payload rendered when it was a string).
    Panicked(String),
    /// The simulated-cycle watchdog tripped.
    TimedOut {
        /// The per-attempt budget, in cycles past warmup.
        budget: u64,
        /// Absolute simulated cycle at the trip.
        cycles: u64,
    },
}

impl AttemptFailure {
    fn kind(&self) -> &'static str {
        match self {
            AttemptFailure::Failed(_) => "failed",
            AttemptFailure::Panicked(_) => "panicked",
            AttemptFailure::TimedOut { .. } => "timed-out",
        }
    }

    /// Render the failure exactly as [`PointRow::error`] will, so the
    /// `point-failed` event text and the terminal row agree.
    fn describe(&self, label: &str) -> String {
        match self {
            AttemptFailure::Failed(e) => e.clone(),
            AttemptFailure::Panicked(m) => format!("point {label}: panicked: {m}"),
            AttemptFailure::TimedOut { budget, cycles } => format!(
                "point {label}: timed out: exceeded its cycle budget of {budget} cycle(s) at \
                 simulated cycle {cycles}"
            ),
        }
    }

    fn into_outcome(self) -> PointOutcome {
        match self {
            AttemptFailure::Failed(error) => PointOutcome::Failed { error },
            AttemptFailure::Panicked(message) => PointOutcome::Panicked { message },
            AttemptFailure::TimedOut { budget, cycles } => {
                PointOutcome::TimedOut { budget, cycles }
            }
        }
    }
}

/// Render a `catch_unwind` payload: panics almost always carry `&str`
/// or `String`; anything else gets a stable placeholder.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".into()
    }
}

/// One evaluation attempt of one point. Attempt 0 uses the point's own
/// seeds; attempt `n > 0` re-derives every seed through
/// `derive_stream(seed, SALT_RETRY ^ n)` so a retry explores a
/// decorrelated schedule while staying a pure function of
/// `(point, attempt)`. Chaos injection (when the spec carries it) is
/// applied first, before any real work.
fn evaluate_point_attempt(
    point: &SweepPoint,
    spec: &SweepSpec,
    attempt: u32,
    mode: EvalMode,
) -> Result<(PointResult, Option<Box<CycleAttribution>>), AttemptFailure> {
    let profile = mode.profile;
    let label = point.label();
    let fail = |what: &str, e: &dyn std::fmt::Display| {
        AttemptFailure::Failed(format!("point {label}: {what}: {e}"))
    };

    let chaos = &spec.chaos;
    if chaos.panics(point.index) {
        // lpm-lint: allow(P001) chaos injection must panic: it exercises the catch_unwind isolation path
        panic!("chaos: injected panic at point {}", point.index);
    }
    if chaos.fails(point.index) {
        return Err(AttemptFailure::Failed(format!(
            "point {label}: chaos: injected failure at point {}",
            point.index
        )));
    }
    if let Some(succeed_at) = chaos.flaky_until(point.index) {
        if attempt < succeed_at {
            return Err(AttemptFailure::Failed(format!(
                "point {label}: chaos: injected flaky failure on attempt {attempt} \
                 (succeeds from attempt {succeed_at})"
            )));
        }
    }

    // Retry decorrelation: later attempts run the same point under
    // freshly derived seed streams.
    let (base_seed, base_fault) = if attempt == 0 {
        (point.seed, point.fault_seed)
    } else {
        let salt = SALT_RETRY ^ u64::from(attempt);
        (
            derive_stream(point.seed, salt),
            point.fault_seed.map(|f| derive_stream(f, salt)),
        )
    };
    let trace_seed = derive_stream(base_seed, SALT_TRACE);
    let sim_seed = derive_stream(base_seed, SALT_SIM);
    let fault_seed = base_fault.map(|f| derive_stream(f, SALT_FAULT));

    // The watchdog budget counts simulated cycles from the end of
    // warmup. A chaos-timeout point gets a one-cycle budget, which no
    // controller interval can fit in. Retry backoff is budget
    // *escalation*: attempt `n` gets `n` extra grants of
    // `retry_backoff_cycles`, so a narrowly-timed-out point can succeed
    // on retry without any wall-clock sleep entering the outcome.
    let budget = if chaos.times_out(point.index) {
        Some(1)
    } else {
        spec.point_cycle_budget
            .map(|b| b.saturating_add(u64::from(attempt).saturating_mul(spec.retry_backoff_cycles)))
    };

    let trace = point
        .workload
        .generator()
        .generate(spec.instructions, trace_seed);
    let cfg = point.hw.apply(&spec.base);
    let mut sys = System::try_new_looping(cfg, trace, spec.loop_repeats, sim_seed)
        .map_err(|e| fail("cannot build system", &e))?;
    // Differential-test hook: force the per-cycle reference loop before
    // a single cycle (including warmup) runs. The default is the
    // event-driven fast path, whose output is bit-identical.
    sys.set_reference_stepping(mode.reference);
    sys.cmp_mut()
        .try_warm_up(spec.warmup_instructions)
        .map_err(|e| fail("warm-up failed", &e))?;
    if let Some(fs) = fault_seed {
        sys.enable_faults(spec.fault_class.config(fs));
    }

    let grain = Grain::Custom(spec.grain);
    let mut ctl = if fault_seed.is_some() {
        OnlineLpmController::new_hardened(point.hw, spec.interval_cycles, grain)
    } else {
        OnlineLpmController::new(point.hw, spec.interval_cycles, grain)
    }
    .map_err(|e| fail("cannot build controller", &e))?;

    let mut rec = RingRecorder::new(spec.event_capacity);
    // The budget is relative to the end of warmup; the simulator wants
    // the absolute cap. `saturating_add` so a huge budget means "never".
    let cap = budget.map(|b| sys.now().saturating_add(b));
    let classify = |e: LpmError| match (&e, budget) {
        (LpmError::Sim(SimError::CycleBudgetExceeded { now, .. }), Some(b)) => {
            AttemptFailure::TimedOut {
                budget: b,
                cycles: *now,
            }
        }
        _ => fail("run failed", &e),
    };
    // Profiling wraps the same recorder in `Profiled`, which adds
    // cycle-attribution accumulation while delegating every telemetry
    // emission unchanged — the inner recorder (and so the exported
    // bytes) cannot tell the difference.
    let (log, rec, attribution) = if profile {
        let mut prec = Profiled::new(rec);
        let log = ctl
            .try_run(&mut sys, spec.intervals, &mut prec, cap)
            .map_err(classify)?;
        let (inner, attr) = prec.into_parts();
        (log, inner, Some(Box::new(attr)))
    } else {
        let log = ctl
            .try_run(&mut sys, spec.intervals, &mut rec, cap)
            .map_err(classify)?;
        (log, rec, None)
    };

    let summary = RunSummary {
        total_cycles: sys.now(),
        health: Some(ctl.health().to_telemetry()),
        faults: sys.fault_stats().map(|fs| fs.to_telemetry(fault_seed)),
        ..RunSummary::default()
    };
    let mut telemetry = rec.into_log(summary);
    // Determinism normalization: sim throughput is measured against the
    // wall clock and would differ between runs (and between worker
    // counts). It carries no simulation information, so the sweep report
    // zeroes it.
    for s in &mut telemetry.snapshots {
        s.wall_cycles_per_sec = 0.0;
    }

    let first = log.first();
    let last = log.last();
    Ok((
        PointResult {
            index: point.index,
            label,
            point: point.clone(),
            intervals_run: log.len(),
            ipc_first: first.map_or(0.0, |r| r.ipc),
            ipc_last: last.map_or(0.0, |r| r.ipc),
            lpmr1_first: first.map_or(0.0, |r| r.measurement.lpmr1),
            lpmr1_last: last.map_or(0.0, |r| r.measurement.lpmr1),
            budget_met: log.iter().filter(|r| r.stall_budget_met).count(),
            final_hw: ctl.hw,
            total_cycles: sys.now(),
            telemetry,
        },
        attribution,
    ))
}

/// How one point evaluation runs: whether cycle attribution is
/// collected, and whether the simulator's per-cycle reference loop is
/// forced instead of the (default, bit-identical) event-driven fast
/// path. Neither knob may change a single exported byte — that is
/// precisely the contract the differential tests pin by flipping them.
#[derive(Debug, Clone, Copy, Default)]
struct EvalMode {
    profile: bool,
    reference: bool,
}

/// Evaluate one point to a *terminal row*: isolate panics with
/// `catch_unwind`, classify failures, drive the spec's retry budget,
/// and quarantine a point whose every attempt failed. Never panics and
/// never returns an error — whatever happens is data in the row.
///
/// The whole attempt history is deterministic: outcomes depend only on
/// `(spec, point)`, and the row's `harness_events` record each failure
/// and retry in order.
pub fn evaluate_row(point: &SweepPoint, spec: &SweepSpec) -> PointRow {
    evaluate_row_mode(point, spec, EvalMode::default()).0
}

/// [`evaluate_row`] under an [`EvalMode`], with the cycle attribution
/// a profiled evaluation collects. The attribution is a side channel:
/// it rides *next to* the row, never inside it, so a profiled sweep's
/// serialized rows stay byte-identical to an unprofiled one. Only a
/// successful terminal attempt yields attribution; failed/quarantined
/// rows return `None`.
fn evaluate_row_mode(
    point: &SweepPoint,
    spec: &SweepSpec,
    mode: EvalMode,
) -> (PointRow, Option<Box<CycleAttribution>>) {
    let label = point.label();
    let index = point.index as u64;
    let mut events: Vec<Event> = Vec::new();
    let mut attempt: u32 = 0;
    loop {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            evaluate_point_attempt(point, spec, attempt, mode)
        }));
        let failure = match caught {
            Ok(Ok((result, attr))) => {
                return (
                    PointRow {
                        index: point.index,
                        label,
                        point: point.clone(),
                        attempts: attempt + 1,
                        outcome: PointOutcome::Ok(Box::new(result)),
                        harness_events: events,
                    },
                    attr,
                );
            }
            Ok(Err(failure)) => failure,
            Err(payload) => AttemptFailure::Panicked(panic_message(payload)),
        };
        events.push(Event::PointFailed {
            cycle: 0,
            index,
            attempt: attempt.into(),
            kind: failure.kind().into(),
            error: failure.describe(&label),
        });
        if attempt >= spec.max_retries {
            // Retry budget exhausted. With no retries configured the
            // first failure keeps its own classification; with retries,
            // the point is quarantined.
            let outcome = if spec.max_retries == 0 {
                failure.into_outcome()
            } else {
                events.push(Event::PointQuarantined {
                    cycle: 0,
                    index,
                    attempts: u64::from(attempt) + 1,
                });
                PointOutcome::Quarantined {
                    attempts: attempt + 1,
                    last_error: failure.describe(&label),
                }
            };
            return (
                PointRow {
                    index: point.index,
                    label,
                    point: point.clone(),
                    attempts: attempt + 1,
                    outcome,
                    harness_events: events,
                },
                None,
            );
        }
        attempt += 1;
        events.push(Event::PointRetried {
            cycle: 0,
            index,
            attempt: attempt.into(),
        });
    }
}

/// Run-time policy for a sweep: checkpointing, resume, and the
/// wall-clock stall warning. Merge semantics (keep-going vs fail-fast)
/// live in the *caller* — [`run_sweep_with`] always returns the full
/// typed report.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Append every terminal row to this checkpoint journal.
    pub checkpoint: Option<PathBuf>,
    /// Load previously journaled rows from `checkpoint` and evaluate
    /// only the missing points. Requires `checkpoint`.
    pub resume: bool,
    /// Warn on stderr when a point has been running this long on the
    /// wall clock. Diagnostics only: the guard never kills work and
    /// never touches the report (wall time is nondeterministic; acting
    /// on it would break the bytes-identical contract — the enforcing
    /// watchdog is the *simulated-cycle* budget in the spec).
    pub wall_warn: Option<Duration>,
    /// Cooperative cancellation: when the owner of this flag sets it,
    /// the engine stops dispatching *new* points. In-flight points run
    /// to their terminal row and are journaled like any other, then the
    /// sweep returns a stable `"sweep cancelled: N of M point(s)
    /// journaled"` error. This is the drain primitive the serve daemon
    /// builds SIGTERM handling and wall-clock deadlines on: cancelling
    /// never changes any *row's* bytes, it only bounds how many rows
    /// this process produces — the rest resume later, byte-identically.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Force the simulator's strict per-cycle reference loop instead of
    /// the (default) event-driven fast path. Output bytes are identical
    /// either way — that equivalence is exactly what the differential
    /// tests pin by running the same spec with both values. Lives here,
    /// not in [`SweepSpec`]: the spec's fingerprint hashes its fields,
    /// and a knob that cannot change any byte must not invalidate
    /// checkpoint journals.
    pub reference_stepping: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            checkpoint: None,
            resume: false,
            wall_warn: Some(Duration::from_secs(30)),
            cancel: None,
            reference_stepping: false,
        }
    }
}

/// Shared state of the wall-clock stall reporter: which points are
/// in flight and since when, plus the indices already warned about.
struct WallGuardState {
    stop: bool,
    active: BTreeMap<usize, (String, Instant)>,
    warned: Vec<usize>,
}

/// Shared handle of the wall-clock stall reporter. The condvar lets
/// [`WallGuard::shutdown`] interrupt the reporter's periodic wait
/// immediately instead of racing a `sleep` — an early (fail-fast)
/// engine exit must never leave the thread a window to print behind
/// the sweep's own error.
struct WallGuardInner {
    warn_after: Duration,
    state: Mutex<WallGuardState>,
    wake: Condvar,
}

/// A background thread that periodically scans in-flight points and
/// warns (once per point, on stderr) when one exceeds the wall-clock
/// threshold. Mark-only by design — see [`SweepOptions::wall_warn`].
struct WallGuard {
    inner: Arc<WallGuardInner>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl WallGuard {
    fn spawn(warn_after: Option<Duration>) -> Option<WallGuard> {
        let warn_after = warn_after?;
        let inner = Arc::new(WallGuardInner {
            warn_after,
            state: Mutex::new(WallGuardState {
                stop: false,
                active: BTreeMap::new(),
                warned: Vec::new(),
            }),
            wake: Condvar::new(),
        });
        let thread_inner = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("lpm-wall-guard".into())
            .spawn(move || {
                let mut state = thread_inner.state.lock().unwrap_or_else(|p| p.into_inner());
                loop {
                    if state.stop {
                        return;
                    }
                    let mut overdue: Vec<(usize, String, u64)> = Vec::new();
                    for (&idx, (label, start)) in state.active.iter() {
                        if start.elapsed() >= thread_inner.warn_after
                            && !state.warned.contains(&idx)
                        {
                            overdue.push((idx, label.clone(), start.elapsed().as_secs()));
                        }
                    }
                    for (idx, label, secs) in overdue {
                        state.warned.push(idx);
                        eprintln!(
                            "lpm-harness: point {label} still running after {secs}s of wall time \
                             (report is unaffected; set a --point-cycle-budget to bound \
                             runaway points deterministically)"
                        );
                    }
                    let (next, _) = thread_inner
                        .wake
                        .wait_timeout(state, Duration::from_millis(100))
                        .unwrap_or_else(|p| p.into_inner());
                    state = next;
                }
            })
            .ok()?;
        Some(WallGuard {
            inner,
            handle: Some(handle),
        })
    }

    fn begin(&self, index: usize, label: &str) {
        self.inner
            .state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .active
            .insert(index, (label.to_string(), lpm_telemetry::wall_now()));
    }

    fn end(&self, index: usize) {
        self.inner
            .state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .active
            .remove(&index);
    }

    /// Number of stall warnings emitted so far (regression hook: after
    /// [`WallGuard::shutdown`] this can never grow again).
    #[cfg(test)]
    fn warned_len(&self) -> usize {
        self.inner
            .state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .warned
            .len()
    }

    /// Stop the reporter and join it. Every engine exit path calls this
    /// explicitly (the fail-fast path included) so no guard output can
    /// trail the sweep's return; `Drop` repeats it as a safety net if a
    /// panic unwinds past the call site. Idempotent.
    fn shutdown(&mut self) {
        self.inner
            .state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .stop = true;
        self.inner.wake.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for WallGuard {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Evaluate a row with the (optional) wall-clock guard marking it
/// in flight.
fn guarded_row(
    guard: Option<&WallGuard>,
    point: &SweepPoint,
    spec: &SweepSpec,
    mode: EvalMode,
) -> (PointRow, Option<Box<CycleAttribution>>) {
    if let Some(g) = guard {
        g.begin(point.index, &point.label());
    }
    let out = evaluate_row_mode(point, spec, mode);
    if let Some(g) = guard {
        g.end(point.index);
    }
    out
}

/// One worker's loop: pop point indices until the queue is dry, send
/// each terminal row to the collector. Two early-exit paths drain the
/// reachable queue so no sibling spins on work nobody will run: the
/// collector hanging up (its receiver dropped after a journal write
/// error), and cooperative cancellation ([`SweepOptions::cancel`]),
/// which stops *dispatch* while letting the in-flight row finish.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    me: usize,
    queue: &WorkStealingQueue,
    points: &[SweepPoint],
    spec: &SweepSpec,
    guard: Option<&WallGuard>,
    cancel: Option<&AtomicBool>,
    mode: EvalMode,
    tx: &mpsc::SyncSender<(PointRow, Option<Box<CycleAttribution>>)>,
) {
    loop {
        if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            // Cancelled: stop dispatching. Draining the queue makes
            // every sibling's next pop come up empty too.
            while queue.pop(me).is_some() {}
            return;
        }
        let Some(i) = queue.pop(me) else { return };
        let row = guarded_row(guard, &points[i], spec, mode);
        if tx.send(row).is_err() {
            // Collector is gone; nothing we evaluate can be delivered.
            // Drain the queue so every worker stops promptly instead of
            // evaluating stranded points.
            while queue.pop(me).is_some() {}
            return;
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Test hook: make this thread's next sweep journal fail its append
    /// once N rows have been written (regression: a journal error in
    /// the collector must wind the workers down, not strand them
    /// blocked on the bounded channel).
    static JOURNAL_FAIL_AFTER: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// Run a sweep with `jobs` worker threads under explicit crash-safety
/// options, and return the full typed report — one [`PointRow`] per
/// point, ok or not. The caller chooses the merge policy: fail fast on
/// [`SweepReport::first_error`], or keep going with the partial data.
///
/// The output is **bit-for-bit identical for every `jobs` value**, with
/// or without failures, and across interrupt/resume: points are
/// self-seeded, retries are salted by `(point, attempt)`, each point
/// runs with a private recorder, and rows are collected into a slot per
/// point index and merged in index order.
pub fn run_sweep_with(
    spec: &SweepSpec,
    jobs: usize,
    opts: &SweepOptions,
) -> Result<SweepReport, String> {
    run_sweep_inner(spec, jobs, opts, false).map(|(report, _)| report)
}

/// A sweep report plus its deterministic cycle attribution — what
/// [`run_sweep_profiled`] returns. `per_point` is indexed like
/// `report.rows`; entries are `None` for rows that were loaded from a
/// resume journal (not re-simulated this run) or did not complete
/// successfully. `total` merges every `Some` entry in index order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepProfile {
    /// The sweep report, byte-identical to an unprofiled run's.
    pub report: SweepReport,
    /// Per-point attribution, indexed like `report.rows`.
    pub per_point: Vec<Option<CycleAttribution>>,
    /// Merge of every `Some` entry of `per_point`, in index order.
    pub total: CycleAttribution,
}

impl SweepProfile {
    /// Stable, goldenable text rendering: one attribution block per
    /// profiled point (in index order), then the merged total. Contains
    /// only simulated-cycle counters — no wall-clock data — so it is
    /// byte-identical across `jobs` values and across runs.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (row, attr) in self.report.rows.iter().zip(&self.per_point) {
            let Some(a) = attr else { continue };
            out.push_str(&format!("point {} {}\n", row.index, row.label));
            for line in a.to_text().lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        out.push_str("total\n");
        for line in self.total.to_text().lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// [`run_sweep_with`] with deterministic cycle attribution collected
/// alongside the report. The report itself is **byte-identical** to an
/// unprofiled run — attribution never enters a row, the CSV, or the
/// JSONL export — and the attribution counters themselves depend only
/// on simulated cycles, so they too are identical for every `jobs`
/// value.
pub fn run_sweep_profiled(
    spec: &SweepSpec,
    jobs: usize,
    opts: &SweepOptions,
) -> Result<SweepProfile, String> {
    let (report, per_point) = run_sweep_inner(spec, jobs, opts, true)?;
    let mut total = CycleAttribution::default();
    for attr in per_point.iter().flatten() {
        total.merge(attr);
    }
    Ok(SweepProfile {
        report,
        per_point,
        total,
    })
}

#[allow(clippy::type_complexity)]
fn run_sweep_inner(
    spec: &SweepSpec,
    jobs: usize,
    opts: &SweepOptions,
    profile: bool,
) -> Result<(SweepReport, Vec<Option<CycleAttribution>>), String> {
    if jobs == 0 {
        return Err("jobs must be at least 1".into());
    }
    spec.validate()?;
    if opts.resume && opts.checkpoint.is_none() {
        return Err("resume needs a checkpoint journal (pass --checkpoint PATH)".into());
    }
    let points = spec.points();
    let fingerprint = spec.fingerprint();
    let mode = EvalMode {
        profile,
        reference: opts.reference_stepping,
    };

    let mut slots: Vec<Option<PointRow>> = Vec::new();
    slots.resize_with(points.len(), || None);
    // Attribution rides in a parallel slot vector, never in a row:
    // journaled/resumed rows keep `None` (they were not re-simulated).
    let mut attrs: Vec<Option<CycleAttribution>> = vec![None; points.len()];

    // Open the journal: resume loads intact rows first and reopens for
    // append; a fresh run truncates.
    let vfs = Vfs::for_schedule(&spec.chaos_io);
    let mut journal: Option<CheckpointJournal> = match &opts.checkpoint {
        None => None,
        Some(path) if opts.resume && path.exists() => {
            let (rows, valid_len) = load_journal_for_resume(&vfs, path, fingerprint, points.len())?;
            let n = rows.len() as u64;
            for row in rows {
                let idx = row.index;
                slots[idx] = Some(row);
            }
            Some(CheckpointJournal::open_append(&vfs, path, n, valid_len)?)
        }
        Some(path) => Some(CheckpointJournal::create_with(
            &vfs,
            path,
            fingerprint,
            points.len(),
        )?),
    };
    #[cfg(test)]
    if let (Some(j), Some(n)) = (
        journal.as_mut(),
        JOURNAL_FAIL_AFTER.with(std::cell::Cell::get),
    ) {
        j.fail_after(n);
    }

    let pending: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.is_none().then_some(i))
        .collect();
    // One worker at least, so an already complete resume needs no
    // special case (its worker finds the queue dry at once).
    let workers = jobs.min(pending.len()).max(1);
    let mut guard = WallGuard::spawn(opts.wall_warn);
    let cancel = opts.cancel.as_deref();
    let is_cancelled = || cancel.is_some_and(|c| c.load(Ordering::Relaxed));

    let queue = WorkStealingQueue::deal_indices(&pending, workers);
    // Bounded channel (lint D005): a small per-worker cushion keeps
    // workers busy while the collector journals; an unbounded queue
    // would hide collector stalls as silent memory growth.
    let (tx, rx) =
        mpsc::sync_channel::<(PointRow, Option<Box<CycleAttribution>>)>(workers.saturating_mul(2));
    let journal_err = std::thread::scope(|scope| {
        // One sender per worker. The original is dropped here, so the
        // collector's drain ends when the last worker hangs up.
        let senders: Vec<_> = (0..workers).map(|_| tx.clone()).collect();
        drop(tx);
        let (slots, attrs, journal) = (&mut slots, &mut attrs, &mut journal);
        // The collector files each row as it arrives. Arrival order is
        // schedule-dependent; the slot vector erases it before anything
        // downstream can observe it.
        let mut collect = move || {
            while let Ok((row, attr)) = rx.recv() {
                if let Some(j) = journal.as_mut() {
                    if let Err(e) = j.append(&row) {
                        // Returning drops the receiver, so every
                        // worker's next send fails, which triggers its
                        // drain path and winds the sweep down.
                        return Some(e);
                    }
                }
                let idx = row.index;
                slots[idx] = Some(row);
                attrs[idx] = attr.map(|b| *b);
            }
            None
        };
        let run_worker = |w: usize, tx: mpsc::SyncSender<_>| {
            worker_loop(w, &queue, &points, spec, guard.as_ref(), cancel, mode, &tx);
        };
        if workers == 1 {
            // A lone worker runs on the calling thread beside a
            // collector thread, so a serve runner's one-worker job keeps
            // its allocations in the runner's own allocator arena; a
            // fresh worker thread per job claims other arenas (perfbench
            // serve-mix peak RSS 12.1 -> 17.7 MB, 2-CPU host). With more
            // workers the caller collects: simulating on it, often the
            // main thread, raised sweep-membound's from 47 to 63 MB.
            let collector = scope.spawn(collect);
            for (w, tx) in senders.into_iter().enumerate() {
                run_worker(w, tx);
            }
            collector
                .join()
                .unwrap_or_else(|_| Some("checkpoint collector panicked".to_string()))
        } else {
            for (w, tx) in senders.into_iter().enumerate() {
                scope.spawn(move || run_worker(w, tx));
            }
            collect()
        }
    });
    // Explicit shutdown before any return below: the guard thread is
    // joined here, so not one byte of stall diagnostics can print after
    // the engine's own error or report reaches the caller.
    if let Some(g) = guard.as_mut() {
        g.shutdown();
    }
    if let Some(e) = journal_err {
        return Err(e);
    }
    if is_cancelled() && slots.iter().any(Option::is_none) {
        // Stable, parseable shape: the serve daemon's drain/deadline
        // paths match on the "sweep cancelled" prefix.
        let done = slots.iter().filter(|s| s.is_some()).count();
        return Err(format!(
            "sweep cancelled: {done} of {} point(s) journaled",
            points.len()
        ));
    }

    // Merge in point-index order; the schedule is invisible from here.
    let mut rows = Vec::with_capacity(points.len());
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(row) => rows.push(row),
            None => return Err(format!("point {i}: worker died before reporting")),
        }
    }
    Ok((SweepReport { rows }, attrs))
}

/// Run a sweep with `jobs` worker threads and return the merged report,
/// failing fast: if any point did not complete, the error of the
/// **lowest-indexed** failing point is returned, regardless of which
/// worker hit its failure first. (Use [`run_sweep_with`] and the typed
/// rows for keep-going semantics.)
pub fn run_sweep(spec: &SweepSpec, jobs: usize) -> Result<SweepReport, String> {
    let report = run_sweep_with(spec, jobs, &SweepOptions::default())?;
    match report.first_error() {
        Some(e) => Err(e),
        None => Ok(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{ChaosConfig, FaultClass};
    use lpm_core::design_space::HwConfig;
    use lpm_trace::SpecWorkload;

    /// A small spec sized for debug-mode tests: 4 points, short runs.
    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            configs: vec![("A".into(), HwConfig::A), ("C".into(), HwConfig::C)],
            workloads: vec![SpecWorkload::BwavesLike],
            seeds: vec![7],
            fault_seeds: vec![None, Some(42)],
            fault_class: FaultClass::All,
            instructions: 30_000,
            intervals: 3,
            interval_cycles: 5_000,
            warmup_instructions: 5_000,
            loop_repeats: 50,
            ..SweepSpec::default()
        }
    }

    #[test]
    fn evaluate_point_is_deterministic_and_wall_clock_free() {
        let spec = tiny_spec();
        let p = &spec.points()[0];
        let eval = || {
            evaluate_point_attempt(p, &spec, 0, EvalMode::default())
                .ok()
                .unwrap()
                .0
        };
        let (a, b) = (eval(), eval());
        assert_eq!(a, b);
        assert!(a.intervals_run > 0);
        assert!(a
            .telemetry
            .snapshots
            .iter()
            .all(|s| s.wall_cycles_per_sec == 0.0));
    }

    #[test]
    fn parallel_sweep_matches_serial_bit_for_bit() {
        let spec = tiny_spec();
        let serial = run_sweep(&spec, 1).unwrap();
        let parallel = run_sweep(&spec, 4).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial.to_jsonl(), parallel.to_jsonl());
        assert_eq!(serial.to_csv(), parallel.to_csv());
        assert_eq!(serial.to_text(), parallel.to_text());
    }

    #[test]
    fn more_jobs_than_points_is_fine() {
        let mut spec = tiny_spec();
        spec.fault_seeds = vec![None];
        spec.configs.truncate(1); // 1 point
        let one = run_sweep(&spec, 1).unwrap();
        let many = run_sweep(&spec, 8).unwrap();
        assert_eq!(one, many);
        assert_eq!(one.rows.len(), 1);
    }

    #[test]
    fn zero_jobs_is_rejected() {
        let err = run_sweep(&tiny_spec(), 0).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn errors_are_deterministic_across_job_counts() {
        // An interval shorter than the controller minimum fails spec
        // validation identically for every job count.
        let mut spec = tiny_spec();
        spec.interval_cycles = 10;
        let e1 = run_sweep(&spec, 1).unwrap_err();
        let e4 = run_sweep(&spec, 4).unwrap_err();
        assert_eq!(e1, e4);
    }

    #[test]
    fn injected_panic_is_isolated_and_classified() {
        let spec = SweepSpec {
            chaos: ChaosConfig::parse("panic@1").unwrap(),
            ..tiny_spec()
        };
        let report = run_sweep_with(&spec, 2, &SweepOptions::default()).unwrap();
        assert_eq!(report.rows.len(), 4);
        assert_eq!(report.rows[1].outcome.kind(), "panicked");
        let err = report.rows[1].error().unwrap();
        assert!(err.contains("chaos: injected panic at point 1"), "{err}");
        // The other three points completed untouched.
        assert_eq!(report.rows.iter().filter(|r| r.is_ok()).count(), 3);
        // Fail-fast surfaces the same text as the row.
        assert_eq!(run_sweep(&spec, 2).unwrap_err(), err);
    }

    #[test]
    fn fail_fast_reports_the_lowest_indexed_failure() {
        let spec = SweepSpec {
            chaos: ChaosConfig::parse("panic@3,fail@1").unwrap(),
            ..tiny_spec()
        };
        for jobs in [1, 4] {
            let err = run_sweep(&spec, jobs).unwrap_err();
            assert!(err.contains("injected failure at point 1"), "{err}");
        }
    }

    #[test]
    fn cycle_budget_trips_deterministically() {
        let spec = SweepSpec {
            point_cycle_budget: Some(7_000), // < 3 intervals of 5_000
            ..tiny_spec()
        };
        let a = run_sweep_with(&spec, 1, &SweepOptions::default()).unwrap();
        let b = run_sweep_with(&spec, 4, &SweepOptions::default()).unwrap();
        assert_eq!(a, b);
        for row in &a.rows {
            let PointOutcome::TimedOut { budget, cycles } = &row.outcome else {
                panic!("expected timed-out, got {}", row.outcome.kind());
            };
            assert_eq!(*budget, 7_000);
            assert!(*cycles > 0);
        }
    }

    #[test]
    fn flaky_point_recovers_via_salted_retry() {
        let spec = SweepSpec {
            chaos: ChaosConfig::parse("flaky@0:2").unwrap(),
            max_retries: 2,
            ..tiny_spec()
        };
        let report = run_sweep_with(&spec, 2, &SweepOptions::default()).unwrap();
        let row = &report.rows[0];
        assert!(row.is_ok(), "{:?}", row.outcome.kind());
        assert_eq!(row.attempts, 3);
        // Two failures and two retries in the event record.
        let kinds: Vec<&str> = row.harness_events.iter().map(Event::kind).collect();
        assert_eq!(
            kinds,
            [
                "point-failed",
                "point-retried",
                "point-failed",
                "point-retried"
            ]
        );
        // Keep-going determinism holds with the flake in play.
        assert_eq!(
            report,
            run_sweep_with(&spec, 4, &SweepOptions::default()).unwrap()
        );
    }

    #[test]
    fn exhausted_retries_quarantine_the_point() {
        let spec = SweepSpec {
            chaos: ChaosConfig::parse("fail@0").unwrap(),
            max_retries: 2,
            ..tiny_spec()
        };
        let report = run_sweep_with(&spec, 1, &SweepOptions::default()).unwrap();
        let row = &report.rows[0];
        let PointOutcome::Quarantined {
            attempts,
            last_error,
        } = &row.outcome
        else {
            panic!("expected quarantined, got {}", row.outcome.kind());
        };
        assert_eq!(*attempts, 3);
        assert!(last_error.contains("injected failure"), "{last_error}");
        assert_eq!(
            row.harness_events.last().map(Event::kind),
            Some("point-quarantined")
        );
    }

    #[test]
    fn retry_attempts_use_decorrelated_seed_streams() {
        // The same point evaluated at attempt 0 and attempt 1 must see
        // different derived streams (else a deterministic failure would
        // just repeat identically and retries would be pointless).
        let spec = tiny_spec();
        let p = &spec.points()[0];
        let (a0, _) = evaluate_point_attempt(p, &spec, 0, EvalMode::default())
            .ok()
            .unwrap();
        let (a1, _) = evaluate_point_attempt(p, &spec, 1, EvalMode::default())
            .ok()
            .unwrap();
        assert_ne!(a0.telemetry, a1.telemetry);
        // And each attempt is itself reproducible.
        let (a1b, _) = evaluate_point_attempt(p, &spec, 1, EvalMode::default())
            .ok()
            .unwrap();
        assert_eq!(a1, a1b);
    }

    #[test]
    fn workers_drain_the_queue_when_the_collector_is_gone() {
        // Satellite regression: when the receiving side hangs up, a
        // worker must not strand queued indices — it drains them so the
        // queue ends empty and siblings stop.
        let spec = tiny_spec();
        let points = spec.points();
        let queue = WorkStealingQueue::deal_indices(&[0, 1, 2, 3], 1);
        let (tx, rx) = mpsc::sync_channel::<(PointRow, Option<Box<CycleAttribution>>)>(1);
        drop(rx); // collector dead before the worker starts
        worker_loop(
            0,
            &queue,
            &points,
            &spec,
            None,
            None,
            EvalMode::default(),
            &tx,
        );
        assert_eq!(queue.remaining(), 0);
    }

    #[test]
    fn cancelled_workers_drain_the_queue_without_dispatching() {
        let spec = tiny_spec();
        let points = spec.points();
        let queue = WorkStealingQueue::deal_indices(&[0, 1, 2, 3], 1);
        let (tx, rx) = mpsc::sync_channel::<(PointRow, Option<Box<CycleAttribution>>)>(4);
        let cancel = AtomicBool::new(true);
        worker_loop(
            0,
            &queue,
            &points,
            &spec,
            None,
            Some(&cancel),
            EvalMode::default(),
            &tx,
        );
        drop(tx);
        assert_eq!(queue.remaining(), 0);
        assert!(rx.recv().is_err(), "cancelled worker must not emit rows");
    }

    #[test]
    fn retry_backoff_escalates_the_cycle_budget_deterministically() {
        // Attempt 0 runs under a budget too small for three intervals
        // and times out; the backoff grants attempt 1 enough extra
        // simulated cycles to finish. No wall clock anywhere.
        let spec = SweepSpec {
            point_cycle_budget: Some(7_000), // < 3 intervals × 5_000
            max_retries: 2,
            retry_backoff_cycles: 20_000, // attempt 1 budget: 27_000
            ..tiny_spec()
        };
        let a = run_sweep_with(&spec, 1, &SweepOptions::default()).unwrap();
        for row in &a.rows {
            assert!(row.is_ok(), "{:?}", row.outcome.kind());
            assert_eq!(row.attempts, 2);
            assert_eq!(
                row.harness_events.first().map(Event::kind),
                Some("point-failed")
            );
        }
        // Bit-identical across worker counts, like every other outcome.
        assert_eq!(
            a,
            run_sweep_with(&spec, 4, &SweepOptions::default()).unwrap()
        );
        // Without backoff the same spec quarantines every point.
        let no_backoff = SweepSpec {
            retry_backoff_cycles: 0,
            ..spec
        };
        let b = run_sweep_with(&no_backoff, 1, &SweepOptions::default()).unwrap();
        assert!(b.rows.iter().all(|r| r.outcome.kind() == "quarantined"));
    }

    #[test]
    fn pre_cancelled_sweep_reports_zero_points_journaled() {
        let cancel = Arc::new(AtomicBool::new(true));
        let opts = SweepOptions {
            cancel: Some(Arc::clone(&cancel)),
            ..SweepOptions::default()
        };
        for jobs in [1, 4] {
            let err = run_sweep_with(&tiny_spec(), jobs, &opts).unwrap_err();
            assert_eq!(err, "sweep cancelled: 0 of 4 point(s) journaled");
        }
    }

    #[test]
    fn cancelled_sweep_resumes_to_the_uninterrupted_bytes() {
        let spec = tiny_spec();
        let mut path = std::env::temp_dir();
        path.push(format!("lpm-engine-cancel-{}.jsonl", std::process::id()));
        // First run: cancelled before any dispatch, journal holds the
        // header only.
        let cancel = Arc::new(AtomicBool::new(true));
        let opts = SweepOptions {
            checkpoint: Some(path.clone()),
            cancel: Some(Arc::clone(&cancel)),
            ..SweepOptions::default()
        };
        let err = run_sweep_with(&spec, 2, &opts).unwrap_err();
        assert!(err.starts_with("sweep cancelled:"), "{err}");
        // Second run: resume with the flag cleared; the report must be
        // byte-identical to an uninterrupted serial run.
        cancel.store(false, Ordering::Relaxed);
        let resumed = run_sweep_with(
            &spec,
            2,
            &SweepOptions {
                checkpoint: Some(path.clone()),
                resume: true,
                cancel: Some(cancel),
                ..SweepOptions::default()
            },
        )
        .unwrap();
        let reference = run_sweep_with(&spec, 1, &SweepOptions::default()).unwrap();
        assert_eq!(resumed, reference);
        assert_eq!(resumed.to_jsonl(), reference.to_jsonl());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_error_mid_sweep_returns_instead_of_deadlocking_workers() {
        // Regression: a journal append error in the collector must drop
        // the receiver *inside* the thread scope. With more points than
        // the bounded channel's cushion, a receiver that merely stopped
        // receiving would leave workers blocked in send and the scope
        // join would never return.
        let spec = SweepSpec {
            seeds: (0..8).collect(),
            ..tiny_spec()
        };
        assert!(spec.points().len() > 4 * 2 + 1, "must overflow the cushion");
        let mut path = std::env::temp_dir();
        path.push(format!("lpm-engine-jfail-{}.jsonl", std::process::id()));
        let opts = SweepOptions {
            checkpoint: Some(path.clone()),
            ..SweepOptions::default()
        };
        JOURNAL_FAIL_AFTER.with(|c| c.set(Some(1)));
        let err = run_sweep_with(&spec, 4, &opts).unwrap_err();
        JOURNAL_FAIL_AFTER.with(|c| c.set(None));
        assert!(err.contains("injected journal fault"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_error_with_one_worker_returns_from_the_calling_thread() {
        // A lone worker runs on the calling thread and the collector on
        // its own; the collector's journal error must still wind the
        // worker down, past the channel's two-row cushion (8 points).
        let spec = SweepSpec {
            seeds: (0..2).collect(),
            ..tiny_spec()
        };
        let mut path = std::env::temp_dir();
        path.push(format!("lpm-engine-jfail1-{}.jsonl", std::process::id()));
        let opts = SweepOptions {
            checkpoint: Some(path.clone()),
            ..SweepOptions::default()
        };
        JOURNAL_FAIL_AFTER.with(|c| c.set(Some(1)));
        let err = run_sweep_with(&spec, 1, &opts).unwrap_err();
        JOURNAL_FAIL_AFTER.with(|c| c.set(None));
        assert!(err.contains("injected journal fault"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wall_guard_shutdown_joins_and_silences_the_reporter() {
        // Regression for the fail-fast leak: after shutdown() returns,
        // the reporter thread is joined, so no further stall warnings
        // can ever be emitted — even for points still marked in flight.
        let mut g = WallGuard::spawn(Some(Duration::from_millis(1))).unwrap();
        g.begin(0, "p0");
        // Wait (bounded) for the first warning to prove the thread ran.
        for _ in 0..200 {
            if g.warned_len() >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(g.warned_len(), 1);
        g.shutdown();
        assert!(g.handle.is_none(), "reporter must be joined");
        // A new overdue point after shutdown never produces output.
        g.begin(1, "p1");
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(g.warned_len(), 1);
        // Idempotent: Drop will call shutdown() again harmlessly.
    }

    #[test]
    fn fail_fast_sweep_exit_leaves_no_guard_thread_behind() {
        // The fail-fast path (spec validation error) must return with
        // the guard stopped; since spawn happens after validation, and
        // every later exit path calls shutdown(), a sweep error implies
        // a joined guard. Exercise the earliest error return.
        let mut spec = tiny_spec();
        spec.interval_cycles = 10;
        let opts = SweepOptions {
            wall_warn: Some(Duration::from_millis(1)),
            ..SweepOptions::default()
        };
        assert!(run_sweep_with(&spec, 4, &opts).is_err());
    }

    #[test]
    fn resume_requires_a_checkpoint_path() {
        let opts = SweepOptions {
            resume: true,
            ..SweepOptions::default()
        };
        let err = run_sweep_with(&tiny_spec(), 1, &opts).unwrap_err();
        assert!(err.contains("--checkpoint"), "{err}");
    }
}
