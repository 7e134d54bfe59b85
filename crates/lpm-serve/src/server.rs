//! The daemon: accept loop, runner pool, deadline scanner, drain, and
//! crash recovery.
//!
//! Threading model (no async runtime, shim-crate policy):
//!
//! - one **accept** thread polling a nonblocking listener (it also
//!   watches the SIGTERM flag and owns drain initiation),
//! - one short-lived **connection** thread per client,
//! - `runners` **runner** threads popping the bounded queue under a
//!   `Mutex<ServeState>` + `Condvar`,
//! - one **deadline** scanner raising cooperative cancel flags.
//!
//! Every state transition is persisted to the job's manifest *before*
//! the transition is observable on the wire, and every sweep row is
//! fsynced into a fingerprint-keyed checkpoint journal by the engine —
//! so `SIGKILL` at any instant loses at most wall-clock time, never
//! rows, and never bytes: the resumed report is identical to the
//! uninterrupted one.

use std::collections::VecDeque;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

use lpm_harness::{
    inspect_journal, run_sweep_with, PointOutcome, SweepOptions, SweepReport, SweepSpec,
};
use lpm_telemetry::{Event, JobPhase, Value};
use lpm_vfs::{IoChaosConfig, Vfs, VfsFile};

use crate::admission::{admit, decode_spec};
use crate::metrics::MetricsReport;
use crate::proto::{self, obj, MetricsFormat, Request};
use crate::signal;
use crate::state::{
    atomic_write_with, persist_manifest, CancelCause, Job, JobStatus, ServeState, StateDir,
};

/// How many lifecycle events the in-memory ring keeps for the `events`
/// request (the on-disk `events.jsonl` stream is unbounded).
const RECENT_EVENTS: usize = 1024;

/// Longest accepted request line in bytes (newline included). A submit
/// request carries one sweep spec — well under 4 KiB — so 256 KiB is
/// generous headroom while still bounding per-connection memory against
/// a client streaming an endless line.
pub const MAX_REQUEST_BYTES: u64 = 256 * 1024;

/// Tunables of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// State directory (journals, manifests, reports, endpoint file).
    pub state_dir: PathBuf,
    /// Bind address; use port 0 to let the OS pick (the actual address
    /// lands in the state dir's `endpoint` file).
    pub bind: String,
    /// Bounded queue capacity; submissions beyond it are rejected
    /// `queue-full`, never blocked (sizing: DESIGN.md §11).
    pub queue_capacity: usize,
    /// Max live (queued + running) jobs per tenant.
    pub tenant_quota: usize,
    /// Runner threads. `0` is admission-only mode: jobs queue but
    /// nothing runs (used by overload tests).
    pub runners: usize,
    /// Default sweep worker threads per job (`submit` may override).
    pub sweep_jobs: usize,
    /// Job-level retries for sweep-infrastructure failures (journal
    /// IO, validation races). Per-point retries live inside the spec.
    pub max_job_retries: u32,
    /// Wall-clock backoff between job-level retries, per attempt.
    pub retry_backoff_ms: u64,
    /// Install SIGTERM/SIGINT handlers and drain on them. Off by
    /// default so in-process tests can run many servers; the CLI
    /// switches it on.
    pub handle_os_signals: bool,
    /// Storage-fault schedule for *this daemon's* durable writes
    /// (manifests, reports, endpoint file, events stream). Daemon-level
    /// — unlike a spec's `chaos_io` it does not enter any fingerprint,
    /// so a restarted clean server resumes the same journals and must
    /// reproduce the same report bytes.
    pub chaos_io: IoChaosConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            state_dir: PathBuf::from("lpm-serve-state"),
            bind: "127.0.0.1:0".into(),
            queue_capacity: 8,
            tenant_quota: 4,
            runners: 1,
            sweep_jobs: 2,
            max_job_retries: 1,
            retry_backoff_ms: 50,
            handle_os_signals: false,
            chaos_io: IoChaosConfig::default(),
        }
    }
}

/// Everything the server threads share.
struct Shared {
    config: ServerConfig,
    dir: StateDir,
    state: Mutex<ServeState>,
    work: Condvar,
    stop: AtomicBool,
    events: Mutex<EventSink>,
}

struct EventSink {
    file: VfsFile,
    recent: VecDeque<Value>,
    /// Stream position of the next event. Stamped into every emitted
    /// event as `seq` so subscribers (and `telemetry_check --strict`)
    /// can detect drops; initialized past whatever an existing
    /// `events.jsonl` already holds so the on-disk stream stays
    /// gap-free across restarts.
    next_seq: u64,
}

impl Shared {
    fn locked(&self) -> MutexGuard<'_, ServeState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
            || (self.config.handle_os_signals && signal::term_requested())
    }

    /// Append a job-lifecycle event to `events.jsonl` and the in-memory
    /// ring. Best-effort on the file (an events-disk error must not
    /// take down job processing); the ring always records.
    fn emit(&self, phase: JobPhase, job: &str, detail: &str) {
        let ev = Event::Job {
            cycle: 0,
            job: job.to_string(),
            phase,
            detail: detail.to_string(),
        };
        let mut v = ev.to_json();
        let mut sink = self.events.lock().unwrap_or_else(|p| p.into_inner());
        if let Value::Obj(fields) = &mut v {
            fields.push(("seq".to_string(), Value::Uint(sink.next_seq)));
        }
        sink.next_seq = sink.next_seq.saturating_add(1);
        let mut line = v.to_json();
        line.push('\n');
        if let Err(e) = sink.file.write_all(line.as_bytes()) {
            eprintln!("lpm-serve: cannot append to events.jsonl: {e}");
        }
        if sink.recent.len() == RECENT_EVENTS {
            sink.recent.pop_front();
        }
        sink.recent.push_back(v);
    }
}

/// A running server: its bound address and the threads to join.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the server to drain and exit — the same path SIGTERM takes:
    /// stop admitting, cancel in-flight sweeps cooperatively, journal
    /// their finished rows, requeue them as manifests, exit.
    pub fn request_shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.work.notify_all();
    }

    /// Wait for the drain to finish and all threads to exit. Blocks
    /// forever unless a shutdown was requested (wire `shutdown`,
    /// [`ServerHandle::request_shutdown`], or SIGTERM with
    /// [`ServerConfig::handle_os_signals`]).
    pub fn join(self) -> Result<(), String> {
        for t in self.threads {
            t.join().map_err(|_| "server thread panicked".to_string())?;
        }
        Ok(())
    }
}

/// Bind, recover prior state, spawn the thread pool, and return the
/// handle. The state dir's `endpoint` file holds the actual address
/// once this returns.
pub fn start(config: ServerConfig) -> Result<ServerHandle, String> {
    let dir = StateDir::with_vfs(&config.state_dir, Vfs::for_schedule(&config.chaos_io));
    dir.create()?;
    // Resume the event stream's seq numbering where the last process
    // left it: one past the highest stamped seq, or (for pre-seq
    // streams) the line count, so seq keeps equalling stream position.
    let next_seq = match dir.vfs().read_to_string(&dir.events_path()) {
        Ok(text) => text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .fold(0u64, |acc, l| {
                let stamped = Value::parse(l)
                    .ok()
                    .and_then(|v| v.get("seq").and_then(Value::as_u64));
                match stamped {
                    // A stamped line pins the stream position exactly;
                    Some(s) => s.saturating_add(1),
                    // a pre-seq line just advances it by one.
                    None => acc.saturating_add(1),
                }
            }),
        Err(_) => 0,
    };
    let events_file = dir
        .vfs()
        .append(&dir.events_path())
        .map_err(|e| format!("cannot open {}: {e}", dir.events_path().display()))?;
    if config.handle_os_signals {
        signal::install_term_handlers();
    }
    let listener =
        TcpListener::bind(&config.bind).map_err(|e| format!("cannot bind {}: {e}", config.bind))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot set listener nonblocking: {e}"))?;

    let shared = Arc::new(Shared {
        config,
        dir: dir.clone(),
        state: Mutex::new(ServeState::default()),
        work: Condvar::new(),
        stop: AtomicBool::new(false),
        events: Mutex::new(EventSink {
            file: events_file,
            recent: VecDeque::new(),
            next_seq,
        }),
    });
    recover(&shared)?;
    atomic_write_with(dir.vfs(), &dir.endpoint_path(), &format!("{addr}\n"))?;

    let mut threads = Vec::new();
    for i in 0..shared.config.runners {
        let sh = Arc::clone(&shared);
        let t = thread::Builder::new()
            .name(format!("lpm-serve-runner-{i}"))
            .spawn(move || runner_loop(&sh))
            .map_err(|e| format!("cannot spawn runner thread: {e}"))?;
        threads.push(t);
    }
    {
        let sh = Arc::clone(&shared);
        let t = thread::Builder::new()
            .name("lpm-serve-deadline".into())
            .spawn(move || deadline_loop(&sh))
            .map_err(|e| format!("cannot spawn deadline thread: {e}"))?;
        threads.push(t);
    }
    {
        let sh = Arc::clone(&shared);
        let t = thread::Builder::new()
            .name("lpm-serve-accept".into())
            .spawn(move || accept_loop(&sh, listener))
            .map_err(|e| format!("cannot spawn accept thread: {e}"))?;
        threads.push(t);
    }
    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

/// Scan the jobs directory and rebuild the registry: completed jobs
/// refill the report cache, jobs [resumed from their
/// journal](StateDir::resumes_from_journal) are re-enqueued in admission
/// order, terminal jobs stay queryable.
fn recover(shared: &Shared) -> Result<(), String> {
    let manifests = shared.dir.manifests()?;
    let mut requeue: Vec<(u64, String)> = Vec::new();
    let mut st = shared.locked();
    for job in manifests {
        let mut job = match job {
            Ok(j) => j,
            Err(e) => {
                eprintln!("lpm-serve: skipping {e}");
                continue;
            }
        };
        st.next_seq = st.next_seq.max(job.seq + 1);
        if !shared.dir.resumes_from_journal(&job) {
            if job.status == JobStatus::Completed {
                st.completed_by_fp.insert(job.fingerprint, job.id.clone());
            }
            st.jobs.insert(job.id.clone(), job);
            continue;
        }
        // The journal has whatever rows were fsynced before the kill;
        // re-enqueue and let the sweep resume from it.
        let journal = shared.dir.journal_path(job.fingerprint);
        let progress = match inspect_journal(shared.dir.vfs(), &journal) {
            Ok(j) => format!(
                "{} of {} row(s) already journaled",
                j.info.rows, j.info.points
            ),
            Err(_) => "no journal yet".to_string(),
        };
        job.status = JobStatus::Queued;
        job.detail = format!("resumed: {progress}");
        persist_manifest(&shared.dir, &job)?;
        st.active_by_fp.insert(job.fingerprint, job.id.clone());
        requeue.push((job.seq, job.id.clone()));
        let (id, detail) = (job.id.clone(), job.detail.clone());
        st.jobs.insert(job.id.clone(), job);
        st.metrics.resumes += 1;
        drop(st);
        shared.emit(JobPhase::Resumed, &id, &detail);
        st = shared.locked();
    }
    requeue.sort();
    for (_, id) in requeue {
        st.queue.push_back(id);
    }
    Ok(())
}

/// What a runner needs outside the lock to evaluate one job.
struct JobRun {
    id: String,
    spec: SweepSpec,
    jobs: usize,
    fingerprint: u64,
    cancel: Arc<AtomicBool>,
}

/// Block until a job is available (or the server drains — `None`).
///
/// A requeued-for-retry job carries a `not_before` gate; it stays in
/// the queue (any runner may pick it up later) but no runner starts it
/// before its backoff elapses — ready jobs behind it are not blocked.
fn next_job(shared: &Shared) -> Option<JobRun> {
    let mut st = shared.locked();
    loop {
        if st.draining {
            return None;
        }
        // Backoff gate clock via the sanctioned lpm-prof entry point;
        // decides when an attempt may start, never reaches report bytes.
        let now = lpm_telemetry::wall_now();
        let ready = st.queue.iter().position(|id| {
            st.jobs
                .get(id)
                .is_none_or(|j| j.not_before.is_none_or(|t| t <= now))
        });
        let Some(pos) = ready else {
            st = shared
                .work
                .wait_timeout(st, Duration::from_millis(200))
                .unwrap_or_else(|p| p.into_inner())
                .0;
            continue;
        };
        let Some(id) = st.queue.remove(pos) else {
            continue;
        };
        let Some(job) = st.jobs.get_mut(&id) else {
            continue;
        };
        job.status = JobStatus::Running;
        job.detail = "evaluating".into();
        job.not_before = None;
        job.started = Some(lpm_telemetry::wall_now());
        let run = JobRun {
            id: id.clone(),
            spec: job.spec.clone(),
            jobs: job.jobs,
            fingerprint: job.fingerprint,
            cancel: Arc::clone(&job.cancel),
        };
        if let Err(e) = persist_manifest(&shared.dir, job) {
            eprintln!("lpm-serve: cannot persist manifest for {id}: {e}");
        }
        return Some(run);
    }
}

fn runner_loop(shared: &Shared) {
    while let Some(run) = next_job(shared) {
        shared.emit(
            JobPhase::Started,
            &run.id,
            &format!("{} point(s), {} worker(s)", run.spec.len(), run.jobs),
        );
        let journal = shared.dir.journal_path(run.fingerprint);
        let opts = SweepOptions {
            checkpoint: Some(journal.clone()),
            resume: journal.exists(),
            wall_warn: Some(Duration::from_secs(30)),
            cancel: Some(Arc::clone(&run.cancel)),
            ..SweepOptions::default()
        };
        // Busy time via the sanctioned lpm-prof entry point: feeds the
        // cumulative points/sec gauge only, never any report byte.
        let t0 = lpm_telemetry::wall_now();
        let result = run_sweep_with(&run.spec, run.jobs, &opts);
        let busy = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        {
            let mut st = shared.locked();
            st.metrics.busy_ns = st.metrics.busy_ns.saturating_add(busy);
        }
        finish_job(shared, &run, result);
    }
}

/// Apply a finished attempt's outcome to the registry: complete, fail,
/// cancel, requeue-for-drain, or retry — each persisted before it is
/// observable.
fn finish_job(shared: &Shared, run: &JobRun, result: Result<SweepReport, String>) {
    match result {
        Ok(report) => {
            let text = report.to_jsonl();
            let path = shared.dir.report_path(run.fingerprint);
            if let Err(e) = atomic_write_with(shared.dir.vfs(), &path, &text) {
                return fail_or_retry(shared, run, format!("cannot write report: {e}"));
            }
            let detail = format!("{} point(s), {} failed", report.len(), report.failed_len());
            let quarantined = report
                .rows
                .iter()
                .filter(|r| matches!(r.outcome, PointOutcome::Quarantined { .. }))
                .count();
            let mut st = shared.locked();
            st.metrics.completed += 1;
            st.metrics.points_done = st
                .metrics
                .points_done
                .saturating_add(crate::state::count_u64(report.len()));
            st.metrics.quarantined_points = st
                .metrics
                .quarantined_points
                .saturating_add(crate::state::count_u64(quarantined));
            st.active_by_fp.remove(&run.fingerprint);
            st.completed_by_fp.insert(run.fingerprint, run.id.clone());
            if let Some(job) = st.jobs.get_mut(&run.id) {
                job.status = JobStatus::Completed;
                job.detail = detail.clone();
                job.cancel_cause = None;
                if let Err(e) = persist_manifest(&shared.dir, job) {
                    eprintln!("lpm-serve: cannot persist manifest for {}: {e}", run.id);
                }
            }
            drop(st);
            shared.emit(JobPhase::Completed, &run.id, &detail);
        }
        Err(e) if e.starts_with("sweep cancelled") => {
            let mut st = shared.locked();
            let cause = st
                .jobs
                .get(&run.id)
                .and_then(|j| j.cancel_cause)
                .unwrap_or(CancelCause::Client);
            match cause {
                CancelCause::Drain => {
                    if let Some(job) = st.jobs.get_mut(&run.id) {
                        job.status = JobStatus::Queued;
                        job.detail = format!("drained: {e}");
                        if let Err(pe) = persist_manifest(&shared.dir, job) {
                            eprintln!("lpm-serve: cannot persist manifest for {}: {pe}", run.id);
                        }
                    }
                    st.metrics.drained += 1;
                    st.queue.push_back(run.id.clone());
                    drop(st);
                    shared.emit(JobPhase::Drained, &run.id, &e);
                }
                CancelCause::Client => {
                    st.metrics.cancelled += 1;
                    st.active_by_fp.remove(&run.fingerprint);
                    if let Some(job) = st.jobs.get_mut(&run.id) {
                        job.status = JobStatus::Cancelled;
                        job.detail = e.clone();
                        if let Err(pe) = persist_manifest(&shared.dir, job) {
                            eprintln!("lpm-serve: cannot persist manifest for {}: {pe}", run.id);
                        }
                    }
                    drop(st);
                    shared.emit(JobPhase::Cancelled, &run.id, &e);
                }
                CancelCause::Deadline => {
                    st.metrics.failed += 1;
                    st.active_by_fp.remove(&run.fingerprint);
                    let detail = {
                        let deadline = st
                            .jobs
                            .get(&run.id)
                            .and_then(|j| j.deadline_ms)
                            .unwrap_or(0);
                        format!("deadline exceeded ({deadline}ms): {e}")
                    };
                    if let Some(job) = st.jobs.get_mut(&run.id) {
                        job.status = JobStatus::Failed;
                        job.detail = detail.clone();
                        if let Err(pe) = persist_manifest(&shared.dir, job) {
                            eprintln!("lpm-serve: cannot persist manifest for {}: {pe}", run.id);
                        }
                    }
                    drop(st);
                    shared.emit(JobPhase::Failed, &run.id, &detail);
                }
            }
        }
        Err(e) => fail_or_retry(shared, run, e),
    }
}

/// Sweep-infrastructure failure: burn a job-level retry (with a
/// wall-clock backoff) or fail terminally.
fn fail_or_retry(shared: &Shared, run: &JobRun, error: String) {
    let mut st = shared.locked();
    let draining = st.draining;
    let Some(job) = st.jobs.get_mut(&run.id) else {
        return;
    };
    if job.retries_left > 0 && !draining {
        job.retries_left -= 1;
        job.status = JobStatus::Queued;
        job.detail = format!("retrying after error: {error}");
        // Fresh cancel state for the next attempt: a deadline or client
        // cancel raised during *this* attempt (when the sweep failed
        // with a non-cancel error that took precedence) must not make
        // the retry return "sweep cancelled: 0 of N" without working.
        job.cancel = Arc::new(AtomicBool::new(false));
        job.cancel_cause = None;
        job.started = None;
        let attempt = shared
            .config
            .max_job_retries
            .saturating_sub(job.retries_left);
        // The backoff is a not-before gate on the *job*, enforced in
        // next_job — sleeping here would only stall this runner while
        // any idle peer picked the job right back up.
        let now = lpm_telemetry::wall_now();
        let backoff = shared
            .config
            .retry_backoff_ms
            .saturating_mul(u64::from(attempt));
        job.not_before = Some(now + Duration::from_millis(backoff));
        if let Err(pe) = persist_manifest(&shared.dir, job) {
            eprintln!("lpm-serve: cannot persist manifest for {}: {pe}", run.id);
        }
        st.metrics.retries += 1;
        st.queue.push_back(run.id.clone());
        drop(st);
        shared.emit(
            JobPhase::Retried,
            &run.id,
            &format!("attempt {attempt} failed: {error}"),
        );
    } else {
        job.status = JobStatus::Failed;
        job.detail = error.clone();
        if let Err(pe) = persist_manifest(&shared.dir, job) {
            eprintln!("lpm-serve: cannot persist manifest for {}: {pe}", run.id);
        }
        st.metrics.failed += 1;
        st.active_by_fp.remove(&run.fingerprint);
        drop(st);
        shared.emit(JobPhase::Failed, &run.id, &error);
    }
}

/// Scan running jobs and raise the cancel flag of any past its
/// wall-clock deadline. Wall time only bounds how long *this server*
/// works on a job; the rows a drained job already produced are
/// journaled and byte-stable (the deterministic watchdog is the
/// simulated-cycle budget inside the spec).
fn deadline_loop(shared: &Shared) {
    loop {
        if shared.stopping() {
            return;
        }
        let mut hit: Vec<(String, u64)> = Vec::new();
        {
            let mut st = shared.locked();
            if st.draining {
                return;
            }
            for (id, job) in st.jobs.iter_mut() {
                if job.status != JobStatus::Running || job.cancel_cause.is_some() {
                    continue;
                }
                let (Some(deadline), Some(started)) = (job.deadline_ms, job.started) else {
                    continue;
                };
                if started.elapsed() >= Duration::from_millis(deadline) {
                    job.cancel_cause = Some(CancelCause::Deadline);
                    job.cancel.store(true, Ordering::SeqCst);
                    hit.push((id.clone(), deadline));
                }
            }
            st.metrics.deadline_trips = st
                .metrics
                .deadline_trips
                .saturating_add(crate::state::count_u64(hit.len()));
        }
        for (id, deadline) in hit {
            shared.emit(
                JobPhase::DeadlineExceeded,
                &id,
                &format!("wall deadline {deadline}ms exceeded; finishing in-flight points"),
            );
        }
        thread::sleep(Duration::from_millis(25));
    }
}

/// Flip the registry into draining: no more admissions, every running
/// sweep's cancel flag raised (cause: drain), runners woken so idle
/// ones exit.
fn initiate_drain(shared: &Shared) {
    let mut st = shared.locked();
    if st.draining {
        return;
    }
    st.draining = true;
    for job in st.jobs.values_mut() {
        if job.status == JobStatus::Running && job.cancel_cause.is_none() {
            job.cancel_cause = Some(CancelCause::Drain);
            job.cancel.store(true, Ordering::SeqCst);
        }
    }
    drop(st);
    shared.work.notify_all();
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        if shared.stopping() {
            initiate_drain(shared);
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let sh = Arc::clone(shared);
                let spawned = thread::Builder::new()
                    .name("lpm-serve-conn".into())
                    .spawn(move || handle_conn(&sh, stream));
                if let Err(e) = spawned {
                    eprintln!("lpm-serve: cannot spawn connection thread: {e}");
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(e) => {
                eprintln!("lpm-serve: accept error: {e}");
                thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn handle_conn(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        line.clear();
        // Bound the request line so a client streaming an endless frame
        // cannot balloon server memory: read through a `take` window one
        // byte wider than the limit, so a line that fills the whole
        // window is provably overlong (a line exactly at the limit still
        // fits together with its newline).
        let mut limited = (&mut reader).take(MAX_REQUEST_BYTES + 1);
        match limited.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if line.len() as u64 > MAX_REQUEST_BYTES {
            shared.locked().metrics.bad_requests += 1;
            let mut text = proto::err(
                "bad-request",
                &format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
            )
            .to_json();
            text.push('\n');
            let _ = writer.write_all(text.as_bytes());
            let _ = writer.flush();
            return;
        }
        if !line.ends_with('\n') {
            // A bounded line without its newline means the peer hung up
            // mid-frame: a disconnect, not a parsed bad request.
            return;
        }
        if line.trim().is_empty() {
            continue;
        }
        let resp = match Value::parse(line.trim()) {
            Ok(v) => handle_request(shared, &v),
            Err(e) => {
                shared.locked().metrics.bad_requests += 1;
                proto::err("bad-request", &format!("unparsable request: {e}"))
            }
        };
        let mut text = resp.to_json();
        text.push('\n');
        if writer.write_all(text.as_bytes()).is_err() || writer.flush().is_err() {
            return;
        }
    }
}

/// Dispatch one parsed request to a response object.
fn handle_request(shared: &Shared, v: &Value) -> Value {
    let req = match Request::from_json(v) {
        Ok(r) => r,
        Err(e) => return proto::err("bad-request", &e),
    };
    match req {
        Request::Submit {
            tenant,
            spec,
            jobs,
            deadline_ms,
        } => {
            let spec = match decode_spec(&spec) {
                Ok(s) => s,
                Err(rej) => {
                    shared.locked().metrics.reject(rej.reason());
                    shared.emit(JobPhase::Rejected, "-", &rej.detail());
                    return proto::err(rej.reason(), &rej.detail());
                }
            };
            let decision = {
                let mut st = shared.locked();
                let d = admit(
                    &mut st,
                    &shared.dir,
                    &shared.config,
                    &tenant,
                    spec,
                    jobs,
                    deadline_ms,
                );
                match &d {
                    Ok(adm) if adm.cached => st.metrics.cache_hits += 1,
                    Ok(_) => st.metrics.admitted += 1,
                    Err(rej) => st.metrics.reject(rej.reason()),
                }
                d
            };
            match decision {
                Ok(adm) => {
                    if adm.cached {
                        shared.emit(
                            JobPhase::Admitted,
                            &adm.id,
                            &format!("deduplicated ({})", adm.status.label()),
                        );
                    } else {
                        shared.emit(JobPhase::Admitted, &adm.id, &format!("tenant {tenant}"));
                        shared.work.notify_one();
                    }
                    proto::ok(vec![
                        ("id", Value::Str(adm.id)),
                        ("status", Value::Str(adm.status.label().into())),
                        ("cached", Value::Bool(adm.cached)),
                    ])
                }
                Err(rej) => {
                    shared.emit(JobPhase::Rejected, "-", &rej.detail());
                    proto::err(rej.reason(), &rej.detail())
                }
            }
        }
        Request::Status { id } => {
            let st = shared.locked();
            match st.jobs.get(&id) {
                Some(job) => proto::ok(vec![
                    ("id", Value::Str(job.id.clone())),
                    ("tenant", Value::Str(job.tenant.clone())),
                    ("status", Value::Str(job.status.label().into())),
                    ("detail", Value::Str(job.detail.clone())),
                    ("fingerprint", Value::Uint(job.fingerprint)),
                ]),
                None => proto::err("unknown-job", &format!("no job {id}")),
            }
        }
        Request::Cancel { id } => {
            let mut st = shared.locked();
            let Some(job) = st.jobs.get_mut(&id) else {
                return proto::err("unknown-job", &format!("no job {id}"));
            };
            match job.status {
                JobStatus::Queued => {
                    job.status = JobStatus::Cancelled;
                    job.detail = "cancelled while queued".into();
                    let fp = job.fingerprint;
                    if let Err(e) = persist_manifest(&shared.dir, job) {
                        eprintln!("lpm-serve: cannot persist manifest for {id}: {e}");
                    }
                    st.queue.retain(|q| q != &id);
                    st.active_by_fp.remove(&fp);
                    drop(st);
                    shared.emit(JobPhase::Cancelled, &id, "cancelled while queued");
                    proto::ok(vec![("status", Value::Str("cancelled".into()))])
                }
                JobStatus::Running => {
                    if job.cancel_cause.is_none() {
                        job.cancel_cause = Some(CancelCause::Client);
                    }
                    job.cancel.store(true, Ordering::SeqCst);
                    proto::ok(vec![("status", Value::Str("cancelling".into()))])
                }
                terminal => proto::ok(vec![("status", Value::Str(terminal.label().into()))]),
            }
        }
        Request::Report { id } => {
            let (status, fingerprint) = {
                let st = shared.locked();
                match st.jobs.get(&id) {
                    Some(job) => (job.status, job.fingerprint),
                    None => return proto::err("unknown-job", &format!("no job {id}")),
                }
            };
            if status != JobStatus::Completed {
                return proto::err(
                    "not-ready",
                    &format!("job {id} is {}, not completed", status.label()),
                );
            }
            match shared
                .dir
                .vfs()
                .read_to_string(&shared.dir.report_path(fingerprint))
            {
                Ok(text) => proto::ok(vec![("report", Value::Str(text))]),
                Err(e) => proto::err("not-ready", &format!("report unreadable: {e}")),
            }
        }
        Request::List => {
            let st = shared.locked();
            let mut jobs: Vec<&Job> = st.jobs.values().collect();
            jobs.sort_by_key(|j| j.seq);
            let arr = jobs
                .into_iter()
                .map(|j| {
                    obj(vec![
                        ("id", Value::Str(j.id.clone())),
                        ("tenant", Value::Str(j.tenant.clone())),
                        ("status", Value::Str(j.status.label().into())),
                        ("detail", Value::Str(j.detail.clone())),
                    ])
                })
                .collect();
            proto::ok(vec![("jobs", Value::Arr(arr))])
        }
        Request::Events => {
            let sink = shared.events.lock().unwrap_or_else(|p| p.into_inner());
            proto::ok(vec![(
                "events",
                Value::Arr(sink.recent.iter().cloned().collect()),
            )])
        }
        Request::Metrics { format } => {
            let report = {
                let st = shared.locked();
                MetricsReport::collect(&st, shared.stopping())
            };
            match format {
                MetricsFormat::Json => proto::ok(vec![
                    ("format", Value::Str("json".into())),
                    ("metrics", report.to_json()),
                ]),
                MetricsFormat::Prometheus => proto::ok(vec![
                    ("format", Value::Str("prometheus".into())),
                    ("metrics", Value::Str(report.to_prometheus())),
                ]),
            }
        }
        Request::Ping => {
            let draining = shared.locked().draining || shared.stopping();
            proto::ok(vec![("draining", Value::Bool(draining))])
        }
        Request::Shutdown => {
            shared.stop.store(true, Ordering::SeqCst);
            shared.work.notify_all();
            proto::ok(vec![("draining", Value::Bool(true))])
        }
    }
}
