//! On-disk service state: directory layout, job manifests, and the
//! atomic-replace write discipline that makes `SIGKILL` survivable.
//!
//! Layout under the state directory:
//!
//! ```text
//! <state>/endpoint              actual bound address (written post-bind)
//! <state>/jobs/<id>.json        one manifest per job, atomically replaced
//! <state>/journals/<fp16>.jsonl checkpoint journal, keyed by spec fingerprint
//! <state>/reports/<fp16>.jsonl  completed report bytes, keyed by fingerprint
//! <state>/events.jsonl          job-lifecycle telemetry event stream
//! ```
//!
//! Journals and reports are keyed by the spec *fingerprint*, not the
//! job id: a resubmitted identical spec — even under a new job id after
//! a failure — resumes from whatever rows any earlier attempt already
//! journaled. Manifests are written with the classic
//! write-tmp → fsync → rename → fsync-dir sequence, so a manifest is
//! always either the old complete JSON or the new complete JSON; a
//! kill between any two instructions leaves a recoverable state.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use lpm_harness::{spec_from_json, spec_to_json, SweepSpec};
use lpm_telemetry::Value;
use lpm_vfs::Vfs;

use crate::proto::obj;

/// Manifest format version.
pub const MANIFEST_VERSION: u64 = 1;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for a runner (also the post-drain and
    /// post-recovery state of interrupted jobs).
    Queued,
    /// A runner is evaluating it right now.
    Running,
    /// Finished; the report bytes are on disk.
    Completed,
    /// Terminally failed (exhausted retries, or deadline exceeded).
    Failed,
    /// Cancelled by a client before completing.
    Cancelled,
}

impl JobStatus {
    /// Stable wire/manifest label.
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Completed => "completed",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }

    /// Inverse of [`JobStatus::label`].
    pub fn parse(s: &str) -> Result<JobStatus, String> {
        match s {
            "queued" => Ok(JobStatus::Queued),
            "running" => Ok(JobStatus::Running),
            "completed" => Ok(JobStatus::Completed),
            "failed" => Ok(JobStatus::Failed),
            "cancelled" => Ok(JobStatus::Cancelled),
            other => Err(format!("unknown job status {other:?}")),
        }
    }

    /// Whether the job can still make progress.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Completed | JobStatus::Failed | JobStatus::Cancelled
        )
    }
}

/// Why a running job's cooperative cancel flag was raised — decides
/// which terminal (or requeued) state the drained sweep lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelCause {
    /// A client asked for it: job ends [`JobStatus::Cancelled`].
    Client,
    /// The wall-clock deadline fired: job ends [`JobStatus::Failed`]
    /// with a `deadline exceeded` detail.
    Deadline,
    /// The server is draining (SIGTERM / shutdown request): job goes
    /// back to [`JobStatus::Queued`] for the next server instance.
    Drain,
}

/// One job known to the server.
#[derive(Debug, Clone)]
pub struct Job {
    /// `"{seq}-{fingerprint:016x}"` — stable, time-free, unique.
    pub id: String,
    /// Tenant the job counts against for admission quotas.
    pub tenant: String,
    /// Admission sequence number (also the queue tiebreaker on resume).
    pub seq: u64,
    /// The spec fingerprint; keys the journal, report, and dedupe maps.
    pub fingerprint: u64,
    /// The decoded sweep spec.
    pub spec: SweepSpec,
    /// Worker threads this job's sweep runs with.
    pub jobs: usize,
    /// Wall-clock deadline in milliseconds, if any.
    pub deadline_ms: Option<u64>,
    /// Current lifecycle state.
    pub status: JobStatus,
    /// Human-readable detail for the current state.
    pub detail: String,
    /// Job-level retries remaining (sweep-infrastructure failures only;
    /// per-point retries live inside the spec).
    pub retries_left: u32,
    /// Cooperative cancel flag handed to the sweep engine.
    pub cancel: Arc<AtomicBool>,
    /// Why `cancel` was raised, if it was.
    pub cancel_cause: Option<CancelCause>,
    /// When the current attempt started (deadline accounting only;
    /// never serialized, never in any report).
    pub started: Option<Instant>,
    /// Retry backoff gate: runners skip the job until this instant.
    /// Process-local like `started` — a restart retries immediately,
    /// which is exactly what recovery wants.
    pub not_before: Option<Instant>,
}

/// The mutable registry a running server guards behind its mutex:
/// the bounded queue, every known job, the fingerprint indexes, and
/// the drain latch.
#[derive(Debug, Default)]
pub struct ServeState {
    /// Queued job ids in admission order (bounded by the server's
    /// `queue_capacity`; enforced in [`crate::admission::admit`]).
    pub queue: std::collections::VecDeque<String>,
    /// Every job this server instance knows, by id.
    pub jobs: BTreeMap<String, Job>,
    /// Completed-report cache: spec fingerprint → job id whose report
    /// bytes are on disk.
    pub completed_by_fp: BTreeMap<u64, String>,
    /// Live dedupe index: spec fingerprint → queued/running job id.
    pub active_by_fp: BTreeMap<u64, String>,
    /// Set once on SIGTERM / shutdown request; admission refuses and
    /// runners exit after their current job drains.
    pub draining: bool,
    /// Next admission sequence number.
    pub next_seq: u64,
    /// Live observability counters (process-local; reset on restart).
    pub metrics: crate::metrics::ServeMetrics,
}

/// Paths of the service state directory, plus the [`Vfs`] every durable
/// write under it goes through (the real filesystem in production; a
/// fault-injecting one under `--chaos-io`).
#[derive(Debug, Clone)]
pub struct StateDir {
    root: PathBuf,
    vfs: Vfs,
}

impl StateDir {
    /// Wrap a state directory root (not created yet; see
    /// [`StateDir::create`]) on the real filesystem.
    pub fn new(root: impl Into<PathBuf>) -> StateDir {
        StateDir::with_vfs(root, Vfs::real())
    }

    /// Wrap a state directory root whose writes go through `vfs`.
    pub fn with_vfs(root: impl Into<PathBuf>, vfs: Vfs) -> StateDir {
        StateDir {
            root: root.into(),
            vfs,
        }
    }

    /// The storage handle this state directory writes through.
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// Create the directory tree.
    pub fn create(&self) -> Result<(), String> {
        for dir in [
            self.root.clone(),
            self.jobs_dir(),
            self.journals_dir(),
            self.reports_dir(),
        ] {
            self.vfs
                .create_dir_all(&dir)
                .map_err(|e| format!("cannot create state dir {}: {e}", dir.display()))?;
        }
        Ok(())
    }

    /// The root path.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// File holding the actual bound address (`host:port` + newline).
    pub fn endpoint_path(&self) -> PathBuf {
        self.root.join("endpoint")
    }

    /// Directory of per-job manifests.
    pub fn jobs_dir(&self) -> PathBuf {
        self.root.join("jobs")
    }

    /// Manifest path for a job id.
    pub fn manifest_path(&self, id: &str) -> PathBuf {
        self.jobs_dir().join(format!("{id}.json"))
    }

    /// Directory of checkpoint journals.
    pub fn journals_dir(&self) -> PathBuf {
        self.root.join("journals")
    }

    /// Checkpoint journal path for a spec fingerprint.
    pub fn journal_path(&self, fingerprint: u64) -> PathBuf {
        self.journals_dir()
            .join(format!("{fingerprint:016x}.jsonl"))
    }

    /// Directory of completed report bytes.
    pub fn reports_dir(&self) -> PathBuf {
        self.root.join("reports")
    }

    /// Report path for a spec fingerprint.
    pub fn report_path(&self, fingerprint: u64) -> PathBuf {
        self.reports_dir().join(format!("{fingerprint:016x}.jsonl"))
    }

    /// Job-lifecycle telemetry event stream (JSONL, append-only).
    pub fn events_path(&self) -> PathBuf {
        self.root.join("events.jsonl")
    }

    /// The state directory a journal at `path` lives in, if `path` sits
    /// in a state directory's `journals/`.
    pub fn of_journal(path: &Path) -> Option<StateDir> {
        let journals = path.parent()?;
        let dir = StateDir::new(journals.parent()?);
        (dir.journals_dir() == journals).then_some(dir)
    }

    /// Every `jobs/*.json` manifest in file-name order, each decoded by
    /// [`manifest_from_json`] or replaced by why it could not be.
    pub fn manifests(&self) -> Result<Vec<Result<Job, String>>, String> {
        let jobs_dir = self.jobs_dir();
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&jobs_dir)
            .map_err(|e| format!("cannot read {}: {e}", jobs_dir.display()))?
            .filter_map(|ent| ent.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        Ok(paths
            .iter()
            .map(|path| {
                let text = self
                    .vfs
                    .read_to_string(path)
                    .map_err(|e| format!("unreadable manifest {}: {e}", path.display()))?;
                Value::parse(text.trim())
                    .and_then(|v| manifest_from_json(&v))
                    .map_err(|e| format!("corrupt manifest {}: {e}", path.display()))
            })
            .collect())
    }

    /// Whether recovery resumes `job` from its journal: a queued or
    /// running job does, and so does a completed one whose report file
    /// is missing. This is the one live-job rule — a journal such a job
    /// resumes from must not be removed.
    pub fn resumes_from_journal(&self, job: &Job) -> bool {
        match job.status {
            JobStatus::Queued | JobStatus::Running => true,
            JobStatus::Completed => !self.report_path(job.fingerprint).exists(),
            JobStatus::Failed | JobStatus::Cancelled => false,
        }
    }

    /// The id of a job recovery would resume from the journal for
    /// `fingerprint`, if any (unreadable manifests are skipped).
    pub fn live_job(&self, fingerprint: u64) -> Option<String> {
        self.manifests()
            .ok()?
            .into_iter()
            .flatten()
            .find(|job| job.fingerprint == fingerprint && self.resumes_from_journal(job))
            .map(|job| job.id)
    }
}

/// Write `text` to `path` atomically through `vfs`: tmp file in the
/// same directory, fsync, rename over the target, fsync the directory.
/// A kill at any instruction leaves either the old bytes or the new
/// bytes — never a torn file. A faulted [`Vfs`] can interrupt the
/// sequence at any instruction, so a test can check that invariant at
/// every crash point.
pub fn atomic_write_with(vfs: &Vfs, path: &Path, text: &str) -> Result<(), String> {
    let parent = path
        .parent()
        .ok_or_else(|| format!("{} has no parent directory", path.display()))?;
    let tmp = path.with_extension("tmp");
    {
        let mut f = vfs
            .create(&tmp)
            .map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
        f.write_all(text.as_bytes())
            .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        f.sync_all()
            .map_err(|e| format!("cannot fsync {}: {e}", tmp.display()))?;
    }
    vfs.rename(&tmp, path).map_err(|e| {
        format!(
            "cannot rename {} over {}: {e}",
            tmp.display(),
            path.display()
        )
    })?;
    // Real directory fsync stays best-effort inside the Vfs (some
    // filesystems refuse it); injected fsync faults still surface.
    vfs.sync_dir(parent)
        .map_err(|e| format!("cannot fsync directory {}: {e}", parent.display()))?;
    Ok(())
}

/// Serialize a job to its manifest JSON. Fails only if the spec is not
/// wire-encodable (non-default base system config) — admission decoded
/// the spec *from* the wire, so persisted jobs always encode.
pub fn manifest_to_json(job: &Job) -> Result<Value, String> {
    let deadline = match job.deadline_ms {
        Some(ms) => Value::Uint(ms),
        None => Value::Null,
    };
    Ok(obj(vec![
        ("type", Value::Str("job-manifest".into())),
        ("version", Value::Uint(MANIFEST_VERSION)),
        ("id", Value::Str(job.id.clone())),
        ("tenant", Value::Str(job.tenant.clone())),
        ("seq", Value::Uint(job.seq)),
        ("fingerprint", Value::Uint(job.fingerprint)),
        ("status", Value::Str(job.status.label().into())),
        ("detail", Value::Str(job.detail.clone())),
        ("jobs", Value::Uint(crate::state::count_u64(job.jobs))),
        ("deadline_ms", deadline),
        ("retries_left", Value::Uint(u64::from(job.retries_left))),
        ("spec", spec_to_json(&job.spec)?),
    ]))
}

/// Decode a manifest back into a [`Job`]. The cancel flag and start
/// time come back fresh — they are process-local state.
pub fn manifest_from_json(v: &Value) -> Result<Job, String> {
    if v.get("type").and_then(Value::as_str) != Some("job-manifest") {
        return Err("not a job manifest (missing type)".into());
    }
    let version = v.get("version").and_then(Value::as_u64).unwrap_or(0);
    if version != MANIFEST_VERSION {
        return Err(format!(
            "unsupported manifest version {version} (this build writes {MANIFEST_VERSION})"
        ));
    }
    let field_str = |k: &str| -> Result<String, String> {
        Ok(v.get(k)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("manifest has no {k} field"))?
            .to_string())
    };
    let field_u64 = |k: &str| -> Result<u64, String> {
        v.get(k)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("manifest has no {k} field"))
    };
    let spec = spec_from_json(v.get("spec").ok_or("manifest has no spec field")?)?;
    spec.validate()?;
    let deadline_ms = match v.get("deadline_ms") {
        None | Some(Value::Null) => None,
        Some(d) => Some(d.as_u64().ok_or("manifest deadline_ms is not an integer")?),
    };
    let jobs = usize::try_from(field_u64("jobs")?)
        .map_err(|_| "manifest jobs field overflows usize".to_string())?;
    let retries_left = u32::try_from(field_u64("retries_left")?)
        .map_err(|_| "manifest retries_left overflows u32".to_string())?;
    Ok(Job {
        id: field_str("id")?,
        tenant: field_str("tenant")?,
        seq: field_u64("seq")?,
        fingerprint: field_u64("fingerprint")?,
        spec,
        jobs: jobs.max(1),
        deadline_ms,
        status: JobStatus::parse(&field_str("status")?)?,
        detail: field_str("detail")?,
        retries_left,
        cancel: Arc::new(AtomicBool::new(false)),
        cancel_cause: None,
        started: None,
        not_before: None,
    })
}

/// Persist a job's manifest with the atomic-replace discipline, through
/// the state directory's [`Vfs`].
pub fn persist_manifest(dir: &StateDir, job: &Job) -> Result<(), String> {
    let v = manifest_to_json(job)?;
    atomic_write_with(
        dir.vfs(),
        &dir.manifest_path(&job.id),
        &(v.to_json() + "\n"),
    )
}

/// Widen a `usize` to the `u64` wire type (saturating, like telemetry).
pub(crate) fn count_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lpm-serve-state-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_job() -> Job {
        let spec = SweepSpec::default();
        let fingerprint = spec.fingerprint();
        Job {
            id: format!("3-{fingerprint:016x}"),
            tenant: "t1".into(),
            seq: 3,
            fingerprint,
            spec,
            jobs: 2,
            deadline_ms: Some(500),
            status: JobStatus::Running,
            detail: "evaluating".into(),
            retries_left: 1,
            cancel: Arc::new(AtomicBool::new(false)),
            cancel_cause: None,
            started: None,
            not_before: None,
        }
    }

    #[test]
    fn manifest_round_trips_through_json_text() {
        let job = sample_job();
        let v = manifest_to_json(&job).unwrap();
        let back = manifest_from_json(&Value::parse(&v.to_json()).unwrap()).unwrap();
        assert_eq!(back.id, job.id);
        assert_eq!(back.tenant, job.tenant);
        assert_eq!(back.seq, job.seq);
        assert_eq!(back.fingerprint, job.fingerprint);
        assert_eq!(back.spec.fingerprint(), job.spec.fingerprint());
        assert_eq!(back.jobs, 2);
        assert_eq!(back.deadline_ms, Some(500));
        assert_eq!(back.status, JobStatus::Running);
        assert_eq!(back.retries_left, 1);
    }

    #[test]
    fn manifest_rejects_wrong_type_and_version() {
        let job = sample_job();
        let Value::Obj(mut fields) = manifest_to_json(&job).unwrap() else {
            panic!("manifest is not an object");
        };
        fields[1].1 = Value::Uint(99);
        let err = manifest_from_json(&Value::Obj(fields)).unwrap_err();
        assert!(err.contains("unsupported manifest version"), "{err}");
        let err = manifest_from_json(&Value::Obj(vec![])).unwrap_err();
        assert!(err.contains("not a job manifest"), "{err}");
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let d = tmpdir("atomic");
        let p = d.join("m.json");
        atomic_write_with(&Vfs::real(), &p, "one\n").unwrap();
        atomic_write_with(&Vfs::real(), &p, "two\n").unwrap();
        assert_eq!(fs::read_to_string(&p).unwrap(), "two\n");
        assert!(!p.with_extension("tmp").exists());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn persist_manifest_lands_under_jobs_dir() {
        let d = tmpdir("persist");
        let dir = StateDir::new(&d);
        dir.create().unwrap();
        let job = sample_job();
        persist_manifest(&dir, &job).unwrap();
        let text = fs::read_to_string(dir.manifest_path(&job.id)).unwrap();
        let back = manifest_from_json(&Value::parse(text.trim()).unwrap()).unwrap();
        assert_eq!(back.id, job.id);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn status_labels_invert() {
        for s in [
            JobStatus::Queued,
            JobStatus::Running,
            JobStatus::Completed,
            JobStatus::Failed,
            JobStatus::Cancelled,
        ] {
            assert_eq!(JobStatus::parse(s.label()).unwrap(), s);
        }
        assert!(JobStatus::parse("paused").is_err());
        assert!(JobStatus::Completed.is_terminal());
        assert!(!JobStatus::Running.is_terminal());
    }
}
