//! Admission control: the bounded, typed front door.
//!
//! Every submission is answered *immediately* — admitted, served from
//! the completed-report cache, deduplicated onto a live job, or
//! rejected with a stable machine-readable reason. The server never
//! parks a client waiting for queue space: backpressure is explicit
//! (`queue-full`, `tenant-quota`) so callers can implement their own
//! retry policy instead of hanging inside ours. Queue and quota sizing
//! rationale is derived in DESIGN.md §11.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use lpm_harness::{spec_from_json, SweepSpec};
use lpm_telemetry::Value;

use crate::server::ServerConfig;
use crate::state::{persist_manifest, Job, JobStatus, ServeState, StateDir};

/// Why a submission was refused. Every variant maps to a stable wire
/// `reason` string; the detail is human-oriented.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejection {
    /// The bounded job queue is at capacity.
    QueueFull {
        /// Jobs currently queued.
        queued: usize,
        /// Configured queue capacity.
        capacity: usize,
    },
    /// The tenant already has its quota of live (queued + running) jobs.
    TenantQuota {
        /// The tenant's live jobs.
        active: usize,
        /// Configured per-tenant quota.
        quota: usize,
    },
    /// The spec failed to decode or validate.
    InvalidSpec(String),
    /// The server is draining and admits nothing new.
    ShuttingDown,
    /// A server-side fault (e.g. persisting the manifest failed); the
    /// submission itself was fine and may be retried.
    Internal(String),
}

impl Rejection {
    /// Stable wire reason.
    pub fn reason(&self) -> &'static str {
        match self {
            Rejection::QueueFull { .. } => "queue-full",
            Rejection::TenantQuota { .. } => "tenant-quota",
            Rejection::InvalidSpec(_) => "invalid-spec",
            Rejection::ShuttingDown => "shutting-down",
            Rejection::Internal(_) => "internal-error",
        }
    }

    /// Human-readable detail.
    pub fn detail(&self) -> String {
        match self {
            Rejection::QueueFull { queued, capacity } => {
                format!("queue full ({queued} queued, capacity {capacity})")
            }
            Rejection::TenantQuota { active, quota } => {
                format!("tenant quota exhausted ({active} live job(s), quota {quota})")
            }
            Rejection::InvalidSpec(e) => format!("invalid spec: {e}"),
            Rejection::ShuttingDown => "server is draining; resubmit to the next instance".into(),
            Rejection::Internal(e) => format!("internal error: {e}"),
        }
    }
}

/// A successful admission decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Admitted {
    /// The job id to poll (newly minted, or an existing job's).
    pub id: String,
    /// The job's status at admission time.
    pub status: JobStatus,
    /// Whether this answer was served from prior work: a completed
    /// report with the same spec fingerprint, or a live job already
    /// evaluating the identical spec.
    pub cached: bool,
}

/// Decode + validate a submitted wire spec.
pub fn decode_spec(wire: &Value) -> Result<SweepSpec, Rejection> {
    let spec = spec_from_json(wire).map_err(Rejection::InvalidSpec)?;
    spec.validate().map_err(Rejection::InvalidSpec)?;
    Ok(spec)
}

/// Decide one submission against the locked service state. On
/// admission the job is registered, queued, and its manifest persisted
/// before this returns — a kill immediately after the client hears
/// "queued" still recovers the job.
pub fn admit(
    state: &mut ServeState,
    dir: &StateDir,
    config: &ServerConfig,
    tenant: &str,
    spec: SweepSpec,
    jobs: Option<u64>,
    deadline_ms: Option<u64>,
) -> Result<Admitted, Rejection> {
    if state.draining {
        return Err(Rejection::ShuttingDown);
    }
    let fingerprint = spec.fingerprint();

    // Completed-report cache: identical spec, answer already on disk.
    if let Some(id) = state.completed_by_fp.get(&fingerprint) {
        return Ok(Admitted {
            id: id.clone(),
            status: JobStatus::Completed,
            cached: true,
        });
    }
    // Live dedupe: identical spec already queued or running — join it
    // instead of burning a queue slot on duplicate work.
    if let Some(id) = state.active_by_fp.get(&fingerprint) {
        if let Some(job) = state.jobs.get(id) {
            return Ok(Admitted {
                id: id.clone(),
                status: job.status,
                cached: true,
            });
        }
    }

    let live = state
        .jobs
        .values()
        .filter(|j| j.tenant == tenant && !j.status.is_terminal())
        .count();
    if live >= config.tenant_quota {
        return Err(Rejection::TenantQuota {
            active: live,
            quota: config.tenant_quota,
        });
    }
    if state.queue.len() >= config.queue_capacity {
        return Err(Rejection::QueueFull {
            queued: state.queue.len(),
            capacity: config.queue_capacity,
        });
    }

    let seq = state.next_seq;
    state.next_seq += 1;
    let id = format!("{seq}-{fingerprint:016x}");
    let sweep_jobs = match jobs {
        Some(j) => usize::try_from(j).unwrap_or(usize::MAX).clamp(1, 64),
        None => config.sweep_jobs,
    };
    let job = Job {
        id: id.clone(),
        tenant: tenant.to_string(),
        seq,
        fingerprint,
        spec,
        jobs: sweep_jobs,
        deadline_ms,
        status: JobStatus::Queued,
        detail: "admitted".into(),
        retries_left: config.max_job_retries,
        cancel: Arc::new(AtomicBool::new(false)),
        cancel_cause: None,
        started: None,
        not_before: None,
    };
    persist_manifest(dir, &job).map_err(Rejection::Internal)?;
    state.active_by_fp.insert(fingerprint, id.clone());
    state.jobs.insert(id.clone(), job);
    state.queue.push_back(id.clone());
    Ok(Admitted {
        id,
        status: JobStatus::Queued,
        cached: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lpm-serve-admit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn setup(tag: &str) -> (ServeState, StateDir, ServerConfig) {
        let dir = StateDir::new(tmpdir(tag));
        dir.create().unwrap();
        let config = ServerConfig {
            queue_capacity: 2,
            tenant_quota: 2,
            ..ServerConfig::default()
        };
        (ServeState::default(), dir, config)
    }

    fn spec_with_seed(seed: u64) -> SweepSpec {
        SweepSpec {
            seeds: vec![seed],
            ..SweepSpec::default()
        }
    }

    #[test]
    fn queue_full_rejects_with_counts() {
        let (mut state, dir, config) = setup("full");
        for s in 0..2 {
            admit(
                &mut state,
                &dir,
                &config,
                "t",
                spec_with_seed(s),
                None,
                None,
            )
            .unwrap();
        }
        let rej = admit(
            &mut state,
            &dir,
            &config,
            "u",
            spec_with_seed(9),
            None,
            None,
        )
        .unwrap_err();
        assert_eq!(rej.reason(), "queue-full");
        assert_eq!(rej.detail(), "queue full (2 queued, capacity 2)");
        let _ = fs::remove_dir_all(dir.root());
    }

    #[test]
    fn tenant_quota_counts_only_live_jobs_of_that_tenant() {
        let (mut state, dir, mut config) = setup("quota");
        config.queue_capacity = 10;
        config.tenant_quota = 1;
        admit(
            &mut state,
            &dir,
            &config,
            "t",
            spec_with_seed(1),
            None,
            None,
        )
        .unwrap();
        let rej = admit(
            &mut state,
            &dir,
            &config,
            "t",
            spec_with_seed(2),
            None,
            None,
        )
        .unwrap_err();
        assert_eq!(rej.reason(), "tenant-quota");
        // A different tenant is unaffected.
        admit(
            &mut state,
            &dir,
            &config,
            "u",
            spec_with_seed(2),
            None,
            None,
        )
        .unwrap();
        // Terminal jobs free the quota.
        let id = state.queue.front().unwrap().clone();
        state.jobs.get_mut(&id).unwrap().status = JobStatus::Completed;
        admit(
            &mut state,
            &dir,
            &config,
            "t",
            spec_with_seed(3),
            None,
            None,
        )
        .unwrap();
        let _ = fs::remove_dir_all(dir.root());
    }

    #[test]
    fn identical_spec_joins_the_live_job() {
        let (mut state, dir, config) = setup("dedupe");
        let a = admit(
            &mut state,
            &dir,
            &config,
            "t",
            spec_with_seed(1),
            None,
            None,
        )
        .unwrap();
        assert!(!a.cached);
        let b = admit(
            &mut state,
            &dir,
            &config,
            "t",
            spec_with_seed(1),
            None,
            None,
        )
        .unwrap();
        assert!(b.cached);
        assert_eq!(a.id, b.id);
        assert_eq!(state.queue.len(), 1);
        let _ = fs::remove_dir_all(dir.root());
    }

    #[test]
    fn completed_fingerprint_serves_from_cache_even_when_queue_is_full() {
        let (mut state, dir, config) = setup("cache");
        let spec = spec_with_seed(42);
        state
            .completed_by_fp
            .insert(spec.fingerprint(), "0-cafe".into());
        for s in 0..2 {
            admit(
                &mut state,
                &dir,
                &config,
                "t",
                spec_with_seed(s),
                None,
                None,
            )
            .unwrap();
        }
        let a = admit(&mut state, &dir, &config, "t", spec, None, None).unwrap();
        assert!(a.cached);
        assert_eq!(a.status, JobStatus::Completed);
        assert_eq!(a.id, "0-cafe");
        let _ = fs::remove_dir_all(dir.root());
    }

    #[test]
    fn draining_rejects_everything() {
        let (mut state, dir, config) = setup("drain");
        state.draining = true;
        let rej = admit(
            &mut state,
            &dir,
            &config,
            "t",
            spec_with_seed(1),
            None,
            None,
        )
        .unwrap_err();
        assert_eq!(rej.reason(), "shutting-down");
        let _ = fs::remove_dir_all(dir.root());
    }

    #[test]
    fn invalid_wire_specs_get_typed_rejections() {
        let rej = decode_spec(&Value::Str("nope".into())).unwrap_err();
        assert_eq!(rej.reason(), "invalid-spec");
        // Well-formed but unable to measure anything: no pass over the
        // trace would reach the simulator's one-pass assertion.
        let no_pass = SweepSpec {
            loop_repeats: 0,
            ..SweepSpec::default()
        };
        let wire = lpm_harness::spec_to_json(&no_pass).unwrap();
        let rej = decode_spec(&wire).unwrap_err();
        assert_eq!(rej.reason(), "invalid-spec");
        assert!(rej.detail().contains("loop_repeats"), "{rej:?}");
        // A count no trace can be sized for is rejected here, not left
        // to panic in a worker.
        let oversized = SweepSpec {
            instructions: usize::MAX,
            ..SweepSpec::default()
        };
        let wire = lpm_harness::spec_to_json(&oversized).unwrap();
        let rej = decode_spec(&wire).unwrap_err();
        assert_eq!(rej.reason(), "invalid-spec");
        assert!(rej.detail().contains("do not fit in one trace"), "{rej:?}");
    }

    #[test]
    fn persistence_failures_reject_internal_error_not_invalid_spec() {
        // A state dir that was never created: persist_manifest cannot
        // write, which is a server-side fault — the spec is fine.
        let dir = StateDir::new(tmpdir("no-such-dir"));
        let mut state = ServeState::default();
        let config = ServerConfig::default();
        let rej = admit(
            &mut state,
            &dir,
            &config,
            "t",
            spec_with_seed(1),
            None,
            None,
        )
        .unwrap_err();
        assert_eq!(rej.reason(), "internal-error");
        assert!(rej.detail().starts_with("internal error:"), "{rej:?}");
        // The failed admission must not leave registry residue.
        assert!(state.jobs.is_empty());
        assert!(state.queue.is_empty());
        assert!(state.active_by_fp.is_empty());
    }
}
