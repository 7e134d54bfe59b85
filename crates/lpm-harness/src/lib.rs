//! Parallel deterministic sweep engine for the LPM reproduction.
//!
//! The LPM algorithm (Fig. 3) earns its keep at scale: the paper sweeps
//! SPEC CPU2006 over hardware knobs, and a batch service built on this
//! reproduction must evaluate many (hierarchy config × workload × fault
//! seed) points per request. This crate turns the previously serial
//! `design_space`/`lpm-bench` evaluation loop into a multi-threaded,
//! work-stealing sweep with a hard determinism contract:
//!
//! > **The merged output of a sweep is bit-for-bit identical for every
//! > worker count.** `--jobs 8` and `--jobs 1` produce the same report
//! > text, the same CSV, and the same JSONL telemetry, byte for byte.
//!
//! Three rules make that hold:
//!
//! 1. **Per-point RNG streams.** Every random stream a point consumes
//!    (trace generation, simulator seed, fault schedule) is derived from
//!    the *point's* seed by [`point::derive_stream`] — never from the
//!    shard that happens to evaluate it, never from a global counter.
//! 2. **Per-point recorders.** Each point runs with its own
//!    `RingRecorder`; shards share no mutable telemetry state.
//! 3. **Deterministic merge.** Results land in a slot vector indexed by
//!    point order and are merged in that order
//!    ([`lpm_telemetry::TelemetryLog::merge`]), so the schedule — which
//!    shard ran what, and when it finished — is invisible in the output.
//!    Wall-clock throughput fields are zeroed in sweep telemetry for the
//!    same reason.
//!
//! The engine uses only `std::thread` + channels (shim-crate policy: no
//! new external dependencies). Scheduling is work-stealing: points are
//! dealt round-robin to per-worker deques, a worker drains its own deque
//! from the front and steals from the back of the busiest victim when
//! idle, so one slow point cannot serialize the sweep.
//!
//! # Crash safety
//!
//! The engine is additionally *crash-safe*, without weakening the
//! determinism contract:
//!
//! - **Panic isolation.** Each point attempt runs under `catch_unwind`;
//!   a panicking point becomes a typed [`PointOutcome::Panicked`] row
//!   instead of poisoning the sweep.
//! - **Point watchdog.** An optional simulated-cycle budget
//!   ([`SweepSpec::point_cycle_budget`]) bounds every attempt; a runaway
//!   point fails as [`PointOutcome::TimedOut`] at the *same simulated
//!   cycle* on every run and worker count. A wall-clock guard warns on
//!   stderr about slow points but never alters results — wall time is
//!   nondeterministic, so it must stay diagnostic.
//! - **Retry and quarantine.** Failed attempts are retried up to
//!   [`SweepSpec::max_retries`] times under seeds re-derived with
//!   [`point::SALT_RETRY`] (a pure function of point and attempt); a
//!   point that fails every attempt is quarantined, not looped forever.
//! - **Partial reports.** [`run_sweep_with`] always returns every row,
//!   typed by outcome; fail-fast ([`run_sweep`]) and keep-going are
//!   caller-side merge policies over the same deterministic data.
//! - **Checkpoint-resume.** With a journal ([`SweepOptions::checkpoint`])
//!   every terminal row is durably appended as it completes; resuming
//!   skips journaled points and reproduces the uninterrupted report
//!   byte for byte. The journal is stamped with the spec
//!   [fingerprint](SweepSpec::fingerprint), so rows from a different
//!   spec can never be merged in silently.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod engine;
pub mod outcome;
pub mod point;
pub mod queue;
pub mod report;
pub mod specio;

pub use checkpoint::{
    inspect_journal, load_journal, load_journal_for_resume, CheckpointJournal, Journal, JournalInfo,
};
pub use engine::{
    evaluate_row, run_sweep, run_sweep_profiled, run_sweep_with, SweepOptions, SweepProfile,
};
pub use lpm_vfs::{IoChaosConfig, Vfs, VfsError, VfsErrorKind, VfsFile};
pub use outcome::{PointOutcome, PointRow};
pub use point::{
    derive_stream, ChaosConfig, FaultClass, PointResult, SweepPoint, SweepSpec, SALT_RETRY,
};
pub use queue::WorkStealingQueue;
pub use report::{SweepReport, SWEEP_CSV_HEADER};
pub use specio::{spec_from_json, spec_to_json, SPEC_WIRE_VERSION};
