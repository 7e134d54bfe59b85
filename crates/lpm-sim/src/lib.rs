//! Full-system simulation for the LPM reproduction: out-of-order cores,
//! a two-level non-blocking cache hierarchy, DRAM, and — the paper's
//! Fig. 4 — a **C-AMAT analyzer** (Hit Concurrency Detector + Miss
//! Concurrency Detector) attached to every cache layer.
//!
//! * [`analyzer`] — per-layer HCD/MCD sampling that accumulates the
//!   [`lpm_model::LayerCounters`] raw counters, plus a DRAM occupancy
//!   analyzer for the third LPMR boundary.
//! * [`config`] — [`SystemConfig`] bundling core, L1, L2 and DRAM
//!   parameters (the design space of Table I).
//! * [`cmp`] — the [`cmp::Cmp`] N-core chip multiprocessor with private
//!   L1s, a shared banked L2 (the NUCA substrate of case study II) and
//!   shared DRAM.
//! * [`system`] — a single-core convenience wrapper used for profiling and
//!   the Table I design-space exploration.
//! * [`report`] — measurement reports: per-layer C-AMAT parameters,
//!   LPMR1/2/3, stall time, APC values.
//! * [`error`] — the [`SimError`] type every constructor and run loop
//!   returns (deadlock watchdog, configuration validation).
//! * [`fault`] — deterministic, seeded fault injection (DRAM latency
//!   spikes, refresh storms, cache-bank stalls, MSHR exhaustion, counter
//!   sensor noise) for robustness testing.
//!
//! # Telemetry
//!
//! The simulator is instrumented for `lpm-telemetry`: recorder-aware
//! entry points ([`cmp::Cmp::try_step_with`],
//! [`cmp::Cmp::try_run_for_with_budget`],
//! [`system::System::try_run_for_with`]) emit per-cycle occupancy
//! samples (MSHRs, ROB, DRAM banks) and typed fault-onset events
//! carrying the injector seed. With the no-op `NullRecorder` the
//! instrumentation monomorphizes away and a run is bit-for-bit
//! identical to the uninstrumented simulator.
//!
//! Every run loop — warm-up, run-and-drain, run-for with a cycle budget,
//! run until every core retires its share — is one private loop in
//! [`cmp::Cmp`] that advances by fast-path quanta until its cap or its
//! condition says stop.
//!
//! # Example
//!
//! ```
//! use lpm_sim::{SimError, System, SystemConfig};
//! use lpm_trace::{Generator, SpecWorkload};
//!
//! let trace = SpecWorkload::Bzip2Like.generator().generate(20_000, 1);
//! let mut sys = System::try_new_looping(SystemConfig::default(), trace, 1, 1)?;
//! sys.try_run(2_000_000)?;
//! let report = sys.report();
//! assert!(report.l1.mr() < 0.2, "bzip2-like fits a 32 KiB L1");
//! # Ok::<(), SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyzer;
pub mod cmp;
pub mod config;
pub mod error;
pub mod fault;
pub mod report;
pub mod system;

pub use analyzer::{CacheAnalyzer, DramAnalyzer};
pub use cmp::{Cmp, CoreSlot};
pub use config::SystemConfig;
pub use error::SimError;
pub use fault::{
    BankStallFault, CounterNoiseFault, DramSpikeFault, FaultConfig, FaultInjector, FaultKind,
    FaultOnset, FaultStats, MshrSqueezeFault, RefreshStormFault,
};
pub use report::SystemReport;
pub use system::System;

// Compile-time thread-safety audit: the parallel sweep harness moves
// whole simulator instances (and everything needed to build them) across
// `std::thread` workers. The entire stack is owned data — no `Rc`, no
// `RefCell`, no raw pointers (`forbid(unsafe_code)` above) — so `Send`
// must hold for every one of these types; if a future change smuggles in
// a non-`Send` field, this block fails to compile and names the type.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}
    assert_send::<Cmp>();
    assert_send::<System>();
    assert_send::<SystemReport>();
    assert_send::<FaultConfig>();
    assert_send::<FaultInjector>();
    assert_send::<SimError>();
    // Configurations are also shared immutably across shards.
    assert_sync::<SystemConfig>();
    assert_sync::<FaultConfig>();
};
