//! Instruction traces and synthetic workload generators.
//!
//! The paper evaluates LPM on SPEC CPU2006 running under GEM5. Neither is
//! available to this reproduction, so this crate supplies the substitute:
//! deterministic, seedable generators that produce instruction streams with
//! controllable *locality* (working-set size, stride, reuse) and
//! *concurrency* (dependence density, memory-level parallelism) signatures —
//! the two axes the LPM model actually cares about.
//!
//! * [`record`] — the trace record types ([`Instr`], [`Op`], [`Trace`]).
//! * [`gen`] — primitive generators (stride streams, pointer chase, uniform
//!   random, Zipf hot/cold, phased, bursty) and the [`gen::Generator`]
//!   trait.
//! * [`spec`] — the 16-entry SPEC-CPU2006-like suite with per-benchmark
//!   profiles tuned to reproduce the qualitative behaviours reported in
//!   §V of the paper.
//! * [`stats`] — trace statistics (memory fraction, footprint, reuse).
//! * [`serialize`] — plain-text trace dump/load for reproducible artifacts.
//!
//! # Example
//!
//! ```
//! use lpm_trace::spec::SpecWorkload;
//! use lpm_trace::gen::Generator;
//!
//! let trace = SpecWorkload::BwavesLike.generator().generate(10_000, 42);
//! let stats = lpm_trace::stats::TraceStats::measure(&trace);
//! assert!(stats.fmem > 0.2 && stats.fmem < 0.8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod record;
pub mod serialize;
pub mod spec;
pub mod stats;

pub use gen::Generator;
pub use record::{check_trace_len, Instr, Op, Trace, MAX_TRACE_LEN};
pub use spec::SpecWorkload;
pub use stats::TraceStats;
