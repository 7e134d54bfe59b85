//! **LPM** — Concurrency-driven Layered Performance Matching.
//!
//! A full reproduction of *LPM: Concurrency-driven Layered Performance
//! Matching* (Yu-Hang Liu and Xian-He Sun, ICPP 2015), built as a
//! self-contained Rust workspace: the C-AMAT analytical model, a
//! cycle-level CPU/cache/DRAM simulator with per-layer C-AMAT analyzers,
//! and the LPM optimization algorithm with both of the paper's case
//! studies (reconfigurable-architecture design-space exploration and
//! NUCA-aware scheduling).
//!
//! This crate is the facade: it re-exports the public API of every
//! workspace member under one roof.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`model`] | `lpm-model` | AMAT, C-AMAT (Eq. 1–4), APC, LPMR (Eq. 9–11), stall time (Eq. 5–8, 12, 13), thresholds (Eq. 14/15) |
//! | [`trace`] | `lpm-trace` | trace records, synthetic generators, the 16-entry SPEC-like suite |
//! | [`cache`] | `lpm-cache` | non-blocking set-associative caches: MSHRs, ports, banks, replacement, prefetchers |
//! | [`dram`]  | `lpm-dram`  | row-buffer DRAM timing model |
//! | [`cpu`]   | `lpm-cpu`   | trace-driven out-of-order core |
//! | [`sim`]   | `lpm-sim`   | systems: single core and CMP, with C-AMAT analyzers (HCD/MCD) |
//! | [`core`]  | `lpm-core`  | the LPM algorithm, design-space exploration, NUCA-SA scheduling, Hsp |
//!
//! # Quick start
//!
//! ```
//! use lpm::prelude::*;
//!
//! // Simulate a workload and read off its layered matching state.
//! let trace = SpecWorkload::GccLike.generator().generate(20_000, 42);
//! let mut sys = System::try_new_looping(SystemConfig::default(), trace, 1, 42)?;
//! sys.cmp_mut().try_warm_up(10_000)?;
//! sys.try_run(50_000_000)?;
//! let report = sys.report();
//! let lpmrs = report.lpmrs()?;
//! assert!(lpmrs.l1.value() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Analytical models (re-export of `lpm-model`).
pub mod model {
    pub use lpm_model::*;
}

/// Traces and workload generators (re-export of `lpm-trace`).
pub mod trace {
    pub use lpm_trace::*;
}

/// Cache simulator (re-export of `lpm-cache`).
pub mod cache {
    pub use lpm_cache::*;
}

/// DRAM timing model (re-export of `lpm-dram`).
pub mod dram {
    pub use lpm_dram::*;
}

/// Out-of-order core model (re-export of `lpm-cpu`).
pub mod cpu {
    pub use lpm_cpu::*;
}

/// Full-system simulation (re-export of `lpm-sim`).
pub mod sim {
    pub use lpm_sim::*;
}

/// The LPM algorithm and case studies (re-export of `lpm-core`).
pub mod core {
    pub use lpm_core::*;
}

/// The most commonly used items in one import.
pub mod prelude {
    pub use lpm_core::{
        harmonic_weighted_speedup, profile_suite, ControllerHealth, HardeningConfig, HwConfig,
        LpmAction, LpmError, LpmMeasurement, LpmOptimizer, NucaLayout, OnlineLpmController,
        Scheduler, SchedulerKind, Tunable,
    };
    pub use lpm_model::{
        AmatParams, CamatParams, Grain, LayerCounters, Lpmr, LpmrSet, StallModel, Thresholds,
    };
    pub use lpm_sim::{
        Cmp, CoreSlot, FaultConfig, FaultStats, SimError, System, SystemConfig, SystemReport,
    };
    pub use lpm_telemetry::NullRecorder;
    pub use lpm_trace::{Generator, Instr, Op, SpecWorkload, Trace};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile_and_agree() {
        // One symbol from each sub-crate, through the facade.
        let p = crate::model::example::fig1_params();
        assert!((p.camat() - 1.6).abs() < 1e-12);
        let _ = crate::trace::SpecWorkload::ALL;
        let _ = crate::cache::CacheConfig::l1_default();
        let _ = crate::dram::DramConfig::ddr3_default();
        let _ = crate::cpu::CoreConfig::small();
        let _ = crate::sim::SystemConfig::default();
        let _ = crate::core::HwConfig::A;
    }
}
