//! Single-core convenience wrapper over [`Cmp`], used for workload
//! profiling and the Table I design-space exploration.

use lpm_cpu::{Core, PerfectMemory};
use lpm_trace::Trace;

use crate::cmp::{Cmp, CoreSlot};
use crate::config::SystemConfig;
use crate::error::SimError;
use crate::fault::{FaultConfig, FaultStats};
use crate::report::SystemReport;

/// A single-core system with automatic `CPIexe` measurement.
#[derive(Debug)]
pub struct System {
    cmp: Cmp,
    cpi_exe: f64,
}

impl System {
    /// Build the system, its core looping `trace` `repeats` times (rate
    /// mode; `1` runs it once), and measure `CPIexe` by running `trace`
    /// against a perfect cache with the L1's hit latency (the paper's
    /// "perfect cache, no miss occurs" definition). Configuration and
    /// calibration problems come back as [`SimError`].
    pub fn try_new_looping(
        cfg: SystemConfig,
        trace: Trace,
        repeats: u32,
        seed: u64,
    ) -> Result<Self, SimError> {
        cfg.validate().map_err(SimError::InvalidConfig)?;
        let cpi_exe = Self::try_measure_cpi_exe(&cfg, &trace)?;
        let mut shared = vec![cfg.l2];
        if let Some(l3) = cfg.l3 {
            shared.push(l3);
        }
        let cmp = Cmp::try_new_with_hierarchy(
            vec![CoreSlot {
                core: cfg.core,
                l1: cfg.l1.clone(),
            }],
            shared,
            cfg.dram,
            vec![trace],
            repeats,
            seed,
        )?;
        Ok(System { cmp, cpi_exe })
    }

    /// The steady-state measurement behind Table I, Fig. 6/7 and the
    /// Eq. 12 validation (the role SimPoint sampling plays in the
    /// paper): loop `trace`, warm up for one lap, then measure one lap.
    /// A window that does not complete within `len × 1200 + 2M` cycles
    /// of the warmup is [`SimError::Unconverged`].
    pub fn steady_report(
        cfg: SystemConfig,
        trace: Trace,
        seed: u64,
    ) -> Result<SystemReport, SimError> {
        let len = trace.len() as u64;
        let mut sys = Self::try_new_looping(cfg, trace, 10_000, seed)?;
        sys.cmp.try_warm_up(len)?;
        let budget = sys.now() + len * 1200 + 2_000_000;
        if !sys.cmp.try_run_until_all_retired(len, budget)? {
            return Err(SimError::Unconverged(format!(
                "steady-state window of {len} instructions did not complete"
            )));
        }
        Ok(sys.report())
    }

    /// `CPIexe` of `trace` on `cfg`'s core with a perfect cache.
    pub fn try_measure_cpi_exe(cfg: &SystemConfig, trace: &Trace) -> Result<f64, SimError> {
        cfg.core.validate().map_err(SimError::InvalidConfig)?;
        let mut core = Core::new(cfg.core, trace.clone());
        let mut mem = PerfectMemory::new(cfg.l1.hit_latency);
        let mut now = 0u64;
        // A perfect-cache run cannot take longer than a handful of cycles
        // per instruction; bound it defensively.
        let limit = 10 + (trace.len() as u64 + 1) * (cfg.l1.hit_latency + 4);
        while !core.finished() && now < limit {
            for id in mem.take_completions(now) {
                core.complete_mem(id);
            }
            core.cycle(now, &mut mem);
            now += 1;
        }
        if !core.finished() {
            return Err(SimError::Unconverged(
                "perfect-cache run did not converge".into(),
            ));
        }
        Ok(core.stats().cpi())
    }

    /// The measured `CPIexe`.
    pub fn cpi_exe(&self) -> f64 {
        self.cpi_exe
    }

    /// Run until the trace drains or absolute cycle `max_cycles`; returns
    /// whether it drained.
    pub fn try_run(&mut self, max_cycles: u64) -> Result<bool, SimError> {
        self.cmp.try_run(max_cycles)
    }

    /// Advance exactly `cycles`, emitting into `rec` (telemetry); a
    /// budgeted run goes through [`Cmp::try_run_for_with_budget`].
    pub fn try_run_for_with<R: lpm_telemetry::Recorder>(
        &mut self,
        cycles: u64,
        rec: &mut R,
    ) -> Result<(), SimError> {
        self.cmp.try_run_for_with_budget(cycles, rec, u64::MAX)
    }

    /// Enable fault injection per `cfg` (see [`crate::fault`]).
    pub fn enable_faults(&mut self, cfg: FaultConfig) {
        self.cmp.enable_faults(cfg);
    }

    /// Detach the fault injector and clear residual fault state.
    pub fn disable_faults(&mut self) {
        self.cmp.set_fault_injector(None);
    }

    /// Injection totals, when an injector is attached.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.cmp.fault_stats()
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.cmp.now()
    }

    /// Whether the trace has drained.
    pub fn finished(&self) -> bool {
        self.cmp.all_finished()
    }

    /// The measurement report (core stats + per-layer counters + CPIexe).
    pub fn report(&self) -> SystemReport {
        self.cmp.report_for(0, self.cpi_exe)
    }

    /// Force (or lift) strict per-cycle stepping on the underlying CMP;
    /// see [`Cmp::set_reference_stepping`]. The event-driven fast path
    /// is the default.
    pub fn set_reference_stepping(&mut self, on: bool) {
        self.cmp.set_reference_stepping(on);
    }

    /// Direct access to the underlying CMP (e.g. for cache stats).
    pub fn cmp(&self) -> &Cmp {
        &self.cmp
    }

    /// Mutable access to the underlying CMP (runtime reconfiguration and
    /// measurement-window control for the online LPM controller).
    pub fn cmp_mut(&mut self) -> &mut Cmp {
        &mut self.cmp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpm_trace::{Generator, SpecWorkload};

    #[test]
    fn cpi_exe_is_sane() {
        let trace = SpecWorkload::GamessLike.generator().generate(10_000, 1);
        let sys = System::try_new_looping(SystemConfig::default(), trace, 1, 1).unwrap();
        let cpi = sys.cpi_exe();
        // A 4-wide core on a mixed trace: CPIexe well below 2 and above
        // the 0.25 ideal.
        assert!(cpi > 0.25 && cpi < 2.0, "CPIexe {cpi}");
    }

    #[test]
    fn report_exposes_consistent_measurements() {
        let trace = SpecWorkload::Bzip2Like.generator().generate(20_000, 2);
        let mut sys = System::try_new_looping(SystemConfig::default(), trace, 1, 2).unwrap();
        assert!(sys.try_run(10_000_000).unwrap());
        let r = sys.report();
        r.check(1.0).unwrap();
        // fmem close to the workload profile.
        assert!(
            (r.core.fmem() - 0.35).abs() < 0.05,
            "fmem {}",
            r.core.fmem()
        );
        // LPMRs computable and ordered sensibly: the L1 boundary is the
        // binding one for a cache-resident workload.
        let lpmrs = r.lpmrs().unwrap();
        assert!(lpmrs.l1.value() > 0.0);
        assert!(lpmrs.l1.value() >= lpmrs.l3.value());
    }

    #[test]
    fn memory_bound_workload_shows_mismatch() {
        let trace = SpecWorkload::McfLike.generator().generate(20_000, 3);
        let mut sys = System::try_new_looping(SystemConfig::default(), trace, 1, 3).unwrap();
        assert!(sys.try_run(50_000_000).unwrap());
        let r = sys.report();
        let lpmrs = r.lpmrs().unwrap();
        // A pointer chase over 2 MiB on a 32 KiB L1: LPMR1 well above 1.
        assert!(lpmrs.l1.value() > 1.5, "LPMR1 {}", lpmrs.l1.value());
        // And the measured stall is substantial.
        assert!(
            r.measured_stall() > 0.5,
            "stall/instr {}",
            r.measured_stall()
        );
    }

    #[test]
    fn cache_resident_workload_is_better_matched_than_memory_bound() {
        // Note LPMR1 > 1 even for a resident workload: a single-ported,
        // 3-cycle L1 cannot match a 4-wide core — exactly the L1-side
        // mismatch Table I's configurations A–C address with more ports.
        // The discriminating signal is the gap to a memory-bound workload.
        let resident = {
            let t = SpecWorkload::Bzip2Like.generator().generate(20_000, 4);
            let mut sys = System::try_new_looping(SystemConfig::default(), t, 1, 4).unwrap();
            assert!(sys.try_run(10_000_000).unwrap());
            sys.report()
        };
        let bound = {
            let t = SpecWorkload::McfLike.generator().generate(20_000, 4);
            let mut sys = System::try_new_looping(SystemConfig::default(), t, 1, 4).unwrap();
            assert!(sys.try_run(50_000_000).unwrap());
            sys.report()
        };
        let r1 = resident.lpmrs().unwrap().l1.value();
        let b1 = bound.lpmrs().unwrap().l1.value();
        assert!(
            b1 > 1.5 * r1,
            "memory-bound LPMR1 {b1} should dwarf resident {r1}"
        );
        // The resident workload barely misses; its stall is far smaller.
        assert!(resident.l1.mr() < 0.05, "MR1 {}", resident.l1.mr());
        assert!(resident.measured_stall() < bound.measured_stall() / 2.0);
    }
}
