//! Sweep points: the unit of work a sweep evaluates, and the spec that
//! enumerates them in a stable order.

use lpm_core::design_space::HwConfig;
use lpm_sim::{FaultConfig, SystemConfig};
use lpm_telemetry::TelemetryLog;
use lpm_trace::SpecWorkload;

/// Salt for the trace-generation stream of a point.
pub const SALT_TRACE: u64 = 0x54_52_41_43; // "TRAC"
/// Salt for the simulator seed of a point.
pub const SALT_SIM: u64 = 0x53_49_4D_30; // "SIM0"
/// Salt for the fault-schedule seed of a point.
pub const SALT_FAULT: u64 = 0x46_4C_54_53; // "FLTS"
/// Salt for per-attempt retry re-derivation: attempt `n > 0` of a point
/// reseeds every stream from `derive_stream(seed, SALT_RETRY ^ n)`, so a
/// retry explores a decorrelated schedule while staying a pure function
/// of (point, attempt) — never of the worker or the wall clock.
pub const SALT_RETRY: u64 = 0x52_54_52_59; // "RTRY"

/// Derive a decorrelated RNG/seed stream from a point's seed and a salt
/// (SplitMix64 finalizer). Shards never feed their own identity in here:
/// the same point yields the same streams on any worker, which is the
/// first pillar of the sweep determinism contract.
pub fn derive_stream(point_seed: u64, salt: u64) -> u64 {
    let mut z = point_seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which fault injector a sweep dimension enables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Every injector (`FaultConfig::all`).
    All,
    /// DRAM latency spikes only.
    DramSpike,
    /// DRAM refresh storms only.
    RefreshStorm,
    /// Transient cache-bank stalls only.
    BankStall,
    /// MSHR-exhaustion bursts only.
    MshrSqueeze,
    /// Counter sensor noise and dropout only.
    CounterNoise,
}

impl FaultClass {
    /// Parse the CLI spelling (`all`, `dram-spike`, ...).
    pub fn parse(s: &str) -> Result<FaultClass, String> {
        Ok(match s {
            "all" => FaultClass::All,
            "dram-spike" => FaultClass::DramSpike,
            "refresh-storm" => FaultClass::RefreshStorm,
            "bank-stall" => FaultClass::BankStall,
            "mshr-squeeze" => FaultClass::MshrSqueeze,
            "counter-noise" => FaultClass::CounterNoise,
            other => {
                return Err(format!(
                    "unknown fault class {other:?}; use all, dram-spike, refresh-storm, \
                     bank-stall, mshr-squeeze or counter-noise"
                ))
            }
        })
    }

    /// The CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            FaultClass::All => "all",
            FaultClass::DramSpike => "dram-spike",
            FaultClass::RefreshStorm => "refresh-storm",
            FaultClass::BankStall => "bank-stall",
            FaultClass::MshrSqueeze => "mshr-squeeze",
            FaultClass::CounterNoise => "counter-noise",
        }
    }

    /// Build the injector configuration for one point.
    pub fn config(&self, seed: u64) -> FaultConfig {
        match self {
            FaultClass::All => FaultConfig::all(seed),
            FaultClass::DramSpike => FaultConfig::dram_spike(seed),
            FaultClass::RefreshStorm => FaultConfig::refresh_storm(seed),
            FaultClass::BankStall => FaultConfig::bank_stall(seed),
            FaultClass::MshrSqueeze => FaultConfig::mshr_squeeze(seed),
            FaultClass::CounterNoise => FaultConfig::counter_noise(seed),
        }
    }
}

/// Deterministic failure injection for crash-safety tests: force chosen
/// point indices to panic, fail, exceed their cycle budget, or fail
/// flakily until a given attempt. Part of [`SweepSpec`] (and therefore
/// of the spec fingerprint): a chaos sweep is a *different* sweep, not a
/// different run of the same sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Point indices whose evaluation panics.
    pub panic_at: Vec<usize>,
    /// Point indices whose evaluation fails with a structured error.
    pub fail_at: Vec<usize>,
    /// Point indices forced through the cycle-budget watchdog (their
    /// effective budget is clamped to one cycle).
    pub timeout_at: Vec<usize>,
    /// `(index, succeed_at)` pairs: the point fails on every attempt
    /// below `succeed_at` and succeeds from that attempt on.
    pub flaky: Vec<(usize, u32)>,
}

impl ChaosConfig {
    /// Whether no injection is configured.
    pub fn is_empty(&self) -> bool {
        self.panic_at.is_empty()
            && self.fail_at.is_empty()
            && self.timeout_at.is_empty()
            && self.flaky.is_empty()
    }

    /// Parse the CLI spelling: a comma-separated list of
    /// `panic@IDX`, `fail@IDX`, `timeout@IDX` and `flaky@IDX:ATTEMPT`
    /// directives, e.g. `panic@3,fail@5,timeout@2,flaky@1:2`.
    pub fn parse(s: &str) -> Result<ChaosConfig, String> {
        let mut cfg = ChaosConfig::default();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (kind, rest) = part
                .split_once('@')
                .ok_or_else(|| format!("chaos directive {part:?} needs KIND@INDEX"))?;
            let bad_index = || format!("chaos directive {part:?} has a malformed index");
            match kind {
                "panic" => cfg.panic_at.push(rest.parse().map_err(|_| bad_index())?),
                "fail" => cfg.fail_at.push(rest.parse().map_err(|_| bad_index())?),
                "timeout" => cfg.timeout_at.push(rest.parse().map_err(|_| bad_index())?),
                "flaky" => {
                    let (idx, at) = rest.split_once(':').ok_or_else(|| {
                        format!("chaos directive {part:?} needs flaky@INDEX:ATTEMPT")
                    })?;
                    cfg.flaky.push((
                        idx.parse().map_err(|_| bad_index())?,
                        at.parse()
                            .map_err(|_| format!("chaos directive {part:?} has a bad attempt"))?,
                    ));
                }
                other => {
                    return Err(format!(
                        "unknown chaos directive {other:?}; use panic@I, fail@I, timeout@I \
                         or flaky@I:N"
                    ))
                }
            }
        }
        Ok(cfg)
    }

    /// Whether the point at `index` must panic.
    pub fn panics(&self, index: usize) -> bool {
        self.panic_at.contains(&index)
    }

    /// Whether the point at `index` must fail.
    pub fn fails(&self, index: usize) -> bool {
        self.fail_at.contains(&index)
    }

    /// Whether the point at `index` must run out of cycle budget.
    pub fn times_out(&self, index: usize) -> bool {
        self.timeout_at.contains(&index)
    }

    /// The first succeeding attempt for a flaky point, when configured.
    pub fn flaky_until(&self, index: usize) -> Option<u32> {
        self.flaky
            .iter()
            .find(|(i, _)| *i == index)
            .map(|(_, at)| *at)
    }
}

/// One point of a sweep: a labelled hardware configuration, a workload,
/// a base seed, and an optional fault seed. The `index` is the point's
/// stable position in the spec's enumeration order — the merge key.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Stable position in the sweep (merge order).
    pub index: usize,
    /// Hardware configuration label (e.g. a Table I letter).
    pub config_label: String,
    /// The knob settings.
    pub hw: HwConfig,
    /// The workload.
    pub workload: SpecWorkload,
    /// The point's base seed; every stream the point consumes is derived
    /// from it via [`derive_stream`].
    pub seed: u64,
    /// Fault-injection seed, when this point is a faulted dimension.
    pub fault_seed: Option<u64>,
}

impl SweepPoint {
    /// A compact identifying label: `config/workload/s<seed>[/f<seed>]`.
    pub fn label(&self) -> String {
        match self.fault_seed {
            Some(f) => format!(
                "{}/{}/s{}/f{}",
                self.config_label,
                self.workload.name(),
                self.seed,
                f
            ),
            None => format!(
                "{}/{}/s{}",
                self.config_label,
                self.workload.name(),
                self.seed
            ),
        }
    }
}

/// The full description of a sweep: the point dimensions (configs ×
/// workloads × seeds × fault seeds) and the per-point run parameters.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Labelled hardware configurations to sweep.
    pub configs: Vec<(String, HwConfig)>,
    /// Workloads to sweep.
    pub workloads: Vec<SpecWorkload>,
    /// Base seeds to sweep (each adds a full configs × workloads plane).
    pub seeds: Vec<u64>,
    /// Fault dimension: `None` entries run clean, `Some(seed)` entries
    /// run with `fault_class` injectors driven by that seed.
    pub fault_seeds: Vec<Option<u64>>,
    /// Injector class for faulted points.
    pub fault_class: FaultClass,
    /// Instructions in each point's workload trace.
    pub instructions: usize,
    /// Online-controller measurement intervals per point.
    pub intervals: usize,
    /// Cycles per measurement interval.
    pub interval_cycles: u64,
    /// Stall budget as a fraction of `CPIexe`.
    pub grain: f64,
    /// Base system configuration the point's knobs are applied to.
    pub base: SystemConfig,
    /// Cache-warmup instructions before handing over to the controller.
    pub warmup_instructions: u64,
    /// Trace loop count (rate mode), so the trace cannot drain mid-run.
    pub loop_repeats: u32,
    /// Telemetry event-ring capacity per point.
    pub event_capacity: usize,
    /// Retries granted to a failing point before it is quarantined.
    /// `0` keeps the classic semantics: the first failure is terminal
    /// and keeps its own classification (failed / panicked / timed-out).
    pub max_retries: u32,
    /// Deterministic retry backoff, in *simulated* cycles: attempt `n`
    /// runs with a cycle budget of `point_cycle_budget + n *
    /// retry_backoff_cycles`, so a point that timed out narrowly gets
    /// progressively more head-room on retry instead of failing the
    /// same way forever. Backoff in wall-clock time would make outcomes
    /// depend on the scheduler; escalating the simulated budget keeps
    /// every attempt a pure function of `(spec, point, attempt)`. No
    /// effect when `point_cycle_budget` is `None`.
    pub retry_backoff_cycles: u64,
    /// Simulated-cycle budget per point attempt (measured from the end
    /// of warmup). A point whose controller run would step past it fails
    /// deterministically as timed-out instead of running away. `None`
    /// disables the watchdog.
    pub point_cycle_budget: Option<u64>,
    /// Deterministic failure injection for crash-safety tests.
    pub chaos: ChaosConfig,
    /// Deterministic *storage*-fault injection for the checkpoint
    /// journal (fsync/torn-write/rename/ENOSPC/EIO/power-cut schedules;
    /// see [`lpm_vfs::IoChaosConfig`]). Part of the spec — and therefore
    /// the fingerprint — because a journal written under injected
    /// storage faults is not interchangeable with a clean one.
    pub chaos_io: lpm_vfs::IoChaosConfig,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            configs: vec![("A".into(), HwConfig::A)],
            workloads: vec![SpecWorkload::BwavesLike],
            seeds: vec![7],
            fault_seeds: vec![None],
            fault_class: FaultClass::All,
            instructions: 60_000,
            intervals: 8,
            interval_cycles: 20_000,
            grain: 0.5,
            base: SystemConfig::default(),
            warmup_instructions: 30_000,
            loop_repeats: 100,
            event_capacity: lpm_telemetry::DEFAULT_EVENT_CAPACITY,
            max_retries: 0,
            retry_backoff_cycles: 0,
            point_cycle_budget: None,
            chaos: ChaosConfig::default(),
            chaos_io: lpm_vfs::IoChaosConfig::default(),
        }
    }
}

impl SweepSpec {
    /// Number of points this spec enumerates.
    pub fn len(&self) -> usize {
        self.configs.len() * self.workloads.len() * self.seeds.len() * self.fault_seeds.len()
    }

    /// Whether the spec enumerates no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerate every point in the stable nested order
    /// (config → workload → seed → fault seed, last axis fastest).
    /// This order defines point indices and therefore the merge order —
    /// it must not depend on anything but the spec itself.
    pub fn points(&self) -> Vec<SweepPoint> {
        let mut out = Vec::with_capacity(self.len());
        for (label, hw) in &self.configs {
            for &workload in &self.workloads {
                for &seed in &self.seeds {
                    for &fault_seed in &self.fault_seeds {
                        out.push(SweepPoint {
                            index: out.len(),
                            config_label: label.clone(),
                            hw: *hw,
                            workload,
                            seed,
                            fault_seed,
                        });
                    }
                }
            }
        }
        out
    }

    /// Validate the run parameters before spawning workers.
    pub fn validate(&self) -> Result<(), String> {
        if self.is_empty() {
            return Err("sweep spec enumerates no points".into());
        }
        if self.instructions == 0 {
            return Err("sweep needs at least one instruction per trace".into());
        }
        lpm_trace::check_trace_len(self.instructions as u64)?;
        if self.loop_repeats == 0 {
            return Err("sweep needs at least one pass over each trace (loop_repeats)".into());
        }
        let looped = (self.instructions as u64).saturating_mul(u64::from(self.loop_repeats));
        if self.warmup_instructions >= looped {
            return Err(format!(
                "warm-up of {} instructions leaves nothing to measure: each point runs {} \
                 ({} instructions x {} passes)",
                self.warmup_instructions, looped, self.instructions, self.loop_repeats
            ));
        }
        if self.intervals == 0 {
            return Err("sweep needs at least one measurement interval".into());
        }
        if self.interval_cycles < lpm_core::online::MIN_INTERVAL_CYCLES {
            return Err(format!(
                "interval of {} cycles is below the controller minimum of {}",
                self.interval_cycles,
                lpm_core::online::MIN_INTERVAL_CYCLES
            ));
        }
        if !(self.grain > 0.0 && self.grain.is_finite()) {
            return Err(format!(
                "grain must be positive and finite, got {}",
                self.grain
            ));
        }
        if self.point_cycle_budget == Some(0) {
            return Err("point cycle budget must be positive (omit it to disable)".into());
        }
        Ok(())
    }

    /// A stable 64-bit fingerprint of the whole spec (FNV-1a over its
    /// canonical rendering). The checkpoint journal stamps its header
    /// with this value; resuming against a journal whose fingerprint
    /// differs is refused, because rows computed under a different spec
    /// would silently corrupt the merged report. Every semantic field —
    /// dimensions, run parameters, retry/budget policy, chaos injection —
    /// participates; merge-time policy (`--keep-going`, jobs) does not.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in format!("{self:?}").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

/// The outcome of one evaluated point: adaptation summary plus the
/// point's full telemetry log (wall-clock throughput zeroed).
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// The point's stable index (merge key).
    pub index: usize,
    /// The point's identifying label.
    pub label: String,
    /// The point definition it was evaluated from.
    pub point: SweepPoint,
    /// Measurement intervals that produced a decision.
    pub intervals_run: usize,
    /// IPC over the first decided interval (0 when none).
    pub ipc_first: f64,
    /// IPC over the last decided interval (0 when none).
    pub ipc_last: f64,
    /// LPMR1 at the first decided interval (0 when none).
    pub lpmr1_first: f64,
    /// LPMR1 at the last decided interval (0 when none).
    pub lpmr1_last: f64,
    /// Intervals whose measured stall met the Δ budget.
    pub budget_met: usize,
    /// Hardware configuration the controller ended on.
    pub final_hw: HwConfig,
    /// Total simulated cycles.
    pub total_cycles: u64,
    /// The point's telemetry (snapshots + events + summary).
    pub telemetry: TelemetryLog,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_stream_is_stable_and_salt_sensitive() {
        let a = derive_stream(7, SALT_TRACE);
        assert_eq!(a, derive_stream(7, SALT_TRACE));
        assert_ne!(a, derive_stream(7, SALT_SIM));
        assert_ne!(a, derive_stream(8, SALT_TRACE));
    }

    #[test]
    fn points_enumerate_in_stable_nested_order() {
        let spec = SweepSpec {
            configs: vec![("A".into(), HwConfig::A), ("B".into(), HwConfig::B)],
            workloads: vec![SpecWorkload::BwavesLike, SpecWorkload::McfLike],
            seeds: vec![1, 2],
            fault_seeds: vec![None, Some(42)],
            ..SweepSpec::default()
        };
        let pts = spec.points();
        assert_eq!(pts.len(), 16);
        assert_eq!(spec.len(), 16);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(p.index, i);
        }
        // Fault axis fastest, then seeds, then workloads, then configs.
        assert_eq!(pts[0].fault_seed, None);
        assert_eq!(pts[1].fault_seed, Some(42));
        assert_eq!(pts[0].seed, 1);
        assert_eq!(pts[2].seed, 2);
        assert_eq!(pts[0].workload, SpecWorkload::BwavesLike);
        assert_eq!(pts[4].workload, SpecWorkload::McfLike);
        assert_eq!(pts[8].config_label, "B");
        // Enumeration is reproducible.
        assert_eq!(pts, spec.points());
    }

    #[test]
    fn labels_identify_points() {
        let spec = SweepSpec {
            fault_seeds: vec![Some(9)],
            ..SweepSpec::default()
        };
        assert_eq!(spec.points()[0].label(), "A/410.bwaves-like/s7/f9");
    }

    #[test]
    fn validate_rejects_degenerate_specs() {
        assert!(SweepSpec::default().validate().is_ok());
        let empty = SweepSpec {
            workloads: vec![],
            ..SweepSpec::default()
        };
        assert!(empty.validate().unwrap_err().contains("no points"));
        let tiny = SweepSpec {
            interval_cycles: 1,
            ..SweepSpec::default()
        };
        assert!(tiny.validate().is_err());
        let bad_grain = SweepSpec {
            grain: 0.0,
            ..SweepSpec::default()
        };
        assert!(bad_grain.validate().is_err());
    }

    #[test]
    fn fingerprint_is_stable_and_spec_sensitive() {
        let spec = SweepSpec::default();
        assert_eq!(spec.fingerprint(), SweepSpec::default().fingerprint());
        let salted = SweepSpec {
            seeds: vec![8],
            ..SweepSpec::default()
        };
        assert_ne!(spec.fingerprint(), salted.fingerprint());
        // Retry/budget/chaos policy is semantic: it changes outcomes, so
        // it must change the fingerprint too.
        let retried = SweepSpec {
            max_retries: 2,
            ..SweepSpec::default()
        };
        assert_ne!(spec.fingerprint(), retried.fingerprint());
        let budgeted = SweepSpec {
            point_cycle_budget: Some(1_000_000),
            ..SweepSpec::default()
        };
        assert_ne!(spec.fingerprint(), budgeted.fingerprint());
        let backoff = SweepSpec {
            retry_backoff_cycles: 5_000,
            ..SweepSpec::default()
        };
        assert_ne!(spec.fingerprint(), backoff.fingerprint());
        let chaotic = SweepSpec {
            chaos: ChaosConfig::parse("panic@0").unwrap(),
            ..SweepSpec::default()
        };
        assert_ne!(spec.fingerprint(), chaotic.fingerprint());
        // A storage-fault schedule is part of the spec too: a journal
        // written under injected IO faults must never be resumed by a
        // clean spec (or vice versa).
        let io_chaotic = SweepSpec {
            chaos_io: lpm_vfs::IoChaosConfig::parse("fail-fsync@1").unwrap(),
            ..SweepSpec::default()
        };
        assert_ne!(spec.fingerprint(), io_chaotic.fingerprint());
    }

    #[test]
    fn specs_that_measure_nothing_are_rejected() {
        let no_pass = SweepSpec {
            loop_repeats: 0,
            ..SweepSpec::default()
        };
        assert!(no_pass.validate().unwrap_err().contains("loop_repeats"));
        // 3 000 instructions x 2 passes: a 6 000-instruction warm-up
        // retires the whole looped trace, one fewer leaves one to measure.
        let short = |warmup_instructions| SweepSpec {
            instructions: 3_000,
            loop_repeats: 2,
            warmup_instructions,
            ..SweepSpec::default()
        };
        assert!(short(6_000)
            .validate()
            .unwrap_err()
            .contains("nothing to measure"));
        assert!(short(u64::MAX).validate().is_err());
        assert!(short(5_999).validate().is_ok());
        // The product saturates instead of wrapping.
        let huge = SweepSpec {
            instructions: lpm_trace::MAX_TRACE_LEN,
            loop_repeats: u32::MAX,
            warmup_instructions: u64::MAX - 1,
            ..SweepSpec::default()
        };
        assert!(huge.validate().is_ok());
        // One more instruction than a trace can hold cannot be sized.
        let oversized = SweepSpec {
            instructions: lpm_trace::MAX_TRACE_LEN + 1,
            ..SweepSpec::default()
        };
        assert!(oversized
            .validate()
            .unwrap_err()
            .contains("do not fit in one trace"));
    }

    #[test]
    fn zero_cycle_budget_is_rejected() {
        let spec = SweepSpec {
            point_cycle_budget: Some(0),
            ..SweepSpec::default()
        };
        assert!(spec.validate().unwrap_err().contains("positive"));
    }

    #[test]
    fn chaos_parse_accepts_directives_and_rejects_garbage() {
        let c = ChaosConfig::parse("panic@3,fail@5,timeout@2,flaky@1:2").unwrap();
        assert!(c.panics(3) && !c.panics(4));
        assert!(c.fails(5));
        assert!(c.times_out(2));
        assert_eq!(c.flaky_until(1), Some(2));
        assert_eq!(c.flaky_until(3), None);
        assert!(ChaosConfig::parse("").unwrap().is_empty());
        assert!(ChaosConfig::parse("panic").is_err());
        assert!(ChaosConfig::parse("panic@x").is_err());
        assert!(ChaosConfig::parse("flaky@1").is_err());
        assert!(ChaosConfig::parse("meteor@1").is_err());
    }

    #[test]
    fn fault_class_parse_roundtrip() {
        for c in [
            FaultClass::All,
            FaultClass::DramSpike,
            FaultClass::RefreshStorm,
            FaultClass::BankStall,
            FaultClass::MshrSqueeze,
            FaultClass::CounterNoise,
        ] {
            assert_eq!(FaultClass::parse(c.name()).unwrap(), c);
        }
        assert!(FaultClass::parse("meteor-strike").is_err());
    }
}
