//! Case Study I: LPM optimization on a reconfigurable architecture.
//!
//! Six architecture knobs are explored, as in §V.A: pipeline issue width,
//! issue-window size, ROB size, L1 cache port count, MSHR count, and L2
//! cache interleaving (banks). Each knob has a ladder of settings; the
//! LPM algorithm climbs the ladders instead of exhaustively searching the
//! million-point space.

use lpm_model::{CamatParams, Dimension, Grain};
use lpm_sim::{System, SystemConfig};
use lpm_trace::Trace;

use crate::error::LpmError;
use crate::measurement::LpmMeasurement;
use crate::optimizer::Tunable;

/// Ladder of pipeline issue widths.
pub const WIDTHS: &[u32] = &[2, 4, 6, 8];
/// Ladder of issue-window / ROB sizes.
pub const WINDOWS: &[u32] = &[16, 32, 48, 64, 96, 128, 192, 256];
/// Ladder of L1 port counts.
pub const PORTS: &[u32] = &[1, 2, 4, 8];
/// Ladder of MSHR counts.
pub const MSHRS: &[u32] = &[2, 4, 8, 16, 32];
/// Ladder of L2 bank (interleaving) counts.
pub const L2_BANKS: &[u32] = &[1, 2, 4, 8, 16];

/// One point in the six-knob design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwConfig {
    /// Pipeline issue width.
    pub issue_width: u32,
    /// Issue-window size.
    pub iw_size: u32,
    /// ROB size.
    pub rob_size: u32,
    /// L1 cache ports.
    pub l1_ports: u32,
    /// MSHR entries (L1; the L2 gets 2×).
    pub mshrs: u32,
    /// L2 interleaving (banks).
    pub l2_banks: u32,
}

impl HwConfig {
    /// Table I configuration A.
    pub const A: HwConfig = HwConfig {
        issue_width: 4,
        iw_size: 32,
        rob_size: 32,
        l1_ports: 1,
        mshrs: 4,
        l2_banks: 4,
    };
    /// Table I configuration B.
    pub const B: HwConfig = HwConfig {
        issue_width: 4,
        iw_size: 64,
        rob_size: 64,
        l1_ports: 1,
        mshrs: 8,
        l2_banks: 8,
    };
    /// Table I configuration C.
    pub const C: HwConfig = HwConfig {
        issue_width: 6,
        iw_size: 64,
        rob_size: 64,
        l1_ports: 2,
        mshrs: 16,
        l2_banks: 8,
    };
    /// Table I configuration D.
    pub const D: HwConfig = HwConfig {
        issue_width: 8,
        iw_size: 128,
        rob_size: 128,
        l1_ports: 4,
        mshrs: 16,
        l2_banks: 8,
    };
    /// Table I configuration E (D with IW/ROB trimmed to 96).
    pub const E: HwConfig = HwConfig {
        issue_width: 8,
        iw_size: 96,
        rob_size: 96,
        l1_ports: 4,
        mshrs: 16,
        l2_banks: 8,
    };

    /// The five Table I configurations with their labels.
    pub const TABLE_I: [(&'static str, HwConfig); 5] = [
        ("A", HwConfig::A),
        ("B", HwConfig::B),
        ("C", HwConfig::C),
        ("D", HwConfig::D),
        ("E", HwConfig::E),
    ];

    /// Apply the knobs to a base system configuration.
    pub fn apply(&self, base: &SystemConfig) -> SystemConfig {
        let mut cfg = base.clone();
        cfg.core.issue_width = self.issue_width;
        cfg.core.iw_size = self.iw_size;
        cfg.core.rob_size = self.rob_size;
        cfg.l1.ports = self.l1_ports;
        cfg.l1.mshrs = self.mshrs;
        cfg.l2.mshrs = self.mshrs * 2;
        cfg.l2.banks = self.l2_banks;
        // Each L2 bank brings its own access port (interleaving is how
        // banked caches scale start bandwidth).
        cfg.l2.ports = self.l2_banks.max(2);
        cfg
    }

    /// A rough hardware-cost proxy: the sum of all knob settings,
    /// weighted by their silicon expense. Used to demonstrate that
    /// configuration E meets the target at lower cost than D.
    pub fn cost(&self) -> u64 {
        self.issue_width as u64 * 16
            + self.iw_size as u64 * 2
            + self.rob_size as u64 * 2
            + self.l1_ports as u64 * 32
            + self.mshrs as u64 * 4
            + self.l2_banks as u64 * 8
    }

    fn bump(ladder: &[u32], v: u32) -> Option<u32> {
        ladder.iter().copied().find(|&x| x > v)
    }

    fn drop(ladder: &[u32], v: u32) -> Option<u32> {
        ladder.iter().rev().copied().find(|&x| x < v)
    }

    /// Raise the L1-side knobs one notch each (IW, ROB, ports, MSHRs,
    /// width). Returns `false` if every knob is already at its maximum.
    pub fn bump_l1(&mut self) -> bool {
        self.bump_l1_limited(u32::MAX) > 0
    }

    /// Like [`HwConfig::bump_l1`], but raise at most `max_knobs` knob
    /// groups (window = IW+ROB together, ports, MSHRs, width — in that
    /// order). Returns the number of groups actually changed. The
    /// hardened online controller uses this to clamp reconfiguration step
    /// sizes so a single noisy interval cannot jump the whole ladder.
    pub fn bump_l1_limited(&mut self, max_knobs: u32) -> u32 {
        let mut changed = 0u32;
        if changed < max_knobs {
            let mut window = false;
            if let Some(v) = Self::bump(WINDOWS, self.iw_size) {
                self.iw_size = v;
                window = true;
            }
            if let Some(v) = Self::bump(WINDOWS, self.rob_size) {
                self.rob_size = v;
                window = true;
            }
            if window {
                changed += 1;
            }
        }
        if changed < max_knobs {
            if let Some(v) = Self::bump(PORTS, self.l1_ports) {
                self.l1_ports = v;
                changed += 1;
            }
        }
        if changed < max_knobs {
            if let Some(v) = Self::bump(MSHRS, self.mshrs) {
                self.mshrs = v;
                changed += 1;
            }
        }
        if changed < max_knobs {
            if let Some(v) = Self::bump(WIDTHS, self.issue_width) {
                self.issue_width = v;
                changed += 1;
            }
        }
        changed
    }

    /// Raise the L2-side knob (interleaving) one notch.
    pub fn bump_l2(&mut self) -> bool {
        if let Some(v) = Self::bump(L2_BANKS, self.l2_banks) {
            self.l2_banks = v;
            return true;
        }
        false
    }

    /// Raise only the knob that the C-AMAT sensitivity ranking says pays
    /// most at the measured parameter point — the paper's "decide which
    /// parameter should be optimized on demand". One notch per call.
    ///
    /// Dimension → knob mapping: `CH` is supplied by ports (then width);
    /// `CM` by MSHRs (then IW/ROB, which bound how many misses the core
    /// can expose); `pAMP`/`pMR` improve indirectly through deeper
    /// windows and more MSHRs (more overlap trims the *pure* statistics);
    /// `H` is not adjustable in this design space.
    pub fn bump_l1_guided(&mut self, l1: &CamatParams) -> bool {
        for (dim, _) in l1.rank_dimensions() {
            let changed = match dim {
                Dimension::HitTime => false,
                Dimension::HitConcurrency => {
                    if let Some(v) = Self::bump(PORTS, self.l1_ports) {
                        self.l1_ports = v;
                        true
                    } else if let Some(v) = Self::bump(WIDTHS, self.issue_width) {
                        self.issue_width = v;
                        true
                    } else {
                        false
                    }
                }
                Dimension::MissConcurrency
                | Dimension::PureMissPenalty
                | Dimension::PureMissRate => {
                    if let Some(v) = Self::bump(MSHRS, self.mshrs) {
                        self.mshrs = v;
                        true
                    } else if let Some(v) = Self::bump(WINDOWS, self.iw_size) {
                        self.iw_size = v;
                        self.rob_size = v;
                        true
                    } else {
                        false
                    }
                }
            };
            if changed {
                return true;
            }
        }
        false
    }

    /// Shed over-provision: trim IW and ROB one notch (the D→E move of
    /// Table I). Returns `false` at the ladder bottom.
    pub fn shed(&mut self) -> bool {
        let mut changed = false;
        if let Some(v) = Self::drop(WINDOWS, self.iw_size) {
            self.iw_size = v;
            changed = true;
        }
        if let Some(v) = Self::drop(WINDOWS, self.rob_size) {
            self.rob_size = v;
            changed = true;
        }
        changed
    }
}

impl HwConfig {
    /// Look up a Table I configuration by its label (`"A"`..`"E"`).
    pub fn by_label(label: &str) -> Option<HwConfig> {
        Self::TABLE_I
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, hw)| *hw)
    }
}

/// One measured row of Table I.
#[derive(Debug, Clone)]
pub struct TableIRow {
    /// Configuration label ("A".."E" or "search-k").
    pub label: String,
    /// The knob settings.
    pub hw: HwConfig,
    /// Measured LPMR1.
    pub lpmr1: f64,
    /// Measured LPMR2.
    pub lpmr2: f64,
    /// Measured LPMR3.
    pub lpmr3: f64,
    /// Measured data stall per instruction.
    pub stall_per_instr: f64,
    /// Stall as a fraction of `CPIexe` (the Δ% the algorithm targets).
    pub stall_over_cpi_exe: f64,
    /// Measured IPC.
    pub ipc: f64,
}

/// Simulate `trace` under `hw` applied to `base` and measure a Table I
/// row at steady state ([`System::steady_report`]).
pub fn measure_config(
    label: &str,
    hw: HwConfig,
    base: &SystemConfig,
    trace: &Trace,
    seed: u64,
) -> Result<TableIRow, LpmError> {
    let r = System::steady_report(hw.apply(base), trace.clone(), seed)?;
    let lpmrs = r.lpmrs()?;
    Ok(TableIRow {
        label: label.to_string(),
        hw,
        lpmr1: lpmrs.l1.value(),
        lpmr2: lpmrs.l2.value(),
        lpmr3: lpmrs.l3.value(),
        stall_per_instr: r.measured_stall(),
        stall_over_cpi_exe: r.measured_stall() / r.cpi_exe,
        ipc: r.core.ipc(),
    })
}

/// LPM-guided design-space exploration on one workload: implements
/// [`Tunable`] by re-simulating the trace at each candidate point.
#[derive(Debug)]
pub struct DesignSpaceExplorer {
    /// Current knob settings.
    pub hw: HwConfig,
    base: SystemConfig,
    trace: Trace,
    grain: Grain,
    seed: u64,
    /// Simulations performed (shows the search is far from exhaustive).
    pub evaluations: u32,
    /// Gradient-guided mode: raise only the knob the C-AMAT sensitivity
    /// ranking selects, instead of every L1-side knob at once.
    pub guided: bool,
    /// L1 C-AMAT parameters from the last measurement (guided mode).
    last_l1: Option<CamatParams>,
}

impl DesignSpaceExplorer {
    /// Start an exploration at `start` for the given workload trace.
    pub fn new(start: HwConfig, base: SystemConfig, trace: Trace, grain: Grain, seed: u64) -> Self {
        DesignSpaceExplorer {
            hw: start,
            base,
            trace,
            grain,
            seed,
            evaluations: 0,
            guided: false,
            last_l1: None,
        }
    }

    /// Like [`DesignSpaceExplorer::new`], but in gradient-guided mode.
    pub fn new_guided(
        start: HwConfig,
        base: SystemConfig,
        trace: Trace,
        grain: Grain,
        seed: u64,
    ) -> Self {
        let mut e = Self::new(start, base, trace, grain, seed);
        e.guided = true;
        e
    }
}

impl Tunable for DesignSpaceExplorer {
    fn measure(&mut self) -> Result<LpmMeasurement, LpmError> {
        self.evaluations += 1;
        let cfg = self.hw.apply(&self.base);
        let report = System::steady_report(cfg, self.trace.clone(), self.seed)?;
        self.last_l1 = report.l1.to_params().ok();
        Ok(LpmMeasurement::from_report(&report, self.grain)?)
    }

    fn optimize_l1(&mut self) -> bool {
        if self.guided {
            if let Some(l1) = self.last_l1 {
                return self.hw.bump_l1_guided(&l1);
            }
        }
        self.hw.bump_l1()
    }

    fn optimize_l2(&mut self) -> bool {
        self.hw.bump_l2()
    }

    fn reduce_overprovision(&mut self) -> bool {
        self.hw.shed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpm_trace::{Generator, SpecWorkload};

    #[test]
    fn table_i_configs_have_increasing_parallelism_and_cost() {
        let cost: Vec<u64> = HwConfig::TABLE_I.iter().map(|(_, c)| c.cost()).collect();
        // A < B < C < D and E between C and D.
        assert!(cost[0] < cost[1] && cost[1] < cost[2] && cost[2] < cost[3]);
        assert!(cost[4] < cost[3] && cost[4] > cost[2]);
    }

    #[test]
    fn apply_propagates_all_knobs() {
        let cfg = HwConfig::D.apply(&SystemConfig::default());
        assert_eq!(cfg.core.issue_width, 8);
        assert_eq!(cfg.core.iw_size, 128);
        assert_eq!(cfg.core.rob_size, 128);
        assert_eq!(cfg.l1.ports, 4);
        assert_eq!(cfg.l1.mshrs, 16);
        assert_eq!(cfg.l2.banks, 8);
        cfg.validate().unwrap();
    }

    #[test]
    fn bump_and_shed_walk_the_ladders() {
        let mut hw = HwConfig::A;
        assert!(hw.bump_l1());
        assert!(hw.iw_size > HwConfig::A.iw_size);
        assert!(hw.l1_ports > HwConfig::A.l1_ports);
        assert!(hw.bump_l2());
        assert_eq!(hw.l2_banks, 8);
        let before = hw.iw_size;
        assert!(hw.shed());
        assert!(hw.iw_size < before);
        // Exhaust the top.
        let mut top = HwConfig {
            issue_width: 8,
            iw_size: 256,
            rob_size: 256,
            l1_ports: 8,
            mshrs: 32,
            l2_banks: 16,
        };
        assert!(!top.bump_l1());
        assert!(!top.bump_l2());
        // Exhaust the bottom.
        let mut bottom = HwConfig {
            issue_width: 2,
            iw_size: 16,
            rob_size: 16,
            l1_ports: 1,
            mshrs: 2,
            l2_banks: 1,
        };
        assert!(!bottom.shed());
    }

    #[test]
    fn by_label_finds_table_i_rows() {
        assert_eq!(HwConfig::by_label("A"), Some(HwConfig::A));
        assert_eq!(HwConfig::by_label("E"), Some(HwConfig::E));
        assert_eq!(HwConfig::by_label("Z"), None);
    }

    #[test]
    fn bigger_config_reduces_lpmr1_on_bwaves() {
        // The Table I headline: LPMR1 falls as parallelism grows from the
        // starved configuration A to the matched configuration C.
        let trace = SpecWorkload::BwavesLike.generator().generate(20_000, 11);
        let base = SystemConfig::default();
        let a = measure_config("A", HwConfig::A, &base, &trace, 1).unwrap();
        let c = measure_config("C", HwConfig::C, &base, &trace, 1).unwrap();
        assert!(c.lpmr1 < a.lpmr1 * 0.7, "LPMR1 A={} C={}", a.lpmr1, c.lpmr1);
        assert!(c.ipc > a.ipc * 1.5, "IPC A={} C={}", a.ipc, c.ipc);
        assert!(
            c.stall_over_cpi_exe < a.stall_over_cpi_exe,
            "relative stall A={} C={}",
            a.stall_over_cpi_exe,
            c.stall_over_cpi_exe
        );
    }

    #[test]
    fn explorer_reduces_mismatch_with_few_evaluations() {
        let trace = SpecWorkload::BwavesLike.generator().generate(20_000, 13);
        let mut ex = DesignSpaceExplorer::new(
            HwConfig::A,
            SystemConfig::default(),
            trace,
            Grain::Custom(0.3),
            1,
        );
        let opt = crate::optimizer::LpmOptimizer::default();
        let out = crate::optimizer::run_lpm_loop(&mut ex, &opt, 12).unwrap();
        let first = out.steps.first().unwrap().measurement.lpmr1;
        let last = out.final_measurement.lpmr1;
        assert!(last < first, "no improvement: {first} → {last}");
        // Far fewer evaluations than the million-point space.
        assert!(ex.evaluations <= 16);
    }
}

#[cfg(test)]
mod guided_tests {
    use super::*;
    use crate::optimizer::{run_lpm_loop, LpmOptimizer};
    use lpm_trace::{Generator, SpecWorkload};

    #[test]
    fn guided_exploration_spends_less_hardware_for_similar_matching() {
        let trace = SpecWorkload::BwavesLike.generator().generate(20_000, 13);
        let base = SystemConfig::default();
        let grain = Grain::Custom(0.30);
        let opt = LpmOptimizer::default();

        let mut blanket =
            DesignSpaceExplorer::new(HwConfig::A, base.clone(), trace.clone(), grain, 1);
        let out_b = run_lpm_loop(&mut blanket, &opt, 10).unwrap();

        let mut guided = DesignSpaceExplorer::new_guided(HwConfig::A, base, trace, grain, 1);
        let out_g = run_lpm_loop(&mut guided, &opt, 10).unwrap();

        // Both improve the mismatch...
        assert!(out_b.final_measurement.lpmr1 < out_b.steps[0].measurement.lpmr1);
        assert!(out_g.final_measurement.lpmr1 < out_g.steps[0].measurement.lpmr1);
        // ...but the guided walk reaches comparable matching at lower
        // hardware cost (it raises one knob per step, not all of them).
        assert!(
            guided.hw.cost() < blanket.hw.cost(),
            "guided cost {} vs blanket {}",
            guided.hw.cost(),
            blanket.hw.cost()
        );
        assert!(
            out_g.final_measurement.lpmr1 < out_b.final_measurement.lpmr1 * 1.4,
            "guided LPMR1 {} too far behind blanket {}",
            out_g.final_measurement.lpmr1,
            out_b.final_measurement.lpmr1
        );
    }

    #[test]
    fn bump_l1_guided_prefers_the_binding_dimension() {
        // A CH-starved point: guided bump must raise ports first.
        let mut hw = HwConfig::A;
        let l1 = CamatParams::new(3.0, 1.0, 0.001, 2.0, 4.0).unwrap();
        assert!(hw.bump_l1_guided(&l1));
        assert!(hw.l1_ports > HwConfig::A.l1_ports);
        assert_eq!(hw.mshrs, HwConfig::A.mshrs);

        // A CM/pAMP-starved point: MSHRs first.
        let mut hw = HwConfig::A;
        let l1 = CamatParams::new(1.0, 8.0, 0.4, 60.0, 1.1).unwrap();
        assert!(hw.bump_l1_guided(&l1));
        assert!(hw.mshrs > HwConfig::A.mshrs);
        assert_eq!(hw.l1_ports, HwConfig::A.l1_ports);
    }
}
