//! The LPMR reduction algorithm of Fig. 3.
//!
//! ```text
//! measure LPMRs; compute T1, T2
//! loop:
//!   Case I   (LPMR1 > T1 and LPMR2 > T2): optimize L1 and L2 layers
//!   Case II  (LPMR1 > T1 and LPMR2 ≤ T2): optimize L1 layer
//!   Case III (LPMR1 + δ < T1):            reduce hardware overprovision
//!   Case IV  (T1 ≥ LPMR1 ≥ T1 − δ):       end
//!   update all metrics
//! ```
//!
//! The algorithm is target-agnostic: anything that can measure itself and
//! apply the three kinds of adjustment implements [`Tunable`] — the
//! hardware design space of case study I and the scheduling space of case
//! study II both do.

use crate::error::LpmError;
use crate::measurement::LpmMeasurement;

/// What the algorithm decided to do this iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpmAction {
    /// Case I: both boundaries mismatch; optimize the L1 and L2 layers
    /// simultaneously.
    OptimizeBoth,
    /// Case II: only the L1 boundary mismatches.
    OptimizeL1,
    /// Case III: matched with more than `δ` slack — shed over-provisioned
    /// hardware for cost efficiency.
    ReduceOverprovision,
    /// Case IV: matched within the `[T1 − δ, T1]` band; stop.
    Done,
}

/// The decision procedure (pure; the loop driver applies the actions).
#[derive(Debug, Clone, Copy)]
pub struct LpmOptimizer {
    /// Over-provision slack `δ` as a fraction of `T1` (the paper's case
    /// study II uses 50%).
    pub delta_frac: f64,
}

impl Default for LpmOptimizer {
    fn default() -> Self {
        LpmOptimizer { delta_frac: 0.5 }
    }
}

impl LpmOptimizer {
    /// Classify a measurement into one of the four cases of Fig. 3.
    pub fn decide(&self, m: &LpmMeasurement) -> LpmAction {
        // hysteresis = 0 multiplies the thresholds by exactly 1.0, so
        // this is bit-identical to the unhardened comparison.
        self.decide_with_hysteresis(m, 0.0)
    }

    /// Like [`LpmOptimizer::decide`], but with a hysteresis band of
    /// `hysteresis` (a fraction of each threshold) around the T1/T2
    /// comparisons: growth requires overshooting `T1 × (1 + h)` and
    /// shedding requires undershooting `T1 × (1 − h)`, so measurement
    /// noise straddling a threshold does not flip the decision each
    /// interval.
    pub fn decide_with_hysteresis(&self, m: &LpmMeasurement, hysteresis: f64) -> LpmAction {
        let delta = self.delta_frac * m.t1;
        let t1_hi = m.t1 * (1.0 + hysteresis);
        let t2_hi = m.t2 * (1.0 + hysteresis);
        let t1_lo = m.t1 * (1.0 - hysteresis);
        if m.lpmr1 > t1_hi {
            if m.lpmr2 > t2_hi {
                LpmAction::OptimizeBoth
            } else {
                LpmAction::OptimizeL1
            }
        } else if m.lpmr1 + delta < t1_lo {
            LpmAction::ReduceOverprovision
        } else {
            LpmAction::Done
        }
    }
}

/// A system the LPM loop can steer.
pub trait Tunable {
    /// Measure the current configuration (runs a measurement interval).
    /// Fails when the interval cannot be measured, e.g. a window too
    /// short to make any memory access.
    fn measure(&mut self) -> Result<LpmMeasurement, LpmError>;

    /// Increase L1-layer parallelism/capacity one notch. Returns `false`
    /// when the design space is exhausted in this direction.
    fn optimize_l1(&mut self) -> bool;

    /// Increase L2-layer parallelism/capacity one notch.
    fn optimize_l2(&mut self) -> bool;

    /// Shed one notch of over-provisioned hardware. Returns `false` when
    /// nothing can be reduced.
    fn reduce_overprovision(&mut self) -> bool;
}

/// One iteration's record in the optimization trace.
#[derive(Debug, Clone, Copy)]
pub struct LpmStep {
    /// The measurement that drove the decision.
    pub measurement: LpmMeasurement,
    /// The decision taken.
    pub action: LpmAction,
    /// Whether applying the action changed the target.
    pub applied: bool,
}

/// The result of running the loop to convergence.
#[derive(Debug, Clone)]
pub struct LpmOutcome {
    /// Every iteration, in order (the last one has action `Done` unless
    /// the space was exhausted or the iteration budget ran out).
    pub steps: Vec<LpmStep>,
    /// The final measurement.
    pub final_measurement: LpmMeasurement,
    /// Whether the loop reached Case IV.
    pub converged: bool,
}

/// Drive the Fig. 3 loop on `target` for at most `max_iters` iterations.
/// The first failed measurement ends the loop with its error.
///
/// On Case III the loop *tentatively* sheds hardware, re-measures, and
/// backtracks (via [`Tunable::optimize_l1`]) if the reduction overshot —
/// mirroring the paper's `Until (LPMR1 ≥ T1 − δ)` exit of the
/// over-provision loop.
pub fn run_lpm_loop(
    target: &mut impl Tunable,
    optimizer: &LpmOptimizer,
    max_iters: usize,
) -> Result<LpmOutcome, LpmError> {
    let mut steps = Vec::new();
    let mut m = target.measure()?;
    for _ in 0..max_iters {
        let action = optimizer.decide(&m);
        let applied = match action {
            LpmAction::OptimizeBoth => {
                let a = target.optimize_l1();
                let b = target.optimize_l2();
                a || b
            }
            LpmAction::OptimizeL1 => target.optimize_l1(),
            LpmAction::ReduceOverprovision => target.reduce_overprovision(),
            LpmAction::Done => false,
        };
        steps.push(LpmStep {
            measurement: m,
            action,
            applied,
        });
        if action == LpmAction::Done {
            return Ok(LpmOutcome {
                final_measurement: m,
                steps,
                converged: true,
            });
        }
        if !applied {
            // Design space exhausted in the needed direction.
            return Ok(LpmOutcome {
                final_measurement: m,
                steps,
                converged: false,
            });
        }
        let next = target.measure()?;
        // Over-provision reduction overshoot: if shedding hardware made
        // the boundary mismatch again, put the notch back and stop.
        if action == LpmAction::ReduceOverprovision && next.lpmr1 > next.t1 {
            target.optimize_l1();
            let restored = target.measure()?;
            steps.push(LpmStep {
                measurement: next,
                action: LpmAction::OptimizeL1,
                applied: true,
            });
            return Ok(LpmOutcome {
                final_measurement: restored,
                steps,
                converged: true,
            });
        }
        m = next;
    }
    Ok(LpmOutcome {
        final_measurement: m,
        steps,
        converged: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meas(lpmr1: f64, lpmr2: f64, t1: f64, t2: f64) -> LpmMeasurement {
        LpmMeasurement {
            lpmr1,
            lpmr2,
            lpmr3: 1.0,
            t1,
            t2,
            stall_per_instr: 0.0,
            cpi_exe: 0.5,
            delta: 0.1,
        }
    }

    #[test]
    fn four_cases_classified() {
        let opt = LpmOptimizer { delta_frac: 0.5 };
        // Case I: both exceed.
        assert_eq!(
            opt.decide(&meas(5.0, 5.0, 1.0, 1.0)),
            LpmAction::OptimizeBoth
        );
        // Case II: only L1 exceeds.
        assert_eq!(opt.decide(&meas(5.0, 0.5, 1.0, 1.0)), LpmAction::OptimizeL1);
        // Case III: far below T1 (LPMR1 + δ < T1, δ = 0.5).
        assert_eq!(
            opt.decide(&meas(0.3, 0.5, 1.0, 1.0)),
            LpmAction::ReduceOverprovision
        );
        // Case IV: in the band.
        assert_eq!(opt.decide(&meas(0.8, 0.5, 1.0, 1.0)), LpmAction::Done);
        assert_eq!(opt.decide(&meas(1.0, 0.5, 1.0, 1.0)), LpmAction::Done);
    }

    /// A synthetic tunable: each L1 notch halves LPMR1, each L2 notch
    /// halves LPMR2; shedding doubles LPMR1. Thresholds fixed.
    struct Synthetic {
        lpmr1: f64,
        lpmr2: f64,
        l1_notches: i32,
        max_notches: i32,
    }

    impl Tunable for Synthetic {
        fn measure(&mut self) -> Result<LpmMeasurement, LpmError> {
            Ok(meas(self.lpmr1, self.lpmr2, 1.0, 1.0))
        }
        fn optimize_l1(&mut self) -> bool {
            if self.l1_notches >= self.max_notches {
                return false;
            }
            self.l1_notches += 1;
            self.lpmr1 /= 2.0;
            true
        }
        fn optimize_l2(&mut self) -> bool {
            self.lpmr2 /= 2.0;
            true
        }
        fn reduce_overprovision(&mut self) -> bool {
            if self.l1_notches <= 0 {
                return false;
            }
            self.l1_notches -= 1;
            self.lpmr1 *= 2.0;
            true
        }
    }

    #[test]
    fn loop_converges_on_easy_target() {
        let mut t = Synthetic {
            lpmr1: 8.0,
            lpmr2: 8.0,
            l1_notches: 0,
            max_notches: 10,
        };
        let out = run_lpm_loop(&mut t, &LpmOptimizer::default(), 32).unwrap();
        assert!(out.converged);
        // Final LPMR1 within (T1 − δ, T1]: (0.5, 1.0].
        let f = out.final_measurement;
        assert!(f.lpmr1 <= 1.0 && f.lpmr1 > 0.5, "LPMR1 {}", f.lpmr1);
        // Case I fired first (both mismatched at start).
        assert_eq!(out.steps[0].action, LpmAction::OptimizeBoth);
    }

    #[test]
    fn loop_reports_exhaustion() {
        let mut t = Synthetic {
            lpmr1: 64.0,
            lpmr2: 0.5,
            l1_notches: 0,
            max_notches: 2, // can only reach LPMR1 = 16
        };
        let out = run_lpm_loop(&mut t, &LpmOptimizer::default(), 32).unwrap();
        assert!(!out.converged);
        assert!(out.final_measurement.lpmr1 > 1.0);
        assert!(out.steps.iter().all(|s| s.action != LpmAction::Done));
    }

    #[test]
    fn overprovision_is_shed_then_backtracked() {
        // Start over-provisioned: LPMR1 = 0.3 with two notches invested.
        // One shed → 0.6 (in band: 0.6 + 0.5 >= 1.0 → Done next round).
        let mut t = Synthetic {
            lpmr1: 0.3,
            lpmr2: 0.5,
            l1_notches: 2,
            max_notches: 10,
        };
        let out = run_lpm_loop(&mut t, &LpmOptimizer::default(), 32).unwrap();
        assert!(out.converged);
        assert_eq!(out.steps[0].action, LpmAction::ReduceOverprovision);
        let f = out.final_measurement;
        assert!(f.lpmr1 <= f.t1 && f.lpmr1 + 0.5 * f.t1 >= f.t1);
    }

    #[test]
    fn overshoot_backtracks() {
        // LPMR1 = 0.45: shedding doubles it to 0.9 ≤ T1 → fine, next
        // decision is Done. But from 0.49999... pick 0.4: shed → 0.8 → in
        // band → Done. Overshoot case: 0.3 → shed → 0.6 in band. To force
        // overshoot use a tunable whose shed quadruples LPMR1.
        struct Sharp {
            lpmr1: f64,
            notches: i32,
        }
        impl Tunable for Sharp {
            fn measure(&mut self) -> Result<LpmMeasurement, LpmError> {
                Ok(meas(self.lpmr1, 0.5, 1.0, 1.0))
            }
            fn optimize_l1(&mut self) -> bool {
                self.notches += 1;
                self.lpmr1 /= 4.0;
                true
            }
            fn optimize_l2(&mut self) -> bool {
                true
            }
            fn reduce_overprovision(&mut self) -> bool {
                if self.notches <= 0 {
                    return false;
                }
                self.notches -= 1;
                self.lpmr1 *= 4.0;
                true
            }
        }
        let mut t = Sharp {
            lpmr1: 0.4,
            notches: 1,
        };
        let out = run_lpm_loop(&mut t, &LpmOptimizer::default(), 32).unwrap();
        // Shed 0.4 → 1.6 (> T1): backtrack to 0.4, converged.
        assert!(out.converged);
        assert!((out.final_measurement.lpmr1 - 0.4).abs() < 1e-12);
    }

    #[test]
    fn already_matched_is_done_immediately() {
        let mut t = Synthetic {
            lpmr1: 0.9,
            lpmr2: 0.2,
            l1_notches: 0,
            max_notches: 10,
        };
        let out = run_lpm_loop(&mut t, &LpmOptimizer::default(), 32).unwrap();
        assert!(out.converged);
        assert_eq!(out.steps.len(), 1);
        assert_eq!(out.steps[0].action, LpmAction::Done);
    }
}
