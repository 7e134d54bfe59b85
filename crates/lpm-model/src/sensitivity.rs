//! Sensitivity analysis over the five C-AMAT dimensions.
//!
//! The paper presents C-AMAT's parameters as "five dimensions for memory
//! system optimization" and argues the LPM model can "decide which
//! parameter should be optimized on demand". This module makes that
//! concrete: partial derivatives of C-AMAT (Eq. 2) with respect to each
//! parameter, and a ranking of which dimension buys the most stall
//! reduction per unit of relative improvement.

use crate::camat::CamatParams;

/// The five optimization dimensions of C-AMAT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dimension {
    /// Hit time `H` (reduce).
    HitTime,
    /// Hit concurrency `CH` (increase): ports, banking, pipelining.
    HitConcurrency,
    /// Pure miss rate `pMR` (reduce): capacity, associativity, bypass.
    PureMissRate,
    /// Pure miss penalty `pAMP` (reduce): faster lower layers.
    PureMissPenalty,
    /// Pure miss concurrency `CM` (increase): MSHRs, OoO depth.
    MissConcurrency,
}

impl Dimension {
    /// All five dimensions.
    pub const ALL: [Dimension; 5] = [
        Dimension::HitTime,
        Dimension::HitConcurrency,
        Dimension::PureMissRate,
        Dimension::PureMissPenalty,
        Dimension::MissConcurrency,
    ];
}

/// Partial derivatives of C-AMAT (Eq. 2) with respect to each parameter.
///
/// ```text
/// ∂C/∂H    =  1/CH
/// ∂C/∂CH   = −H/CH²
/// ∂C/∂pMR  =  pAMP/CM
/// ∂C/∂pAMP =  pMR/CM
/// ∂C/∂CM   = −pMR·pAMP/CM²
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CamatGradient {
    /// ∂C-AMAT/∂H.
    pub d_h: f64,
    /// ∂C-AMAT/∂CH.
    pub d_ch: f64,
    /// ∂C-AMAT/∂pMR.
    pub d_pmr: f64,
    /// ∂C-AMAT/∂pAMP.
    pub d_pamp: f64,
    /// ∂C-AMAT/∂CM.
    pub d_cm: f64,
}

impl CamatParams {
    /// The analytic gradient of Eq. (2) at this parameter point.
    pub fn gradient(&self) -> CamatGradient {
        let h = self.hit_time();
        let ch = self.hit_concurrency();
        let pmr = self.pure_miss_rate();
        let pamp = self.pure_miss_penalty();
        let cm = self.pure_miss_concurrency();
        CamatGradient {
            d_h: 1.0 / ch,
            d_ch: -h / (ch * ch),
            d_pmr: pamp / cm,
            d_pamp: pmr / cm,
            d_cm: -pmr * pamp / (cm * cm),
        }
    }

    /// C-AMAT improvement from a 1% *favourable relative change* of one
    /// dimension (H, pMR, pAMP reduced by 1%; CH, CM increased by 1%).
    ///
    /// Comparing dimensions by this elasticity answers "which knob next?"
    /// — the decision the LPM algorithm must make on every Case I/II
    /// iteration. Returns a positive number (cycles of C-AMAT saved).
    pub fn elasticity(&self, dim: Dimension) -> f64 {
        let g = self.gradient();
        let step = 0.01;
        match dim {
            Dimension::HitTime => g.d_h * self.hit_time() * step,
            Dimension::HitConcurrency => -g.d_ch * self.hit_concurrency() * step,
            Dimension::PureMissRate => g.d_pmr * self.pure_miss_rate() * step,
            Dimension::PureMissPenalty => g.d_pamp * self.pure_miss_penalty() * step,
            Dimension::MissConcurrency => -g.d_cm * self.pure_miss_concurrency() * step,
        }
    }

    /// The five dimensions ranked by elasticity, best first.
    pub fn rank_dimensions(&self) -> [(Dimension, f64); 5] {
        let mut ranked = Dimension::ALL.map(|d| (d, self.elasticity(d)));
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(h: f64, ch: f64, pmr: f64, pamp: f64, cm: f64) -> CamatParams {
        CamatParams::new(h, ch, pmr, pamp, cm).unwrap()
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let base = p(3.0, 2.0, 0.1, 20.0, 2.5);
        let g = base.gradient();
        let eps = 1e-6;
        let fd = |f: &dyn Fn(f64) -> CamatParams| (f(eps).camat() - f(-eps).camat()) / (2.0 * eps);
        let d_h = fd(&|e| p(3.0 + e, 2.0, 0.1, 20.0, 2.5));
        let d_ch = fd(&|e| p(3.0, 2.0 + e, 0.1, 20.0, 2.5));
        let d_pmr = fd(&|e| p(3.0, 2.0, 0.1 + e, 20.0, 2.5));
        let d_pamp = fd(&|e| p(3.0, 2.0, 0.1, 20.0 + e, 2.5));
        let d_cm = fd(&|e| p(3.0, 2.0, 0.1, 20.0, 2.5 + e));
        assert!((g.d_h - d_h).abs() < 1e-5);
        assert!((g.d_ch - d_ch).abs() < 1e-5);
        assert!((g.d_pmr - d_pmr).abs() < 1e-5);
        assert!((g.d_pamp - d_pamp).abs() < 1e-5);
        assert!((g.d_cm - d_cm).abs() < 1e-5);
    }

    #[test]
    fn elasticity_of_symmetric_terms_is_equal() {
        // For the miss term pMR·pAMP/CM, a 1% relative change of any of
        // the three factors moves C-AMAT by the same amount.
        let base = p(3.0, 2.0, 0.1, 20.0, 2.5);
        let e_pmr = base.elasticity(Dimension::PureMissRate);
        let e_pamp = base.elasticity(Dimension::PureMissPenalty);
        let e_cm = base.elasticity(Dimension::MissConcurrency);
        assert!((e_pmr - e_pamp).abs() < 1e-12);
        assert!((e_pmr - e_cm).abs() < 1e-12);
    }

    #[test]
    fn hit_dominated_point_ranks_hit_dimensions_first() {
        // Nearly no misses: H and CH dominate.
        let base = p(3.0, 1.5, 0.001, 10.0, 2.0);
        let ranked = base.rank_dimensions();
        let top2: Vec<Dimension> = ranked[..2].iter().map(|&(d, _)| d).collect();
        assert!(top2.contains(&Dimension::HitTime));
        assert!(top2.contains(&Dimension::HitConcurrency));
    }

    #[test]
    fn miss_dominated_point_ranks_miss_dimensions_first() {
        let base = p(1.0, 4.0, 0.5, 100.0, 1.2);
        let ranked = base.rank_dimensions();
        let top3: Vec<Dimension> = ranked[..3].iter().map(|&(d, _)| d).collect();
        assert!(top3.contains(&Dimension::PureMissRate));
        assert!(top3.contains(&Dimension::PureMissPenalty));
        assert!(top3.contains(&Dimension::MissConcurrency));
    }

    proptest! {
        /// A favourable 1% move along any dimension really lowers C-AMAT
        /// by approximately the reported elasticity.
        #[test]
        fn elasticity_predicts_actual_improvement(
            h in 0.5f64..10.0, ch in 0.5f64..8.0, pmr in 0.01f64..0.9,
            pamp in 1.0f64..200.0, cm in 0.5f64..8.0,
        ) {
            let base = p(h, ch, pmr, pamp, cm);
            // Apply the 1% favourable move on pAMP and compare.
            let moved = p(h, ch, pmr, pamp * 0.99, cm);
            let actual = base.camat() - moved.camat();
            let predicted = base.elasticity(Dimension::PureMissPenalty);
            prop_assert!((actual - predicted).abs() < 1e-9);
        }

        /// Elasticities are non-negative and finite everywhere in the
        /// valid domain.
        #[test]
        fn elasticities_well_behaved(
            h in 0.5f64..10.0, ch in 0.5f64..8.0, pmr in 0.0f64..1.0,
            pamp in 0.0f64..200.0, cm in 0.5f64..8.0,
        ) {
            let base = p(h, ch, pmr, pamp, cm);
            for d in Dimension::ALL {
                let e = base.elasticity(d);
                prop_assert!(e.is_finite() && e >= -1e-12, "{d:?}: {e}");
            }
        }
    }
}
