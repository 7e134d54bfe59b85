//! Per-workload profiling across L1 sizes — the measurement pass behind
//! Fig. 6 (APC1) and Fig. 7 (APC2), and the input to NUCA-SA scheduling.

use lpm_sim::{System, SystemConfig};
use lpm_trace::{Generator, SpecWorkload};

use crate::error::LpmError;

/// A workload's measured behaviour across candidate private-L1 sizes.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    /// The workload.
    pub workload: SpecWorkload,
    /// Candidate L1 sizes, bytes (ascending).
    pub l1_sizes: Vec<u64>,
    /// `APC1` at each size (accesses per L1-active cycle) — Fig. 6.
    pub apc1: Vec<f64>,
    /// `APC2` at each size (accesses per L2-active cycle) — Fig. 7.
    pub apc2: Vec<f64>,
    /// L2 traffic demand at each size (L2 accesses per retired
    /// instruction — an MPKI-style measure of the program's bandwidth
    /// *requirement*, independent of how fast it happens to run) — the
    /// interference proxy NUCA-SA minimizes.
    pub l2_demand: Vec<f64>,
    /// IPC running alone at each size (the `IPC_alone` of Hsp).
    pub ipc: Vec<f64>,
    /// Measured LPMR1 at each size.
    pub lpmr1: Vec<f64>,
}

impl WorkloadProfile {
    /// Index of `size` in the profile, panicking if absent.
    pub fn size_index(&self, size: u64) -> usize {
        self.l1_sizes
            .iter()
            .position(|&s| s == size)
            // lpm-lint: allow(P001) documented panicking lookup, contract stated in the doc comment
            .unwrap_or_else(|| panic!("size {size} not profiled for {}", self.workload))
    }

    /// The best (maximum) APC1 across sizes.
    pub fn best_apc1(&self) -> f64 {
        self.apc1.iter().cloned().fold(0.0, f64::max)
    }

    /// The smallest size whose APC1 is within `slack` (fractional) of the
    /// best — the workload's "cache size need" under a Δ budget.
    pub fn size_need(&self, slack: f64) -> u64 {
        let target = self.best_apc1() * (1.0 - slack);
        for (i, &s) in self.l1_sizes.iter().enumerate() {
            if self.apc1[i] >= target {
                return s;
            }
        }
        // lpm-lint: allow(P001) profiles are built from at least one L1 size
        *self.l1_sizes.last().expect("non-empty profile")
    }
}

/// Profile one workload across `l1_sizes` (bytes): run it alone on the
/// base system with each private L1 size and record the Fig. 6/7 metrics.
pub fn profile_workload(
    workload: SpecWorkload,
    l1_sizes: &[u64],
    base: &SystemConfig,
    instructions: usize,
    seed: u64,
) -> Result<WorkloadProfile, LpmError> {
    let trace = workload.generator().generate(instructions, seed);
    let mut p = WorkloadProfile {
        workload,
        l1_sizes: l1_sizes.to_vec(),
        apc1: Vec::new(),
        apc2: Vec::new(),
        l2_demand: Vec::new(),
        ipc: Vec::new(),
        lpmr1: Vec::new(),
    };
    for &size in l1_sizes {
        let mut cfg = base.clone();
        cfg.l1.size_bytes = size;
        // Keep associativity feasible for tiny caches.
        while cfg.l1.size_bytes < cfg.l1.line_bytes * cfg.l1.assoc as u64 {
            cfg.l1.assoc /= 2;
        }
        // Steady state, matching the shared-mode methodology of the
        // scheduling study so alone/shared IPCs are comparable.
        let r = System::steady_report(cfg, trace.clone(), seed)?;
        let (apc1, apc2, _) = r.apcs();
        p.apc1.push(apc1);
        p.apc2.push(apc2);
        p.l2_demand
            .push(r.l2.accesses as f64 / r.core.retired.max(1) as f64);
        p.ipc.push(r.core.ipc());
        p.lpmr1.push(r.lpmrs()?.l1.value());
    }
    Ok(p)
}

/// Profile a whole suite (Fig. 6/7 regeneration).
pub fn profile_suite(
    workloads: &[SpecWorkload],
    l1_sizes: &[u64],
    base: &SystemConfig,
    instructions: usize,
    seed: u64,
) -> Result<Vec<WorkloadProfile>, LpmError> {
    workloads
        .iter()
        .map(|&w| profile_workload(w, l1_sizes, base, instructions, seed))
        .collect()
}

/// The four L1 sizes of the Fig. 5 heterogeneous CMP, in bytes.
pub const FIG5_L1_SIZES: [u64; 4] = [4 << 10, 16 << 10, 32 << 10, 64 << 10];

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_profile(w: SpecWorkload) -> WorkloadProfile {
        profile_workload(w, &FIG5_L1_SIZES, &SystemConfig::default(), 12_000, 5).unwrap()
    }

    #[test]
    fn bzip2_like_is_size_insensitive() {
        // "4 KB is large enough for 401.bzip2."
        let p = quick_profile(SpecWorkload::Bzip2Like);
        let ratio = p.apc1[0] / p.best_apc1();
        assert!(ratio > 0.9, "APC1@4K/best = {ratio}: {:?}", p.apc1);
        assert_eq!(p.size_need(0.10), 4 << 10);
    }

    #[test]
    fn gcc_like_wants_the_largest_cache() {
        // "64 KB is needed for 403.gcc."
        let p = quick_profile(SpecWorkload::GccLike);
        assert!(
            p.apc1[3] > p.apc1[0] * 1.15,
            "APC1 should keep improving: {:?}",
            p.apc1
        );
        assert!(p.size_need(0.01) >= 32 << 10, "need {:?}", p.apc1);
        // And its L2 demand decreases at each step (Fig. 7 observation).
        assert!(
            p.l2_demand[3] < p.l2_demand[0] * 0.8,
            "L2 demand: {:?}",
            p.l2_demand
        );
    }

    #[test]
    fn milc_like_is_insensitive_but_demanding() {
        // "For 433.milc, increasing L1 gets little improvement and has
        // little influence on L2 bandwidth requirement."
        let p = quick_profile(SpecWorkload::MilcLike);
        let spread = p.best_apc1() / p.apc1.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 1.15, "milc APC1 spread {spread}: {:?}", p.apc1);
        let demand_spread = p.l2_demand.iter().cloned().fold(0.0, f64::max)
            / p.l2_demand.iter().cloned().fold(f64::MAX, f64::min);
        assert!(demand_spread < 1.3, "demand: {:?}", p.l2_demand);
    }

    #[test]
    fn gamess_like_l2_demand_shrinks_noticeably() {
        // "For 416.gamess, increasing L1 reduces its L2 bandwidth
        // requirement noticeably."
        let p = quick_profile(SpecWorkload::GamessLike);
        assert!(
            p.l2_demand[3] < p.l2_demand[0] * 0.6,
            "demand: {:?}",
            p.l2_demand
        );
    }

    #[test]
    fn size_need_is_monotone_in_slack() {
        let p = quick_profile(SpecWorkload::GccLike);
        assert!(p.size_need(0.01) >= p.size_need(0.10));
        assert!(p.size_need(0.10) >= p.size_need(0.50));
    }

    #[test]
    fn size_index_lookup() {
        let p = quick_profile(SpecWorkload::Bzip2Like);
        assert_eq!(p.size_index(16 << 10), 1);
    }
}
