//! Case Study II: scheduling on a CMP with heterogeneous private L1s
//! (NUCA), comparing Random and Round-Robin against the LPM-guided
//! NUCA-SA algorithm, fine- and coarse-grained.
//!
//! NUCA-SA is the paper's two-fold policy: **first** give every
//! application the smallest L1 that (nearly) maximizes its own `APC1`
//! (matching `LPMR1`), **then** among the remaining freedom prefer
//! placements that minimize shared-L2 traffic demand (easing `LPMR2`
//! contention). The mapping space is enormous (the paper counts
//! 63,063,000 assignments for 16 programs over 4 size classes); NUCA-SA
//! is a polynomial-time greedy guided by the LPM measurements.

use rand::seq::SliceRandom;

use lpm_sim::{Cmp, CoreSlot, SimError, SystemConfig};
use lpm_trace::{Generator, SpecWorkload, Trace};

use crate::hsp::harmonic_weighted_speedup;
use crate::profile::WorkloadProfile;

/// The per-core private L1 sizes of the CMP (Fig. 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NucaLayout {
    /// L1 size in bytes for each core.
    pub l1_sizes: Vec<u64>,
}

impl NucaLayout {
    /// The Fig. 5 16-core layout: four groups of four cores with 4, 16,
    /// 32 and 64 KiB private L1 data caches.
    pub fn fig5() -> Self {
        let mut l1_sizes = Vec::with_capacity(16);
        for &kib in &[4u64, 16, 32, 64] {
            for _ in 0..4 {
                l1_sizes.push(kib << 10);
            }
        }
        NucaLayout { l1_sizes }
    }

    /// A smaller layout for tests: `groups` size classes × `per_group`.
    pub fn small(sizes_kib: &[u64], per_group: usize) -> Self {
        let mut l1_sizes = Vec::new();
        for &kib in sizes_kib {
            for _ in 0..per_group {
                l1_sizes.push(kib << 10);
            }
        }
        NucaLayout { l1_sizes }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.l1_sizes.len()
    }
}

/// A scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerKind {
    /// Uniformly random assignment (a widely used baseline).
    Random {
        /// Shuffle seed.
        seed: u64,
    },
    /// Workload `i` onto core `i` (the other common baseline).
    RoundRobin,
    /// LPM-guided NUCA-SA with the given APC1 slack (0.01 = fine-grained,
    /// 0.10 = coarse-grained).
    NucaSa {
        /// Fractional APC1 loss tolerated when shrinking a workload's L1.
        slack: f64,
    },
}

impl SchedulerKind {
    /// Display name for reports.
    pub fn name(&self) -> String {
        match self {
            SchedulerKind::Random { .. } => "Random".into(),
            SchedulerKind::RoundRobin => "Round Robin".into(),
            SchedulerKind::NucaSa { slack } => {
                if *slack <= 0.05 {
                    "NUCA-SA (fg)".into()
                } else {
                    "NUCA-SA (cg)".into()
                }
            }
        }
    }
}

/// A computed assignment: `mapping[core] = workload index`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// Workload index per core.
    pub mapping: Vec<usize>,
}

/// The scheduler: assigns one workload per core given profiles.
#[derive(Debug)]
pub struct Scheduler {
    /// The policy.
    pub kind: SchedulerKind,
}

impl Scheduler {
    /// Create a scheduler with the given policy.
    pub fn new(kind: SchedulerKind) -> Self {
        Scheduler { kind }
    }

    /// Compute an assignment of `profiles.len()` workloads onto
    /// `layout.cores()` cores (the counts must match).
    pub fn assign(&self, layout: &NucaLayout, profiles: &[WorkloadProfile]) -> Assignment {
        assert_eq!(
            layout.cores(),
            profiles.len(),
            "one workload per core in this study"
        );
        match self.kind {
            SchedulerKind::Random { seed } => {
                let mut mapping: Vec<usize> = (0..profiles.len()).collect();
                // Salt 0: this stream predates the salted helper and
                // its golden assignments must not move.
                mapping.shuffle(&mut crate::salted_rng(seed, 0));
                Assignment { mapping }
            }
            SchedulerKind::RoundRobin => Assignment {
                mapping: (0..profiles.len()).collect(),
            },
            SchedulerKind::NucaSa { slack } => nuca_sa(layout, profiles, slack),
        }
    }
}

/// The LPM-guided greedy of case study II.
///
/// 1. Compute every workload's *size need*: the smallest L1 whose APC1 is
///    within `slack` of its best (its LPMR1-matching requirement) — the
///    first fold, matching `LPMR1`.
/// 2. Process workloads in descending need, breaking ties by descending
///    L2 traffic demand — the second fold: among programs whose own APC1
///    no longer discriminates, the ones that pressure the shared L2
///    hardest get the bigger private caches, shrinking total `APC2`
///    requirement and hence contention.
/// 3. Give each workload the largest remaining core. Because the order is
///    need-first, low-need programs naturally end up on the small cores
///    (the cost-efficiency spirit of Case III: no capacity is wasted on
///    programs that cannot use it).
fn nuca_sa(layout: &NucaLayout, profiles: &[WorkloadProfile], slack: f64) -> Assignment {
    let n = profiles.len();
    let mut order: Vec<usize> = (0..n).collect();
    let need: Vec<u64> = profiles.iter().map(|p| p.size_need(slack)).collect();
    order.sort_by(|&a, &b| {
        need[b]
            .cmp(&need[a])
            .then_with(|| {
                let da = profiles[a].l2_demand[0];
                let db = profiles[b].l2_demand[0];
                db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal)
            })
            .then(a.cmp(&b))
    });
    // Free cores, sorted descending by size: the neediest program takes
    // the largest cache.
    let mut free: Vec<usize> = (0..layout.cores()).collect();
    free.sort_by_key(|&c| std::cmp::Reverse(layout.l1_sizes[c]));
    let mut mapping = vec![usize::MAX; layout.cores()];
    for (w, core) in order.into_iter().zip(free) {
        mapping[core] = w;
    }
    debug_assert!(mapping.iter().all(|&w| w != usize::MAX));
    let mut assignment = Assignment { mapping };
    // The fine-grained variant spends extra optimization effort (its Δ=1%
    // target is harder): a profile-guided local-search pass that keeps
    // swapping pairs while the predicted standalone IPC total improves —
    // the "continue the optimization" step of the Fig. 3 loop applied to
    // scheduling. The coarse-grained variant stops at the greedy, having
    // already met its looser target.
    if slack <= 0.05 {
        refine_by_swaps(layout, profiles, &mut assignment);
    }
    assignment
}

/// Hill-climb on pairwise swaps, maximizing the profile-predicted sum of
/// per-core IPCs at the assigned L1 sizes. Polynomial: O(n²) per round,
/// at most `n²` rounds (each strictly improves a bounded objective).
fn refine_by_swaps(layout: &NucaLayout, profiles: &[WorkloadProfile], assignment: &mut Assignment) {
    let ipc_at = |w: usize, core: usize| -> f64 {
        let p = &profiles[w];
        p.ipc[p.size_index(layout.l1_sizes[core])]
    };
    let n = layout.cores();
    let max_rounds = n * n;
    for _ in 0..max_rounds {
        let mut improved = false;
        for i in 0..n {
            for j in i + 1..n {
                if layout.l1_sizes[i] == layout.l1_sizes[j] {
                    continue;
                }
                let (wi, wj) = (assignment.mapping[i], assignment.mapping[j]);
                let current = ipc_at(wi, i) + ipc_at(wj, j);
                let swapped = ipc_at(wi, j) + ipc_at(wj, i);
                if swapped > current + 1e-9 {
                    assignment.mapping.swap(i, j);
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
}

/// Result of evaluating one schedule on the CMP.
#[derive(Debug, Clone)]
pub struct ScheduleEvaluation {
    /// The policy's display name.
    pub scheduler: String,
    /// The assignment evaluated.
    pub assignment: Assignment,
    /// Per-core shared-mode IPC.
    pub ipc_shared: Vec<f64>,
    /// Per-core *entitled* alone IPC: the workload's best standalone IPC
    /// across the profiled sizes.
    pub ipc_alone: Vec<f64>,
    /// Per-core alone IPC at the assigned core's L1 size (the paper's
    /// Hsp convention: speedups are relative to running alone on the same
    /// core, so this Hsp isolates shared-resource contention).
    pub ipc_alone_assigned: Vec<f64>,
    /// Entitlement Hsp: penalizes both contention and undersized
    /// placement (alone = best size).
    pub hsp_entitled: f64,
    /// Contention Hsp, the paper's convention (alone = assigned size).
    pub hsp: f64,
}

/// Run an assignment on the heterogeneous CMP and measure Hsp.
///
/// `traces[w]` is the trace of `profiles[w]`'s workload; the traces are
/// shared, so every schedule evaluated over one trace set runs the same
/// programs without copying them. Each core executes `instructions`
/// instructions of its workload (see [`check_window`]). `IPC_alone` is the
/// workload's best standalone IPC across the profiled L1 sizes — its
/// entitlement when given adequate resources — so Hsp penalizes both
/// shared-resource contention *and* undersized placement (assigning a
/// cache-hungry program to a small L1 shows up as lost speedup, exactly
/// what the scheduling study compares).
pub fn evaluate_schedule(
    kind: SchedulerKind,
    layout: &NucaLayout,
    profiles: &[WorkloadProfile],
    traces: &[Trace],
    base: &SystemConfig,
    instructions: usize,
    seed: u64,
) -> Result<ScheduleEvaluation, SimError> {
    check_window(instructions)?;
    if traces.len() != profiles.len() {
        return Err(SimError::InvalidConfig(format!(
            "one trace per profiled workload ({} profiles, {} traces)",
            profiles.len(),
            traces.len()
        )));
    }
    let assignment = Scheduler::new(kind).assign(layout, profiles);
    let mut slots = Vec::with_capacity(layout.cores());
    let mut core_traces = Vec::with_capacity(layout.cores());
    for core in 0..layout.cores() {
        let w = assignment.mapping[core];
        let mut l1 = base.l1.clone();
        l1.size_bytes = layout.l1_sizes[core];
        while l1.size_bytes < l1.line_bytes * l1.assoc as u64 {
            l1.assoc /= 2;
        }
        slots.push(CoreSlot {
            core: base.core,
            l1,
        });
        core_traces.push(traces[w].clone());
    }
    let cmp = run_shared(slots, base, core_traces, instructions as u64, seed)?;

    let mut ipc_shared = Vec::with_capacity(layout.cores());
    let mut ipc_alone = Vec::with_capacity(layout.cores());
    let mut ipc_alone_assigned = Vec::with_capacity(layout.cores());
    for core in 0..layout.cores() {
        let w = assignment.mapping[core];
        ipc_shared.push(cmp.core_stats(core).ipc());
        let p = &profiles[w];
        ipc_alone.push(p.ipc.iter().cloned().fold(0.0, f64::max));
        ipc_alone_assigned.push(p.ipc[p.size_index(layout.l1_sizes[core])]);
    }
    let hsp_entitled = harmonic_weighted_speedup(&ipc_alone, &ipc_shared);
    let hsp = harmonic_weighted_speedup(&ipc_alone_assigned, &ipc_shared);
    Ok(ScheduleEvaluation {
        scheduler: kind.name(),
        assignment,
        ipc_shared,
        ipc_alone,
        ipc_alone_assigned,
        hsp_entitled,
        hsp,
    })
}

/// Every profiled workload's trace of `instructions` instructions under
/// `seed`, in profile order: the trace set [`evaluate_schedule`] takes.
pub fn profile_traces(profiles: &[WorkloadProfile], instructions: usize, seed: u64) -> Vec<Trace> {
    profiles
        .iter()
        .map(|p| p.workload.generator().generate(instructions, seed))
        .collect()
}

/// Check a Fig. 8 window: the CMP warms every core up through half of
/// `instructions` and then measures the other half, so a window below 2
/// measures nothing and leaves no shared IPC to compare.
pub fn check_window(instructions: usize) -> Result<(), SimError> {
    if instructions < 2 {
        return Err(SimError::InvalidConfig(format!(
            "a Fig. 8 window needs at least 2 instructions per core (warm-up half and \
             measured half), got {instructions}"
        )));
    }
    Ok(())
}

/// Rate mode: traces loop so fast programs never run dry while slow
/// co-runners warm up or get measured. Warm every core through half a
/// lap of `instructions` (matching the steady-state alone-IPC profiles),
/// then measure a fixed amount of work per core under contention.
fn run_shared(
    slots: Vec<CoreSlot>,
    base: &SystemConfig,
    traces: Vec<Trace>,
    instructions: u64,
    seed: u64,
) -> Result<Cmp, SimError> {
    let shared = vec![base.l2.clone()];
    let mut cmp =
        Cmp::try_new_with_hierarchy(slots, shared, base.dram.clone(), traces, 10_000, seed)?;
    let half = instructions / 2;
    cmp.try_warm_up_all(half)?;
    let budget = cmp.now() + instructions * 3000 + 4_000_000;
    if !cmp.try_run_until_all_retired(half, budget)? {
        return Err(SimError::Unconverged(format!(
            "CMP measurement window did not complete within {budget} cycles"
        )));
    }
    Ok(cmp)
}

/// Helper: evaluate the four Fig. 8 policies on a common profile set.
pub fn fig8_policies(random_seed: u64) -> [SchedulerKind; 4] {
    [
        SchedulerKind::Random { seed: random_seed },
        SchedulerKind::RoundRobin,
        SchedulerKind::NucaSa { slack: 0.10 },
        SchedulerKind::NucaSa { slack: 0.01 },
    ]
}

/// The sixteen SPEC-like workloads in suite order (one per core).
pub fn fig8_workloads() -> Vec<SpecWorkload> {
    SpecWorkload::ALL.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_suite;

    fn tiny_profiles(workloads: &[SpecWorkload], sizes_kib: &[u64]) -> Vec<WorkloadProfile> {
        let sizes: Vec<u64> = sizes_kib.iter().map(|k| k << 10).collect();
        profile_suite(workloads, &sizes, &SystemConfig::default(), 8_000, 3).unwrap()
    }

    #[test]
    fn round_robin_is_identity() {
        let layout = NucaLayout::small(&[4, 64], 1);
        let profiles = tiny_profiles(&[SpecWorkload::Bzip2Like, SpecWorkload::GccLike], &[4, 64]);
        let a = Scheduler::new(SchedulerKind::RoundRobin).assign(&layout, &profiles);
        assert_eq!(a.mapping, vec![0, 1]);
    }

    #[test]
    fn random_is_a_seeded_permutation() {
        let layout = NucaLayout::small(&[4, 16, 32, 64], 1);
        let ws = [
            SpecWorkload::Bzip2Like,
            SpecWorkload::GccLike,
            SpecWorkload::MilcLike,
            SpecWorkload::GamessLike,
        ];
        let profiles = tiny_profiles(&ws, &[4, 16, 32, 64]);
        let a = Scheduler::new(SchedulerKind::Random { seed: 1 }).assign(&layout, &profiles);
        let b = Scheduler::new(SchedulerKind::Random { seed: 1 }).assign(&layout, &profiles);
        assert_eq!(a, b);
        let mut sorted = a.mapping.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn nuca_sa_gives_big_cache_to_the_needy() {
        // bzip2 fits 4 KiB; gcc needs the big cache. NUCA-SA must give
        // the 64 KiB core to gcc.
        let layout = NucaLayout::small(&[4, 64], 1);
        let profiles = tiny_profiles(&[SpecWorkload::Bzip2Like, SpecWorkload::GccLike], &[4, 64]);
        let a = Scheduler::new(SchedulerKind::NucaSa { slack: 0.05 }).assign(&layout, &profiles);
        // Core 0 is 4 KiB, core 1 is 64 KiB.
        assert_eq!(a.mapping[1], 1, "gcc-like must get the 64 KiB core");
        assert_eq!(a.mapping[0], 0);
    }

    #[test]
    fn nuca_sa_beats_pessimal_placement_in_hsp() {
        // Two cores (4 KiB / 64 KiB), bzip2 + gcc. Round-robin with the
        // suite reversed puts gcc on 4 KiB — the pessimal choice. NUCA-SA
        // recovers the good placement and a higher Hsp.
        let layout = NucaLayout::small(&[4, 64], 1);
        let ws = [SpecWorkload::GccLike, SpecWorkload::Bzip2Like];
        let profiles = tiny_profiles(&ws, &[4, 64]);
        let base = SystemConfig::default();
        let traces = profile_traces(&profiles, 8_000, 3);
        let rr = evaluate_schedule(
            SchedulerKind::RoundRobin,
            &layout,
            &profiles,
            &traces,
            &base,
            8_000,
            3,
        )
        .unwrap();
        let sa = evaluate_schedule(
            SchedulerKind::NucaSa { slack: 0.01 },
            &layout,
            &profiles,
            &traces,
            &base,
            8_000,
            3,
        )
        .unwrap();
        assert!(
            sa.hsp_entitled > rr.hsp_entitled,
            "NUCA-SA entitled Hsp {} must beat pessimal RR {}",
            sa.hsp_entitled,
            rr.hsp_entitled
        );
        // And both Hsp conventions are sane fractions.
        assert!(sa.hsp <= 1.2 && sa.hsp > 0.2, "Hsp {}", sa.hsp);
        assert!(
            sa.hsp_entitled <= 1.2 && sa.hsp_entitled > 0.2,
            "entitled Hsp {}",
            sa.hsp_entitled
        );
    }

    #[test]
    fn evaluation_is_deterministic() {
        let layout = NucaLayout::small(&[4, 64], 1);
        let ws = [SpecWorkload::Bzip2Like, SpecWorkload::GccLike];
        let profiles = tiny_profiles(&ws, &[4, 64]);
        let base = SystemConfig::default();
        let traces = profile_traces(&profiles, 6_000, 3);
        let a = evaluate_schedule(
            SchedulerKind::RoundRobin,
            &layout,
            &profiles,
            &traces,
            &base,
            6_000,
            3,
        )
        .unwrap();
        let b = evaluate_schedule(
            SchedulerKind::RoundRobin,
            &layout,
            &profiles,
            &traces,
            &base,
            6_000,
            3,
        )
        .unwrap();
        assert_eq!(a.hsp, b.hsp);
        assert_eq!(a.hsp_entitled, b.hsp_entitled);
    }

    #[test]
    fn empty_windows_and_missing_traces_are_typed_errors() {
        let layout = NucaLayout::small(&[4, 64], 1);
        let ws = [SpecWorkload::Bzip2Like, SpecWorkload::GccLike];
        let profiles = tiny_profiles(&ws, &[4, 64]);
        let base = SystemConfig::default();
        let eval = |traces: &[Trace], n| {
            evaluate_schedule(
                SchedulerKind::RoundRobin,
                &layout,
                &profiles,
                traces,
                &base,
                n,
                3,
            )
        };
        for n in [0, 1] {
            let e = eval(&profile_traces(&profiles, 2, 3), n).unwrap_err();
            assert!(e.to_string().contains("at least 2 instructions"), "{e}");
        }
        eval(&profile_traces(&profiles, 2, 3), 2).unwrap();
        let e = eval(&profile_traces(&profiles[..1], 2, 3), 2).unwrap_err();
        assert!(
            e.to_string().contains("one trace per profiled workload"),
            "{e}"
        );
    }

    #[test]
    fn fig8_policies_cover_the_four_bars() {
        let names: Vec<String> = fig8_policies(1).iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec!["Random", "Round Robin", "NUCA-SA (cg)", "NUCA-SA (fg)"]
        );
        assert_eq!(fig8_workloads().len(), 16);
    }
}
