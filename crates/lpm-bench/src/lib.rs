//! Shared experiment harness: every table and figure of the paper has one
//! function here that regenerates it. [`repro`] renders the results for
//! `lpm-cli repro`; [`bench`] is the perf suite behind `lpm-cli bench`;
//! and EXPERIMENTS.md records the paper-vs-measured comparison.

pub mod bench;
pub mod repro;

use lpm_core::burst::{BurstStudy, DetectionResult};
use lpm_core::design_space::{measure_config, HwConfig, TableIRow};
use lpm_core::profile::{profile_workload, WorkloadProfile, FIG5_L1_SIZES};
use lpm_core::sched::{
    evaluate_schedule, fig8_policies, profile_traces, NucaLayout, ScheduleEvaluation,
};
use lpm_sim::SystemConfig;
use lpm_trace::{Generator, SpecWorkload};

/// Default instruction count per measurement window for full-size repro
/// runs (the paper samples 10 billion; our substrate reaches steady state
/// after one working-set lap, so tens of thousands suffice per window).
pub const FULL_INSTRUCTIONS: usize = 60_000;

/// Seed of the paper-figure drivers behind `lpm-cli repro`.
pub const SEED: u64 = 7;

/// The base configuration for the 16-core scheduling study: shared
/// resources scaled to 16-core proportions (an 8 MiB LLC and 4 DRAM
/// channels — a 2 MiB L2 and 2 channels, adequate for one core, would
/// drown the study in bandwidth contention the paper's testbed does not
/// have).
pub fn study_config() -> SystemConfig {
    let mut cfg = SystemConfig::default();
    cfg.l2.size_bytes = 8 << 20;
    cfg.l2.mshrs = 32;
    cfg.l2.banks = 8;
    cfg.l2.ports = 8;
    cfg.dram.channels = 4;
    cfg
}

/// `f` over `items`, one scoped thread per item; results come back in
/// input order and a thread's panic resumes on the caller.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    std::thread::scope(|s| {
        let handles: Vec<_> = items.iter().map(|t| s.spawn(|| f(t))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

/// Regenerate Table I: the five configurations A–E measured on the
/// bwaves-like workload.
pub fn table1_rows(instructions: usize, seed: u64) -> Vec<TableIRow> {
    let trace = SpecWorkload::BwavesLike
        .generator()
        .generate(instructions, 11);
    let base = SystemConfig::default();
    par_map(&HwConfig::TABLE_I, |&(label, hw)| {
        measure_config(label, hw, &base, &trace, seed)
            // lpm-lint: allow(P001) plain-value driver: the Table I configs on bwaves converging is a simulator invariant
            .unwrap_or_else(|e| panic!("Table I config {label}: {e}"))
    })
}

/// Regenerate the Fig. 6/7 profile data: all sixteen workloads across the
/// four Fig. 5 L1 sizes, in parallel.
pub fn fig67_profiles(instructions: usize, seed: u64) -> Vec<WorkloadProfile> {
    let base = study_config();
    par_map(&SpecWorkload::ALL, |&w| {
        profile_workload(w, &FIG5_L1_SIZES, &base, instructions, seed)
            // lpm-lint: allow(P001) plain-value driver: every suite workload converging on the study config is a simulator invariant
            .unwrap_or_else(|e| panic!("{w}: {e}"))
    })
}

/// Regenerate Fig. 8: the four scheduling policies on the 16-core Fig. 5
/// CMP, evaluated by harmonic weighted speedup. Requires the Fig. 6/7
/// profiles (pass the result of [`fig67_profiles`]). Each workload's
/// trace is generated once and shared by all four schedules.
pub fn fig8_results(
    profiles: &[WorkloadProfile],
    instructions: usize,
    seed: u64,
) -> Vec<ScheduleEvaluation> {
    let layout = NucaLayout::fig5();
    let base = study_config();
    let traces = profile_traces(profiles, instructions, seed);
    par_map(&fig8_policies(3), |&kind| {
        evaluate_schedule(kind, &layout, profiles, &traces, &base, instructions, seed)
            // lpm-lint: allow(P001) plain-value driver: the Fig. 8 CMP on valid configs and windows (`check_window`) converging is a simulator invariant
            .unwrap_or_else(|e| panic!("Fig. 8 {kind:?} CMP: {e}"))
    })
}

/// Regenerate the §IV measurement-interval study: detection rates at the
/// paper's three operating points.
pub fn interval_results(seed: u64) -> [DetectionResult; 3] {
    BurstStudy::default().paper_operating_points(seed)
}

/// Render a Table I row set as an aligned text table.
pub fn format_table1(rows: &[TableIRow]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<6} {:>5} {:>4} {:>4} {:>5} {:>5} {:>7} | {:>7} {:>7} {:>7} {:>9} {:>6}\n",
        "config",
        "width",
        "IW",
        "ROB",
        "ports",
        "MSHR",
        "L2inter",
        "LPMR1",
        "LPMR2",
        "LPMR3",
        "stall/exe",
        "IPC"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<6} {:>5} {:>4} {:>4} {:>5} {:>5} {:>7} | {:>7.2} {:>7.2} {:>7.2} {:>8.1}% {:>6.2}\n",
            r.label,
            r.hw.issue_width,
            r.hw.iw_size,
            r.hw.rob_size,
            r.hw.l1_ports,
            r.hw.mshrs,
            r.hw.l2_banks,
            r.lpmr1,
            r.lpmr2,
            r.lpmr3,
            r.stall_over_cpi_exe * 100.0,
            r.ipc,
        ));
    }
    s
}

/// Render a Fig. 6-style APC table (`metric` selects which profile vector
/// to print).
pub fn format_profile_table(
    profiles: &[WorkloadProfile],
    header: &str,
    metric: impl Fn(&WorkloadProfile) -> &[f64],
) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<22} {:>9} {:>9} {:>9} {:>9}\n",
        header, "4 KiB", "16 KiB", "32 KiB", "64 KiB"
    ));
    for p in profiles {
        let m = metric(p);
        s.push_str(&format!(
            "{:<22} {:>9.4} {:>9.4} {:>9.4} {:>9.4}\n",
            p.workload.name(),
            m[0],
            m[1],
            m[2],
            m[3]
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_harness_runs_at_small_scale() {
        let rows = table1_rows(6_000, 1);
        assert_eq!(rows.len(), 5);
        let text = format_table1(&rows);
        assert!(text.contains('A') && text.contains('E'));
    }

    #[test]
    fn interval_harness_is_ordered() {
        let [a, b, c] = interval_results(SEED);
        assert!(a.rate() >= b.rate() && b.rate() >= c.rate());
    }
}
