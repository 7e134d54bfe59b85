//! Per-layer probes of the simulator stack, shared by every workload's
//! traced run: trace generation (lpm-trace), one single-core system per
//! probe point (lpm-sim over lpm-cpu, lpm-cache and lpm-dram), cycle
//! attribution (`Profiled<NullRecorder>`) and the analytic model
//! (lpm-model). Host time is taken around each public call; the counts
//! are the simulator's own deterministic counters.

use std::hint::black_box;
use std::time::Instant;

use lpm_harness::SweepSpec;
use lpm_sim::{System, SystemConfig};
use lpm_telemetry::{CycleAttribution, NullRecorder, Profiled};
use lpm_trace::{Generator, SpecWorkload};

use crate::report::Outcome;
use crate::stats::Samples;

/// One probe point: a workload trace run on one configuration.
pub struct ProbePoint {
    pub workload: SpecWorkload,
    pub cfg: SystemConfig,
    pub instructions: usize,
    pub trace_seed: u64,
    pub sim_seed: u64,
    pub loop_repeats: u32,
    pub warmup_instructions: u64,
    pub cycles: u64,
}

impl ProbePoint {
    /// A probe with the point shape of `spec`: the same window, warm-up,
    /// loop repeats and simulated run length.
    pub fn shaped(
        spec: &SweepSpec,
        workload: SpecWorkload,
        cfg: SystemConfig,
        trace_seed: u64,
        sim_seed: u64,
    ) -> ProbePoint {
        ProbePoint {
            workload,
            cfg,
            instructions: spec.instructions,
            trace_seed,
            sim_seed,
            loop_repeats: spec.loop_repeats,
            warmup_instructions: spec.warmup_instructions,
            cycles: spec.intervals as u64 * spec.interval_cycles,
        }
    }
}

/// Evaluations of the model per probe point; enough for the loop to take
/// well over a millisecond, so the clock's resolution does not matter.
const MODEL_EVALS: u32 = 20_000;

/// Sum of `after - before` over the fields a probe reports.
#[derive(Default)]
struct Totals {
    ns: f64,
    cycles: u64,
    retired: u64,
    skipped_cycles: u64,
    skip_spans: u64,
    l1_accesses: u64,
    l1_misses: u64,
    l1_mshr_rejects: u64,
    l2_accesses: u64,
    l2_misses: u64,
    dram_reads: u64,
    dram_accesses: u64,
    dram_row_hits: u64,
    dram_row_total: u64,
    dram_busy: u64,
    mem_rejects: u64,
    trace_ns: f64,
    instructions: u64,
    model_ns: f64,
    model_evals: u64,
}

/// Run every probe point and record the `trace.*`, `sim.*`, `l1.*`,
/// `l2.*`, `dram.*`, `cpu.*`, `model.*` metrics, and — unless the
/// workload supplies its own — `attr.*`.
pub fn run(points: &[ProbePoint], with_attr: bool, out: &mut Outcome) -> Result<(), String> {
    let mut t = Totals::default();
    let mut setup_ms = Samples::default();
    let mut attr = CycleAttribution::default();
    for p in points {
        let gen = Instant::now();
        let trace = p
            .workload
            .generator()
            .generate(p.instructions, p.trace_seed);
        t.trace_ns += gen.elapsed().as_secs_f64() * 1e9;
        t.instructions += p.instructions as u64;

        let build = Instant::now();
        let mut sys = System::try_new_looping(p.cfg.clone(), trace, p.loop_repeats, p.sim_seed)
            .map_err(|e| format!("probe {}: {e}", p.workload.name()))?;
        setup_ms.push_duration_ms(build.elapsed());
        sys.cmp_mut()
            .try_warm_up(p.warmup_instructions)
            .map_err(|e| format!("probe {}: {e}", p.workload.name()))?;

        let cmp = sys.cmp();
        let (spans0, skipped0) = cmp.skipped();
        let (now0, retired0) = (cmp.now(), cmp.core_stats(0).retired);
        let (l1_0, l2_0, dram0) = (*cmp.l1_stats(0), *cmp.l2_stats(), *cmp.dram_stats());
        let rejects0 = cmp.core_stats(0).mem_rejects;

        let mut rec = Profiled::new(NullRecorder);
        let run = Instant::now();
        sys.try_run_for_with(p.cycles, &mut rec)
            .map_err(|e| format!("probe {}: {e}", p.workload.name()))?;
        t.ns += run.elapsed().as_secs_f64() * 1e9;
        attr.merge(rec.attribution());

        let cmp = sys.cmp();
        let (spans1, skipped1) = cmp.skipped();
        let (l1, l2, dram) = (cmp.l1_stats(0), cmp.l2_stats(), cmp.dram_stats());
        t.cycles += cmp.now() - now0;
        t.retired += cmp.core_stats(0).retired - retired0;
        t.skip_spans += spans1 - spans0;
        t.skipped_cycles += skipped1 - skipped0;
        t.l1_accesses += l1.accesses - l1_0.accesses;
        t.l1_misses += l1.misses - l1_0.misses;
        t.l1_mshr_rejects += l1.mshr_rejects - l1_0.mshr_rejects;
        t.l2_accesses += l2.accesses - l2_0.accesses;
        t.l2_misses += l2.misses - l2_0.misses;
        t.dram_reads += dram.reads - dram0.reads;
        t.dram_accesses += (dram.reads + dram.writes) - (dram0.reads + dram0.writes);
        t.dram_row_hits += dram.row_hits - dram0.row_hits;
        t.dram_row_total += (dram.row_hits + dram.row_empty + dram.row_conflicts)
            - (dram0.row_hits + dram0.row_empty + dram0.row_conflicts);
        t.dram_busy += dram.busy_cycles - dram0.busy_cycles;
        t.mem_rejects += cmp.core_stats(0).mem_rejects - rejects0;

        let report = sys.report();
        let eval = Instant::now();
        for _ in 0..MODEL_EVALS {
            let r = black_box(&report);
            black_box(r.lpmrs().ok());
            black_box(r.predicted_stall_eq12().ok());
        }
        t.model_ns += eval.elapsed().as_secs_f64() * 1e9;
        t.model_evals += u64::from(MODEL_EVALS);
    }

    let ratio = |a: f64, b: u64| if b == 0 { 0.0 } else { a / b as f64 };
    let events = t.l1_accesses + t.l2_accesses + t.dram_accesses;
    out.set("trace.ns_per_instr", ratio(t.trace_ns, t.instructions));
    out.set("sim.ns_per_cycle", ratio(t.ns, t.cycles));
    out.set("sim.ns_per_instr", ratio(t.ns, t.retired));
    out.set("sim.ns_per_event", ratio(t.ns, events));
    out.set("sim.setup_ms", setup_ms.median());
    out.set("sim.skip_ratio", ratio(t.skipped_cycles as f64, t.cycles));
    out.set("sim.skip_spans", t.skip_spans as f64);
    out.set("sim.cycles", t.cycles as f64);
    out.set("sim.retired", t.retired as f64);
    out.set("l1.accesses", t.l1_accesses as f64);
    out.set("l1.miss_ratio", ratio(t.l1_misses as f64, t.l1_accesses));
    out.set("l1.mshr_rejects", t.l1_mshr_rejects as f64);
    out.set("l2.accesses", t.l2_accesses as f64);
    out.set("l2.miss_ratio", ratio(t.l2_misses as f64, t.l2_accesses));
    out.set("dram.reads", t.dram_reads as f64);
    out.set(
        "dram.row_hit_ratio",
        ratio(t.dram_row_hits as f64, t.dram_row_total),
    );
    out.set("dram.busy_cycles", t.dram_busy as f64);
    out.set("cpu.mem_rejects", t.mem_rejects as f64);
    out.set("model.ns_per_eval", ratio(t.model_ns, t.model_evals));
    if with_attr {
        set_attribution(&attr, out);
    }
    Ok(())
}

/// Record the `attr.*` metrics (simulated cycles) from an attribution.
pub fn set_attribution(a: &CycleAttribution, out: &mut Outcome) {
    out.set("attr.retire", a.retire_cycles as f64);
    out.set("attr.rob_full", a.stall_rob_full as f64);
    out.set("attr.l1_mshr_full", a.stall_l1_mshr_full as f64);
    out.set("attr.shared_mshr_full", a.stall_shared_mshr_full as f64);
    out.set("attr.dram_saturated", a.stall_dram_saturated as f64);
    out.set("attr.dram_busy", a.stall_dram_busy as f64);
}
