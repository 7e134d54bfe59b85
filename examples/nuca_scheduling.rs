//! Case Study II: LPM-guided scheduling on a CMP with heterogeneous
//! private L1 caches (the Fig. 5–8 experiment, scaled down to run in
//! seconds — the full 16-core version is `lpm-cli repro fig8`).
//!
//! Eight workloads are mapped onto eight cores whose private L1s come in
//! four sizes (4/16/32/64 KiB, two of each). Random and Round-Robin
//! placement are compared against NUCA-SA, the LPM-guided scheduler, by
//! harmonic weighted speedup.
//!
//! Run with:
//! ```text
//! cargo run --release -p lpm --example nuca_scheduling
//! ```

use lpm::core::profile::profile_suite;
use lpm::core::sched::{evaluate_schedule, profile_traces};
use lpm::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let layout = NucaLayout::small(&[4, 16, 32, 64], 2);
    let workloads = [
        SpecWorkload::GccLike,
        SpecWorkload::Bzip2Like,
        SpecWorkload::McfLike,
        SpecWorkload::GamessLike,
        SpecWorkload::MilcLike,
        SpecWorkload::HmmerLike,
        SpecWorkload::XalancbmkLike,
        SpecWorkload::SjengLike,
    ];
    let base = SystemConfig::default();
    let instructions = 24_000;
    let seed = 7;

    // Profile every workload alone at every L1 size class (Fig. 6/7 data).
    println!("profiling {} workloads × 4 L1 sizes ...", workloads.len());
    let sizes: Vec<u64> = layout
        .l1_sizes
        .iter()
        .copied()
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let profiles = profile_suite(&workloads, &sizes, &base, instructions, seed)?;
    println!(
        "\n{:<22} {:>8} {:>8} {:>8} {:>8}   need(fg)",
        "workload", "APC1@4K", "@16K", "@32K", "@64K"
    );
    for p in &profiles {
        println!(
            "{:<22} {:>8.3} {:>8.3} {:>8.3} {:>8.3}   {} KiB",
            p.workload.name(),
            p.apc1[0],
            p.apc1[1],
            p.apc1[2],
            p.apc1[3],
            p.size_need(0.01) >> 10,
        );
    }

    // Evaluate the four scheduling policies of Fig. 8 over one shared
    // trace set.
    let traces = profile_traces(&profiles, instructions, seed);
    println!("\n== harmonic weighted speedup (Fig. 8) ==");
    for kind in [
        SchedulerKind::Random { seed: 3 },
        SchedulerKind::RoundRobin,
        SchedulerKind::NucaSa { slack: 0.10 },
        SchedulerKind::NucaSa { slack: 0.01 },
    ] {
        let eval = evaluate_schedule(kind, &layout, &profiles, &traces, &base, instructions, seed)?;
        println!(
            "{:<14} Hsp = {:.4} (contention)   {:.4} (entitlement)",
            eval.scheduler, eval.hsp, eval.hsp_entitled
        );
    }
    println!(
        "\n(the LPM-guided NUCA-SA finds its placement in polynomial time; \
         the full mapping space of the 16-core study has 63,063,000 entries)"
    );
    Ok(())
}
