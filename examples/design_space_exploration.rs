//! Case Study I: LPM-guided design-space exploration on a reconfigurable
//! architecture (the Table I experiment).
//!
//! The six-knob space (pipeline width, IW, ROB, L1 ports, MSHRs, L2
//! interleaving) has about a million configurations; the LPM algorithm
//! reaches a matched one in a handful of measurements by following the
//! LPMR1/LPMR2 mismatch signals.
//!
//! Run with:
//! ```text
//! cargo run --release -p lpm --example design_space_exploration
//! ```

use lpm::core::design_space::{measure_config, DesignSpaceExplorer};
use lpm::core::optimizer::run_lpm_loop;
use lpm::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = SpecWorkload::BwavesLike.generator().generate(60_000, 11);
    let base = SystemConfig::default();

    // Part 1: measure the five Table I configurations directly.
    println!("== Table I: LPMRs under configurations with incremental parallelism ==");
    println!(
        "{:<4} {:>5} {:>4} {:>4} {:>5} {:>5} {:>6} | {:>6} {:>6} {:>6} {:>7} {:>6}",
        "cfg",
        "width",
        "IW",
        "ROB",
        "ports",
        "MSHR",
        "L2bank",
        "LPMR1",
        "LPMR2",
        "LPMR3",
        "stall/E",
        "IPC"
    );
    for (label, hw) in HwConfig::TABLE_I {
        let row = measure_config(label, hw, &base, &trace, 1)?;
        println!(
            "{:<4} {:>5} {:>4} {:>4} {:>5} {:>5} {:>6} | {:>6.2} {:>6.2} {:>6.2} {:>6.1}% {:>6.2}",
            row.label,
            hw.issue_width,
            hw.iw_size,
            hw.rob_size,
            hw.l1_ports,
            hw.mshrs,
            hw.l2_banks,
            row.lpmr1,
            row.lpmr2,
            row.lpmr3,
            row.stall_over_cpi_exe * 100.0,
            row.ipc,
        );
    }

    // Part 2: let the LPM algorithm walk the space itself, starting from
    // the starved configuration A.
    println!("\n== LPM-guided exploration from configuration A ==");
    let mut explorer = DesignSpaceExplorer::new(HwConfig::A, base, trace, Grain::Custom(0.30), 1);
    let outcome = run_lpm_loop(&mut explorer, &LpmOptimizer::default(), 16)?;
    for (i, step) in outcome.steps.iter().enumerate() {
        println!(
            "step {i}: LPMR1={:.2} (T1={:.2})  LPMR2={:.2} (T2={:.2})  → {:?}",
            step.measurement.lpmr1,
            step.measurement.t1,
            step.measurement.lpmr2,
            step.measurement.t2,
            step.action,
        );
    }
    println!(
        "\nconverged: {} after {} simulations (space size ~10^6; exhaustive \
         search is not an option)",
        outcome.converged, explorer.evaluations
    );
    println!("final configuration: {:?}", explorer.hw);
    println!(
        "hardware cost proxy: {} (A = {})",
        explorer.hw.cost(),
        HwConfig::A.cost()
    );
    Ok(())
}
