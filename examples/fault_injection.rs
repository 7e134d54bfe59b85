//! Riding through a DRAM refresh storm: the hardened online controller
//! keeps adapting while a seeded fault injector periodically blocks the
//! memory controller, spikes DRAM latency, stalls cache banks, squeezes
//! MSHRs and corrupts the C-AMAT analyzer read-outs.
//!
//! The same seed always produces the same fault schedule, so a faulted
//! run is exactly reproducible — and with injection disabled the run is
//! bit-for-bit identical to a clean one.
//!
//! Run with:
//! ```text
//! cargo run --release -p lpm --example fault_injection [seed]
//! ```

use lpm::core::design_space::HwConfig;
use lpm::core::online::OnlineLpmController;
use lpm::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(42);

    let trace = SpecWorkload::BwavesLike.generator().generate(600_000, 11);
    let base = HwConfig::A.apply(&SystemConfig::default());
    let mut sys = System::try_new_looping(base, trace, 100, 1)?;
    sys.cmp_mut().try_warm_up(30_000)?;

    // Storms: the DRAM controller goes dark for ~1200-cycle stretches,
    // roughly every 8k cycles — plus latency spikes, bank stalls, MSHR
    // squeezes and sensor noise on the analyzer counters.
    sys.enable_faults(FaultConfig::all(seed));

    let mut ctl = OnlineLpmController::new_hardened(HwConfig::A, 20_000, Grain::Custom(0.5))?;
    println!("hardened online LPM under fault injection (seed {seed}):\n");
    println!(
        "{:>9} {:>7} {:>7} {:>6} {:>6}  {:<20} {:>4} {:>5}",
        "cycle", "LPMR1", "T1", "IPC", "budget", "action", "IW", "MSHR"
    );
    let log = ctl.try_run(&mut sys, 16, &mut NullRecorder, None)?;
    for r in &log {
        println!(
            "{:>9} {:>7.2} {:>7.2} {:>6.2} {:>6}  {:<20} {:>4} {:>5}",
            r.cycle,
            r.measurement.lpmr1,
            r.measurement.t1,
            r.ipc,
            if r.stall_budget_met { "Y" } else { "n" },
            format!("{:?}", r.action),
            r.hw.iw_size,
            r.hw.mshrs,
        );
    }

    let met = log.iter().filter(|r| r.stall_budget_met).count();
    let h = ctl.health();
    let fs = sys.fault_stats().expect("injector attached");
    println!(
        "\ninjected: {} DRAM spike(s), {} refresh storm(s), {} bank stall(s), \
         {} MSHR squeeze(s) over {} faulted cycle(s)",
        fs.spike_events, fs.storm_events, fs.stall_events, fs.squeeze_events, fs.faulted_cycles
    );
    println!(
        "controller health: {} degenerate window(s), {} sensor fault(s), \
         {} rollback(s), {} clamped step(s), {} oscillation trip(s)",
        h.degenerate_windows, h.sensor_faults, h.rollbacks, h.clamped_steps, h.oscillation_trips
    );
    println!(
        "stall-budget attainment under faults: {met}/{} intervals; final config {:?}",
        log.len(),
        ctl.hw
    );
    Ok(())
}
