//! Online adaptation to *phase changes*: a workload that alternates
//! between a compute-bound phase and a memory-burst phase runs on a
//! reconfigurable core; the interval-driven LPM controller grows the
//! memory-side hardware when the bursty phase raises LPMR1 above T1 and
//! sheds the over-provision when the compute phase makes it idle
//! (Fig. 3, Cases I–III, live).
//!
//! Run with:
//! ```text
//! cargo run --release -p lpm --example online_adaptation
//! ```

use lpm::core::design_space::HwConfig;
use lpm::core::online::OnlineLpmController;
use lpm::core::optimizer::LpmAction;
use lpm::prelude::*;
use lpm::trace::gen::Mix;
use lpm::trace::gen::{MixedGen, PhasedGen, RandomGen};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A two-phase program: 60k instructions of cache-resident compute,
    // then 60k instructions of MLP-heavy streaming, repeating.
    let compute_phase = RandomGen::new(2 << 10, 0.12, 0.2);
    let memory_phase = {
        let mut g = MixedGen::new(0.45, Mix::new(0.85, 0.10, 0.05));
        g.streams = 8;
        g.stride = 64;
        g.stream_region = 8 << 10;
        g.random_ws = 8 << 10;
        g.chase_ws = 8 << 10;
        g
    };
    let phased = PhasedGen::new(vec![
        (Box::new(compute_phase), 60_000),
        (Box::new(memory_phase), 60_000),
    ]);
    let trace = phased.generate(240_000, 9);

    let base = HwConfig::A.apply(&SystemConfig::default());
    let mut sys = System::try_new_looping(base, trace, 50, 1)?;
    sys.cmp_mut().try_warm_up(20_000)?;

    let mut ctl = OnlineLpmController::new(HwConfig::A, 15_000, Grain::Custom(0.5))?;
    println!("phase-adaptive online LPM (15k-cycle intervals):\n");
    println!(
        "{:>9} {:>7} {:>7} {:>6}  {:<20} {:>4} {:>5}",
        "cycle", "LPMR1", "T1", "IPC", "action", "IW", "MSHR"
    );
    let log = ctl.try_run(&mut sys, 30, &mut NullRecorder, None)?;
    let mut grew = 0;
    let mut shed = 0;
    for r in &log {
        match r.action {
            LpmAction::OptimizeBoth | LpmAction::OptimizeL1 => grew += 1,
            LpmAction::ReduceOverprovision => shed += 1,
            LpmAction::Done => {}
        }
        println!(
            "{:>9} {:>7.2} {:>7.2} {:>6.2}  {:<20} {:>4} {:>5}",
            r.cycle,
            r.measurement.lpmr1,
            r.measurement.t1,
            r.ipc,
            format!("{:?}", r.action),
            r.hw.iw_size,
            r.hw.mshrs,
        );
    }
    println!(
        "\nthe controller grew hardware {grew} time(s) and shed \
         over-provision {shed} time(s) as the phases alternated."
    );
    Ok(())
}
