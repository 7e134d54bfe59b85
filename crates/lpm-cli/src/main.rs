//! `lpm-cli` — command-line driver for the LPM reproduction.
//!
//! ```text
//! lpm-cli workloads                             list the SPEC-like suite
//! lpm-cli run --workload gcc-like [...]         simulate + full LPM report
//! lpm-cli repro TARGET [--instructions N]       regenerate a paper table/figure
//! lpm-cli explore --workload X [--grain 0.3]    LPM-guided design-space search
//! lpm-cli online --workload X [--interval N]    online interval-driven adaptation
//! lpm-cli help                                  this text
//! ```

mod args;

use args::Args;
use lpm_core::design_space::{DesignSpaceExplorer, HwConfig};
use lpm_core::online::OnlineLpmController;
use lpm_core::optimizer::{run_lpm_loop, LpmOptimizer};
use lpm_harness::{run_sweep_with, ChaosConfig, FaultClass, SweepOptions, SweepSpec};
use lpm_model::Grain;
use lpm_sim::{FaultConfig, System, SystemConfig};
use lpm_telemetry::{RingRecorder, RunSummary, TelemetryLog, DEFAULT_EVENT_CAPACITY};
use lpm_trace::{Generator, SpecWorkload, Trace};

/// Exit code for a `--keep-going` sweep that completed with one or more
/// failed points: the partial report was written, but not everything
/// finished. Distinct from 1 (hard error, nothing usable produced).
const EXIT_PARTIAL: u8 = 3;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&raw) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("try `lpm-cli help`");
            1
        }
    };
    std::process::exit(code.into());
}

fn run(raw: &[String]) -> Result<u8, String> {
    if raw.is_empty() {
        print_help();
        return Ok(0);
    }
    if raw[0] == "bench" {
        // `bench` parses its own flags, where `--quick` is a switch.
        return lpm_bench::bench::cli_run(&raw[1..]);
    }
    let a = args::parse(raw)?;
    if let Some(accepted) = accepted_flags(&a.command) {
        a.reject_unknown_flags(accepted)?;
    }
    match a.command.as_str() {
        "help" | "--help" | "-h" => {
            print_help();
            Ok(0)
        }
        "workloads" => {
            println!("{:<24} {:>6} {:>12}", "workload", "fmem", "footprint");
            for w in SpecWorkload::ALL {
                println!(
                    "{:<24} {:>6.2} {:>10} B",
                    w.name(),
                    w.nominal_fmem(),
                    w.approx_footprint()
                );
            }
            Ok(0)
        }
        "run" => cmd_run(&a).map(|()| 0),
        "trace-dump" => cmd_trace_dump(&a).map(|()| 0),
        "repro" => cmd_repro(&a).map(|()| 0),
        "explore" => cmd_explore(&a).map(|()| 0),
        "online" => cmd_online(&a).map(|()| 0),
        "sweep" => cmd_sweep(&a),
        "serve" => cmd_serve(&a).map(|()| 0),
        "client" => cmd_client(&a),
        "journal" => cmd_journal(&a),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

/// The sweep-spec flags, read by `sweep` and `client submit`.
const SPEC_FLAGS: &[&str] = &[
    "configs",
    "workloads",
    "seeds",
    "faults",
    "fault-seeds",
    "chaos",
    "chaos-io",
    "point-cycle-budget",
    "instructions",
    "intervals",
    "interval",
    "grain",
    "warmup",
    "trace-events",
    "max-retries",
    "retry-backoff-cycles",
];

/// The flags each subcommand reads; any other flag is an error before
/// work starts. `None` for an unknown subcommand, which the dispatch
/// rejects.
fn accepted_flags(command: &str) -> Option<&'static [&'static [&'static str]]> {
    Some(match command {
        "help" | "--help" | "-h" | "workloads" => &[],
        "run" => &[&[
            "workload",
            "trace",
            "instructions",
            "seed",
            "quiet",
            "l1-size",
            "l1-ports",
            "mshrs",
            "l2-size",
            "l3-size",
        ]],
        "trace-dump" => &[&["workload", "instructions", "seed", "out"]],
        "repro" => &[&["instructions"]],
        "explore" => &[&["workload", "instructions", "seed", "grain", "mode"]],
        "online" => &[&[
            "workload",
            "instructions",
            "seed",
            "interval",
            "grain",
            "faults",
            "fault-seed",
            "quiet",
            "telemetry-out",
            "telemetry-format",
            "trace-events",
        ]],
        "sweep" => &[
            SPEC_FLAGS,
            &[
                "jobs",
                "quiet",
                "keep-going",
                "telemetry-out",
                "telemetry-format",
                "checkpoint",
                "resume",
            ],
        ],
        "serve" => &[&[
            "state",
            "bind",
            "queue-capacity",
            "tenant-quota",
            "runners",
            "jobs",
            "max-job-retries",
            "retry-backoff-ms",
            "chaos-io",
        ]],
        "client" => &[
            SPEC_FLAGS,
            &[
                "state",
                "addr",
                "tenant",
                "deadline-ms",
                "jobs",
                "wait",
                "wait-timeout-ms",
                "out",
                "format",
            ],
        ],
        "journal" => &[&["force"]],
        _ => return None,
    })
}

fn print_help() {
    println!(
        "lpm-cli — Layered Performance Matching simulator (reproduction of Liu & Sun, ICPP'15)\n\
         \n\
         subcommands:\n\
         \x20 workloads                        list the SPEC CPU2006-like workload suite\n\
         \x20 run     --workload NAME          simulate and print the full LPM report\n\
         \x20 run     --trace FILE             simulate a trace file instead of a generator\n\
         \x20 trace-dump --workload NAME --out FILE   dump a generated trace to a file\n\
         \x20 repro   TARGET                   regenerate a paper result: fig1|table1|fig6|fig7|\n\
         \x20                                  fig8|intervals|validation|ablation|all (window:\n\
         \x20                                  --instructions, default 60000 for table1, 6000 for\n\
         \x20                                  ablation, 30000 otherwise; fig1/intervals take none)\n\
         \x20 explore --workload NAME          LPM-guided design-space exploration from config A\n\
         \x20 online  --workload NAME          online interval-driven adaptation\n\
         \x20 sweep   [--jobs N]               parallel sweep over configs × workloads × seeds\n\
         \x20 serve   --state DIR              crash-tolerant sweep daemon (JSON over TCP)\n\
         \x20 client  ACTION [...]             talk to a daemon: submit|status|cancel|report|\n\
         \x20                                  list|events|metrics|ping|shutdown\n\
         \x20 journal ACTION FILE|DIR...       checkpoint journals: ls|verify|rm\n\
         \x20 bench   [--tag T] [--quick]      run the perf suite, write BENCH_<tag>.json\n\
         \x20         [--out F] [--compare F]  (--compare gates the totals vs F;\n\
         \x20                                  bench --help lists the flags)\n\
         \n\
         common flags:\n\
         \x20 --instructions N    measurement window (default 60000)\n\
         \x20 --seed S            generator seed (default 7)\n\
         \x20 --l1-size 32K       L1 capacity      --l1-ports N   L1 ports\n\
         \x20 --mshrs N           L1 MSHRs         --l2-size 2M   L2 capacity\n\
         \x20 --l3-size 8M        add an L3 of this capacity\n\
         \x20 --grain X           stall budget as a fraction of CPIexe (0.01/0.10/custom)\n\
         \x20 --mode guided       explore: raise only the sensitivity-ranked knob per step\n\
         \x20 --interval N        online measurement interval in cycles (default 20000)\n\
         \x20 --faults CLASS      online: inject faults (all, dram-spike, refresh-storm,\n\
         \x20                     bank-stall, mshr-squeeze, counter-noise); hardens the controller\n\
         \x20 --fault-seed S      fault-injection seed (default 42)\n\
         \n\
         telemetry flags (online, sweep):\n\
         \x20 --telemetry-out F   write structured telemetry to F (`-` = stdout; human\n\
         \x20                     output then moves to stderr so pipes stay clean)\n\
         \x20 --telemetry-format  jsonl (snapshots + events + summary) or csv (snapshot table)\n\
         \x20 --trace-events N    event ring capacity (default 4096; 0 keeps snapshots only)\n\
         \x20 --quiet             suppress the human-readable report (data output only)\n\
         \n\
         sweep flags:\n\
         \x20 --jobs N            worker threads (positive; output is bit-for-bit identical\n\
         \x20                     for every N — see DESIGN.md on the determinism invariant)\n\
         \x20 --configs A,C,E     Table I configuration labels to sweep (default A,C)\n\
         \x20 --workloads X,Y     workloads to sweep (default bwaves)\n\
         \x20 --seeds 7,11        generator seeds to sweep (default 7)\n\
         \x20 --faults CLASS      add faulted points next to every clean point\n\
         \x20 --fault-seeds 42,43 fault-schedule seeds for the faulted points (default 42)\n\
         \x20 --intervals N       controller intervals per point (default 8)\n\
         \n\
         sweep crash-safety flags:\n\
         \x20 --keep-going        evaluate every point even when some fail; render the\n\
         \x20                     partial report with typed outcomes and exit 3\n\
         \x20 --max-retries N     retry a failing point N times under re-salted seeds\n\
         \x20                     before quarantining it (default 0: first failure is final)\n\
         \x20 --retry-backoff-cycles M   widen the point-cycle budget by M simulated\n\
         \x20                     cycles per retry attempt (deterministic backoff)\n\
         \x20 --point-cycle-budget N   per-point simulated-cycle watchdog: a point that\n\
         \x20                     would run past N cycles after warmup fails as timed-out,\n\
         \x20                     at the same cycle on every run and worker count\n\
         \x20 --checkpoint FILE   append every finished point to a durable journal\n\
         \x20 --resume            skip points already in the --checkpoint journal; the\n\
         \x20                     resumed report is byte-identical to an uninterrupted run\n\
         \x20 --chaos SPEC        deterministic failure injection for harness testing:\n\
         \x20                     panic@I,fail@I,timeout@I,flaky@I:N (see DESIGN.md)\n\
         \x20 --chaos-io SPEC     deterministic *storage*-fault injection on the\n\
         \x20                     checkpoint journal (part of the spec fingerprint):\n\
         \x20                     fail-fsync@N,torn-write@N:K,fail-rename@N,\n\
         \x20                     enospc-after@B,eio-read@N,power-cut@N,auto@SEED:K\n\
         \x20                     (see DESIGN.md §14)\n\
         \n\
         serve flags (see DESIGN.md §11 for the failure semantics):\n\
         \x20 --state DIR         service state: manifests, journals, reports, endpoint\n\
         \x20 --bind HOST:PORT    listen address (default 127.0.0.1:0; the real port\n\
         \x20                     lands in DIR/endpoint)\n\
         \x20 --queue-capacity N  bounded admission queue (default 8; full → typed reject)\n\
         \x20 --tenant-quota N    max live jobs per tenant (default 4)\n\
         \x20 --runners N         concurrent sweep runners (default 1)\n\
         \x20 --jobs N            worker threads per sweep (default 2)\n\
         \x20 --max-job-retries N job-level retries before a job fails (default 1)\n\
         \x20 --chaos-io SPEC     daemon-level storage-fault injection on the state\n\
         \x20                     dir (manifests, reports, events); not part of any\n\
         \x20                     spec fingerprint — a clean restart resumes the\n\
         \x20                     same journals (see DESIGN.md §14)\n\
         \n\
         client flags:\n\
         \x20 --state DIR | --addr HOST:PORT   how to find the daemon\n\
         \x20 --tenant T          tenant for submit (default \"default\")\n\
         \x20 --deadline-ms N     wall-clock deadline for submit\n\
         \x20 --wait              submit: block until the job is terminal\n\
         \x20 --out FILE          submit --wait / report: write the report here\n\
         \x20 --format F          metrics: json (default) or prometheus\n\
         \x20 (submit also takes every sweep spec flag above)\n\
         \n\
         journal actions:\n\
         \x20 ls FILE|DIR...      fingerprint, row counts and state of each journal\n\
         \x20 verify FILE|DIR...  full decode — \"resume would accept this\"; exit 1 on corruption\n\
         \x20 rm [--force] FILE|DIR...   remove journals; refuses when a live (queued or\n\
         \x20                     running) job in the sibling jobs/ dir depends on one"
    );
}

fn lookup_workload(name: &str) -> Result<SpecWorkload, String> {
    SpecWorkload::ALL
        .into_iter()
        .find(|w| {
            w.name() == name
                || w.name().split_once('.').is_some_and(|(_, n)| n == name)
                || w.name().trim_end_matches("-like").ends_with(name)
        })
        .ok_or_else(|| format!("unknown workload {name:?}; see `lpm-cli workloads`"))
}

fn workload_from(a: &Args) -> Result<SpecWorkload, String> {
    let name = a
        .options
        .get("workload")
        .ok_or("missing --workload; see `lpm-cli workloads`")?;
    lookup_workload(name)
}

fn system_config_from(a: &Args) -> Result<SystemConfig, String> {
    let mut cfg = SystemConfig::default();
    cfg.l1.size_bytes = a.size_or("l1-size", cfg.l1.size_bytes)?;
    while cfg.l1.size_bytes < cfg.l1.line_bytes * cfg.l1.assoc as u64 {
        cfg.l1.assoc /= 2;
    }
    cfg.l1.ports = a.int_or("l1-ports", cfg.l1.ports as u64)? as u32;
    cfg.l1.mshrs = a.int_or("mshrs", cfg.l1.mshrs as u64)? as u32;
    cfg.l2.size_bytes = a.size_or("l2-size", cfg.l2.size_bytes)?;
    if let Some(sz) = a.options.get("l3-size") {
        let bytes = args::parse_size(sz).ok_or_else(|| format!("bad --l3-size {sz:?}"))?;
        let mut l3 = cfg.l2.clone();
        l3.size_bytes = bytes;
        l3.hit_latency = 30;
        cfg.l3 = Some(l3);
    }
    Ok(cfg)
}

fn trace_from(a: &Args, w: SpecWorkload) -> Result<(Trace, usize, u64), String> {
    let n = a.positive_int_or("instructions", 60_000)? as usize;
    let seed = a.int_or("seed", 7)?;
    Ok((w.generator().generate(n, seed), n, seed))
}

fn cmd_trace_dump(a: &Args) -> Result<(), String> {
    let w = workload_from(a)?;
    let (trace, n, _) = trace_from(a, w)?;
    let path = a
        .options
        .get("out")
        .ok_or("missing --out FILE for trace-dump")?;
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut writer = std::io::BufWriter::new(file);
    trace
        .write_to(&mut writer)
        .map_err(|e| format!("write failed: {e}"))?;
    eprintln!("wrote {n} instructions of {w} to {path}");
    Ok(())
}

fn load_trace(path: &str) -> Result<Trace, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    Trace::read_from(std::io::BufReader::new(file)).map_err(|e| e.to_string())
}

fn grain_from(a: &Args, default: f64) -> Result<Grain, String> {
    let g = a.float_or("grain", default)?;
    Grain::Custom(g)
        .validated()
        .map_err(|e| format!("bad --grain: {e}"))
}

fn cmd_run(a: &Args) -> Result<(), String> {
    let cfg = system_config_from(a)?;
    let (label, trace, n, seed) = if let Some(path) = a.options.get("trace") {
        let t = load_trace(path)?;
        let n = t.len();
        (path.clone(), t, n, a.int_or("seed", 7)?)
    } else {
        let w = workload_from(a)?;
        let (t, n, seed) = trace_from(a, w)?;
        (w.name().to_string(), t, n, seed)
    };
    if !a.has("quiet") {
        eprintln!("simulating {label} for {n} instructions (half warmup) ...");
    }
    let mut sys = System::try_new_looping(cfg, trace, 1, seed).map_err(|e| e.to_string())?;
    sys.cmp_mut()
        .try_warm_up(n as u64 / 2)
        .map_err(|e| e.to_string())?;
    if !sys
        .try_run(n as u64 * 2000 + 10_000_000)
        .map_err(|e| e.to_string())?
    {
        return Err("trace did not drain within the cycle budget".into());
    }
    let r = sys.report();
    let l1 = r.l1;
    println!("== {label} ==");
    println!(
        "IPC        {:>8.3}    CPIexe {:>8.3}    fmem {:>6.3}",
        r.core.ipc(),
        r.cpi_exe,
        r.core.fmem()
    );
    println!(
        "C-AMAT1    {:>8.3}    C-AMAT2 {:>7.3}    C-AMAT3 {:>6.3}",
        r.camat1(),
        r.camat2(),
        r.camat3()
    );
    if let Some(c3) = r.camat_l3() {
        println!("C-AMAT(L3) {c3:>8.3}");
    }
    println!(
        "CH1 {:>6.2}  CM1 {:>6.2}  pMR1 {:>7.4}  pAMP1 {:>7.2}  MR1 {:>7.4}",
        l1.ch(),
        l1.cm_pure(),
        l1.pmr(),
        l1.pamp(),
        l1.mr()
    );
    let lp = r.lpmrs().map_err(|e| e.to_string())?;
    print!(
        "LPMR1 {:>6.2}  LPMR2 {:>6.2}  LPMR3 {:>6.2}",
        lp.l1.value(),
        lp.l2.value(),
        lp.l3.value()
    );
    if let Some(l4) = lp.l4 {
        print!("  LPMR4 {:>6.2}", l4.value());
    }
    println!();
    println!(
        "stall/instr {:>6.3} measured vs {:>6.3} predicted (Eq. 12); overlap {:>5.3}",
        r.measured_stall(),
        r.predicted_stall_eq12().map_err(|e| e.to_string())?,
        r.core.overlap_ratio()
    );
    r.check(1.5)
        .map_err(|e| format!("counter consistency: {e}"))?;
    println!("analyzer identity (Eq. 2 ≡ Eq. 3): OK");
    Ok(())
}

/// Regenerate one paper result (or all of them) on stdout.
fn cmd_repro(a: &Args) -> Result<(), String> {
    let target = a.positional.first().ok_or_else(|| {
        format!(
            "missing repro target; use {}",
            lpm_bench::repro::TARGETS.join("|")
        )
    })?;
    let instructions = match a.options.get("instructions") {
        Some(_) => Some(a.positive_int_or("instructions", 0)? as usize),
        None => None,
    };
    print!("{}", lpm_bench::repro::render(target, instructions)?);
    Ok(())
}

fn cmd_explore(a: &Args) -> Result<(), String> {
    let w = workload_from(a)?;
    let (trace, _, seed) = trace_from(a, w)?;
    let grain = grain_from(a, 0.30)?;
    let guided = a.get_or("mode", "blanket") == "guided";
    let mut ex = if guided {
        DesignSpaceExplorer::new_guided(HwConfig::A, SystemConfig::default(), trace, grain, seed)
    } else {
        DesignSpaceExplorer::new(HwConfig::A, SystemConfig::default(), trace, grain, seed)
    };
    let out = run_lpm_loop(&mut ex, &LpmOptimizer::default(), 16)
        .map_err(|e| format!("exploration failed: {e}"))?;
    for (i, s) in out.steps.iter().enumerate() {
        println!(
            "step {i}: LPMR1={:.2} (T1={:.2}) LPMR2={:.2} (T2={:.2}) → {:?}",
            s.measurement.lpmr1, s.measurement.t1, s.measurement.lpmr2, s.measurement.t2, s.action
        );
    }
    println!(
        "converged={} simulations={} final={:?} cost={}",
        out.converged,
        ex.evaluations,
        ex.hw,
        ex.hw.cost()
    );
    Ok(())
}

fn fault_config_from(a: &Args) -> Result<Option<FaultConfig>, String> {
    let Some(class) = a.options.get("faults") else {
        return Ok(None);
    };
    let seed = a.int_or("fault-seed", 42)?;
    let cfg = match class.as_str() {
        "all" => FaultConfig::all(seed),
        "dram-spike" => FaultConfig::dram_spike(seed),
        "refresh-storm" => FaultConfig::refresh_storm(seed),
        "bank-stall" => FaultConfig::bank_stall(seed),
        "mshr-squeeze" => FaultConfig::mshr_squeeze(seed),
        "counter-noise" => FaultConfig::counter_noise(seed),
        other => {
            return Err(format!(
                "unknown fault class {other:?}; use all, dram-spike, refresh-storm, \
                 bank-stall, mshr-squeeze or counter-noise"
            ))
        }
    };
    Ok(Some(cfg))
}

/// Serialize a telemetry log in the requested `--telemetry-format`.
fn render_telemetry(log: &TelemetryLog, format: &str) -> Result<String, String> {
    match format {
        "jsonl" => Ok(log.to_jsonl()),
        "csv" => Ok(log.to_csv()),
        other => Err(format!(
            "unknown --telemetry-format {other:?}; use jsonl or csv"
        )),
    }
}

fn cmd_online(a: &Args) -> Result<(), String> {
    use std::fmt::Write as _;

    let w = workload_from(a)?;
    let n = a.positive_int_or("instructions", 600_000)? as usize;
    let seed = a.int_or("seed", 7)?;
    let interval = a.int_or("interval", 20_000)?;
    let grain = grain_from(a, 0.50)?;
    let faults = fault_config_from(a)?;
    let fault_seed = faults.as_ref().map(|c| c.seed);
    let quiet = a.has("quiet");
    let telemetry_out = a.options.get("telemetry-out").cloned();
    let format = a.get_or("telemetry-format", "jsonl").to_string();
    // Reject a bad format up front, even when no output file is requested.
    render_telemetry(&TelemetryLog::default(), &format)?;
    let capacity = a.int_or("trace-events", DEFAULT_EVENT_CAPACITY as u64)? as usize;
    let trace = w.generator().generate(n, seed);
    let base = HwConfig::A.apply(&SystemConfig::default());
    let mut sys = System::try_new_looping(base, trace, 100, seed).map_err(|e| e.to_string())?;
    sys.cmp_mut()
        .try_warm_up(30_000)
        .map_err(|e| e.to_string())?;
    let mut ctl = if faults.is_some() {
        // Faulted sensors need the defensive preset.
        OnlineLpmController::new_hardened(HwConfig::A, interval, grain)
    } else {
        OnlineLpmController::new(HwConfig::A, interval, grain)
    }
    .map_err(|e| e.to_string())?;
    if let Some(cfg) = faults {
        sys.enable_faults(cfg);
    }
    // With telemetry requested, run through a RingRecorder; otherwise the
    // no-op recorder path, which is bit-identical to the plain run.
    let (log, telemetry) = if telemetry_out.is_some() {
        let mut rec = RingRecorder::new(capacity);
        let log = ctl
            .try_run_recorded(&mut sys, 12, &mut rec)
            .map_err(|e| e.to_string())?;
        let summary = RunSummary {
            total_cycles: sys.now(),
            health: Some(ctl.health().to_telemetry()),
            faults: sys.fault_stats().map(|fs| fs.to_telemetry(fault_seed)),
            ..RunSummary::default()
        };
        (log, Some(rec.into_log(summary)))
    } else {
        (ctl.try_run(&mut sys, 12).map_err(|e| e.to_string())?, None)
    };

    // The human-readable report, built up front so it can be routed to
    // stderr when the data stream owns stdout.
    let mut human = String::new();
    let _ = writeln!(
        human,
        "{:>9} {:>7} {:>7} {:>6} {:>6}  {:<20} {:>5} {:>4} {:>5}",
        "cycle", "LPMR1", "T1", "IPC", "budget", "action", "width", "IW", "MSHR"
    );
    for r in &log {
        let _ = writeln!(
            human,
            "{:>9} {:>7.2} {:>7.2} {:>6.2} {:>6}  {:<20} {:>5} {:>4} {:>5}",
            r.cycle,
            r.measurement.lpmr1,
            r.measurement.t1,
            r.ipc,
            if r.stall_budget_met { "Y" } else { "n" },
            format!("{:?}", r.action),
            r.hw.issue_width,
            r.hw.iw_size,
            r.hw.mshrs
        );
    }
    if let (Some(first), Some(last)) = (log.first(), log.last()) {
        let met = log.iter().filter(|r| r.stall_budget_met).count();
        let _ = writeln!(
            human,
            "adaptation: LPMR1 {:.2} → {:.2}, IPC {:.2} → {:.2}; \
             stall budget met in {met}/{} intervals",
            first.measurement.lpmr1,
            last.measurement.lpmr1,
            first.ipc,
            last.ipc,
            log.len()
        );
    }
    let h = ctl.health();
    let _ = writeln!(
        human,
        "controller health: {} degenerate window(s), {} sensor fault(s), \
         {} rollback(s), {} clamped step(s), {} oscillation trip(s)",
        h.degenerate_windows, h.sensor_faults, h.rollbacks, h.clamped_steps, h.oscillation_trips
    );
    if let Some(fs) = sys.fault_stats() {
        let _ = writeln!(
            human,
            "injected: {} DRAM spike(s), {} refresh storm(s), {} bank stall(s), \
             {} MSHR squeeze(s) over {} faulted cycle(s)",
            fs.spike_events, fs.storm_events, fs.stall_events, fs.squeeze_events, fs.faulted_cycles
        );
    }
    if let Some(t) = &telemetry {
        human.push_str(&t.human_summary());
    }

    let data_owns_stdout = telemetry_out.as_deref() == Some("-");
    if !quiet {
        if data_owns_stdout {
            eprint!("{human}");
        } else {
            print!("{human}");
        }
    }
    if let (Some(path), Some(t)) = (&telemetry_out, &telemetry) {
        let data = render_telemetry(t, &format)?;
        if path == "-" {
            print!("{data}");
        } else {
            std::fs::write(path, data).map_err(|e| format!("cannot write {path}: {e}"))?;
            if !quiet {
                eprintln!(
                    "wrote {} snapshot(s), {} event(s) to {path} ({format})",
                    t.snapshots.len(),
                    t.events.len()
                );
            }
        }
    }
    Ok(())
}

/// Build a [`SweepSpec`] from the shared sweep flags (used by `sweep`
/// and `client submit`, so a spec submitted to the daemon is described
/// by exactly the same flags as a local sweep).
fn sweep_spec_from(a: &Args) -> Result<SweepSpec, String> {
    let mut configs = Vec::new();
    for label in a.get_or("configs", "A,C").split(',') {
        let label = label.trim();
        let hw = HwConfig::by_label(label)
            .ok_or_else(|| format!("unknown config {label:?}; Table I defines A through E"))?;
        configs.push((label.to_string(), hw));
    }
    let mut workloads = Vec::new();
    for name in a.get_or("workloads", "bwaves").split(',') {
        workloads.push(lookup_workload(name.trim())?);
    }
    let seeds = a.int_list_or("seeds", &[7])?;
    let fault_class = match a.options.get("faults") {
        Some(class) => FaultClass::parse(class)?,
        None => FaultClass::All,
    };
    // With --faults, every clean point gains a faulted sibling per seed.
    let mut fault_seeds = vec![None];
    if a.has("faults") {
        for s in a.int_list_or("fault-seeds", &[42])? {
            fault_seeds.push(Some(s));
        }
    }

    let chaos = match a.options.get("chaos") {
        Some(s) => ChaosConfig::parse(s).map_err(|e| format!("bad --chaos: {e}"))?,
        None => ChaosConfig::default(),
    };
    let chaos_io = match a.options.get("chaos-io") {
        Some(s) => {
            lpm_harness::IoChaosConfig::parse(s).map_err(|e| format!("bad --chaos-io: {e}"))?
        }
        None => lpm_harness::IoChaosConfig::default(),
    };
    let point_cycle_budget = match a.options.get("point-cycle-budget") {
        Some(_) => Some(a.positive_int_or("point-cycle-budget", 0)?),
        None => None,
    };
    Ok(SweepSpec {
        configs,
        workloads,
        seeds,
        fault_seeds,
        fault_class,
        instructions: a.int_or("instructions", 60_000)? as usize,
        intervals: a.int_or("intervals", 8)? as usize,
        interval_cycles: a.int_or("interval", 20_000)?,
        grain: a.float_or("grain", 0.50)?,
        warmup_instructions: a.int_or("warmup", 30_000)?,
        event_capacity: a.int_or("trace-events", DEFAULT_EVENT_CAPACITY as u64)? as usize,
        max_retries: a.int_or("max-retries", 0)? as u32,
        retry_backoff_cycles: a.int_or("retry-backoff-cycles", 0)?,
        point_cycle_budget,
        chaos,
        chaos_io,
        ..SweepSpec::default()
    })
}

fn cmd_sweep(a: &Args) -> Result<u8, String> {
    let jobs = a.positive_int_or("jobs", 1)? as usize;
    let quiet = a.has("quiet");
    let keep_going = a.has("keep-going");
    let telemetry_out = a.options.get("telemetry-out").cloned();
    let format = a.get_or("telemetry-format", "jsonl").to_string();
    if !matches!(format.as_str(), "jsonl" | "csv") {
        return Err(format!(
            "unknown --telemetry-format {format:?}; use jsonl or csv"
        ));
    }
    let spec = sweep_spec_from(a)?;
    if a.has("resume") && !a.has("checkpoint") {
        return Err("--resume needs a checkpoint journal (pass --checkpoint FILE)".into());
    }
    let opts = SweepOptions {
        checkpoint: a.options.get("checkpoint").map(std::path::PathBuf::from),
        resume: a.has("resume"),
        ..SweepOptions::default()
    };
    let report = run_sweep_with(&spec, jobs, &opts)?;
    // Fail-fast is the default: any incomplete point aborts with its
    // error (lowest index wins deterministically). With --keep-going
    // the partial report is rendered and the exit code says "partial".
    if !keep_going {
        if let Some(e) = report.first_error() {
            return Err(e);
        }
    }

    let data_owns_stdout = telemetry_out.as_deref() == Some("-");
    if !quiet {
        let human = report.to_text();
        if data_owns_stdout {
            eprint!("{human}");
        } else {
            print!("{human}");
        }
    }
    if let Some(path) = &telemetry_out {
        let data = match format.as_str() {
            "csv" => report.to_csv(),
            _ => report.to_jsonl(),
        };
        if path == "-" {
            print!("{data}");
        } else {
            std::fs::write(path, data).map_err(|e| format!("cannot write {path}: {e}"))?;
            if !quiet {
                eprintln!("wrote {} point(s) to {path} ({format})", report.len());
            }
        }
    }
    if report.failed_len() > 0 {
        if !quiet {
            eprintln!(
                "sweep: {}/{} point(s) did not complete (see outcome column); exit {}",
                report.failed_len(),
                report.len(),
                EXIT_PARTIAL
            );
        }
        return Ok(EXIT_PARTIAL);
    }
    Ok(0)
}

fn cmd_serve(a: &Args) -> Result<(), String> {
    let state = a
        .options
        .get("state")
        .ok_or("missing --state DIR for serve")?;
    let cfg = lpm_serve::ServerConfig {
        state_dir: std::path::PathBuf::from(state),
        bind: a.get_or("bind", "127.0.0.1:0").to_string(),
        queue_capacity: a.positive_int_or("queue-capacity", 8)? as usize,
        tenant_quota: a.positive_int_or("tenant-quota", 4)? as usize,
        runners: a.positive_int_or("runners", 1)? as usize,
        sweep_jobs: a.positive_int_or("jobs", 2)? as usize,
        max_job_retries: a.int_or("max-job-retries", 1)? as u32,
        retry_backoff_ms: a.int_or("retry-backoff-ms", 50)?,
        chaos_io: match a.options.get("chaos-io") {
            Some(s) => {
                lpm_harness::IoChaosConfig::parse(s).map_err(|e| format!("bad --chaos-io: {e}"))?
            }
            None => lpm_harness::IoChaosConfig::default(),
        },
        handle_os_signals: true,
    };
    let handle = lpm_serve::start(cfg)?;
    // The endpoint line goes to stderr so scripted callers can own
    // stdout; the `endpoint` file in the state dir is the machine API.
    eprintln!("lpm-serve listening on {} (state {state})", handle.addr());
    handle.join()
}

/// Connect a client from `--addr HOST:PORT` or `--state DIR` (reads the
/// daemon's `endpoint` file, so `--bind 127.0.0.1:0` servers are
/// reachable without scraping logs).
fn client_from(a: &Args) -> Result<lpm_serve::Client, String> {
    if let Some(addr) = a.options.get("addr") {
        lpm_serve::Client::connect(addr.as_str())
    } else if let Some(state) = a.options.get("state") {
        lpm_serve::Client::connect_state_dir(std::path::Path::new(state))
    } else {
        Err("missing --addr HOST:PORT or --state DIR for client".into())
    }
}

fn cmd_client(a: &Args) -> Result<u8, String> {
    use lpm_telemetry::Value;

    let action = a.positional.first().map(String::as_str).ok_or(
        "missing client action; use submit|status|cancel|report|list|events|metrics|ping|shutdown",
    )?;
    if !matches!(
        action,
        "submit"
            | "status"
            | "cancel"
            | "report"
            | "list"
            | "events"
            | "metrics"
            | "ping"
            | "shutdown"
    ) {
        return Err(format!(
            "unknown client action {action:?}; use submit|status|cancel|report|list|events|metrics|ping|shutdown"
        ));
    }
    let job_id = || -> Result<&str, String> {
        a.positional
            .get(1)
            .map(String::as_str)
            .ok_or_else(|| format!("client {action} needs a job id"))
    };
    let mut client = client_from(a)?;
    let resp = match action {
        "submit" => {
            let spec = sweep_spec_from(a)?;
            let tenant = a.get_or("tenant", "default");
            let deadline_ms = match a.options.get("deadline-ms") {
                Some(_) => Some(a.positive_int_or("deadline-ms", 0)?),
                None => None,
            };
            let jobs = match a.options.get("jobs") {
                Some(_) => Some(a.positive_int_or("jobs", 0)?),
                None => None,
            };
            let resp = client.submit(tenant, &spec, jobs, deadline_ms)?;
            if resp.get("ok").and_then(Value::as_bool) == Some(true) && a.has("wait") {
                let id = resp
                    .get("id")
                    .and_then(Value::as_str)
                    .ok_or("submit response has no id")?
                    .to_string();
                let timeout =
                    std::time::Duration::from_millis(a.int_or("wait-timeout-ms", 600_000)?);
                let fin = client.wait(&id, timeout)?;
                if fin.get("status").and_then(Value::as_str) == Some("completed") {
                    if let Some(out) = a.options.get("out") {
                        let report = client.report_text(&id)?;
                        std::fs::write(out, report)
                            .map_err(|e| format!("cannot write {out}: {e}"))?;
                    }
                }
                fin
            } else {
                resp
            }
        }
        "status" => client.status(job_id()?)?,
        "cancel" => client.cancel(job_id()?)?,
        "report" => {
            let report = client.report_text(job_id()?)?;
            match a.options.get("out") {
                Some(out) => {
                    std::fs::write(out, &report).map_err(|e| format!("cannot write {out}: {e}"))?;
                    eprintln!("wrote report for {} to {out}", job_id()?);
                    return Ok(0);
                }
                None => {
                    print!("{report}");
                    return Ok(0);
                }
            }
        }
        "list" => client.list()?,
        "events" => client.events()?,
        "metrics" => {
            let format = a.get_or("format", "json");
            let resp = client.metrics(format)?;
            // Prometheus exposition is a text format: print it raw so
            // the output can be scraped or piped as-is.
            if format == "prometheus" && resp.get("ok").and_then(Value::as_bool) == Some(true) {
                print!(
                    "{}",
                    resp.get("metrics").and_then(Value::as_str).unwrap_or("")
                );
                return Ok(0);
            }
            resp
        }
        "ping" => client.ping()?,
        _ => client.shutdown()?,
    };
    println!("{}", resp.to_json());
    // Exit codes are scripting surface: 0 = accepted/ok, 1 = typed
    // rejection or non-completed terminal state.
    let ok = resp.get("ok").and_then(Value::as_bool) == Some(true);
    let status = resp.get("status").and_then(Value::as_str).unwrap_or("");
    if !ok || matches!(status, "failed" | "cancelled") {
        return Ok(1);
    }
    Ok(0)
}

/// Expand `journal` targets: files stand for themselves, directories
/// contribute every `*.jsonl` inside (sorted, so output is stable).
fn journal_targets(a: &Args) -> Result<Vec<std::path::PathBuf>, String> {
    let mut out = Vec::new();
    for raw in a.positional.iter().skip(1) {
        let p = std::path::PathBuf::from(raw);
        if p.is_dir() {
            let mut found = Vec::new();
            let entries = std::fs::read_dir(&p)
                .map_err(|e| format!("cannot read directory {}: {e}", p.display()))?;
            for entry in entries {
                let path = entry
                    .map_err(|e| format!("cannot list {}: {e}", p.display()))?
                    .path();
                if path.extension().and_then(|e| e.to_str()) == Some("jsonl") {
                    found.push(path);
                }
            }
            found.sort();
            out.extend(found);
        } else {
            out.push(p);
        }
    }
    if out.is_empty() {
        return Err("journal needs at least one FILE or DIR argument".into());
    }
    Ok(out)
}

fn cmd_journal(a: &Args) -> Result<u8, String> {
    let action = a
        .positional
        .first()
        .map(String::as_str)
        .ok_or("missing journal action; use ls|verify|rm")?;
    if !matches!(action, "ls" | "verify" | "rm") {
        return Err(format!(
            "unknown journal action {action:?}; use ls|verify|rm"
        ));
    }
    let targets = journal_targets(a)?;
    let mut bad = 0usize;
    if action == "ls" {
        println!(
            "{:<20} {:>7} {:>7} {:<10} path",
            "fingerprint", "rows", "points", "state"
        );
    }
    for path in &targets {
        match lpm_harness::inspect_journal(&lpm_harness::Vfs::real(), path) {
            Ok(lpm_harness::Journal { info, .. }) => {
                let state = if info.complete() {
                    "complete"
                } else if info.torn_tail {
                    "torn-tail"
                } else {
                    "partial"
                };
                match action {
                    "ls" => println!(
                        "{:<20} {:>7} {:>7} {:<10} {}",
                        format!("{:016x}", info.fingerprint),
                        info.rows,
                        info.points,
                        state,
                        path.display()
                    ),
                    "verify" => println!(
                        "{}: OK ({} of {} row(s) intact{})",
                        path.display(),
                        info.rows,
                        info.points,
                        if info.torn_tail { ", torn tail" } else { "" }
                    ),
                    _ => {
                        // A journal a serve job still resumes from is live.
                        let live = lpm_serve::StateDir::of_journal(path)
                            .and_then(|dir| dir.live_job(info.fingerprint));
                        if let Some(id) = live {
                            if !a.has("force") {
                                eprintln!(
                                    "{}: refusing to remove — live job {id} depends on it \
                                     (pass --force to override)",
                                    path.display()
                                );
                                bad += 1;
                                continue;
                            }
                        }
                        std::fs::remove_file(path)
                            .map_err(|e| format!("cannot remove {}: {e}", path.display()))?;
                        println!("removed {}", path.display());
                    }
                }
            }
            Err(e) => {
                // `rm --force` may target exactly the corrupt journals
                // `verify` flags; everything else reports and moves on.
                if action == "rm" && a.has("force") {
                    std::fs::remove_file(path)
                        .map_err(|e| format!("cannot remove {}: {e}", path.display()))?;
                    println!("removed {} (unreadable: {e})", path.display());
                } else {
                    eprintln!("{e}");
                    bad += 1;
                }
            }
        }
    }
    Ok(if bad > 0 { 1 } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn workload_lookup_accepts_aliases() {
        for name in ["403.gcc-like", "gcc-like", "gcc"] {
            let a = args::parse(&sv(&["run", "--workload", name])).unwrap();
            assert_eq!(workload_from(&a).unwrap(), SpecWorkload::GccLike);
        }
        let a = args::parse(&sv(&["run", "--workload", "nope"])).unwrap();
        assert!(workload_from(&a).is_err());
    }

    #[test]
    fn system_config_honours_flags() {
        let a = args::parse(&sv(&[
            "run",
            "--l1-size",
            "4K",
            "--l1-ports",
            "2",
            "--mshrs",
            "8",
            "--l3-size",
            "8M",
        ]))
        .unwrap();
        let cfg = system_config_from(&a).unwrap();
        assert_eq!(cfg.l1.size_bytes, 4 << 10);
        assert!(cfg.l1.size_bytes >= cfg.l1.line_bytes * cfg.l1.assoc as u64);
        assert_eq!(cfg.l1.ports, 2);
        assert_eq!(cfg.l1.mshrs, 8);
        assert_eq!(cfg.l3.as_ref().unwrap().size_bytes, 8 << 20);
        cfg.validate().unwrap();
    }

    /// Every subcommand rejects a flag it does not read, before doing any
    /// work, with an error naming the flag and the subcommand.
    #[test]
    fn unknown_flags_are_rejected_per_subcommand() {
        let cases: &[(&[&str], &str)] = &[
            (&["workloads"], "--seed"),
            (&["help"], "--quiet"),
            (&["run", "--workload", "bwaves"], "--l1-mshrs"),
            (
                &["trace-dump", "--workload", "gcc", "--out", "x"],
                "--grain",
            ),
            (&["repro", "fig1"], "--seed"),
            (&["explore", "--workload", "gcc"], "--faults"),
            (&["online", "--workload", "gcc"], "--config"),
            (&["sweep"], "--config"),
            (&["sweep", "--jobs", "2"], "--seed"),
            (&["serve", "--state", "s"], "--queue"),
            (&["client", "ping", "--state", "s"], "--runners"),
            (&["journal", "ls", "j.jsonl"], "--quiet"),
        ];
        for (argv, bad) in cases {
            let mut raw = sv(argv);
            raw.extend(sv(&[bad, "1"]));
            let e = run(&raw).expect_err(bad);
            assert!(
                e.contains(bad) && e.contains(&format!("`{}`", argv[0])),
                "{argv:?} {bad}: {e}"
            );
        }
        let e = run(&sv(&["bench", "--frob"])).unwrap_err();
        assert!(e.contains("--frob"), "{e}");
        // Hints name the binary users actually have.
        let e = run(&sv(&["run"])).unwrap_err();
        assert!(e.contains("`lpm-cli workloads`"), "{e}");
        let e = run(&sv(&["run", "--workload", "nope"])).unwrap_err();
        assert!(e.contains("`lpm-cli workloads`"), "{e}");
        let e = args::parse(&[]).unwrap_err();
        assert!(e.contains("`lpm-cli help`"), "{e}");
        // `bench --help` prints the bench flags instead of rejecting
        // `--help` as unknown.
        assert_eq!(run(&sv(&["bench", "--help"])), Ok(0));
        // `bench` parses its own flags: a trailing `--quick` is a switch
        // there, not a flag missing its value.
        let e = run(&sv(&["bench", "--tag", "bad tag", "--quick"])).unwrap_err();
        assert!(e.contains("bad --tag"), "{e}");
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(&sv(&["frobnicate"])).is_err());
    }

    #[test]
    fn help_and_workloads_succeed() {
        run(&sv(&["help"])).unwrap();
        run(&sv(&["workloads"])).unwrap();
    }

    #[test]
    fn run_command_end_to_end_small() {
        run(&sv(&[
            "run",
            "--workload",
            "bzip2",
            "--instructions",
            "6000",
            "--seed",
            "3",
        ]))
        .unwrap();
    }

    #[test]
    fn run_with_l3_end_to_end_small() {
        run(&sv(&[
            "run",
            "--workload",
            "milc",
            "--instructions",
            "6000",
            "--l3-size",
            "8M",
        ]))
        .unwrap();
    }

    #[test]
    fn run_rejects_a_zero_l1_size() {
        let e = run(&sv(&[
            "run",
            "--workload",
            "mcf",
            "--l1-size",
            "0",
            "--quiet",
        ]))
        .unwrap_err();
        assert!(
            e.contains("invalid configuration") && e.contains("got 0"),
            "{e}"
        );
    }

    #[test]
    fn run_rejects_a_non_power_of_two_l1_size() {
        let e = run(&sv(&[
            "run",
            "--workload",
            "mcf",
            "--l1-size",
            "3K",
            "--quiet",
        ]))
        .unwrap_err();
        assert!(e.contains("power of two") && e.contains("3072"), "{e}");
    }

    #[test]
    fn explore_with_a_one_instruction_window_is_an_error_not_a_panic() {
        let mut failed = 0;
        for w in SpecWorkload::ALL {
            if let Err(e) = run(&sv(&[
                "explore",
                "--workload",
                w.name(),
                "--instructions",
                "1",
            ])) {
                assert!(e.contains("exploration failed"), "{w}: {e}");
                failed += 1;
            }
        }
        assert!(failed > 0, "no workload hit the accessless window");
    }

    #[test]
    fn explore_with_accessless_short_windows_is_an_error() {
        for w in ["gamess", "lbm"] {
            for n in ["2", "3"] {
                let e = run(&sv(&["explore", "--workload", w, "--instructions", n])).unwrap_err();
                assert!(e.contains("zero accesses"), "{w} at {n}: {e}");
            }
        }
    }

    #[test]
    fn zero_instructions_and_unknown_repro_targets_are_rejected() {
        for cmd in [
            &["run", "--workload", "gcc"][..],
            &["explore", "--workload", "gcc"],
            &["online", "--workload", "gcc"],
            &["trace-dump", "--workload", "gcc"],
            &["repro", "fig6"],
        ] {
            let argv: Vec<&str> = cmd
                .iter()
                .chain(&["--instructions", "0"])
                .copied()
                .collect();
            let e = run(&sv(&argv)).unwrap_err();
            assert!(
                e.contains("--instructions") && e.contains("positive"),
                "{}: {e}",
                cmd[0]
            );
        }
        let e = run(&sv(&["repro", "fig9"])).unwrap_err();
        assert!(e.contains("unknown repro target"), "{e}");
        let e = run(&sv(&["repro"])).unwrap_err();
        assert!(e.contains("missing repro target"), "{e}");
    }

    #[test]
    fn bad_grain_is_rejected() {
        let a = args::parse(&sv(&["explore", "--grain", "7.0"])).unwrap();
        assert!(grain_from(&a, 0.3).is_err());
    }

    #[test]
    fn online_telemetry_jsonl_end_to_end() {
        let dir = std::env::temp_dir().join("lpm-cli-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let path_s = path.to_str().unwrap().to_string();
        run(&sv(&[
            "online",
            "--workload",
            "bwaves",
            "--instructions",
            "200000",
            "--interval",
            "5000",
            "--quiet",
            "--telemetry-out",
            &path_s,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let log = TelemetryLog::from_jsonl(&text).unwrap();
        assert!(!log.snapshots.is_empty());
        // Every decision the controller took is in the event log.
        let decisions = log.events.iter().filter(|e| e.kind() == "decision").count();
        assert_eq!(decisions as u64, log.summary.intervals);
        // Health counters ride along even without faults.
        assert!(log.summary.health.is_some());
        // Per-layer C-AMAT components are present for every layer.
        for s in &log.snapshots {
            assert!(s.layers.iter().any(|l| l.name == "L1"));
            assert!(s.layers.iter().any(|l| l.name == "DRAM"));
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn online_telemetry_csv_end_to_end() {
        let dir = std::env::temp_dir().join("lpm-cli-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.csv");
        let path_s = path.to_str().unwrap().to_string();
        run(&sv(&[
            "online",
            "--workload",
            "bwaves",
            "--instructions",
            "200000",
            "--interval",
            "5000",
            "--quiet",
            "--telemetry-format",
            "csv",
            "--telemetry-out",
            &path_s,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let log = TelemetryLog::from_csv(&text).unwrap();
        assert!(!log.snapshots.is_empty());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bad_telemetry_format_is_rejected() {
        let e = render_telemetry(&TelemetryLog::default(), "xml").unwrap_err();
        assert!(e.contains("--telemetry-format"));
    }

    #[test]
    fn sweep_rejects_zero_and_non_numeric_jobs() {
        let e = run(&sv(&["sweep", "--jobs", "0"])).unwrap_err();
        assert!(e.contains("--jobs") && e.contains("positive"), "{e}");
        let e = run(&sv(&["sweep", "--jobs", "many"])).unwrap_err();
        assert!(e.contains("--jobs") && e.contains("\"many\""), "{e}");
    }

    #[test]
    fn sweep_rejects_unknown_config_workload_and_fault_class() {
        let e = run(&sv(&["sweep", "--configs", "A,Z"])).unwrap_err();
        assert!(e.contains("\"Z\""), "{e}");
        let e = run(&sv(&["sweep", "--workloads", "nope"])).unwrap_err();
        assert!(e.contains("unknown workload"), "{e}");
        let e = run(&sv(&["sweep", "--faults", "meteor"])).unwrap_err();
        assert!(e.contains("unknown fault class"), "{e}");
        let e = run(&sv(&["sweep", "--telemetry-format", "xml"])).unwrap_err();
        assert!(e.contains("--telemetry-format"), "{e}");
    }

    #[test]
    fn sweep_keep_going_renders_partial_report_and_exits_3() {
        let dir = std::env::temp_dir().join("lpm-cli-sweep-keepgoing");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("partial.csv");
        let path_s = path.to_str().unwrap().to_string();
        let base = [
            "sweep",
            "--configs",
            "A,C",
            "--instructions",
            "30000",
            "--intervals",
            "2",
            "--interval",
            "5000",
            "--warmup",
            "5000",
            "--chaos",
            "panic@1",
            "--quiet",
        ];
        // Without --keep-going the chaos point is a hard error.
        let mut fail_fast = sv(&base);
        let e = run(&fail_fast).unwrap_err();
        assert!(e.contains("injected panic at point 1"), "{e}");
        // With it, the sweep completes, writes the partial report, and
        // signals partiality through the exit code.
        fail_fast.push("--keep-going".into());
        fail_fast.push("--telemetry-format".into());
        fail_fast.push("csv".into());
        fail_fast.push("--telemetry-out".into());
        fail_fast.push(path_s.clone());
        assert_eq!(run(&fail_fast).unwrap(), EXIT_PARTIAL);
        let csv = std::fs::read_to_string(&path).unwrap();
        assert!(csv.contains(",panicked,"), "{csv}");
        assert!(csv.contains(",ok,"), "{csv}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn sweep_resume_without_checkpoint_is_rejected() {
        let e = run(&sv(&["sweep", "--resume"])).unwrap_err();
        assert!(e.contains("--checkpoint"), "{e}");
    }

    #[test]
    fn sweep_bad_chaos_and_zero_budget_are_rejected() {
        let e = run(&sv(&["sweep", "--chaos", "meteor@1"])).unwrap_err();
        assert!(e.contains("--chaos"), "{e}");
        let e = run(&sv(&["sweep", "--chaos-io", "meteor@1"])).unwrap_err();
        assert!(e.contains("--chaos-io"), "{e}");
        let e = run(&sv(&["sweep", "--point-cycle-budget", "0"])).unwrap_err();
        assert!(e.contains("positive"), "{e}");
    }

    #[test]
    fn sweep_checkpoint_resume_reproduces_the_report() {
        let dir = std::env::temp_dir().join("lpm-cli-sweep-resume");
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("journal.jsonl");
        let out_a = dir.join("a.jsonl");
        let out_b = dir.join("b.jsonl");
        let args_for = |out: &std::path::Path, resume: bool| {
            let mut v = sv(&[
                "sweep",
                "--configs",
                "A,C",
                "--instructions",
                "30000",
                "--intervals",
                "2",
                "--interval",
                "5000",
                "--warmup",
                "5000",
                "--quiet",
                "--checkpoint",
                journal.to_str().unwrap(),
                "--telemetry-out",
                out.to_str().unwrap(),
            ]);
            if resume {
                v.push("--resume".into());
            }
            v
        };
        // Full run, journaling as it goes.
        assert_eq!(run(&args_for(&out_a, false)).unwrap(), 0);
        let full = std::fs::read_to_string(&journal).unwrap();
        // Truncate the journal to simulate a kill after the first point,
        // then resume: only the missing point re-runs, and the exported
        // report is byte-identical.
        let keep: Vec<&str> = full.lines().take(3).collect(); // header + row + marker
        std::fs::write(&journal, format!("{}\n", keep.join("\n"))).unwrap();
        assert_eq!(run(&args_for(&out_b, true)).unwrap(), 0);
        let a = std::fs::read_to_string(&out_a).unwrap();
        let b = std::fs::read_to_string(&out_b).unwrap();
        assert_eq!(a, b);
        for p in [journal, out_a, out_b] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn sweep_bad_retry_backoff_is_a_typed_error() {
        let e = run(&sv(&["sweep", "--retry-backoff-cycles", "soon"])).unwrap_err();
        assert!(e.contains("--retry-backoff-cycles"), "{e}");
        let e = run(&sv(&["sweep", "--max-retries", "lots"])).unwrap_err();
        assert!(e.contains("--max-retries"), "{e}");
    }

    #[test]
    fn client_needs_action_and_endpoint() {
        let e = run(&sv(&["client"])).unwrap_err();
        assert!(e.contains("missing client action"), "{e}");
        let e = run(&sv(&["client", "ping"])).unwrap_err();
        assert!(e.contains("--addr") && e.contains("--state"), "{e}");
        let e = run(&sv(&["client", "warp", "--addr", "127.0.0.1:1"])).unwrap_err();
        assert!(e.contains("unknown client action"), "{e}");
    }

    #[test]
    fn serve_needs_a_state_dir() {
        let e = run(&sv(&["serve"])).unwrap_err();
        assert!(e.contains("--state"), "{e}");
    }

    #[test]
    fn journal_rejects_missing_and_unknown_actions() {
        let e = run(&sv(&["journal"])).unwrap_err();
        assert!(e.contains("ls|verify|rm"), "{e}");
        let e = run(&sv(&["journal", "defrag", "x.jsonl"])).unwrap_err();
        assert!(e.contains("unknown journal action"), "{e}");
        let e = run(&sv(&["journal", "ls"])).unwrap_err();
        assert!(e.contains("at least one"), "{e}");
    }

    /// The spec flags of [`write_real_journal`]'s sweep.
    const JOURNAL_SPEC_FLAGS: &[&str] = &[
        "--configs",
        "A",
        "--instructions",
        "30000",
        "--intervals",
        "2",
        "--interval",
        "5000",
        "--warmup",
        "5000",
    ];

    /// Run a tiny journaled sweep into `journal_path` so journal
    /// subcommand tests have a real, intact journal to chew on.
    fn write_real_journal(journal_path: &std::path::Path) {
        let mut argv = vec!["sweep"];
        argv.extend_from_slice(JOURNAL_SPEC_FLAGS);
        argv.extend(["--quiet", "--checkpoint", journal_path.to_str().unwrap()]);
        run(&sv(&argv)).unwrap();
    }

    /// A serve job manifest for [`write_real_journal`]'s spec in `status`.
    fn job_manifest(status: lpm_serve::JobStatus) -> String {
        let mut argv = vec!["sweep"];
        argv.extend_from_slice(JOURNAL_SPEC_FLAGS);
        let spec = sweep_spec_from(&args::parse(&sv(&argv)).unwrap()).unwrap();
        let job = lpm_serve::state::Job {
            id: format!("1-{:016x}", spec.fingerprint()),
            tenant: "t".into(),
            seq: 1,
            fingerprint: spec.fingerprint(),
            spec,
            jobs: 1,
            deadline_ms: None,
            status,
            detail: String::new(),
            retries_left: 0,
            cancel: Default::default(),
            cancel_cause: None,
            started: None,
            not_before: None,
        };
        lpm_serve::state::manifest_to_json(&job).unwrap().to_json() + "\n"
    }

    #[test]
    fn journal_ls_verify_and_rm_lifecycle() {
        let dir = std::env::temp_dir().join(format!("lpm-cli-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("j.jsonl");
        write_real_journal(&journal);
        let journal_s = journal.to_str().unwrap().to_string();

        // ls and verify accept both the file and its directory.
        assert_eq!(run(&sv(&["journal", "ls", &journal_s])).unwrap(), 0);
        assert_eq!(
            run(&sv(&["journal", "ls", dir.to_str().unwrap()])).unwrap(),
            0
        );
        assert_eq!(run(&sv(&["journal", "verify", &journal_s])).unwrap(), 0);

        // Interior corruption: verify fails typed, rm --force still clears it.
        let text = std::fs::read_to_string(&journal).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.insert(1, "{garbage");
        let corrupted = format!("{}\n", lines.join("\n"));
        std::fs::write(&journal, &corrupted).unwrap();
        assert_eq!(run(&sv(&["journal", "verify", &journal_s])).unwrap(), 1);
        assert_eq!(run(&sv(&["journal", "rm", &journal_s])).unwrap(), 1);
        assert!(
            journal.exists(),
            "rm must not delete what it cannot inspect"
        );
        assert_eq!(
            run(&sv(&["journal", "rm", "--force", &journal_s])).unwrap(),
            0
        );
        assert!(!journal.exists());

        // A healthy journal rm-s without force.
        write_real_journal(&journal);
        assert_eq!(run(&sv(&["journal", "rm", &journal_s])).unwrap(), 0);
        assert!(!journal.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_rm_refuses_live_specs_until_forced() {
        use lpm_serve::{JobStatus, StateDir};

        // Build a serve-style state dir by hand: journals/ + jobs/ with
        // a queued manifest for the journal's spec.
        let state =
            std::env::temp_dir().join(format!("lpm-cli-journal-live-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state);
        let dir = StateDir::new(&state);
        dir.create().unwrap();
        let journal = state.join("journals").join("j.jsonl");
        write_real_journal(&journal);
        let manifest_path = state.join("jobs").join("live.json");
        std::fs::write(&manifest_path, job_manifest(JobStatus::Queued)).unwrap();

        let journal_s = journal.to_str().unwrap().to_string();
        assert_eq!(run(&sv(&["journal", "rm", &journal_s])).unwrap(), 1);
        assert!(journal.exists(), "live journal must survive plain rm");
        // A completed job whose report is missing is resumed by recovery,
        // so it still guards the journal ...
        std::fs::write(&manifest_path, job_manifest(JobStatus::Completed)).unwrap();
        assert_eq!(run(&sv(&["journal", "rm", &journal_s])).unwrap(), 1);
        assert!(
            journal.exists(),
            "a journal recovery resumes from must survive"
        );
        // ... its report releases the guard ...
        let info = lpm_harness::inspect_journal(&lpm_harness::Vfs::real(), &journal)
            .unwrap()
            .info;
        std::fs::write(dir.report_path(info.fingerprint), "").unwrap();
        assert_eq!(run(&sv(&["journal", "rm", &journal_s])).unwrap(), 0);
        assert!(!journal.exists());
        // ... and --force overrides even a live one.
        write_real_journal(&journal);
        std::fs::write(&manifest_path, job_manifest(JobStatus::Queued)).unwrap();
        assert_eq!(
            run(&sv(&["journal", "rm", "--force", &journal_s])).unwrap(),
            0
        );
        assert!(!journal.exists());
        let _ = std::fs::remove_dir_all(&state);
    }

    #[test]
    fn sweep_end_to_end_writes_jsonl() {
        let dir = std::env::temp_dir().join("lpm-cli-sweep-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.jsonl");
        let path_s = path.to_str().unwrap().to_string();
        run(&sv(&[
            "sweep",
            "--configs",
            "A",
            "--workloads",
            "bwaves",
            "--instructions",
            "30000",
            "--intervals",
            "2",
            "--interval",
            "5000",
            "--warmup",
            "5000",
            "--jobs",
            "2",
            "--quiet",
            "--telemetry-out",
            &path_s,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let point_lines = text
            .lines()
            .filter(|l| l.contains("\"type\":\"point\""))
            .count();
        assert_eq!(point_lines, 1);
        assert!(text.contains("\"type\":\"snapshot\""));
        std::fs::remove_file(path).ok();
    }
}

#[cfg(test)]
mod trace_io_tests {
    use super::*;

    fn sv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn dump_then_run_roundtrip() {
        let dir = std::env::temp_dir().join("lpm-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bzip2.trace");
        let path_s = path.to_str().unwrap();
        run(&sv(&[
            "trace-dump",
            "--workload",
            "bzip2",
            "--instructions",
            "4000",
            "--out",
            path_s,
        ]))
        .unwrap();
        run(&sv(&["run", "--trace", path_s])).unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn run_missing_trace_file_errors() {
        let e = run(&sv(&["run", "--trace", "/nonexistent/xyz.trace"])).unwrap_err();
        assert!(e.contains("cannot open"));
    }

    #[test]
    fn dump_without_out_errors() {
        let e = run(&sv(&["trace-dump", "--workload", "bzip2"])).unwrap_err();
        assert!(e.contains("--out"));
    }
}
