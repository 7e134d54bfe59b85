//! The LPM workspace benchmark: one workload per process, end-to-end
//! metrics by default, per-layer metrics with `--trace 1`.
//!
//! ```text
//! lpm-perfbench --workload figures|sweep-membound|serve-mix --seed N
//!     --seconds S --trace 0|1 --lpm-cli PATH --tmp DIR
//!     [--tiny] [--canary CHECK]
//! ```
//!
//! `perfbench/run.py` builds this binary and `lpm-cli` and supplies the
//! paths. The last line of stdout is the result object; the two lines
//! before it carry the run's facts and its correctness checks.

mod figures;
mod probe;
mod report;
mod serve;
mod stats;
mod sweep;

use std::path::PathBuf;

use report::Outcome;

/// The seed the committed digests were recorded with.
const DEFAULT_SEED: u64 = 7;

/// Committed output digests: `workload scale seed digest` per line.
const DIGESTS: &str = include_str!("../digests.txt");

/// One run's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A reduced scale for the benchmark's own smoke test.
    pub tiny: bool,
    /// CPUs this process may use (affinity and cgroup quota included):
    /// the sweep's worker threads and the daemon's runners × jobs.
    pub nproc: usize,
    pub lpm_cli: PathBuf,
    pub tmp: PathBuf,
}

impl Ctx {
    fn scale(&self) -> &'static str {
        if self.tiny {
            "tiny"
        } else {
            "full"
        }
    }
}

/// Record the output digest and, at the default seed, check it against
/// the committed one.
pub fn check_digest(ctx: &Ctx, out: &mut Outcome, check: &str, parts: &[&[u8]]) {
    let digest = format!("{:016x}", stats::fnv1a(parts));
    out.info("digest", format!("\"{digest}\""));
    if ctx.seed != DEFAULT_SEED {
        return;
    }
    let expected = DIGESTS.lines().find_map(|l| {
        let f: Vec<&str> = l.split_whitespace().collect();
        (f.len() == 4 && f[0] == ctx.workload && f[1] == ctx.scale() && f[2] == "7")
            .then(|| f[3].to_string())
    });
    let name = format!("{check}.digest");
    match expected {
        Some(e) => {
            let seen = out.bytes_for(&name, digest.clone());
            out.check(
                &name,
                seen == e,
                &format!("digest {seen} differs from the committed {e}"),
            );
        }
        None => out.check(&name, false, "no committed digest for this workload"),
    }
}

fn parse(args: &[String]) -> Result<(Ctx, Option<String>), String> {
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let need = |v: Option<String>, flag: &str| v.ok_or(format!("missing {flag}"));
    let workload = need(get("--workload"), "--workload")?;
    let seed = need(get("--seed"), "--seed")?
        .parse::<u64>()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds = need(get("--seconds"), "--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match need(get("--trace"), "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        trace,
        tiny: args.iter().any(|a| a == "--tiny"),
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        lpm_cli: PathBuf::from(need(get("--lpm-cli"), "--lpm-cli")?),
        tmp: PathBuf::from(need(get("--tmp"), "--tmp")?),
    };
    Ok((ctx, get("--canary")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (ctx, canary) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::new(canary);
    out.info("workload", format!("\"{}\"", ctx.workload));
    out.info("seed", ctx.seed.to_string());
    out.info("seconds", ctx.seconds.to_string());
    out.info("trace", ctx.trace.to_string());
    out.info("scale", format!("\"{}\"", ctx.scale()));
    out.info("nproc", ctx.nproc.to_string());
    if let Err(e) = std::fs::create_dir_all(&ctx.tmp) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.tmp.display());
        std::process::exit(2);
    }
    let steal0 = stats::steal_ticks();
    let result = match ctx.workload.as_str() {
        "figures" => figures::run(&ctx, &mut out),
        "sweep-membound" => sweep::run(&ctx, &mut out),
        "serve-mix" => serve::run(&ctx, &mut out),
        w => Err(format!("unknown workload {w}")),
    };
    if let (Some((s0, t0)), Some((s1, t1))) = (steal0, stats::steal_ticks()) {
        let ratio = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        out.info("host_steal_ratio", format!("{ratio:.4}"));
    }
    stats::remove_tree(&ctx.tmp);
    if let Err(e) = result {
        // An operation that failed outright ends the run without a result.
        eprintln!("perfbench: {} failed: {e}", ctx.workload);
        std::process::exit(1);
    }
    std::process::exit(out.finish(ctx.trace));
}
