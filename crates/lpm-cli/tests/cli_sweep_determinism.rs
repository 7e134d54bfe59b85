//! End-to-end determinism check through the real binary: `lpm-cli sweep
//! --jobs 8` must produce byte-identical stdout and telemetry exports to
//! `--jobs 1` on the same point set. This is the acceptance criterion
//! for the parallel sweep engine, enforced at the outermost interface —
//! argv in, bytes out — so no amount of internal refactoring can
//! silently trade determinism away.
//!
//! Also pins the typed argument errors for `--jobs` and for a warm-up
//! that leaves nothing to measure.

use std::path::PathBuf;
use std::process::Command;

/// A 4-point sweep (2 configs × {clean, faulted}) sized for debug runs.
const SWEEP_ARGS: &[&str] = &[
    "sweep",
    "--configs",
    "A,C",
    "--workloads",
    "bwaves",
    "--seeds",
    "7",
    "--faults",
    "all",
    "--fault-seeds",
    "42",
    "--instructions",
    "30000",
    "--intervals",
    "3",
    "--interval",
    "5000",
    "--warmup",
    "5000",
];

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Run one sweep, returning `(stdout, exported telemetry bytes)`.
fn run_sweep(jobs: &str, format: &str, out_name: &str) -> (Vec<u8>, Vec<u8>) {
    let out_path = tmp(out_name);
    let out = Command::new(env!("CARGO_BIN_EXE_lpm-cli"))
        .args(SWEEP_ARGS)
        .args(["--jobs", jobs, "--telemetry-format", format])
        .arg("--telemetry-out")
        .arg(&out_path)
        .output()
        .expect("lpm-cli should run");
    assert!(
        out.status.success(),
        "sweep --jobs {jobs} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let exported =
        std::fs::read(&out_path).unwrap_or_else(|e| panic!("read {}: {e}", out_path.display()));
    (out.stdout, exported)
}

#[test]
fn jobs8_is_byte_identical_to_jobs1() {
    let (stdout1, jsonl1) = run_sweep("1", "jsonl", "sweep-j1.jsonl");
    let (stdout8, jsonl8) = run_sweep("8", "jsonl", "sweep-j8.jsonl");
    assert!(
        stdout1 == stdout8,
        "sweep stdout differs between --jobs 1 and --jobs 8"
    );
    assert!(
        jsonl1 == jsonl8,
        "exported JSONL differs between --jobs 1 and --jobs 8"
    );
    assert!(!jsonl1.is_empty(), "telemetry export must not be empty");

    let (_, csv1) = run_sweep("1", "csv", "sweep-j1.csv");
    let (_, csv8) = run_sweep("8", "csv", "sweep-j8.csv");
    assert!(
        csv1 == csv8,
        "exported CSV differs between --jobs 1 and --jobs 8"
    );
}

#[test]
fn bad_jobs_values_are_rejected_with_typed_errors() {
    for (value, needle) in [("0", "positive integer"), ("four", "\"four\"")] {
        let out = Command::new(env!("CARGO_BIN_EXE_lpm-cli"))
            .args(["sweep", "--jobs", value])
            .output()
            .expect("lpm-cli should run");
        assert!(
            !out.status.success(),
            "sweep --jobs {value} must be rejected"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--jobs") && stderr.contains(needle),
            "error for --jobs {value} should name the flag and the value, got: {stderr}"
        );
    }
}

#[test]
fn warmup_that_uses_up_the_looped_trace_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_lpm-cli"))
        .args([
            "sweep",
            "--configs",
            "A",
            "--workloads",
            "mcf",
            "--seeds",
            "1",
        ])
        .args(["--instructions", "3000", "--warmup", "99999999999"])
        .output()
        .expect("lpm-cli should run");
    assert_eq!(
        out.status.code(),
        Some(1),
        "a sweep with nothing to measure must fail"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("nothing to measure") && stderr.contains("99999999999"),
        "error should name the warm-up, got: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no report may be printed");
}
