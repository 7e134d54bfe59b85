//! `telemetry_check` on the sweep summary CSV that `lpm-cli sweep
//! --telemetry-format csv` writes: a clean sweep and a `--keep-going`
//! sweep with a panicked point both validate, and a truncated row is
//! refused.

use std::path::{Path, PathBuf};
use std::process::Command;

const LPM_CLI: &str = env!("CARGO_BIN_EXE_lpm-cli");
const TELEMETRY_CHECK: &str = env!("CARGO_BIN_EXE_telemetry_check");

/// A 2-point sweep sized for debug runs.
const SPEC_FLAGS: &[&str] = &[
    "--configs",
    "A,C",
    "--workloads",
    "bwaves",
    "--seeds",
    "7",
    "--instructions",
    "30000",
    "--intervals",
    "2",
    "--interval",
    "5000",
    "--warmup",
    "5000",
];

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Run a CSV sweep with `extra` flags into `name`; returns the sweep's
/// exit code and the export path.
fn sweep_csv(name: &str, extra: &[&str]) -> (Option<i32>, PathBuf) {
    let path = tmp(name);
    let out = Command::new(LPM_CLI)
        .arg("sweep")
        .args(SPEC_FLAGS)
        .args(extra)
        .args(["--quiet", "--telemetry-format", "csv", "--telemetry-out"])
        .arg(&path)
        .output()
        .expect("run lpm-cli sweep");
    (out.status.code(), path)
}

/// `telemetry_check`'s exit code and combined output on `path`.
fn check(path: &Path) -> (Option<i32>, String) {
    let out = Command::new(TELEMETRY_CHECK)
        .arg(path)
        .output()
        .expect("run telemetry_check");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code(), text)
}

#[test]
fn sweep_csv_exports_validate_and_a_truncated_row_does_not() {
    let (code, clean) = sweep_csv("clean.csv", &[]);
    assert_eq!(code, Some(0), "clean sweep");
    let (code, out) = check(&clean);
    assert_eq!(code, Some(0), "clean sweep CSV refused: {out}");
    assert!(out.contains("2 points (0 not ok)"), "{out}");

    let (code, partial) = sweep_csv("partial.csv", &["--keep-going", "--chaos", "panic@1"]);
    assert_eq!(
        code,
        Some(3),
        "a keep-going sweep with a panicked point exits 3"
    );
    let (code, out) = check(&partial);
    assert_eq!(code, Some(0), "keep-going sweep CSV refused: {out}");
    assert!(out.contains("2 points (1 not ok)"), "{out}");

    let text = std::fs::read_to_string(&clean).expect("read clean CSV");
    let last = text.trim_end().rfind(',').expect("a row has cells");
    let truncated = tmp("truncated.csv");
    std::fs::write(&truncated, format!("{}\n", &text[..last])).expect("write truncated CSV");
    let (code, out) = check(&truncated);
    assert_eq!(code, Some(1), "truncated row accepted: {out}");
    assert!(
        out.contains("22 cells, the sweep CSV header has 23"),
        "{out}"
    );
}
