//! Golden snapshots of every `lpm-cli repro` target.
//!
//! Each target's stdout is fully seeded, so it is pinned byte for byte
//! in `tests/golden/repro_<target>.txt` at a 2 000-instruction window
//! (`fig1` and `intervals` take no window and ignore it). A diff means
//! a paper result changed; regenerate intentionally with
//! `UPDATE_GOLDEN=1 cargo test -p lpm-cli --test golden_repro`.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use lpm_bench::repro::TARGETS;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../tests/golden/{name}"))
}

/// Compare `actual` against the named golden file (regenerating it when
/// `UPDATE_GOLDEN=1` is set); returns a description of any mismatch.
fn check_golden(name: &str, actual: &str) -> Option<String> {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return None;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    (expected != actual)
        .then(|| format!("{name} drifted:\n--- expected ---\n{expected}\n--- actual ---\n{actual}"))
}

#[test]
fn every_repro_target_matches_its_snapshot() {
    // Start every target at once; each is an independent process.
    let children: Vec<_> = TARGETS
        .iter()
        .map(|target| {
            let child = Command::new(env!("CARGO_BIN_EXE_lpm-cli"))
                .args(["repro", target, "--instructions", "2000"])
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("lpm-cli should start");
            (target, child)
        })
        .collect();
    let mut drifted = Vec::new();
    for (target, child) in children {
        let out = child.wait_with_output().expect("lpm-cli should finish");
        assert!(
            out.status.success(),
            "lpm-cli repro {target} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
        drifted.extend(check_golden(&format!("repro_{target}.txt"), &stdout));
    }
    assert!(
        drifted.is_empty(),
        "{}\nIf the change is intended, regenerate with UPDATE_GOLDEN=1.",
        drifted.join("\n")
    );
}
