//! The checkpoint journal has one reader, so every tool that reads a
//! journal must accept or refuse the same files: `telemetry_check`,
//! `lpm-cli journal verify` and `lpm-cli sweep --resume`. This table
//! test derives damaged and unusual variants from one real journal and
//! runs all three on each.

use std::path::{Path, PathBuf};
use std::process::Command;

use lpm_telemetry::Value;

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

/// Rewrite the JSON object on `line` through `edit`.
fn edit_record(line: &str, edit: impl FnOnce(&mut Vec<(String, Value)>)) -> String {
    let Value::Obj(mut fields) = Value::parse(line).expect("journal record parses") else {
        panic!("record is not an object: {line}");
    };
    edit(&mut fields);
    Value::Obj(fields).to_json()
}

/// Set field `key` of an object's fields.
fn set(fields: &mut [(String, Value)], key: &str, value: Value) {
    let slot = fields
        .iter_mut()
        .find(|(k, _)| k == key)
        .expect("field to set exists");
    slot.1 = value;
}

/// Whether each reader accepts the journal at `path`:
/// `(telemetry_check, journal verify, sweep --resume)`, plus the
/// stdout of the first two.
fn readers(path: &Path) -> ([bool; 3], String) {
    let check = Command::new(TELEMETRY_CHECK)
        .arg(path)
        .output()
        .expect("run telemetry_check");
    let verify = Command::new(LPM_CLI)
        .args(["journal", "verify"])
        .arg(path)
        .output()
        .expect("run journal verify");
    // Resume last: it truncates a torn tail away.
    let resume = Command::new(LPM_CLI)
        .arg("sweep")
        .args(SPEC_FLAGS)
        .args(["--quiet", "--resume", "--checkpoint"])
        .arg(path)
        .arg("--telemetry-out")
        .arg(path.with_extension("export.jsonl"))
        .output()
        .expect("run sweep --resume");
    let stdout = format!(
        "{}{}",
        String::from_utf8_lossy(&check.stdout),
        String::from_utf8_lossy(&verify.stdout)
    );
    (
        [
            check.status.success(),
            verify.status.success(),
            resume.status.success(),
        ],
        stdout,
    )
}

#[test]
fn telemetry_check_verify_and_resume_accept_the_same_journals() {
    let journal = tmp("agree.journal.jsonl");
    let _ = std::fs::remove_file(&journal);
    let out = Command::new(LPM_CLI)
        .arg("sweep")
        .args(SPEC_FLAGS)
        .args(["--quiet", "--checkpoint"])
        .arg(&journal)
        .arg("--telemetry-out")
        .arg(tmp("agree.export.jsonl"))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // Header, then a row and its marker event per point.
    assert_eq!(lines.len(), 5, "{text}");
    let (header, row) = (lines[0], lines[1]);
    let with_line = |i: usize, replacement: &str| {
        let mut l = lines.clone();
        l[i] = replacement;
        format!("{}\n", l.join("\n"))
    };

    let failed_without_error = edit_record(row, |f| {
        set(f, "outcome", Value::Str("failed".into()));
        f.retain(|(k, _)| k != "result");
    });
    let unknown_workload = edit_record(row, |f| {
        let (_, point) = f.iter_mut().find(|(k, _)| k == "point").unwrap();
        let Value::Obj(point) = point else {
            panic!("row point is not an object")
        };
        set(point, "workload", Value::Str("no-such-workload".into()));
    });
    let version_2 = edit_record(header, |f| set(f, "version", Value::Uint(2)));
    let variants: [(&str, String, bool); 7] = [
        ("intact", text.clone(), true),
        (
            "torn final line",
            format!("{text}{{\"type\":\"checkpoint-row\",\"ind"),
            true,
        ),
        ("interior corruption", with_line(1, "{garbage"), false),
        ("version 2", with_line(0, &version_2), false),
        (
            "failed row without error",
            with_line(1, &failed_without_error),
            false,
        ),
        ("unknown workload", with_line(1, &unknown_workload), false),
        ("duplicated row", format!("{text}{row}\n"), true),
    ];

    let mut failures = Vec::new();
    for (name, body, accept) in variants {
        let path = tmp(&format!("agree-{}.jsonl", name.replace(' ', "-")));
        std::fs::write(&path, &body).unwrap();
        let (verdicts, stdout) = readers(&path);
        // Two points, each counted once — a duplicate included.
        let counted_once =
            !accept || (stdout.contains("2/2 rows") && stdout.contains("2 of 2 row(s) intact"));
        if verdicts != [accept; 3] || !counted_once {
            failures.push(format!(
                "{name}: (telemetry_check, journal verify, sweep --resume) accepted \
                 {verdicts:?}, expected {accept} from all three; stdout:\n{stdout}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
