//! Cross-process serve soak through the real `lpm-cli` binary: SIGTERM
//! a serving daemon mid-sweep (graceful drain + checkpoint), SIGKILL
//! its successor (rude death), restart, and assert that each resumed
//! report — a clean job and a faulted one — is byte-identical to an
//! uninterrupted serial `lpm sweep` of the same flags. The in-process variants of these phases live in
//! `lpm-serve/tests/serve_e2e.rs`; this test is the one that crosses a
//! real process boundary with real signals.

use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use lpm_serve::{signal, Client};
use lpm_telemetry::Value;

const BIN: &str = env!("CARGO_BIN_EXE_lpm-cli");

/// Spec flags shared by the serial reference run and the submit — both
/// go through the same `sweep_spec_from`, so the spec is identical by
/// construction.
const SPEC_FLAGS: &[&str] = &[
    "--configs",
    "A",
    "--workloads",
    "bwaves",
    "--seeds",
    "7,8,9",
    "--instructions",
    "30000",
    "--intervals",
    "3",
    "--interval",
    "5000",
    "--warmup",
    "5000",
];

fn spawn_serve(state: &Path) -> Child {
    let _ = std::fs::remove_file(state.join("endpoint"));
    let mut child = Command::new(BIN)
        .arg("serve")
        .arg("--state")
        .arg(state)
        .args(["--jobs", "2"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn lpm-cli serve");
    for _ in 0..200 {
        std::thread::sleep(Duration::from_millis(50));
        if let Ok(mut c) = Client::connect_state_dir(state) {
            if c.ping().is_ok() {
                return child;
            }
        }
    }
    let _ = child.kill();
    let _ = child.wait();
    panic!("lpm-cli serve never answered a ping within 10s");
}

/// The faulted job of the soak: the same small spec in a distinct seed
/// range, with a faulted sibling next to every clean point.
const FAULTED_SPEC_FLAGS: &[&str] = &[
    "--configs",
    "A",
    "--workloads",
    "bwaves",
    "--seeds",
    "100,101,102",
    "--instructions",
    "30000",
    "--intervals",
    "3",
    "--interval",
    "5000",
    "--warmup",
    "5000",
    "--faults",
    "all",
    "--fault-seeds",
    "42",
];

/// Run `lpm-cli` to success and return its stdout.
fn cli(args: &[&str], extra: &[&Path]) -> String {
    let out = Command::new(BIN)
        .args(args)
        .args(extra)
        .output()
        .expect("run lpm-cli");
    assert!(
        out.status.success(),
        "lpm-cli {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

#[test]
fn sigterm_then_sigkill_then_resume_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!("lpm-cli-serve-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let state = dir.join("state");
    let state_s = state.to_str().unwrap();
    let jobs = [SPEC_FLAGS, FAULTED_SPEC_FLAGS];

    // Uninterrupted serial references through the CLI itself.
    let references: Vec<String> = jobs
        .iter()
        .enumerate()
        .map(|(i, flags)| {
            let path = dir.join(format!("ref{i}.jsonl"));
            let mut args = vec!["sweep"];
            args.extend_from_slice(flags);
            args.extend(["--jobs", "1", "--quiet", "--telemetry-out"]);
            cli(&args, &[&path]);
            std::fs::read_to_string(&path).unwrap()
        })
        .collect();

    // Server #1: submit both jobs through `lpm-cli client`, then SIGTERM
    // it mid-sweep — it must drain, journal, and exit cleanly.
    let mut child = spawn_serve(&state);
    let ids: Vec<String> = jobs
        .iter()
        .map(|flags| {
            let mut args = vec!["client", "submit", "--state", state_s];
            args.extend_from_slice(flags);
            let resp = Value::parse(cli(&args, &[]).trim()).unwrap();
            assert_eq!(
                resp.get("ok").and_then(Value::as_bool),
                Some(true),
                "{resp:?}"
            );
            resp.get("id").and_then(Value::as_str).unwrap().to_string()
        })
        .collect();

    std::thread::sleep(Duration::from_millis(100));
    assert!(signal::send_term(child.id()), "SIGTERM delivery failed");
    let status = child.wait().unwrap();
    assert!(
        status.success(),
        "drained server exited uncleanly: {status}"
    );

    // Server #2: recovery requeues the jobs; SIGKILL it mid-sweep.
    let mut child = spawn_serve(&state);
    std::thread::sleep(Duration::from_millis(150));
    child.kill().unwrap();
    child.wait().unwrap();

    // Server #3: both jobs complete, and each resumed report is
    // byte-identical to its uninterrupted reference.
    let child = spawn_serve(&state);
    let mut client = Client::connect_state_dir(&state).unwrap();
    for (i, (id, reference)) in ids.iter().zip(&references).enumerate() {
        let fin = client.wait(id, Duration::from_secs(300)).unwrap();
        assert_eq!(
            fin.get("status").and_then(Value::as_str),
            Some("completed"),
            "{fin:?}"
        );
        let report_path = dir.join(format!("resumed{i}.jsonl"));
        cli(
            &["client", "report", id, "--state", state_s, "--out"],
            &[&report_path],
        );
        let resumed = std::fs::read_to_string(&report_path).unwrap();
        assert_eq!(
            &resumed, reference,
            "job {id}: resumed report must be byte-identical to the uninterrupted run"
        );
    }

    // `client shutdown` drains server #3; it must exit cleanly.
    cli(&["client", "shutdown", "--state", state_s], &[]);
    let status = child.wait_with_output().unwrap().status;
    assert!(status.success(), "server exited uncleanly: {status}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Live `metrics` counters must agree with the admission decisions the
/// daemon actually made: one fresh admission that completed, one
/// dedupe cache hit, one typed invalid-spec rejection — and the
/// Prometheus rendering of the same numbers scrapes through the CLI.
#[test]
fn metrics_counters_match_admission_decisions() {
    use lpm_serve::proto::obj;

    let dir = std::env::temp_dir().join(format!("lpm-cli-serve-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let state = dir.join("state");
    let child = spawn_serve(&state);
    let mut client = Client::connect_state_dir(&state).unwrap();

    // A fresh server answers with all-zero counters.
    let resp = client.metrics("json").unwrap();
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(resp.get("format").and_then(Value::as_str), Some("json"));
    let m = resp.get("metrics").cloned().unwrap();
    for key in ["admitted", "cache_hits", "completed", "queue_depth"] {
        assert_eq!(m.get(key).and_then(Value::as_u64), Some(0), "{key}");
    }

    // Decision 1: a fresh admission, run to completion.
    let out = Command::new(BIN)
        .args([
            "client",
            "submit",
            "--state",
            state.to_str().unwrap(),
            "--wait",
        ])
        .args(SPEC_FLAGS)
        .output()
        .expect("run client submit --wait");
    assert!(
        out.status.success(),
        "submit --wait failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let resp = Value::parse(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    assert_eq!(
        resp.get("status").and_then(Value::as_str),
        Some("completed")
    );

    // Decision 2: the identical spec again — a dedupe cache hit.
    let resp = {
        let out = Command::new(BIN)
            .args(["client", "submit", "--state", state.to_str().unwrap()])
            .args(SPEC_FLAGS)
            .output()
            .expect("run duplicate submit");
        assert!(out.status.success());
        Value::parse(String::from_utf8_lossy(&out.stdout).trim()).unwrap()
    };
    assert_eq!(resp.get("cached").and_then(Value::as_bool), Some(true));

    // Decision 3: a malformed spec — a typed invalid-spec rejection.
    let rej = client
        .request(&obj(vec![
            ("type", Value::Str("submit".into())),
            ("tenant", Value::Str("t".into())),
            ("spec", Value::Obj(vec![("garbage".into(), Value::Uint(1))])),
        ]))
        .unwrap();
    assert_eq!(rej.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(
        rej.get("reason").and_then(Value::as_str),
        Some("invalid-spec")
    );

    // The counters must reflect exactly those three decisions.
    let resp = client.metrics("json").unwrap();
    let m = resp.get("metrics").cloned().unwrap();
    assert_eq!(m.get("admitted").and_then(Value::as_u64), Some(1));
    assert_eq!(m.get("cache_hits").and_then(Value::as_u64), Some(1));
    assert_eq!(m.get("completed").and_then(Value::as_u64), Some(1));
    assert_eq!(
        m.get("rejected")
            .and_then(|r| r.get("invalid-spec"))
            .and_then(Value::as_u64),
        Some(1)
    );
    assert_eq!(
        m.get("jobs")
            .and_then(|j| j.get("completed"))
            .and_then(Value::as_u64),
        Some(1)
    );
    // SPEC_FLAGS sweeps 3 seeds × 1 config × 1 workload = 3 points.
    assert_eq!(m.get("points_done").and_then(Value::as_u64), Some(3));
    assert!(m.get("busy_ns").and_then(Value::as_u64).unwrap() > 0);
    assert!(m.get("points_per_sec").and_then(Value::as_f64).unwrap() > 0.0);

    // Prometheus text exposition carries the same numbers, raw on
    // stdout via the CLI so scrapers can pipe it.
    let out = Command::new(BIN)
        .args([
            "client",
            "metrics",
            "--format",
            "prometheus",
            "--state",
            state.to_str().unwrap(),
        ])
        .output()
        .expect("run client metrics --format prometheus");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("# TYPE lpm_serve_admitted_total counter"),
        "{text}"
    );
    assert!(text.contains("lpm_serve_admitted_total 1"), "{text}");
    assert!(text.contains("lpm_serve_cache_hits_total 1"), "{text}");
    assert!(
        text.contains("lpm_serve_rejected_total{reason=\"invalid-spec\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("lpm_serve_jobs{state=\"completed\"} 1"),
        "{text}"
    );
    assert!(text.contains("lpm_serve_points_total 3"), "{text}");

    // An unknown format is a typed bad-request, not a hangup.
    let bad = client.metrics("xml").unwrap();
    assert_eq!(bad.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(
        bad.get("reason").and_then(Value::as_str),
        Some("bad-request")
    );

    let out = Command::new(BIN)
        .args(["client", "shutdown", "--state", state.to_str().unwrap()])
        .output()
        .expect("run client shutdown");
    assert!(out.status.success());
    let mut child = child;
    child.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_journal_sees_and_guards_the_daemon_state_dir() {
    let dir = std::env::temp_dir().join(format!("lpm-cli-serve-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let state = dir.join("state");

    // Run one job to completion so the state dir holds a journal plus a
    // terminal manifest.
    let child = spawn_serve(&state);
    let out = Command::new(BIN)
        .args([
            "client",
            "submit",
            "--state",
            state.to_str().unwrap(),
            "--wait",
        ])
        .args(SPEC_FLAGS)
        .output()
        .expect("run client submit --wait");
    assert!(
        out.status.success(),
        "submit --wait failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let resp = Value::parse(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    assert_eq!(
        resp.get("status").and_then(Value::as_str),
        Some("completed")
    );

    // journal ls/verify over the daemon's journals directory.
    let journals = state.join("journals");
    for action in ["ls", "verify"] {
        let out = Command::new(BIN)
            .args(["journal", action])
            .arg(&journals)
            .output()
            .expect("run journal subcommand");
        assert!(
            out.status.success(),
            "journal {action} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // The job is terminal, so rm proceeds without --force.
    let out = Command::new(BIN)
        .args(["journal", "rm"])
        .arg(&journals)
        .output()
        .expect("run journal rm");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = Command::new(BIN)
        .args(["client", "shutdown", "--state", state.to_str().unwrap()])
        .output()
        .expect("run client shutdown");
    assert!(out.status.success());
    let mut child = child;
    child.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_rm_guards_a_completed_job_whose_report_is_missing() {
    use lpm_harness::{CheckpointJournal, SweepSpec};
    use lpm_serve::state::{persist_manifest, Job};
    use lpm_serve::{JobStatus, StateDir};

    // Recovery re-enqueues a completed job whose report file is gone and
    // resumes it from its journal, so that journal is live.
    let root = std::env::temp_dir().join(format!("lpm-cli-serve-live-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let state = StateDir::new(root.join("state"));
    state.create().unwrap();
    let spec = SweepSpec::default();
    let fingerprint = spec.fingerprint();
    CheckpointJournal::create(
        &state.journal_path(fingerprint),
        fingerprint,
        spec.points().len(),
    )
    .unwrap();
    let job = Job {
        id: format!("1-{fingerprint:016x}"),
        tenant: "t".into(),
        seq: 1,
        fingerprint,
        spec,
        jobs: 1,
        deadline_ms: None,
        status: JobStatus::Completed,
        detail: String::new(),
        retries_left: 0,
        cancel: Default::default(),
        cancel_cause: None,
        started: None,
        not_before: None,
    };
    persist_manifest(&state, &job).unwrap();

    let rm = || {
        Command::new(BIN)
            .args(["journal", "rm"])
            .arg(state.journals_dir())
            .output()
            .expect("run journal rm")
    };
    let out = rm();
    assert_eq!(out.status.code(), Some(1), "rm must refuse a live journal");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains(&format!("live job {}", job.id)),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(state.journal_path(fingerprint).exists());

    // With the report on disk the job is done for good; rm proceeds.
    std::fs::write(state.report_path(fingerprint), "").unwrap();
    let out = rm();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!state.journal_path(fingerprint).exists());
    let _ = std::fs::remove_dir_all(&root);
}
