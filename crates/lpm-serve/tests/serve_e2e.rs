//! In-process end-to-end tests for the serve daemon: real TCP, real
//! state directory, real sweeps — only the process boundary is
//! simulated (the cross-process SIGTERM/SIGKILL soak lives in
//! `lpm-cli`'s `cli_serve` integration test).

use std::time::Duration;

use lpm_harness::{run_sweep_with, SweepOptions, SweepSpec};
use lpm_serve::{read_endpoint, start, Client, ServerConfig};
use lpm_telemetry::Value;

fn state_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("lpm-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Small but not instant: 8 points of harness tiny-spec scale.
fn sweep_spec(seed_base: u64) -> SweepSpec {
    SweepSpec {
        seeds: vec![seed_base, seed_base + 1, seed_base + 2, seed_base + 3],
        fault_seeds: vec![None, Some(42)],
        instructions: 30_000,
        intervals: 3,
        interval_cycles: 5_000,
        warmup_instructions: 5_000,
        loop_repeats: 50,
        ..SweepSpec::default()
    }
}

fn config(tag: &str) -> ServerConfig {
    ServerConfig {
        state_dir: state_dir(tag),
        ..ServerConfig::default()
    }
}

fn reference_jsonl(spec: &SweepSpec) -> String {
    run_sweep_with(spec, 1, &SweepOptions::default())
        .expect("serial reference sweep succeeds")
        .to_jsonl()
}

#[test]
fn submit_complete_report_matches_serial_reference_and_recaches() {
    let cfg = config("roundtrip");
    let dir = cfg.state_dir.clone();
    let handle = start(cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(read_endpoint(&dir).unwrap(), handle.addr().to_string());

    let spec = sweep_spec(100);
    let resp = client.submit("t1", &spec, Some(2), None).unwrap();
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "{resp:?}"
    );
    assert_eq!(resp.get("cached").and_then(Value::as_bool), Some(false));
    let id = resp.get("id").and_then(Value::as_str).unwrap().to_string();

    let fin = client.wait(&id, Duration::from_secs(120)).unwrap();
    assert_eq!(fin.get("status").and_then(Value::as_str), Some("completed"));
    let report = client.report_text(&id).unwrap();
    assert_eq!(
        report,
        reference_jsonl(&spec),
        "served report must be byte-identical"
    );

    // Identical spec resubmitted: served from cache under the same id.
    let again = client.submit("t2", &spec, None, None).unwrap();
    assert_eq!(again.get("cached").and_then(Value::as_bool), Some(true));
    assert_eq!(
        again.get("status").and_then(Value::as_str),
        Some("completed")
    );
    assert_eq!(again.get("id").and_then(Value::as_str), Some(id.as_str()));

    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_rejects_with_typed_reasons_instead_of_blocking() {
    let cfg = ServerConfig {
        queue_capacity: 2,
        tenant_quota: 2,
        runners: 0, // admission-only: nothing drains the queue
        ..config("overload")
    };
    let dir = cfg.state_dir.clone();
    let handle = start(cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Two distinct specs fill the queue (tenants kept separate so the
    // queue bound is what trips, not the quota).
    for (tenant, base) in [("t1", 200), ("t2", 300)] {
        let r = client
            .submit(tenant, &sweep_spec(base), None, None)
            .unwrap();
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true), "{r:?}");
    }
    let r = client.submit("t3", &sweep_spec(400), None, None).unwrap();
    assert_eq!(r.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(r.get("reason").and_then(Value::as_str), Some("queue-full"));
    assert_eq!(
        r.get("detail").and_then(Value::as_str),
        Some("queue full (2 queued, capacity 2)")
    );

    // Quota: t1 already has 1 live job and quota 2 — a second distinct
    // spec fits, a third trips tenant-quota before queue-full.
    let r = client.submit("t1", &sweep_spec(500), None, None).unwrap();
    assert_eq!(r.get("reason").and_then(Value::as_str), Some("queue-full"));

    // Cancelling a queued job frees its slot and is answered typed.
    let r = client.submit("t9", &sweep_spec(600), None, None).unwrap();
    assert_eq!(r.get("reason").and_then(Value::as_str), Some("queue-full"));

    // The rejected submissions never hung: the same connection still
    // answers pings, and events recorded the rejections.
    let pong = client.ping().unwrap();
    assert_eq!(pong.get("ok").and_then(Value::as_bool), Some(true));
    let evs = client.events().unwrap();
    let kinds: Vec<&str> = evs
        .get("events")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .filter_map(|e| e.get("kind").and_then(Value::as_str))
        .collect();
    assert!(kinds.contains(&"job-rejected"), "{kinds:?}");
    assert!(kinds.contains(&"job-admitted"));

    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tenant_quota_rejects_before_queue_has_room_issues() {
    let cfg = ServerConfig {
        queue_capacity: 8,
        tenant_quota: 1,
        runners: 0,
        ..config("quota")
    };
    let dir = cfg.state_dir.clone();
    let handle = start(cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let r = client.submit("t1", &sweep_spec(700), None, None).unwrap();
    assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true));
    let r = client.submit("t1", &sweep_spec(800), None, None).unwrap();
    assert_eq!(
        r.get("reason").and_then(Value::as_str),
        Some("tenant-quota")
    );
    assert_eq!(
        r.get("detail").and_then(Value::as_str),
        Some("tenant quota exhausted (1 live job(s), quota 1)")
    );
    // Another tenant is unaffected.
    let r = client.submit("t2", &sweep_spec(800), None, None).unwrap();
    assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true));

    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queued_job_cancels_and_invalid_specs_reject() {
    let cfg = ServerConfig {
        runners: 0,
        ..config("cancel")
    };
    let dir = cfg.state_dir.clone();
    let handle = start(cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let r = client.submit("t1", &sweep_spec(900), None, None).unwrap();
    let id = r.get("id").and_then(Value::as_str).unwrap().to_string();
    let r = client.cancel(&id).unwrap();
    assert_eq!(r.get("status").and_then(Value::as_str), Some("cancelled"));
    let r = client.status(&id).unwrap();
    assert_eq!(r.get("status").and_then(Value::as_str), Some("cancelled"));
    // Cancel is idempotent on terminal jobs.
    let r = client.cancel(&id).unwrap();
    assert_eq!(r.get("status").and_then(Value::as_str), Some("cancelled"));

    // Invalid spec: zero instructions.
    let bad = SweepSpec {
        instructions: 0,
        ..sweep_spec(901)
    };
    let r = client.submit("t1", &bad, None, None).unwrap();
    assert_eq!(
        r.get("reason").and_then(Value::as_str),
        Some("invalid-spec")
    );

    // Unknown job and malformed requests get typed answers too.
    let r = client.status("no-such-job").unwrap();
    assert_eq!(r.get("reason").and_then(Value::as_str), Some("unknown-job"));
    let r = client
        .request(&Value::parse(r#"{"type":"warp"}"#).unwrap())
        .unwrap();
    assert_eq!(r.get("reason").and_then(Value::as_str), Some("bad-request"));

    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_exceeded_fails_typed_without_touching_journaled_bytes() {
    let cfg = config("deadline");
    let dir = cfg.state_dir.clone();
    let handle = start(cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // A deadline of 1ms trips on the scanner's first pass while the
    // multi-point sweep is still running; in-flight points finish and
    // journal, then the job fails typed.
    let spec = sweep_spec(1000);
    let r = client.submit("t1", &spec, Some(1), Some(1)).unwrap();
    assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true), "{r:?}");
    let id = r.get("id").and_then(Value::as_str).unwrap().to_string();
    let fin = client.wait(&id, Duration::from_secs(120)).unwrap();
    assert_eq!(fin.get("status").and_then(Value::as_str), Some("failed"));
    let detail = fin.get("detail").and_then(Value::as_str).unwrap();
    assert!(detail.starts_with("deadline exceeded (1ms)"), "{detail}");

    let evs = client.events().unwrap();
    let kinds: Vec<&str> = evs
        .get("events")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .filter_map(|e| e.get("kind").and_then(Value::as_str))
        .collect();
    assert!(kinds.contains(&"job-deadline-exceeded"), "{kinds:?}");

    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_requeues_and_restart_resumes_to_identical_bytes() {
    let cfg = config("drain-resume");
    let dir = cfg.state_dir.clone();
    let spec = sweep_spec(1100);
    let reference = reference_jsonl(&spec);

    // First server: submit, give the runner a moment, then drain.
    let handle = start(ServerConfig {
        state_dir: dir.clone(),
        sweep_jobs: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let r = client.submit("t1", &spec, None, None).unwrap();
    let id = r.get("id").and_then(Value::as_str).unwrap().to_string();
    std::thread::sleep(Duration::from_millis(80));
    handle.request_shutdown();
    handle.join().unwrap();

    // Second server on the same state dir: the job is re-enqueued
    // (or already complete if the first run beat the drain) and the
    // final report is byte-identical to the uninterrupted reference.
    let handle = start(ServerConfig {
        state_dir: dir.clone(),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let fin = client.wait(&id, Duration::from_secs(120)).unwrap();
    assert_eq!(
        fin.get("status").and_then(Value::as_str),
        Some("completed"),
        "{fin:?}"
    );
    let report = client.report_text(&id).unwrap();
    assert_eq!(report, reference, "resumed report must be byte-identical");

    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
