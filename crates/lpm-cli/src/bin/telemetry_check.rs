//! CI validator for telemetry exports.
//!
//! Usage: `telemetry_check [--strict] <file.jsonl|file.csv>` — parses
//! the file with the strict round-trip parsers and exits non-zero (with
//! a diagnostic on stderr) if it is malformed. CI runs this against the
//! artifact produced by a short faulted `lpm-cli online` run.
//!
//! Three JSONL shapes are accepted: a single-run log (snapshots,
//! events, one summary — what `lpm-cli online` writes), a sweep export
//! (repeated `{"type":"point",...}` headers, each followed by that
//! point's complete single-run log — what `lpm-cli sweep` writes), and a
//! checkpoint journal (what `lpm-cli sweep --checkpoint` writes). A
//! sweep is validated per segment, so a malformed record is reported
//! with its point label; a point header whose `outcome` is not `"ok"`
//! legitimately has no telemetry segment and is accepted empty.
//!
//! Two further shapes ride on the same dispatch: a bench trajectory
//! point (what `lpm-cli bench` writes to `BENCH_<tag>.json`) and a bare
//! event stream (event records with no summary — what `lpm-serve`
//! appends to `events.jsonl`), parsed event by event.
//!
//! A journal is read by the harness's journal reader and a bench record
//! by `lpm_bench::bench::parse_snapshot`, so each format has one reader
//! and this tool accepts exactly what the program itself accepts.
//!
//! Dropped events (the `RingRecorder` overflow counter) are always
//! reported; with `--strict` any drop is a failure, because a CI
//! artifact that silently lost telemetry is not a trustworthy
//! regression baseline. Event lines carry monotonically increasing
//! `seq` numbers; `--strict` also fails on any mid-stream gap, the
//! signature of a subscriber that silently lost records.

use std::path::Path;
use std::process::ExitCode;

use lpm_bench::bench::parse_snapshot;
use lpm_harness::{inspect_journal, PointOutcome, Vfs};
use lpm_telemetry::{Event, TelemetryLog, Value};

/// What one validated file contained, for the summary line and the
/// `--strict` drop gate.
struct Checked {
    what: String,
    snapshots: usize,
    events_dropped: u64,
}

/// Validate one sweep export: every `point` header must parse and carry
/// `index`/`label`, and every segment between headers must be a valid
/// single-run log — except that headers with a non-`"ok"` `outcome`
/// (failed / panicked / timed-out / quarantined rows under
/// `--keep-going`) carry no telemetry and may have an empty segment.
fn check_sweep_jsonl(text: &str) -> Result<Checked, String> {
    // (label, header outcome if any, accumulated segment text)
    let mut segments: Vec<(String, Option<String>, String)> = Vec::new();
    let mut header_drops: u64 = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let is_point = Value::parse(line)
            .ok()
            .and_then(|v| v.get("type").and_then(Value::as_str).map(|t| t == "point"))
            .unwrap_or(false);
        if is_point {
            let v = Value::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let label = v
                .get("label")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("line {}: point record has no label", i + 1))?;
            if v.get("index").is_none() {
                return Err(format!("line {}: point record has no index", i + 1));
            }
            let outcome = v.get("outcome").and_then(Value::as_str).map(str::to_string);
            header_drops += v.get("events_dropped").and_then(Value::as_u64).unwrap_or(0);
            segments.push((label.to_string(), outcome, String::new()));
        } else {
            let Some((_, _, seg)) = segments.last_mut() else {
                return Err(format!("line {}: record before any point header", i + 1));
            };
            seg.push_str(line);
            seg.push('\n');
        }
    }
    let mut snapshots = 0;
    let mut events = 0;
    let mut unfinished = 0usize;
    for (label, outcome, seg) in &segments {
        let ok_row = outcome.as_deref().map(|o| o == "ok").unwrap_or(true);
        if !ok_row {
            unfinished += 1;
            if !seg.is_empty() {
                return Err(format!(
                    "point {label}: outcome {:?} must not carry telemetry records",
                    outcome.as_deref().unwrap_or("")
                ));
            }
            continue;
        }
        let log = TelemetryLog::from_jsonl(seg).map_err(|e| format!("point {label}: {e}"))?;
        snapshots += log.snapshots.len();
        events += log.events.len();
    }
    let what = if unfinished > 0 {
        format!(
            "sweep: {} points ({unfinished} not ok), {snapshots} snapshots, {events} events",
            segments.len()
        )
    } else {
        format!(
            "sweep: {} points, {snapshots} snapshots, {events} events",
            segments.len()
        )
    };
    // A sweep where *every* point failed still exports zero snapshots;
    // only require snapshots from the points that claim success.
    let expect_snapshots = segments.len() > unfinished;
    Ok(Checked {
        what,
        snapshots: if expect_snapshots {
            snapshots
        } else {
            usize::MAX
        },
        events_dropped: header_drops,
    })
}

/// Validate a checkpoint journal (`lpm-cli sweep --checkpoint`) with
/// the harness's own reader, so this accepts exactly the journals
/// `--resume` and `lpm-cli journal verify` accept. The fingerprint
/// cannot be checked here — that needs the sweep spec.
fn check_checkpoint_jsonl(path: &str) -> Result<Checked, String> {
    let journal = inspect_journal(&Vfs::real(), Path::new(path))?;
    let mut ok_rows = 0usize;
    let mut snapshots = 0usize;
    let mut dropped = 0u64;
    for row in journal.rows.values() {
        if let PointOutcome::Ok(r) = &row.outcome {
            ok_rows += 1;
            snapshots += r.telemetry.snapshots.len();
            dropped += r.telemetry.summary.events_dropped;
        }
    }
    let info = journal.info;
    let mut what = format!(
        "checkpoint journal: {}/{} rows ({ok_rows} ok), {snapshots} snapshots",
        info.rows, info.points
    );
    if info.torn_tail {
        what.push_str(", torn trailing line");
    }
    Ok(Checked {
        what,
        // A journal with zero ok rows so far (killed very early, or
        // every point failed) is still valid.
        snapshots: if ok_rows > 0 { snapshots } else { usize::MAX },
        events_dropped: dropped,
    })
}

/// Validate one `BENCH_<tag>.json` trajectory point: [`parse_snapshot`]
/// walks the schema, and the perf-trajectory contract adds that both
/// totals are positive, so a broken bench cannot silently commit a zero
/// baseline.
fn check_bench_json(text: &str) -> Result<Checked, String> {
    let snap = parse_snapshot(text)?;
    for (key, rate) in [
        ("points_per_sec", snap.points_per_sec),
        ("cycles_per_sec", snap.cycles_per_sec),
    ] {
        // NaN must fail too, so test is_finite rather than negating `>`.
        if !rate.is_finite() || rate <= 0.0 {
            return Err(format!("bench json: totals.{key} is not positive ({rate})"));
        }
    }
    Ok(Checked {
        what: format!("bench {}: {} suite entries", snap.tag, snap.entries.len()),
        snapshots: usize::MAX,
        events_dropped: 0,
    })
}

/// Validate a bare event stream (`lpm-serve`'s `events.jsonl`): every
/// line must be a parsable typed event. There is no summary record, so
/// drop detection rides entirely on the `seq` numbers.
fn check_event_stream(text: &str) -> Result<Checked, String> {
    let mut events = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = Value::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if v.get("type").and_then(Value::as_str) != Some("event") {
            return Err(format!("line {}: event stream holds a non-event", i + 1));
        }
        Event::from_json(&v).map_err(|e| format!("line {}: {e}", i + 1))?;
        events += 1;
    }
    if events == 0 {
        return Err("event stream is empty".into());
    }
    Ok(Checked {
        what: format!("event stream: {events} events"),
        snapshots: usize::MAX,
        events_dropped: 0,
    })
}

/// Find mid-stream `seq` gaps. Event `seq` numbers are contiguous
/// within one emission stream; any record of another type (summary,
/// point header, checkpoint row, snapshot) ends the stream and resets
/// the expectation. Events without a `seq` (legacy exports) reset it
/// too, so old artifacts keep validating.
fn seq_gaps(text: &str) -> Vec<String> {
    let mut gaps = Vec::new();
    let mut prev: Option<u64> = None;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(v) = Value::parse(line) else {
            prev = None;
            continue;
        };
        if v.get("type").and_then(Value::as_str) != Some("event") {
            prev = None;
            continue;
        }
        match v.get("seq").and_then(Value::as_u64) {
            Some(seq) => {
                if let Some(p) = prev {
                    if seq != p + 1 {
                        gaps.push(format!("line {}: event seq jumps from {p} to {seq}", i + 1));
                    }
                }
                prev = Some(seq);
            }
            None => prev = None,
        }
    }
    gaps
}

fn check(path: &str, text: &str) -> Result<Checked, String> {
    if path.ends_with(".csv") {
        let log = TelemetryLog::from_csv(text)?;
        return Ok(Checked {
            what: format!(
                "{} snapshots, {} events",
                log.snapshots.len(),
                log.events.len()
            ),
            snapshots: log.snapshots.len(),
            events_dropped: log.summary.events_dropped,
        });
    }
    let first_type = text
        .lines()
        .find(|l| !l.trim().is_empty())
        .and_then(|l| Value::parse(l).ok())
        .and_then(|v| v.get("type").and_then(Value::as_str).map(str::to_string));
    match first_type.as_deref() {
        Some("point") => check_sweep_jsonl(text),
        Some("checkpoint-header") => check_checkpoint_jsonl(path),
        Some("bench") => check_bench_json(text),
        Some("event") => check_event_stream(text),
        _ => {
            let log = TelemetryLog::from_jsonl(text)?;
            Ok(Checked {
                what: format!(
                    "{} snapshots, {} events",
                    log.snapshots.len(),
                    log.events.len()
                ),
                snapshots: log.snapshots.len(),
                events_dropped: log.summary.events_dropped,
            })
        }
    }
}

fn main() -> ExitCode {
    let mut strict = false;
    let mut path = None;
    for arg in std::env::args().skip(1) {
        if arg == "--strict" {
            strict = true;
        } else {
            path = Some(arg);
        }
    }
    let Some(path) = path else {
        eprintln!("usage: telemetry_check [--strict] <file.jsonl|file.csv>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("telemetry_check: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check(&path, &text) {
        Ok(c) => {
            println!("telemetry_check: {path} OK ({})", c.what);
            if c.snapshots == 0 {
                eprintln!("telemetry_check: {path} contains no snapshots");
                return ExitCode::FAILURE;
            }
            if !path.ends_with(".csv") {
                let gaps = seq_gaps(&text);
                for g in &gaps {
                    eprintln!("telemetry_check: {path}: {g}");
                }
                if strict && !gaps.is_empty() {
                    eprintln!(
                        "telemetry_check: {path}: {} seq gap(s) (--strict: failing)",
                        gaps.len()
                    );
                    return ExitCode::FAILURE;
                }
            }
            if c.events_dropped > 0 {
                eprintln!(
                    "telemetry_check: {path}: {} event(s) were dropped by the ring recorder{}",
                    c.events_dropped,
                    if strict {
                        " (--strict: failing)"
                    } else {
                        "; raise the event capacity or pass --strict to fail on drops"
                    }
                );
                if strict {
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("telemetry_check: {path} is malformed: {e}");
            ExitCode::FAILURE
        }
    }
}
