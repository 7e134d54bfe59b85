//! Durable checkpoint journal: interrupt a sweep, resume it, and get the
//! same bytes.
//!
//! The journal is append-only JSONL. Line one is a header that stamps
//! the journal with the spec's [fingerprint](crate::SweepSpec::fingerprint)
//! and point count; every terminal [`PointRow`] (ok *and* failed) is
//! appended as a `checkpoint-row` record and flushed before the row is
//! merged, so a `SIGKILL` can lose at most the row being written. A
//! torn trailing line — the signature of a kill mid-write — is tolerated
//! on load; corruption anywhere *before* the final line is an error,
//! because silently skipping interior rows would change the resumed
//! report.
//!
//! Resume safety: `--resume` refuses a journal whose fingerprint does
//! not match the current spec. Rows computed under a different spec
//! merged into this sweep would be silent corruption, which is worse
//! than starting over.
//!
//! Determinism: a row round-trips the journal exactly (telemetry is
//! embedded via its own lossless JSONL form), so a resumed sweep's
//! report is byte-for-byte identical to an uninterrupted run's.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use lpm_core::design_space::HwConfig;
use lpm_telemetry::{Event, TelemetryLog, Value};
use lpm_trace::SpecWorkload;
use lpm_vfs::{Vfs, VfsFile};

use crate::outcome::{PointOutcome, PointRow};
use crate::point::{PointResult, SweepPoint};

/// Journal format version (bumped on incompatible record changes).
pub const JOURNAL_VERSION: u64 = 1;

/// The directory whose entry must be fsynced for `path` to be durable.
fn journal_parent(path: &Path) -> PathBuf {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

/// An open, append-mode checkpoint journal.
#[derive(Debug)]
pub struct CheckpointJournal {
    file: VfsFile,
    rows: u64,
    /// Test hook: fail `append` once this many rows have been written.
    #[cfg(test)]
    fail_after: Option<u64>,
}

impl CheckpointJournal {
    /// Create (or truncate) a journal and write its header, on the real
    /// filesystem.
    pub fn create(path: &Path, fingerprint: u64, points: usize) -> Result<Self, String> {
        Self::create_with(&Vfs::real(), path, fingerprint, points)
    }

    /// Create (or truncate) a journal and write its header through
    /// `vfs`. The header is fsynced *and so is the parent directory* —
    /// without the directory fsync a power cut can lose the whole
    /// journal even though its contents were durable (the bug class the
    /// crash-consistency oracle pins).
    pub fn create_with(
        vfs: &Vfs,
        path: &Path,
        fingerprint: u64,
        points: usize,
    ) -> Result<Self, String> {
        let mut file = vfs
            .create(path)
            .map_err(|e| format!("cannot create checkpoint journal {}: {e}", path.display()))?;
        let header = Value::Obj(vec![
            ("type".into(), Value::Str("checkpoint-header".into())),
            ("version".into(), Value::Uint(JOURNAL_VERSION)),
            ("fingerprint".into(), Value::Uint(fingerprint)),
            ("points".into(), Value::Uint(points as u64)),
        ]);
        file.write_all(format!("{}\n", header.to_json()).as_bytes())
            .and_then(|()| file.sync_data())
            .map_err(|e| format!("cannot write checkpoint header to {}: {e}", path.display()))?;
        vfs.sync_dir(&journal_parent(path)).map_err(|e| {
            format!(
                "cannot sync checkpoint directory for {}: {e}",
                path.display()
            )
        })?;
        Ok(CheckpointJournal {
            file,
            rows: 0,
            #[cfg(test)]
            fail_after: None,
        })
    }

    /// Reopen a journal for appending through `vfs`, first truncating it
    /// to `valid_len`, the intact byte length reported by
    /// [`load_journal_for_resume`]. A torn tail (the residue of a kill
    /// mid-write) is so dropped *before* new rows are appended —
    /// appending after the torn bytes would corrupt an interior line and
    /// make every later resume refuse the journal.
    pub fn open_append(vfs: &Vfs, path: &Path, rows: u64, valid_len: u64) -> Result<Self, String> {
        vfs.truncate(path, valid_len).map_err(|e| {
            format!(
                "cannot drop torn checkpoint tail of {}: {e}",
                path.display()
            )
        })?;
        let file = vfs
            .append(path)
            .map_err(|e| format!("cannot reopen checkpoint journal {}: {e}", path.display()))?;
        Ok(CheckpointJournal {
            file,
            rows,
            #[cfg(test)]
            fail_after: None,
        })
    }

    /// Rows appended so far (including rows loaded at resume).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Test hook: make `append` fail once `rows` rows have been written
    /// (regression: collector error paths must wind workers down, not
    /// strand them on the bounded channel).
    #[cfg(test)]
    pub(crate) fn fail_after(&mut self, rows: u64) {
        self.fail_after = Some(rows);
    }

    /// Append one terminal row (and a `checkpoint-written` marker event)
    /// and flush to disk. Returns the journal's row count after the
    /// write.
    pub fn append(&mut self, row: &PointRow) -> Result<u64, String> {
        #[cfg(test)]
        if self.fail_after.is_some_and(|n| self.rows >= n) {
            return Err(format!(
                "cannot append checkpoint row {}: injected journal fault",
                row.index
            ));
        }
        self.rows += 1;
        let marker = Event::CheckpointWritten {
            cycle: 0,
            index: row.index as u64,
            rows: self.rows,
        };
        let mut buf = row_json(row).to_json();
        buf.push('\n');
        buf.push_str(&marker.to_json().to_json());
        buf.push('\n');
        self.file
            .write_all(buf.as_bytes())
            .and_then(|()| self.file.sync_data())
            .map_err(|e| format!("cannot append checkpoint row {}: {e}", row.index))?;
        Ok(self.rows)
    }
}

/// What [`inspect_journal`] learned about a journal without needing the
/// spec that wrote it: the header stamp plus intact-row accounting.
/// `lpm-cli journal ls|verify` and the serve daemon's recovery scan are
/// built on this — discovery must work on journals whose spec this
/// process has never seen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalInfo {
    /// Journal format version from the header.
    pub version: u64,
    /// Spec fingerprint the journal is stamped with.
    pub fingerprint: u64,
    /// Points the journaled sweep enumerates.
    pub points: u64,
    /// Distinct point indices with an intact journaled row.
    pub rows: u64,
    /// Whether the final line is torn — the residue of a kill mid-write
    /// (tolerated, exactly as resume tolerates it).
    pub torn_tail: bool,
}

impl JournalInfo {
    /// Whether every point of the journaled sweep has an intact row —
    /// i.e. resuming from this journal would evaluate nothing.
    pub fn complete(&self) -> bool {
        self.rows == self.points
    }
}

/// A journal as its one reader decodes it.
#[derive(Debug)]
pub struct Journal {
    /// The header stamp and intact-row accounting.
    pub info: JournalInfo,
    /// Intact rows by point index; a later duplicate replaces an earlier
    /// one, which makes a crash between the row write and the process
    /// exit harmless.
    pub rows: BTreeMap<usize, PointRow>,
    /// Byte length of the valid prefix; everything past it is a torn tail.
    pub valid_len: u64,
}

/// Read a journal without a spec — the one reader behind `--resume`,
/// `lpm-cli journal`, the serve daemon's recovery scan and
/// `telemetry_check`. The header must carry this build's type and
/// version plus a fingerprint and point count; every row record is fully
/// decoded and its index checked against the point count. A torn *final*
/// line is tolerated (and flagged); corruption anywhere before it is an
/// error, because silently skipping interior rows would change the
/// resumed report.
pub fn inspect_journal(vfs: &Vfs, path: &Path) -> Result<Journal, String> {
    let text = vfs
        .read_to_string(path)
        .map_err(|e| format!("cannot read checkpoint journal {}: {e}", path.display()))?;
    // Non-blank lines paired with the byte offset just past each line
    // (newline included), so resume can truncate a torn tail away exactly.
    let mut lines: Vec<(&str, u64)> = Vec::new();
    let mut offset = 0u64;
    for raw in text.split_inclusive('\n') {
        offset += raw.len() as u64;
        let line = raw.trim_end_matches(['\n', '\r']);
        if !line.trim().is_empty() {
            lines.push((line, offset));
        }
    }
    let at = |i: usize, what: &str| {
        format!(
            "checkpoint journal {}, line {}: {what}",
            path.display(),
            i + 1
        )
    };

    let Some(&(first, header_end)) = lines.first() else {
        return Err(format!(
            "checkpoint journal {} is empty (no header)",
            path.display()
        ));
    };
    let header = Value::parse(first).map_err(|e| at(0, &format!("unparsable header: {e}")))?;
    if header.get("type").and_then(Value::as_str) != Some("checkpoint-header") {
        return Err(at(
            0,
            "not a checkpoint journal (missing checkpoint-header)",
        ));
    }
    let version = header.get("version").and_then(Value::as_u64).unwrap_or(0);
    if version != JOURNAL_VERSION {
        return Err(at(
            0,
            &format!("unsupported journal version {version} (this build writes {JOURNAL_VERSION})"),
        ));
    }
    let fingerprint = header
        .get("fingerprint")
        .and_then(Value::as_u64)
        .ok_or_else(|| at(0, "header has no fingerprint"))?;
    let points = header
        .get("points")
        .and_then(Value::as_u64)
        .ok_or_else(|| at(0, "header has no point count"))?;

    // The point count is untrusted (a corrupt header can claim any
    // number), so rows live in a map sized by the rows actually present —
    // a slot vector sized by the claim would be an attacker-sized
    // allocation.
    let mut rows = BTreeMap::new();
    let mut valid_len = header_end;
    let mut torn_tail = false;
    for (i, &(line, end)) in lines.iter().enumerate().skip(1) {
        let v = match Value::parse(line) {
            Ok(v) => v,
            Err(_) if i == lines.len() - 1 => {
                torn_tail = true;
                break;
            }
            Err(e) => return Err(at(i, &format!("corrupt record: {e}"))),
        };
        match v.get("type").and_then(Value::as_str) {
            Some("checkpoint-row") => {
                let row = row_from_json(&v).map_err(|e| at(i, &e))?;
                if u64::try_from(row.index).map_or(true, |ix| ix >= points) {
                    return Err(at(
                        i,
                        &format!(
                            "row index {} out of range (journal has {points})",
                            row.index
                        ),
                    ));
                }
                rows.insert(row.index, row);
            }
            // `checkpoint-written` marker events are journal-local
            // bookkeeping, not rows.
            Some("event") => {}
            other => return Err(at(i, &format!("unexpected record type {other:?}"))),
        }
        valid_len = end;
    }
    Ok(Journal {
        info: JournalInfo {
            version,
            fingerprint,
            points,
            rows: rows.len() as u64,
            torn_tail,
        },
        rows,
        valid_len,
    })
}

/// Load a journal on the real filesystem and return its intact rows in
/// index order. `expect_fingerprint` / `expect_points` come from the spec
/// being resumed; see [`load_journal_for_resume`].
pub fn load_journal(
    path: &Path,
    expect_fingerprint: u64,
    expect_points: usize,
) -> Result<Vec<PointRow>, String> {
    Ok(load_journal_for_resume(&Vfs::real(), path, expect_fingerprint, expect_points)?.0)
}

/// Load a journal for resumption: the intact rows in index order plus
/// the byte length of the journal's valid prefix (everything past it is
/// a torn tail). A journal stamped for a different spec is refused with a
/// typed error. Resume passes the length to
/// [`CheckpointJournal::open_append`] so new rows are appended after
/// the last *intact* line, never after torn residue.
pub fn load_journal_for_resume(
    vfs: &Vfs,
    path: &Path,
    expect_fingerprint: u64,
    expect_points: usize,
) -> Result<(Vec<PointRow>, u64), String> {
    let Journal {
        info,
        rows,
        valid_len,
    } = inspect_journal(vfs, path)?;
    if info.fingerprint != expect_fingerprint {
        return Err(format!(
            "checkpoint journal {} was written for a different sweep spec \
             (journal fingerprint {:#018x}, current spec {expect_fingerprint:#018x}); \
             refusing to resume — delete the journal or rerun the original spec",
            path.display(),
            info.fingerprint
        ));
    }
    if info.points != expect_points as u64 {
        return Err(format!(
            "checkpoint journal {} records {} point(s) but the spec enumerates {}; \
             refusing to resume",
            path.display(),
            info.points,
            expect_points
        ));
    }
    Ok((rows.into_values().collect(), valid_len))
}

pub(crate) fn hw_json(hw: HwConfig) -> Value {
    Value::Obj(vec![
        ("issue_width".into(), Value::Uint(hw.issue_width.into())),
        ("iw_size".into(), Value::Uint(hw.iw_size.into())),
        ("rob_size".into(), Value::Uint(hw.rob_size.into())),
        ("l1_ports".into(), Value::Uint(hw.l1_ports.into())),
        ("mshrs".into(), Value::Uint(hw.mshrs.into())),
        ("l2_banks".into(), Value::Uint(hw.l2_banks.into())),
    ])
}

pub(crate) fn hw_from_json(v: &Value) -> Result<HwConfig, String> {
    let knob = |k: &str| -> Result<u32, String> {
        v.get(k)
            .and_then(Value::as_u64)
            .and_then(|u| u32::try_from(u).ok())
            .ok_or_else(|| format!("bad or missing hw knob {k:?}"))
    };
    Ok(HwConfig {
        issue_width: knob("issue_width")?,
        iw_size: knob("iw_size")?,
        rob_size: knob("rob_size")?,
        l1_ports: knob("l1_ports")?,
        mshrs: knob("mshrs")?,
        l2_banks: knob("l2_banks")?,
    })
}

fn point_json(p: &SweepPoint) -> Value {
    let mut f: Vec<(String, Value)> = vec![
        ("index".into(), Value::Uint(p.index as u64)),
        ("config".into(), Value::Str(p.config_label.clone())),
        ("hw".into(), hw_json(p.hw)),
        ("workload".into(), Value::Str(p.workload.name().into())),
        ("seed".into(), Value::Uint(p.seed)),
    ];
    if let Some(fs) = p.fault_seed {
        f.push(("fault_seed".into(), Value::Uint(fs)));
    }
    Value::Obj(f)
}

fn point_from_json(v: &Value) -> Result<SweepPoint, String> {
    let index = v
        .get("index")
        .and_then(Value::as_u64)
        .ok_or("point has no index")? as usize;
    let name = v
        .get("workload")
        .and_then(Value::as_str)
        .ok_or("point has no workload")?;
    let workload = *SpecWorkload::ALL
        .iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    Ok(SweepPoint {
        index,
        config_label: v
            .get("config")
            .and_then(Value::as_str)
            .ok_or("point has no config label")?
            .to_string(),
        hw: hw_from_json(v.get("hw").ok_or("point has no hw object")?)?,
        workload,
        seed: v
            .get("seed")
            .and_then(Value::as_u64)
            .ok_or("point has no seed")?,
        fault_seed: v.get("fault_seed").and_then(Value::as_u64),
    })
}

fn result_json(r: &PointResult) -> Value {
    Value::Obj(vec![
        ("intervals_run".into(), Value::Uint(r.intervals_run as u64)),
        ("ipc_first".into(), Value::Num(r.ipc_first)),
        ("ipc_last".into(), Value::Num(r.ipc_last)),
        ("lpmr1_first".into(), Value::Num(r.lpmr1_first)),
        ("lpmr1_last".into(), Value::Num(r.lpmr1_last)),
        ("budget_met".into(), Value::Uint(r.budget_met as u64)),
        ("final_hw".into(), hw_json(r.final_hw)),
        ("total_cycles".into(), Value::Uint(r.total_cycles)),
        // The point's full telemetry rides along in its own lossless
        // JSONL form, embedded as one (escaped) string field.
        ("telemetry".into(), Value::Str(r.telemetry.to_jsonl())),
    ])
}

fn result_from_json(v: &Value, point: &SweepPoint, label: &str) -> Result<PointResult, String> {
    let f = |k: &str| -> Result<f64, String> {
        v.get(k)
            .and_then(Value::as_num_lossless)
            .ok_or_else(|| format!("result has no {k}"))
    };
    let u = |k: &str| -> Result<u64, String> {
        v.get(k)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("result has no {k}"))
    };
    let telemetry = TelemetryLog::from_jsonl(
        v.get("telemetry")
            .and_then(Value::as_str)
            .ok_or("result has no telemetry")?,
    )
    .map_err(|e| format!("embedded telemetry: {e}"))?;
    Ok(PointResult {
        index: point.index,
        label: label.to_string(),
        point: point.clone(),
        intervals_run: u("intervals_run")? as usize,
        ipc_first: f("ipc_first")?,
        ipc_last: f("ipc_last")?,
        lpmr1_first: f("lpmr1_first")?,
        lpmr1_last: f("lpmr1_last")?,
        budget_met: u("budget_met")? as usize,
        final_hw: hw_from_json(v.get("final_hw").ok_or("result has no final_hw")?)?,
        total_cycles: u("total_cycles")?,
        telemetry,
    })
}

fn row_json(row: &PointRow) -> Value {
    let mut f: Vec<(String, Value)> = vec![
        ("type".into(), Value::Str("checkpoint-row".into())),
        ("index".into(), Value::Uint(row.index as u64)),
        ("label".into(), Value::Str(row.label.clone())),
        ("attempts".into(), Value::Uint(row.attempts.into())),
        ("outcome".into(), Value::Str(row.outcome.kind().into())),
        ("point".into(), point_json(&row.point)),
        (
            "harness_events".into(),
            Value::Arr(row.harness_events.iter().map(Event::to_json).collect()),
        ),
    ];
    match &row.outcome {
        PointOutcome::Ok(r) => f.push(("result".into(), result_json(r))),
        PointOutcome::Failed { error } => {
            f.push(("error".into(), Value::Str(error.clone())));
        }
        PointOutcome::Panicked { message } => {
            f.push(("message".into(), Value::Str(message.clone())));
        }
        PointOutcome::TimedOut { budget, cycles } => {
            f.push(("budget".into(), Value::Uint(*budget)));
            f.push(("cycles".into(), Value::Uint(*cycles)));
        }
        PointOutcome::Quarantined {
            attempts,
            last_error,
        } => {
            f.push((
                "quarantine_attempts".into(),
                Value::Uint((*attempts).into()),
            ));
            f.push(("last_error".into(), Value::Str(last_error.clone())));
        }
    }
    Value::Obj(f)
}

fn row_from_json(v: &Value) -> Result<PointRow, String> {
    let point = point_from_json(v.get("point").ok_or("row has no point")?)?;
    let label = v
        .get("label")
        .and_then(Value::as_str)
        .ok_or("row has no label")?
        .to_string();
    let attempts = v
        .get("attempts")
        .and_then(Value::as_u64)
        .and_then(|u| u32::try_from(u).ok())
        .ok_or("row has no attempts")?;
    let s = |k: &str| -> Result<String, String> {
        v.get(k)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("row has no {k}"))
    };
    let outcome = match v.get("outcome").and_then(Value::as_str) {
        Some("ok") => PointOutcome::Ok(Box::new(result_from_json(
            v.get("result").ok_or("ok row has no result")?,
            &point,
            &label,
        )?)),
        Some("failed") => PointOutcome::Failed { error: s("error")? },
        Some("panicked") => PointOutcome::Panicked {
            message: s("message")?,
        },
        Some("timed-out") => PointOutcome::TimedOut {
            budget: v
                .get("budget")
                .and_then(Value::as_u64)
                .ok_or("timed-out row has no budget")?,
            cycles: v
                .get("cycles")
                .and_then(Value::as_u64)
                .ok_or("timed-out row has no cycles")?,
        },
        Some("quarantined") => PointOutcome::Quarantined {
            attempts: v
                .get("quarantine_attempts")
                .and_then(Value::as_u64)
                .and_then(|u| u32::try_from(u).ok())
                .ok_or("quarantined row has no attempt count")?,
            last_error: s("last_error")?,
        },
        other => return Err(format!("row has unknown outcome {other:?}")),
    };
    let harness_events = v
        .get("harness_events")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(Event::from_json)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("harness event: {e}"))?;
    Ok(PointRow {
        index: point.index,
        label,
        point,
        attempts,
        outcome,
        harness_events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::evaluate_row;
    use crate::point::SweepSpec;

    fn journal_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "lpm-checkpoint-{name}-{}.jsonl",
            std::process::id()
        ));
        p
    }

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            instructions: 30_000,
            intervals: 2,
            interval_cycles: 5_000,
            warmup_instructions: 5_000,
            loop_repeats: 50,
            ..SweepSpec::default()
        }
    }

    #[test]
    fn rows_round_trip_through_the_journal_exactly() {
        let spec = tiny_spec();
        let row = evaluate_row(&spec.points()[0], &spec);
        assert!(row.is_ok());
        let path = journal_path("roundtrip");
        let mut j = CheckpointJournal::create(&path, spec.fingerprint(), 1).unwrap();
        assert_eq!(j.append(&row).unwrap(), 1);
        let rows = load_journal(&path, spec.fingerprint(), 1).unwrap();
        assert_eq!(rows, vec![row]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_ok_rows_round_trip_too() {
        let spec = SweepSpec {
            chaos: crate::point::ChaosConfig::parse("panic@0").unwrap(),
            max_retries: 1,
            ..tiny_spec()
        };
        let row = evaluate_row(&spec.points()[0], &spec);
        assert_eq!(row.outcome.kind(), "quarantined");
        assert!(!row.harness_events.is_empty());
        let path = journal_path("non-ok");
        let mut j = CheckpointJournal::create(&path, spec.fingerprint(), 1).unwrap();
        j.append(&row).unwrap();
        let rows = load_journal(&path, spec.fingerprint(), 1).unwrap();
        assert_eq!(rows, vec![row]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let spec = tiny_spec();
        let path = journal_path("fingerprint");
        CheckpointJournal::create(&path, spec.fingerprint(), 1).unwrap();
        let err = load_journal(&path, spec.fingerprint() ^ 1, 1).unwrap_err();
        assert!(err.contains("different sweep spec"), "{err}");
        let err = load_journal(&path, spec.fingerprint(), 2).unwrap_err();
        assert!(err.contains("refusing to resume"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_final_line_is_tolerated_but_interior_corruption_is_not() {
        let spec = tiny_spec();
        let row = evaluate_row(&spec.points()[0], &spec);
        let path = journal_path("torn");
        let mut j = CheckpointJournal::create(&path, spec.fingerprint(), 1).unwrap();
        j.append(&row).unwrap();
        drop(j);
        // Simulate a SIGKILL mid-write: a half-written trailing record.
        let intact = std::fs::read_to_string(&path).unwrap();
        std::fs::write(
            &path,
            format!("{intact}{{\"type\":\"checkpoint-row\",\"ind"),
        )
        .unwrap();
        let rows = load_journal(&path, spec.fingerprint(), 1).unwrap();
        assert_eq!(rows.len(), 1);
        // Interior corruption must not be skipped.
        let mut lines: Vec<String> = intact.lines().map(str::to_string).collect();
        lines.insert(1, "{\"type\":\"checkpoint-row\",\"ind".into());
        std::fs::write(&path, lines.join("\n")).unwrap();
        let err = load_journal(&path, spec.fingerprint(), 1).unwrap_err();
        assert!(err.contains("corrupt record"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inspect_reports_counts_and_torn_tails_without_a_spec() {
        let spec = tiny_spec();
        let row = evaluate_row(&spec.points()[0], &spec);
        let path = journal_path("inspect");
        let mut j = CheckpointJournal::create(&path, spec.fingerprint(), 2).unwrap();
        j.append(&row).unwrap();
        drop(j);
        let info = inspect_journal(&Vfs::real(), &path).unwrap().info;
        assert_eq!(info.version, JOURNAL_VERSION);
        assert_eq!(info.fingerprint, spec.fingerprint());
        assert_eq!(info.points, 2);
        assert_eq!(info.rows, 1);
        assert!(!info.complete());
        assert!(!info.torn_tail);
        // A torn tail is flagged, not fatal — the row count stands.
        let intact = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, format!("{intact}{{\"type\":\"checkpoint-r")).unwrap();
        let info = inspect_journal(&Vfs::real(), &path).unwrap().info;
        assert_eq!(info.rows, 1);
        assert!(info.torn_tail);
        // Interior corruption keeps load_journal's strictness.
        let mut lines: Vec<String> = intact.lines().map(str::to_string).collect();
        lines.insert(1, "{\"type\":\"checkpoint-r".into());
        std::fs::write(&path, lines.join("\n")).unwrap();
        assert!(inspect_journal(&Vfs::real(), &path)
            .unwrap_err()
            .contains("corrupt record"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inspect_survives_an_implausible_header_point_count() {
        // Regression: the header's point count is untrusted; a corrupt
        // journal claiming 10^18 points must not drive an allocation
        // sized by the claim (which would abort the process during
        // serve-daemon recovery).
        let path = journal_path("huge-points");
        std::fs::write(
            &path,
            "{\"type\":\"checkpoint-header\",\"version\":1,\
             \"fingerprint\":7,\"points\":1000000000000000000}\n",
        )
        .unwrap();
        let info = inspect_journal(&Vfs::real(), &path).unwrap().info;
        assert_eq!(info.points, 1_000_000_000_000_000_000);
        assert_eq!(info.rows, 0);
        assert!(!info.complete());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inspect_complete_when_every_point_is_journaled() {
        let spec = tiny_spec();
        let row = evaluate_row(&spec.points()[0], &spec);
        let path = journal_path("inspect-complete");
        let mut j = CheckpointJournal::create(&path, spec.fingerprint(), 1).unwrap();
        j.append(&row).unwrap();
        // A duplicate append (crash between write and exit) still counts
        // one distinct index.
        j.append(&row).unwrap();
        drop(j);
        let info = inspect_journal(&Vfs::real(), &path).unwrap().info;
        assert_eq!(info.rows, 1);
        assert!(info.complete());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_or_headerless_journals_are_rejected() {
        let path = journal_path("empty");
        std::fs::write(&path, "").unwrap();
        assert!(load_journal(&path, 0, 1).unwrap_err().contains("no header"));
        std::fs::write(&path, "{\"type\":\"point\"}\n").unwrap();
        assert!(load_journal(&path, 0, 1)
            .unwrap_err()
            .contains("missing checkpoint-header"));
        std::fs::remove_file(&path).ok();
    }
}
