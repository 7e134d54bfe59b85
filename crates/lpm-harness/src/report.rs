//! The merged output of a sweep, in the three export shapes the CLI
//! exposes: a human table, a per-point CSV summary, and full JSONL
//! (per-point header line followed by the point's telemetry records).
//!
//! Since the crash-safety rework a report holds one typed [`PointRow`]
//! per point — completed or not — so a partial sweep is a first-class
//! artifact: failed, panicked, timed-out and quarantined points appear
//! as classified rows with their attempt counts and error texts, and
//! every export carries an `outcome` discriminator.
//!
//! Every byte any export emits is a pure function of the rows in
//! point-index order — no timestamps, no worker identity, no wall-clock
//! throughput — so a report produced with `--jobs 8` serializes
//! identically to one produced with `--jobs 1`, failures included.

use lpm_telemetry::{TelemetryLog, Value};

use crate::outcome::{PointOutcome, PointRow};
use crate::point::PointResult;

/// The first line of [`SweepReport::to_csv`]: one column per cell of
/// every row. The cells from `events_dropped` up to `error` are the
/// measurement cells a non-ok row leaves empty.
pub const SWEEP_CSV_HEADER: &str = "index,label,config,workload,seed,fault_seed,outcome,\
    attempts,events_dropped,intervals_run,ipc_first,ipc_last,lpmr1_first,lpmr1_last,\
    budget_met,total_cycles,final_issue_width,final_iw_size,final_rob_size,final_l1_ports,\
    final_mshrs,final_l2_banks,error";

/// A completed sweep: one [`PointRow`] per point, in point-index
/// (spec enumeration) order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Per-point rows, ordered by `PointRow::index`.
    pub rows: Vec<PointRow>,
}

impl SweepReport {
    /// Number of points (rows) in the sweep.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the sweep evaluated no points.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Completed per-point results, in point order.
    pub fn results(&self) -> impl Iterator<Item = &PointResult> {
        self.rows.iter().filter_map(PointRow::result)
    }

    /// Number of rows that did not complete.
    pub fn failed_len(&self) -> usize {
        self.rows.iter().filter(|r| !r.is_ok()).count()
    }

    /// Telemetry events dropped across all completed points (ring
    /// capacity overflow).
    pub fn events_dropped(&self) -> u64 {
        self.rows.iter().map(PointRow::events_dropped).sum()
    }

    /// The lowest-indexed non-ok row's rendered error — what fail-fast
    /// mode surfaces. `None` when every point completed.
    pub fn first_error(&self) -> Option<String> {
        self.rows.iter().find_map(PointRow::error)
    }

    /// Merge every completed point's telemetry into one log, in point
    /// order (the shape `--telemetry-out` writes when a single combined
    /// log is wanted rather than per-point records).
    pub fn merged_telemetry(&self) -> TelemetryLog {
        TelemetryLog::merged(self.results().map(|r| r.telemetry.clone()))
    }

    /// Render the human-readable sweep table.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== sweep: {} point(s) ==\n", self.rows.len()));
        out.push_str(&format!(
            "{:>4}  {:<34} {:>3} {:>4}  {:>6} {:>6}  {:>6} {:>6}  {:>6}  {:>10}  {:>5}  \
             final config\n",
            "#", "point", "att", "ints", "IPC0", "IPCn", "LPMR1", "→", "budget", "cycles", "drops"
        ));
        for row in &self.rows {
            match row.result() {
                Some(r) => {
                    let hw = r.final_hw;
                    out.push_str(&format!(
                        "{:>4}  {:<34} {:>3} {:>4}  {:>6.2} {:>6.2}  {:>6.2} {:>6.2}  \
                         {:>3}/{:<3}  {:>10}  {:>5}  w{} iw{} rob{} p{} m{} b{}\n",
                        row.index,
                        row.label,
                        row.attempts,
                        r.intervals_run,
                        r.ipc_first,
                        r.ipc_last,
                        r.lpmr1_first,
                        r.lpmr1_last,
                        r.budget_met,
                        r.intervals_run,
                        r.total_cycles,
                        row.events_dropped(),
                        hw.issue_width,
                        hw.iw_size,
                        hw.rob_size,
                        hw.l1_ports,
                        hw.mshrs,
                        hw.l2_banks,
                    ));
                }
                None => {
                    out.push_str(&format!(
                        "{:>4}  {:<34} {:>3} {}: {}\n",
                        row.index,
                        row.label,
                        row.attempts,
                        row.outcome.kind().to_uppercase(),
                        row.error().unwrap_or_default(),
                    ));
                }
            }
        }
        let total_cycles: u64 = self.results().map(|r| r.total_cycles).sum();
        let total_intervals: usize = self.results().map(|r| r.intervals_run).sum();
        let budget: usize = self.results().map(|r| r.budget_met).sum();
        out.push_str(&format!(
            "totals: {} interval(s), {}/{} budget-met, {} simulated cycle(s), \
             {} event(s) dropped\n",
            total_intervals,
            budget,
            total_intervals,
            total_cycles,
            self.events_dropped()
        ));
        let failed = self.failed_len();
        if failed > 0 {
            let count = |kind: &str| {
                self.rows
                    .iter()
                    .filter(|r| r.outcome.kind() == kind)
                    .count()
            };
            out.push_str(&format!(
                "incomplete: {failed}/{} point(s) did not finish \
                 ({} failed, {} panicked, {} timed-out, {} quarantined)\n",
                self.rows.len(),
                count("failed"),
                count("panicked"),
                count("timed-out"),
                count("quarantined"),
            ));
        }
        out
    }

    /// Serialize the per-point summary table to CSV (one row per point;
    /// full telemetry is JSONL-only). Non-ok rows keep their identity
    /// and outcome columns and leave the measurement cells empty; the
    /// trailing `error` cell is sanitized to stay one-line, one-cell.
    pub fn to_csv(&self) -> String {
        let mut out = format!("{SWEEP_CSV_HEADER}\n");
        for row in &self.rows {
            let fault = row
                .point
                .fault_seed
                .map(|f| f.to_string())
                .unwrap_or_default();
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},",
                row.index,
                row.label,
                row.point.config_label,
                row.point.workload.name(),
                row.point.seed,
                fault,
                row.outcome.kind(),
                row.attempts,
            ));
            match row.result() {
                Some(r) => {
                    let hw = r.final_hw;
                    out.push_str(&format!(
                        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},\n",
                        row.events_dropped(),
                        r.intervals_run,
                        r.ipc_first,
                        r.ipc_last,
                        r.lpmr1_first,
                        r.lpmr1_last,
                        r.budget_met,
                        r.total_cycles,
                        hw.issue_width,
                        hw.iw_size,
                        hw.rob_size,
                        hw.l1_ports,
                        hw.mshrs,
                        hw.l2_banks,
                    ));
                }
                None => {
                    let error = row
                        .error()
                        .unwrap_or_default()
                        .replace(',', ";")
                        .replace('\n', " ");
                    out.push_str(&format!(",,,,,,,,,,,,,,{error}\n"));
                }
            }
        }
        out
    }

    /// Serialize the full sweep to JSON-lines: for each point, one
    /// `{"type":"point",...}` header line followed (for completed
    /// points) by the point's telemetry records (snapshots, events, its
    /// own summary line). Non-ok points emit a header only — their
    /// `outcome` field tells consumers not to expect a telemetry
    /// segment. The per-point summary lines keep each point
    /// self-contained; consumers wanting one combined log use
    /// [`SweepReport::merged_telemetry`].
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            out.push_str(&row.header_json().to_json());
            out.push('\n');
            if let Some(r) = row.result() {
                out.push_str(&r.telemetry.to_jsonl());
            }
        }
        out
    }
}

impl PointRow {
    /// The point's JSONL header record.
    fn header_json(&self) -> Value {
        let mut f: Vec<(String, Value)> = vec![
            ("type".into(), Value::Str("point".into())),
            ("index".into(), Value::Uint(self.index as u64)),
            ("label".into(), Value::Str(self.label.clone())),
            ("config".into(), Value::Str(self.point.config_label.clone())),
            (
                "workload".into(),
                Value::Str(self.point.workload.name().into()),
            ),
            ("seed".into(), Value::Uint(self.point.seed)),
        ];
        if let Some(fs) = self.point.fault_seed {
            f.push(("fault_seed".into(), Value::Uint(fs)));
        }
        f.push(("outcome".into(), Value::Str(self.outcome.kind().into())));
        f.push(("attempts".into(), Value::Uint(self.attempts.into())));
        match &self.outcome {
            PointOutcome::Ok(r) => {
                let hw = r.final_hw;
                f.extend([
                    (
                        "events_dropped".into(),
                        Value::Uint(r.telemetry.summary.events_dropped),
                    ),
                    ("intervals_run".into(), Value::Uint(r.intervals_run as u64)),
                    ("ipc_first".into(), Value::Num(r.ipc_first)),
                    ("ipc_last".into(), Value::Num(r.ipc_last)),
                    ("lpmr1_first".into(), Value::Num(r.lpmr1_first)),
                    ("lpmr1_last".into(), Value::Num(r.lpmr1_last)),
                    ("budget_met".into(), Value::Uint(r.budget_met as u64)),
                    ("total_cycles".into(), Value::Uint(r.total_cycles)),
                    (
                        "final_hw".into(),
                        Value::Obj(vec![
                            ("issue_width".into(), Value::Uint(hw.issue_width.into())),
                            ("iw_size".into(), Value::Uint(hw.iw_size.into())),
                            ("rob_size".into(), Value::Uint(hw.rob_size.into())),
                            ("l1_ports".into(), Value::Uint(hw.l1_ports.into())),
                            ("mshrs".into(), Value::Uint(hw.mshrs.into())),
                            ("l2_banks".into(), Value::Uint(hw.l2_banks.into())),
                        ]),
                    ),
                ]);
            }
            _ => {
                f.push(("error".into(), Value::Str(self.error().unwrap_or_default())));
            }
        }
        if !self.harness_events.is_empty() {
            f.push((
                "harness_events".into(),
                Value::Arr(
                    self.harness_events
                        .iter()
                        .map(lpm_telemetry::Event::to_json)
                        .collect(),
                ),
            ));
        }
        Value::Obj(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_sweep, run_sweep_with, SweepOptions};
    use crate::point::{ChaosConfig, FaultClass, SweepSpec};
    use lpm_core::design_space::HwConfig;
    use lpm_trace::SpecWorkload;

    fn small_spec() -> SweepSpec {
        SweepSpec {
            configs: vec![("A".into(), HwConfig::A)],
            workloads: vec![SpecWorkload::BwavesLike],
            seeds: vec![7],
            fault_seeds: vec![None, Some(5)],
            fault_class: FaultClass::DramSpike,
            instructions: 30_000,
            intervals: 2,
            interval_cycles: 5_000,
            warmup_instructions: 5_000,
            loop_repeats: 50,
            ..SweepSpec::default()
        }
    }

    fn small_report() -> SweepReport {
        run_sweep(&small_spec(), 2).unwrap()
    }

    #[test]
    fn exports_are_stable_and_self_describing() {
        let rep = small_report();
        assert_eq!(rep.len(), 2);
        let text = rep.to_text();
        assert!(text.contains("== sweep: 2 point(s) =="));
        assert!(text.contains("A/410.bwaves-like/s7"));
        assert!(text.contains("totals:"));
        assert!(!text.contains("incomplete:"));
        let csv = rep.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("index,label,config,workload"));
        // The faulted point carries its fault seed; the clean one an
        // empty cell.
        assert!(csv.contains(",410.bwaves-like,7,,"));
        assert!(csv.contains(",410.bwaves-like,7,5,"));
        // Every row completed in one attempt.
        assert!(csv.contains(",ok,1,"));
        // Serialization is a pure function of the results.
        assert_eq!(text, rep.to_text());
        assert_eq!(csv, rep.to_csv());
        assert_eq!(rep.to_jsonl(), rep.to_jsonl());
    }

    #[test]
    fn jsonl_has_one_point_header_per_point_and_parses() {
        let rep = small_report();
        let jsonl = rep.to_jsonl();
        let mut points = 0;
        for line in jsonl.lines() {
            let v = Value::parse(line).unwrap();
            if v.get("type").and_then(Value::as_str) == Some("point") {
                points += 1;
                assert!(v.get("final_hw").is_some());
                assert!(v.get("label").is_some());
                assert_eq!(v.get("outcome").and_then(Value::as_str), Some("ok"));
            }
        }
        assert_eq!(points, 2);
    }

    #[test]
    fn merged_telemetry_concatenates_in_point_order() {
        let rep = small_report();
        let merged = rep.merged_telemetry();
        let expected: u64 = rep.results().map(|r| r.telemetry.summary.intervals).sum();
        assert_eq!(merged.summary.intervals, expected);
        assert_eq!(
            merged.snapshots.len(),
            rep.results()
                .map(|r| r.telemetry.snapshots.len())
                .sum::<usize>()
        );
    }

    #[test]
    fn failed_rows_render_in_every_export() {
        let spec = SweepSpec {
            chaos: ChaosConfig::parse("panic@0").unwrap(),
            ..small_spec()
        };
        let rep = run_sweep_with(&spec, 1, &SweepOptions::default()).unwrap();
        assert_eq!(rep.failed_len(), 1);
        let text = rep.to_text();
        assert!(text.contains("PANICKED"), "{text}");
        assert!(text.contains("incomplete: 1/2 point(s)"), "{text}");
        let csv = rep.to_csv();
        assert!(csv.contains(",panicked,1,"), "{csv}");
        // The sanitized error cell must not introduce new columns: all
        // data lines keep the header's column count.
        let cols = csv.lines().next().unwrap().split(',').count();
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), cols, "{line}");
        }
        let jsonl = rep.to_jsonl();
        let header = jsonl
            .lines()
            .map(|l| Value::parse(l).unwrap())
            .find(|v| v.get("outcome").and_then(Value::as_str) == Some("panicked"))
            .expect("panicked header");
        assert!(header
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("injected panic"));
        assert!(header.get("harness_events").is_some());
        // A non-ok header has no telemetry segment: exactly one summary
        // line (the ok point's) in the whole export.
        let summaries = jsonl
            .lines()
            .filter(|l| l.contains("\"type\":\"summary\""))
            .count();
        assert_eq!(summaries, 1);
    }
}
