//! Exporters: JSON-lines and CSV round-trips plus the human-readable
//! end-of-run summary.
//!
//! A telemetry file is self-describing. JSON-lines carries one object
//! per line, discriminated by `"type"`: `snapshot` lines (one per
//! measurement interval), `event` lines (the typed event log), and a
//! final `summary` line. CSV carries the snapshot table only (events
//! and the summary are not tabular); histograms are packed into
//! `value:count` cells so the file stays one row per interval.

use crate::event::Event;
use crate::json::Value;
use crate::snapshot::{Histogram, LayerMetrics, MetricsSnapshot};

/// End-of-run controller health counters (mirrors
/// `lpm_core::ControllerHealth`, re-declared here so the telemetry
/// crate stays dependency-light).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthCounters {
    /// Windows with no retirements or no L1 accesses (skipped).
    pub degenerate_windows: u64,
    /// Windows whose counters the model rejected (skipped).
    pub sensor_faults: u64,
    /// Rollbacks to the last-known-good configuration.
    pub rollbacks: u64,
    /// Growth steps truncated by the step-size clamp.
    pub clamped_steps: u64,
    /// Oscillation-detector freezes.
    pub oscillation_trips: u64,
}

/// End-of-run fault-injection totals (mirrors `lpm_sim::FaultStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTotals {
    /// Seed the fault schedule was driven by, when the producer knew it.
    /// `None` means "not recorded" — deliberately distinct from seed `0`,
    /// which is a legal schedule seed.
    pub seed: Option<u64>,
    /// DRAM latency-spike events started.
    pub spike_events: u64,
    /// Refresh-storm events started.
    pub storm_events: u64,
    /// Cache-bank stall events started.
    pub stall_events: u64,
    /// MSHR-squeeze events started.
    pub squeeze_events: u64,
    /// Cycles with at least one timing fault active.
    pub faulted_cycles: u64,
}

/// The end-of-run summary record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSummary {
    /// Measurement intervals recorded.
    pub intervals: u64,
    /// Total simulated cycles.
    pub total_cycles: u64,
    /// IPC over the final interval.
    pub final_ipc: f64,
    /// Events currently held in the ring buffer.
    pub events_recorded: u64,
    /// Events dropped because the ring was full.
    pub events_dropped: u64,
    /// Controller health counters, when an online controller ran.
    pub health: Option<HealthCounters>,
    /// Fault-injection totals, when faults were enabled.
    pub faults: Option<FaultTotals>,
}

impl RunSummary {
    /// Serialize to a JSON object (`{"type":"summary",...}`).
    pub fn to_json(&self) -> Value {
        let mut f: Vec<(String, Value)> = vec![
            ("type".into(), Value::Str("summary".into())),
            ("intervals".into(), Value::Uint(self.intervals)),
            ("total_cycles".into(), Value::Uint(self.total_cycles)),
            ("final_ipc".into(), Value::Num(self.final_ipc)),
            ("events_recorded".into(), Value::Uint(self.events_recorded)),
            ("events_dropped".into(), Value::Uint(self.events_dropped)),
        ];
        if let Some(h) = &self.health {
            f.push((
                "health".into(),
                Value::Obj(vec![
                    (
                        "degenerate_windows".into(),
                        Value::Uint(h.degenerate_windows),
                    ),
                    ("sensor_faults".into(), Value::Uint(h.sensor_faults)),
                    ("rollbacks".into(), Value::Uint(h.rollbacks)),
                    ("clamped_steps".into(), Value::Uint(h.clamped_steps)),
                    ("oscillation_trips".into(), Value::Uint(h.oscillation_trips)),
                ]),
            ));
        }
        if let Some(ft) = &self.faults {
            let mut fields: Vec<(String, Value)> = Vec::with_capacity(6);
            if let Some(seed) = ft.seed {
                fields.push(("seed".into(), Value::Uint(seed)));
            }
            fields.extend([
                ("spike_events".into(), Value::Uint(ft.spike_events)),
                ("storm_events".into(), Value::Uint(ft.storm_events)),
                ("stall_events".into(), Value::Uint(ft.stall_events)),
                ("squeeze_events".into(), Value::Uint(ft.squeeze_events)),
                ("faulted_cycles".into(), Value::Uint(ft.faulted_cycles)),
            ]);
            f.push(("faults".into(), Value::Obj(fields)));
        }
        Value::Obj(f)
    }

    /// Inverse of [`RunSummary::to_json`].
    pub fn from_json(v: &Value) -> Result<RunSummary, String> {
        let u = |obj: &Value, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("summary missing {key}"))
        };
        let health = match v.get("health") {
            Some(h) => Some(HealthCounters {
                degenerate_windows: u(h, "degenerate_windows")?,
                sensor_faults: u(h, "sensor_faults")?,
                rollbacks: u(h, "rollbacks")?,
                clamped_steps: u(h, "clamped_steps")?,
                oscillation_trips: u(h, "oscillation_trips")?,
            }),
            None => None,
        };
        let faults = match v.get("faults") {
            Some(ft) => Some(FaultTotals {
                seed: ft.get("seed").and_then(Value::as_u64),
                spike_events: u(ft, "spike_events")?,
                storm_events: u(ft, "storm_events")?,
                stall_events: u(ft, "stall_events")?,
                squeeze_events: u(ft, "squeeze_events")?,
                faulted_cycles: u(ft, "faulted_cycles")?,
            }),
            None => None,
        };
        Ok(RunSummary {
            intervals: u(v, "intervals")?,
            total_cycles: u(v, "total_cycles")?,
            final_ipc: v
                .get("final_ipc")
                .and_then(Value::as_f64)
                .ok_or("summary missing final_ipc")?,
            events_recorded: u(v, "events_recorded")?,
            events_dropped: u(v, "events_dropped")?,
            health,
            faults,
        })
    }
}

impl HealthCounters {
    /// Fold another run's health counters into this one.
    pub fn absorb(&mut self, other: &HealthCounters) {
        self.degenerate_windows += other.degenerate_windows;
        self.sensor_faults += other.sensor_faults;
        self.rollbacks += other.rollbacks;
        self.clamped_steps += other.clamped_steps;
        self.oscillation_trips += other.oscillation_trips;
    }
}

impl FaultTotals {
    /// Fold another run's injection totals into this one. The seed of the
    /// first run is kept — merged totals span runs with different seeds,
    /// so per-run seeds must be read from the per-run records.
    pub fn absorb(&mut self, other: &FaultTotals) {
        self.spike_events += other.spike_events;
        self.storm_events += other.storm_events;
        self.stall_events += other.stall_events;
        self.squeeze_events += other.squeeze_events;
        self.faulted_cycles += other.faulted_cycles;
    }
}

impl RunSummary {
    /// Fold a later run's totals into this one. Counters sum; `final_ipc`
    /// takes the later run's value (it is "the IPC of the final
    /// interval", and `other` is the later part). Used by the sweep
    /// harness to merge per-point summaries in deterministic point order.
    pub fn absorb(&mut self, other: &RunSummary) {
        self.intervals += other.intervals;
        self.total_cycles += other.total_cycles;
        self.final_ipc = other.final_ipc;
        self.events_recorded += other.events_recorded;
        self.events_dropped += other.events_dropped;
        match (&mut self.health, &other.health) {
            (Some(mine), Some(theirs)) => mine.absorb(theirs),
            (None, Some(theirs)) => self.health = Some(*theirs),
            _ => {}
        }
        match (&mut self.faults, &other.faults) {
            (Some(mine), Some(theirs)) => mine.absorb(theirs),
            (None, Some(theirs)) => self.faults = Some(*theirs),
            _ => {}
        }
    }
}

/// A complete exported run: snapshots, event log, and summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryLog {
    /// Per-interval snapshots, in interval order.
    pub snapshots: Vec<MetricsSnapshot>,
    /// The typed event log, in emission order.
    pub events: Vec<Event>,
    /// End-of-run summary.
    pub summary: RunSummary,
}

impl TelemetryLog {
    /// Serialize to JSON-lines: one object per snapshot, per event, and
    /// a final summary line.
    ///
    /// Every event line carries a monotonically increasing `seq`
    /// number. The ring recorder drops oldest-first, so the retained
    /// events are the tail of the emission stream: numbering starts at
    /// `summary.events_dropped` and a stream subscriber can detect
    /// drops as the gap before the first retained event — and any
    /// mid-stream gap as corruption (`telemetry_check --strict`
    /// verifies both).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.snapshots {
            out.push_str(&s.to_json().to_json());
            out.push('\n');
        }
        for (i, e) in self.events.iter().enumerate() {
            let mut v = e.to_json();
            if let Value::Obj(fields) = &mut v {
                fields.push((
                    "seq".into(),
                    Value::Uint(self.summary.events_dropped + crate::count_u64(i)),
                ));
            }
            out.push_str(&v.to_json());
            out.push('\n');
        }
        out.push_str(&self.summary.to_json().to_json());
        out.push('\n');
        out
    }

    /// Parse a JSON-lines export back into a [`TelemetryLog`].
    pub fn from_jsonl(text: &str) -> Result<TelemetryLog, String> {
        let mut log = TelemetryLog::default();
        let mut saw_summary = false;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = Value::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            match v.get("type").and_then(Value::as_str) {
                Some("snapshot") => log.snapshots.push(
                    MetricsSnapshot::from_json(&v).map_err(|e| format!("line {}: {e}", i + 1))?,
                ),
                Some("event") => log
                    .events
                    .push(Event::from_json(&v).map_err(|e| format!("line {}: {e}", i + 1))?),
                Some("summary") => {
                    log.summary =
                        RunSummary::from_json(&v).map_err(|e| format!("line {}: {e}", i + 1))?;
                    saw_summary = true;
                }
                other => return Err(format!("line {}: unknown record type {other:?}", i + 1)),
            }
        }
        if !saw_summary {
            return Err("missing summary line".into());
        }
        Ok(log)
    }

    /// Serialize the snapshot table to CSV (events and summary are not
    /// tabular and are omitted; use JSON-lines for the full log).
    ///
    /// Layer columns are emitted for `L1`, `L2`, `L3` and `DRAM`; runs
    /// without an L3 leave its cells empty.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("interval,cycle,cycles");
        for layer in LAYER_COLUMNS {
            for param in PARAM_COLUMNS {
                out.push_str(&format!(",{layer}_{param}"));
            }
        }
        out.push_str(
            ",lpmr1,lpmr2,lpmr3,t1,t2,ipc,cpi_exe,stall_per_instr,stall_budget_met,\
             l1_mshr_hist,shared_mshr_hist,rob_hist,dram_bank_util,wall_cycles_per_sec\n",
        );
        for s in &self.snapshots {
            out.push_str(&format!("{},{},{}", s.interval, s.cycle, s.cycles));
            for layer in LAYER_COLUMNS {
                match s.layers.iter().find(|l| l.name == *layer) {
                    Some(l) => {
                        for v in [
                            l.h, l.ch, l.cm, l.cm_conv, l.pmr, l.mr, l.pamp, l.amp, l.apc, l.camat,
                        ] {
                            out.push_str(&format!(",{v}"));
                        }
                        out.push_str(&format!(",{}", l.accesses));
                    }
                    None => {
                        for _ in PARAM_COLUMNS {
                            out.push(',');
                        }
                    }
                }
            }
            out.push_str(&format!(
                ",{},{},{},{},{},{},{},{},{}",
                s.lpmr1,
                s.lpmr2,
                s.lpmr3,
                s.t1,
                s.t2,
                s.ipc,
                s.cpi_exe,
                s.stall_per_instr,
                s.stall_budget_met
            ));
            out.push_str(&format!(
                ",{},{},{},{},{}\n",
                s.l1_mshr_hist.to_compact(),
                s.shared_mshr_hist.to_compact(),
                s.rob_hist.to_compact(),
                s.dram_bank_util,
                s.wall_cycles_per_sec
            ));
        }
        out
    }

    /// Parse the [`TelemetryLog::to_csv`] snapshot table. Events and
    /// summary come back empty (CSV does not carry them).
    pub fn from_csv(text: &str) -> Result<TelemetryLog, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty CSV")?;
        let cols: Vec<&str> = header.split(',').collect();
        let expected = 3 + LAYER_COLUMNS.len() * PARAM_COLUMNS.len() + 14;
        if cols.len() != expected {
            return Err(format!(
                "CSV header has {} columns, expected {expected}",
                cols.len()
            ));
        }
        let mut log = TelemetryLog::default();
        for (lineno, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let cells: Vec<&str> = line.split(',').collect();
            if cells.len() != expected {
                return Err(format!(
                    "CSV row {} has {} cells, expected {expected}",
                    lineno + 2,
                    cells.len()
                ));
            }
            let pu = |i: usize| -> Result<u64, String> {
                cells[i]
                    .parse()
                    .map_err(|_| format!("row {}: bad integer {:?}", lineno + 2, cells[i]))
            };
            let pf = |i: usize| -> Result<f64, String> {
                cells[i]
                    .parse()
                    .map_err(|_| format!("row {}: bad number {:?}", lineno + 2, cells[i]))
            };
            let mut layers = Vec::new();
            for (li, layer) in LAYER_COLUMNS.iter().enumerate() {
                let base = 3 + li * PARAM_COLUMNS.len();
                if cells[base].is_empty() {
                    continue;
                }
                layers.push(LayerMetrics {
                    name: (*layer).to_string(),
                    h: pf(base)?,
                    ch: pf(base + 1)?,
                    cm: pf(base + 2)?,
                    cm_conv: pf(base + 3)?,
                    pmr: pf(base + 4)?,
                    mr: pf(base + 5)?,
                    pamp: pf(base + 6)?,
                    amp: pf(base + 7)?,
                    apc: pf(base + 8)?,
                    camat: pf(base + 9)?,
                    accesses: pu(base + 10)?,
                });
            }
            let t = 3 + LAYER_COLUMNS.len() * PARAM_COLUMNS.len();
            log.snapshots.push(MetricsSnapshot {
                interval: pu(0)?,
                cycle: pu(1)?,
                cycles: pu(2)?,
                layers,
                lpmr1: pf(t)?,
                lpmr2: pf(t + 1)?,
                lpmr3: pf(t + 2)?,
                t1: pf(t + 3)?,
                t2: pf(t + 4)?,
                ipc: pf(t + 5)?,
                cpi_exe: pf(t + 6)?,
                stall_per_instr: pf(t + 7)?,
                stall_budget_met: match cells[t + 8] {
                    "true" => true,
                    "false" => false,
                    other => return Err(format!("row {}: bad bool {other:?}", lineno + 2)),
                },
                l1_mshr_hist: Histogram::from_compact(cells[t + 9])?,
                shared_mshr_hist: Histogram::from_compact(cells[t + 10])?,
                rob_hist: Histogram::from_compact(cells[t + 11])?,
                dram_bank_util: pf(t + 12)?,
                wall_cycles_per_sec: pf(t + 13)?,
            });
        }
        Ok(log)
    }

    /// Append another log's records to this one, in order: `other`'s
    /// snapshots follow this log's snapshots, its events follow this
    /// log's events, and its summary is absorbed. Merging the per-shard
    /// recorder outputs of a parallel sweep **in point order** yields a
    /// log that is byte-identical no matter how many workers produced
    /// the parts — the determinism invariant the `lpm-harness` crate
    /// builds on.
    pub fn merge(&mut self, other: TelemetryLog) {
        self.snapshots.extend(other.snapshots);
        self.events.extend(other.events);
        self.summary.absorb(&other.summary);
    }

    /// Merge an ordered sequence of logs into one (see
    /// [`TelemetryLog::merge`]).
    pub fn merged<I: IntoIterator<Item = TelemetryLog>>(parts: I) -> TelemetryLog {
        let mut out = TelemetryLog::default();
        let mut first = true;
        for part in parts {
            if first {
                out = part;
                first = false;
            } else {
                out.merge(part);
            }
        }
        out
    }

    /// Render the human-readable end-of-run summary table.
    pub fn human_summary(&self) -> String {
        let mut out = String::new();
        let s = &self.summary;
        out.push_str("== telemetry summary ==\n");
        out.push_str(&format!(
            "intervals: {}   cycles: {}   final IPC: {:.3}\n",
            s.intervals, s.total_cycles, s.final_ipc
        ));
        out.push_str(&format!(
            "events: {} recorded, {} dropped\n",
            s.events_recorded, s.events_dropped
        ));
        let mut by_kind: Vec<(&'static str, u64)> = Vec::new();
        for e in &self.events {
            match by_kind.iter_mut().find(|(k, _)| *k == e.kind()) {
                Some((_, n)) => *n += 1,
                None => by_kind.push((e.kind(), 1)),
            }
        }
        for (kind, n) in &by_kind {
            out.push_str(&format!("  {kind}: {n}\n"));
        }
        if let Some(h) = &s.health {
            out.push_str(&format!(
                "controller health: {} degenerate windows, {} sensor faults, {} rollbacks, \
                 {} clamped steps, {} oscillation freezes\n",
                h.degenerate_windows,
                h.sensor_faults,
                h.rollbacks,
                h.clamped_steps,
                h.oscillation_trips
            ));
        }
        if let Some(ft) = &s.faults {
            let seed = match ft.seed {
                Some(seed) => format!(" (seed {seed})"),
                None => String::new(),
            };
            out.push_str(&format!(
                "faults{}: {} spikes, {} storms, {} bank stalls, {} squeezes over {} faulted cycles\n",
                seed, ft.spike_events, ft.storm_events, ft.stall_events, ft.squeeze_events,
                ft.faulted_cycles
            ));
        }
        if let Some(last) = self.snapshots.last() {
            out.push_str(&format!(
                "final interval: LPMR1 {:.3}  LPMR2 {:.3}  T1 {:.3}  T2 {:.3}  budget {}\n",
                last.lpmr1,
                last.lpmr2,
                last.t1,
                last.t2,
                if last.stall_budget_met {
                    "met"
                } else {
                    "MISSED"
                }
            ));
            out.push_str(&format!(
                "occupancy means: L1 MSHR {:.2}  shared MSHR {:.2}  ROB {:.2}  DRAM bank util {:.1}%\n",
                last.l1_mshr_hist.mean(),
                last.shared_mshr_hist.mean(),
                last.rob_hist.mean(),
                last.dram_bank_util * 100.0
            ));
            if last.wall_cycles_per_sec > 0.0 {
                out.push_str(&format!(
                    "sim throughput: {:.0} cycles/sec\n",
                    last.wall_cycles_per_sec
                ));
            }
        }
        out
    }
}

/// Layer column order in CSV exports.
const LAYER_COLUMNS: &[&str] = &["L1", "L2", "L3", "DRAM"];
/// Per-layer parameter column order in CSV exports.
const PARAM_COLUMNS: &[&str] = &[
    "H", "CH", "CM", "Cm", "pMR", "MR", "pAMP", "AMP", "APC", "camat", "accesses",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DecisionCase, SkipReason};

    fn sample_log() -> TelemetryLog {
        let mut c = lpm_model::LayerCounters::new(3);
        c.accesses = 5;
        c.misses = 2;
        c.pure_misses = 1;
        c.hit_cycles = 4;
        c.hit_access_cycles = 10;
        c.miss_cycles = 3;
        c.miss_access_cycles = 4;
        c.pure_miss_cycles = 2;
        c.pure_miss_access_cycles = 2;
        c.active_cycles = 6;
        let mut hist = Histogram::default();
        hist.record(2, 1);
        hist.record(2, 1);
        hist.record(5, 1);
        let snap = MetricsSnapshot {
            interval: 0,
            cycle: 10_000,
            cycles: 10_000,
            layers: vec![
                LayerMetrics::from_counters("L1", &c),
                LayerMetrics::from_counters("L2", &c),
                LayerMetrics::dram(60, 40, 700),
            ],
            lpmr1: 3.5,
            lpmr2: 1.5,
            lpmr3: 0.0,
            t1: 1.5,
            t2: 0.75,
            ipc: 1.25,
            cpi_exe: 0.5,
            stall_per_instr: 0.125,
            stall_budget_met: false,
            l1_mshr_hist: hist.clone(),
            shared_mshr_hist: hist.clone(),
            rob_hist: hist,
            dram_bank_util: 0.25,
            wall_cycles_per_sec: 2.0e6,
        };
        TelemetryLog {
            snapshots: vec![snap],
            events: vec![
                Event::Decision {
                    cycle: 10_000,
                    interval: 0,
                    case: DecisionCase::CaseI,
                    lpmr1: 3.5,
                    lpmr2: 1.5,
                    t1: 1.5,
                    t2: 0.75,
                    ipc: 1.25,
                    applied: true,
                },
                Event::KnobChange {
                    cycle: 10_000,
                    knob: "mshrs",
                    from: 4,
                    to: 8,
                },
                Event::FaultInjected {
                    cycle: 4321,
                    kind: "dram-spike".into(),
                    seed: 0xDEAD_BEEF,
                    duration: 900,
                },
                Event::WindowSkipped {
                    cycle: 20_000,
                    reason: SkipReason::DegenerateWindow,
                },
            ],
            summary: RunSummary {
                intervals: 1,
                total_cycles: 10_000,
                final_ipc: 1.25,
                events_recorded: 4,
                events_dropped: 0,
                health: Some(HealthCounters {
                    degenerate_windows: 1,
                    sensor_faults: 0,
                    rollbacks: 2,
                    clamped_steps: 3,
                    oscillation_trips: 0,
                }),
                faults: Some(FaultTotals {
                    seed: Some(0xDEAD_BEEF),
                    spike_events: 1,
                    storm_events: 0,
                    stall_events: 0,
                    squeeze_events: 0,
                    faulted_cycles: 900,
                }),
            },
        }
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let log = sample_log();
        let text = log.to_jsonl();
        let back = TelemetryLog::from_jsonl(&text).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn csv_round_trips_snapshots() {
        let log = sample_log();
        let text = log.to_csv();
        let back = TelemetryLog::from_csv(&text).unwrap();
        assert_eq!(back.snapshots, log.snapshots);
        assert!(back.events.is_empty());
    }

    #[test]
    fn csv_leaves_missing_l3_blank() {
        let log = sample_log();
        let text = log.to_csv();
        let row = text.lines().nth(1).unwrap();
        // The L3 block (11 columns) is empty.
        assert!(row.contains(",,,,,,,,,,,"));
    }

    #[test]
    fn jsonl_rejects_corruption() {
        let log = sample_log();
        let mut text = log.to_jsonl();
        assert!(TelemetryLog::from_jsonl(&text.replace("snapshot", "snapsh0t")).is_err());
        text.push_str("{\"type\":\"event\"}\n");
        assert!(TelemetryLog::from_jsonl(&text).is_err());
        assert!(TelemetryLog::from_jsonl("").is_err());
    }

    #[test]
    fn summary_without_optionals_round_trips() {
        let s = RunSummary {
            intervals: 3,
            total_cycles: 30_000,
            final_ipc: 2.0,
            events_recorded: 0,
            events_dropped: 0,
            health: None,
            faults: None,
        };
        let v = Value::parse(&s.to_json().to_json()).unwrap();
        assert_eq!(RunSummary::from_json(&v).unwrap(), s);
    }

    #[test]
    fn seedless_fault_totals_round_trip_and_stay_distinct_from_seed_zero() {
        let mut none = RunSummary {
            faults: Some(FaultTotals {
                seed: None,
                spike_events: 1,
                storm_events: 0,
                stall_events: 0,
                squeeze_events: 0,
                faulted_cycles: 10,
            }),
            ..RunSummary::default()
        };
        let v = Value::parse(&none.to_json().to_json()).unwrap();
        assert!(v.get("faults").unwrap().get("seed").is_none());
        assert_eq!(RunSummary::from_json(&v).unwrap(), none);
        // Seed 0 is a real seed: it must survive the round trip as 0,
        // not collapse into "not recorded".
        none.faults.as_mut().unwrap().seed = Some(0);
        let v = Value::parse(&none.to_json().to_json()).unwrap();
        assert_eq!(
            v.get("faults").unwrap().get("seed").and_then(Value::as_u64),
            Some(0)
        );
        assert_eq!(RunSummary::from_json(&v).unwrap(), none);
    }

    #[test]
    fn merge_concatenates_in_order_and_sums_summaries() {
        let a = sample_log();
        let mut b = sample_log();
        b.summary.final_ipc = 2.5;
        b.summary.faults.as_mut().unwrap().seed = Some(7);
        let merged = TelemetryLog::merged([a.clone(), b.clone()]);
        assert_eq!(merged.snapshots.len(), 2);
        assert_eq!(merged.events.len(), 8);
        // First part's records strictly precede the second's.
        assert_eq!(&merged.snapshots[0], &a.snapshots[0]);
        assert_eq!(&merged.events[..4], &a.events[..]);
        let s = &merged.summary;
        assert_eq!(s.intervals, 2);
        assert_eq!(s.total_cycles, 20_000);
        assert_eq!(s.events_recorded, 8);
        // final_ipc takes the later part; fault seed keeps the first.
        assert!((s.final_ipc - 2.5).abs() < 1e-12);
        let ft = s.faults.unwrap();
        assert_eq!(ft.seed, Some(0xDEAD_BEEF));
        assert_eq!(ft.spike_events, 2);
        let h = s.health.unwrap();
        assert_eq!(h.rollbacks, 4);
        assert_eq!(h.clamped_steps, 6);
    }

    #[test]
    fn merge_order_determines_output_bytes() {
        // The byte-for-byte determinism contract: merging [a, b] and
        // [b, a] differ, but any schedule that presents the same order
        // yields identical JSONL.
        let a = sample_log();
        let mut b = sample_log();
        b.summary.final_ipc = 9.0;
        let ab1 = TelemetryLog::merged([a.clone(), b.clone()]).to_jsonl();
        let ab2 = TelemetryLog::merged([a.clone(), b.clone()]).to_jsonl();
        let ba = TelemetryLog::merged([b, a]).to_jsonl();
        assert_eq!(ab1, ab2);
        assert_ne!(ab1, ba);
    }

    #[test]
    fn merge_from_empty_adopts_optionals() {
        let mut base = TelemetryLog::default();
        base.merge(sample_log());
        assert!(base.summary.health.is_some());
        assert!(base.summary.faults.is_some());
        assert_eq!(base.summary.intervals, 1);
    }

    #[test]
    fn human_summary_mentions_key_counters() {
        let text = sample_log().human_summary();
        assert!(text.contains("rollbacks"));
        assert!(text.contains("seed 3735928559"));
        assert!(text.contains("LPMR1"));
        assert!(text.contains("fault-injected: 1"));
    }
}
