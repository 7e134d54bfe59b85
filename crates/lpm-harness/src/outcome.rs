//! Typed per-point outcomes: the sweep's failure taxonomy.
//!
//! PR 3's engine was all-or-nothing — one failing point discarded every
//! computed result. A crash-safe sweep instead gives every point a
//! [`PointRow`] whose [`PointOutcome`] says exactly what happened:
//!
//! | outcome       | meaning                                              |
//! |---------------|------------------------------------------------------|
//! | `Ok`          | evaluation completed; full [`PointResult`] attached  |
//! | `Failed`      | structured error (bad config, sim deadlock, …)       |
//! | `Panicked`    | the evaluation panicked; caught by `catch_unwind`    |
//! | `TimedOut`    | the simulated-cycle watchdog tripped                 |
//! | `Quarantined` | every retry failed; the point is benched             |
//!
//! All of it is deterministic: outcomes, attempt counts and error texts
//! are pure functions of (spec, point), never of the worker schedule, so
//! a report containing failures still serializes bit-for-bit identically
//! for every `--jobs` value.

use lpm_telemetry::Event;

use crate::point::{PointResult, SweepPoint};

/// What happened to one sweep point, after retries.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome {
    /// The point evaluated successfully.
    Ok(Box<PointResult>),
    /// The evaluation returned a structured error (message carries the
    /// `point <label>:` prefix).
    Failed {
        /// The full diagnostic text.
        error: String,
    },
    /// The evaluation panicked and was isolated by `catch_unwind`.
    Panicked {
        /// The panic payload, when it was a string (the common case).
        message: String,
    },
    /// The per-point simulated-cycle watchdog tripped.
    TimedOut {
        /// The spec's per-point budget, in cycles.
        budget: u64,
        /// Absolute simulated cycle at which the budget tripped.
        cycles: u64,
    },
    /// The point failed on the initial attempt and on every retry.
    Quarantined {
        /// Total attempts made (initial + retries).
        attempts: u32,
        /// The last attempt's rendered failure.
        last_error: String,
    },
}

impl PointOutcome {
    /// Every tag [`PointOutcome::kind`] returns.
    pub const KINDS: [&'static str; 5] = ["ok", "failed", "panicked", "timed-out", "quarantined"];

    /// Stable kind tag used in report columns and checkpoint rows.
    pub fn kind(&self) -> &'static str {
        match self {
            PointOutcome::Ok(_) => "ok",
            PointOutcome::Failed { .. } => "failed",
            PointOutcome::Panicked { .. } => "panicked",
            PointOutcome::TimedOut { .. } => "timed-out",
            PointOutcome::Quarantined { .. } => "quarantined",
        }
    }

    /// Whether the point completed.
    pub fn is_ok(&self) -> bool {
        matches!(self, PointOutcome::Ok(_))
    }

    /// The completed result, when there is one.
    pub fn result(&self) -> Option<&PointResult> {
        match self {
            PointOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }
}

/// One row of a sweep report: the point, how many attempts it took, the
/// typed outcome, and the harness-level events (retries, failures,
/// quarantine) that explain the attempt history. Every field is
/// deterministic — rows are the unit both the report and the checkpoint
/// journal serialize.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRow {
    /// The point's stable index (merge key).
    pub index: usize,
    /// The point's identifying label.
    pub label: String,
    /// The point definition.
    pub point: SweepPoint,
    /// Attempts made (1 on the happy path).
    pub attempts: u32,
    /// What happened.
    pub outcome: PointOutcome,
    /// Harness-level events, in emission order: `point-retried`,
    /// `point-failed`, `point-quarantined`.
    pub harness_events: Vec<Event>,
}

impl PointRow {
    /// Whether the point completed.
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }

    /// The completed result, when there is one.
    pub fn result(&self) -> Option<&PointResult> {
        self.outcome.result()
    }

    /// Events the point's `RingRecorder` dropped because its ring was
    /// full (0 for rows without a completed run).
    pub fn events_dropped(&self) -> u64 {
        self.result()
            .map_or(0, |r| r.telemetry.summary.events_dropped)
    }

    /// The rendered failure for a non-ok row (`None` when ok). This text
    /// is what fail-fast mode returns as the sweep error, so it names
    /// the point.
    pub fn error(&self) -> Option<String> {
        match &self.outcome {
            PointOutcome::Ok(_) => None,
            PointOutcome::Failed { error } => Some(error.clone()),
            PointOutcome::Panicked { message } => {
                Some(format!("point {}: panicked: {message}", self.label))
            }
            PointOutcome::TimedOut { budget, cycles } => Some(format!(
                "point {}: timed out: exceeded its cycle budget of {budget} cycle(s) at \
                 simulated cycle {cycles}",
                self.label
            )),
            PointOutcome::Quarantined {
                attempts,
                last_error,
            } => Some(format!(
                "point {}: quarantined after {attempts} attempt(s): {last_error}",
                self.label
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::SweepSpec;

    fn row_with(outcome: PointOutcome) -> PointRow {
        let point = SweepSpec::default().points().remove(0);
        PointRow {
            index: point.index,
            label: point.label(),
            point,
            attempts: 1,
            outcome,
            harness_events: Vec::new(),
        }
    }

    #[test]
    fn kinds_are_stable() {
        assert_eq!(
            row_with(PointOutcome::Failed { error: "e".into() })
                .outcome
                .kind(),
            "failed"
        );
        assert_eq!(
            row_with(PointOutcome::Panicked {
                message: "m".into()
            })
            .outcome
            .kind(),
            "panicked"
        );
        assert_eq!(
            row_with(PointOutcome::TimedOut {
                budget: 10,
                cycles: 20
            })
            .outcome
            .kind(),
            "timed-out"
        );
        assert_eq!(
            row_with(PointOutcome::Quarantined {
                attempts: 3,
                last_error: "e".into()
            })
            .outcome
            .kind(),
            "quarantined"
        );
    }

    #[test]
    fn error_texts_name_the_point() {
        let row = row_with(PointOutcome::TimedOut {
            budget: 5_000,
            cycles: 17_000,
        });
        let e = row.error().unwrap();
        assert!(e.contains(&row.label), "{e}");
        assert!(e.contains("5000 cycle(s)"), "{e}");
        assert!(e.contains("cycle 17000"), "{e}");
        let row = row_with(PointOutcome::Quarantined {
            attempts: 3,
            last_error: "boom".into(),
        });
        let e = row.error().unwrap();
        assert!(
            e.contains("after 3 attempt(s)") && e.contains("boom"),
            "{e}"
        );
    }
}
