//! Typed simulator errors.
//!
//! Historically every failure in the simulator was a `panic!` — fine for
//! unit tests, hostile to embedders (the CLI, the online controller, the
//! fault-injection harness) that need to distinguish "the configuration
//! is wrong" from "the simulated machine wedged" and keep going or report
//! a diagnostic. [`SimError`] is the crate's error currency: every
//! constructor and run loop of `Cmp` and `System` returns it.

use std::fmt;

use lpm_model::ModelError;

/// Everything that can go wrong inside the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The deadlock watchdog fired: no core retired an instruction for
    /// longer than the watchdog horizon. This indicates a simulator bug
    /// or an injected fault held far beyond its intended duration — not
    /// a modelling outcome.
    Deadlock {
        /// Cycle of the last observed retirement.
        since: u64,
        /// Cycle at which the watchdog fired.
        now: u64,
        /// Pre-rendered queue/MSHR/core occupancy diagnostics.
        detail: String,
    },
    /// A structurally invalid configuration was rejected before any
    /// simulation state was built.
    InvalidConfig(String),
    /// A bounded auxiliary run (e.g. the perfect-cache `CPIexe`
    /// calibration) failed to complete within its defensive budget.
    Unconverged(String),
    /// A measurement could not be reduced to model quantities.
    Model(ModelError),
    /// A budgeted run hit its simulated-cycle cap before finishing. The
    /// check happens inside the step loop, so it fires at exactly the
    /// same simulated cycle on every run — this is the deterministic
    /// "point watchdog" signal the sweep harness classifies as a
    /// timeout, distinct from a deadlock (which means no forward
    /// progress at all).
    CycleBudgetExceeded {
        /// The absolute cycle cap the run was given.
        budget: u64,
        /// The simulated cycle at which the cap was hit.
        now: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { since, now, detail } => write!(
                f,
                "simulator deadlock: no retirement since cycle {since} (now {now}); {detail}"
            ),
            SimError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::Unconverged(msg) => write!(f, "run did not converge: {msg}"),
            SimError::Model(e) => write!(f, "model error: {e}"),
            SimError::CycleBudgetExceeded { budget, now } => write!(
                f,
                "cycle budget exceeded: reached simulated cycle {now} with the cap at {budget}"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for SimError {
    fn from(e: ModelError) -> Self {
        SimError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_legacy_watchdog_prefix() {
        // Callers print this error; the text must keep the historical
        // prefix that downstream tooling greps.
        let e = SimError::Deadlock {
            since: 10,
            now: 500_011,
            detail: "queues=[0]".into(),
        };
        let s = e.to_string();
        assert!(s.starts_with("simulator deadlock: no retirement since cycle 10"));
        assert!(s.contains("(now 500011)"));
        assert!(s.contains("queues=[0]"));
    }

    #[test]
    fn invalid_config_preserves_message() {
        let e = SimError::InvalidConfig("one trace per core".into());
        assert!(e.to_string().contains("one trace per core"));
    }

    #[test]
    fn cycle_budget_error_names_both_cycles() {
        let e = SimError::CycleBudgetExceeded {
            budget: 5_000,
            now: 5_000,
        };
        let s = e.to_string();
        assert!(s.starts_with("cycle budget exceeded"), "{s}");
        assert!(s.contains("cycle 5000") && s.contains("cap at 5000"), "{s}");
    }

    #[test]
    fn model_errors_convert_and_chain() {
        let m = lpm_model::ModelError::NonPositive {
            name: "H",
            value: 0.0,
        };
        let e: SimError = m.clone().into();
        assert_eq!(e, SimError::Model(m));
        assert!(std::error::Error::source(&e).is_some());
    }
}
