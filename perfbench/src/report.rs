//! The metric catalogue, correctness bookkeeping, and the result line.
//!
//! The catalogue is `BENCHMARK.json` at the repository root, compiled in.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use lpm_telemetry::Value;

/// Metric names and units, as `BENCHMARK.json` lists them.
pub struct Catalogue {
    /// Printed on every untraced run.
    pub end_to_end: Vec<(String, String)>,
    /// Printed on every traced run. A layer the workload never enters
    /// reports 0.
    pub per_layer: Vec<(String, String)>,
}

fn parse_catalogue(text: &str) -> Result<Catalogue, String> {
    let doc = Value::parse(text)?;
    let list = |key: &str| -> Result<Vec<(String, String)>, String> {
        let arr = doc
            .get(key)
            .and_then(Value::as_arr)
            .ok_or(format!("no {key} list"))?;
        arr.iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
                field("name")
                    .zip(field("unit"))
                    .ok_or(format!("{key} entry without a name and unit"))
            })
            .collect()
    };
    Ok(Catalogue {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

pub fn catalogue() -> &'static Catalogue {
    static CATALOGUE: OnceLock<Catalogue> = OnceLock::new();
    CATALOGUE.get_or_init(|| {
        parse_catalogue(include_str!("../../BENCHMARK.json"))
            .unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    })
}

fn known(name: &str) -> bool {
    let c = catalogue();
    c.end_to_end
        .iter()
        .chain(&c.per_layer)
        .any(|(n, _)| n == name)
}

/// Everything one run produces: metric values, counted operations and
/// correctness checks, and facts about the host and the run.
pub struct Outcome {
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    checks: Vec<(String, bool)>,
    info: Vec<(String, String)>,
    canary: Option<String>,
}

impl Outcome {
    /// `canary` names a check whose input the run corrupts on purpose.
    pub fn new(canary: Option<String>) -> Outcome {
        Outcome {
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            info: Vec::new(),
            canary,
        }
    }

    /// Record a metric. Names outside the catalogue are a bug here.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(known(name), "metric {name} is not in the catalogue");
        self.values.insert(name, value);
    }

    /// Count one operation of the workload (a job, a pass, a sweep).
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record one correctness check; a failing check counts as a failed
    /// operation.
    pub fn check(&mut self, name: &str, ok: bool, detail: &str) {
        if !ok {
            eprintln!("perfbench: check {name} FAILED: {detail}");
        }
        self.checks.push((name.to_string(), ok));
        self.op(ok);
    }

    /// Whether the canary targets check `name`.
    fn tampers(&self, name: &str) -> bool {
        self.canary.as_deref() == Some(name)
    }

    /// `text` as check `name` should see it: changed in its last byte
    /// when the canary targets that check.
    pub fn bytes_for(&self, name: &str, text: String) -> String {
        if !self.tampers(name) {
            return text;
        }
        let mut t = text;
        match t.pop() {
            Some('x') => t.push('y'),
            _ => t.push('x'),
        }
        t
    }

    /// `value` as check `name` should see it: negated and shifted when
    /// the canary targets that check.
    pub fn num_for(&self, name: &str, value: f64) -> f64 {
        if self.tampers(name) {
            -value - 1.0
        } else {
            value
        }
    }

    /// A fact printed on the info line; `json` is a JSON value.
    pub fn info(&mut self, key: &str, json: String) {
        self.info.push((key.to_string(), json));
    }

    /// Print the info line, the checks line and the result line; return
    /// the process exit code.
    pub fn finish(mut self, trace: bool) -> i32 {
        if let Some(c) = &self.canary {
            if !self.checks.iter().any(|(n, _)| n == c) {
                eprintln!("perfbench: canary {c} matched no check");
                self.failed += 1;
            }
        }
        let attempted = self.attempted.max(1);
        let fail_ratio = self.failed as f64 / attempted as f64;
        self.values.insert("fail_ratio", fail_ratio);
        let c = catalogue();
        let list = if trace { &c.per_layer } else { &c.end_to_end };
        let mut metrics = Vec::new();
        for (name, unit) in list {
            let value = match self.values.get(name.as_str()) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    eprintln!("perfbench: metric {name} is not finite ({v})");
                    self.failed += 1;
                    0.0
                }
                // Per-layer: the workload never entered this layer.
                None if trace => 0.0,
                None => {
                    eprintln!("perfbench: end-to-end metric {name} was not measured");
                    self.failed += 1;
                    0.0
                }
            };
            metrics.push(format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                number(value)
            ));
        }
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        println!("perfbench info {{{}}}", info.join(","));
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(n, ok)| format!("\"{n}\":{ok}"))
            .collect();
        println!("perfbench checks {{{}}}", checks.join(","));
        let correct = self.failed == 0;
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            attempted,
            self.failed,
            metrics.join(",")
        );
        if correct {
            0
        } else {
            1
        }
    }
}

/// A JSON number with every digit of the measurement.
fn number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique() {
        let c = catalogue();
        let mut names: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|(n, _)| n.as_str())
            .collect();
        let all = names.len();
        assert!(all > 0);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all);
    }

    #[test]
    fn canary_changes_what_the_check_sees() {
        let o = Outcome::new(Some("a".into()));
        assert_ne!(o.bytes_for("a", "abc".into()), "abc");
        assert_eq!(o.bytes_for("b", "abc".into()), "abc");
        assert!(o.num_for("a", 0.995) < 0.99);
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(2.0), "2.0");
        assert_eq!(number(0.123456789012), "0.123456789012");
    }
}
