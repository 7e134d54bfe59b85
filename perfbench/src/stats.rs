//! Sample statistics, digests and `/proc` readings shared by every
//! workload.

use std::path::Path;
use std::time::Duration;

/// A set of timing samples, in milliseconds unless stated otherwise.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn push_duration_ms(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median (mean of the two middle samples for an even count); 0 when
    /// empty.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// Every sample multiplied by `k` (a change of unit).
    pub fn scaled(&self, k: f64) -> Samples {
        Samples(self.0.iter().map(|v| v * k).collect())
    }

    /// Samples at or below `limit`.
    pub fn count_within(&self, limit: f64) -> usize {
        self.0.iter().filter(|&&v| v <= limit).count()
    }

    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }

    /// The highest percentile that still has at least ten samples above
    /// it, with that percentile and the sample count. Below 22 samples that
    /// percentile would not lie above the median, so the maximum is
    /// reported instead (percentile 100).
    pub fn tail(&self) -> Tail {
        let v = self.sorted();
        let n = v.len();
        if n < 22 {
            return Tail {
                value: v.last().copied().unwrap_or(0.0),
                percentile: 100.0,
                samples: n,
            };
        }
        let k = n - 11;
        Tail {
            value: v[k],
            percentile: 100.0 * (k + 1) as f64 / n as f64,
            samples: n,
        }
    }
}

/// A tail value as [`Samples::tail`] reports it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

impl Tail {
    /// `{"pct": .., "samples": ..}` for the run's info line.
    pub fn describe(&self) -> String {
        format!(
            "{{\"pct\":{:.1},\"samples\":{}}}",
            self.percentile, self.samples
        )
    }
}

/// Whether a run that has spent `elapsed` seconds of its `budget` should
/// start another unit of work taking about `unit` seconds: yes while that
/// ends it closer to the budget than stopping now.
pub fn another(elapsed: f64, unit: f64, budget: f64) -> bool {
    elapsed + unit / 2.0 < budget
}

/// 64-bit FNV-1a, the digest of every workload's deterministic output.
pub fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Separate parts so ("ab", "c") and ("a", "bc") differ.
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// User + system CPU seconds of process `pid` (all threads), from
/// `/proc/<pid>/stat`. The kernel reports clock ticks of `USER_HZ`,
/// which is 100 on every Linux ABI.
pub fn cpu_seconds(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("malformed {path}"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 3 of the full line, utime 14, stime 15.
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| format!("malformed {path}"))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Host-wide `(steal, total)` CPU ticks from `/proc/stat`: time this
/// machine's CPUs were taken by other guests of its hypervisor.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// Remove a directory tree the benchmark created, ignoring a missing one.
pub fn remove_tree(dir: &Path) {
    if dir.exists() {
        if let Err(e) = std::fs::remove_dir_all(dir) {
            eprintln!("perfbench: cannot remove {}: {e}", dir.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(v: &[f64]) -> Samples {
        let mut s = Samples::default();
        for &x in v {
            s.push(x);
        }
        s
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let s = of(&(1..=100).map(f64::from).collect::<Vec<_>>());
        let t = s.tail();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.samples, 100);
        assert!((t.percentile - 90.0).abs() < 1e-9);
        assert_eq!(of(&[3.0, 1.0, 2.0]).tail().value, 3.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(of(&[3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(of(&[4.0, 1.0, 2.0, 3.0]).median(), 2.5);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn digest_separates_parts() {
        assert_ne!(fnv1a(&[b"ab", b"c"]), fnv1a(&[b"a", b"bc"]));
    }

    #[test]
    fn own_process_is_readable() {
        assert!(cpu_seconds("self").is_ok());
        assert!(peak_rss_mb("self").unwrap() > 0.0);
    }
}
