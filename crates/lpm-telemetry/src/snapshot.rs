//! Per-interval metric snapshots: the C-AMAT analyzer read-out
//! (Fig. 4) plus occupancy histograms and run-rate metadata.

use crate::json::Value;
use lpm_model::LayerCounters;

/// Maximum tracked occupancy value; larger observations land in the
/// overflow bucket. 512 covers the largest ROB in the design space.
const HIST_MAX: usize = 512;

/// A small integer-valued histogram (occupancy counts per cycle).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[v]` = number of observations of exactly `v`.
    buckets: Vec<u64>,
    /// Observations above [`HIST_MAX`].
    overflow: u64,
}

impl Histogram {
    /// Record `n` observations of the same value in one shot: one per
    /// cycle of a real step (`n = 1`) or of a coalesced idle span whose
    /// occupancy is constant. `n = 0` records nothing and leaves the
    /// bucket vector unresized.
    pub fn record(&mut self, value: usize, n: u64) {
        if n == 0 {
            return;
        }
        if value > HIST_MAX {
            self.overflow += n;
            return;
        }
        if self.buckets.len() <= value {
            self.buckets.resize(value + 1, 0);
        }
        self.buckets[value] += n;
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.overflow
    }

    /// Mean observed value (overflowed samples count as `HIST_MAX`).
    pub fn mean(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .buckets
            .iter()
            .enumerate()
            .map(|(v, &n)| crate::count_u64(v) * n)
            .sum::<u64>()
            + self.overflow * crate::count_u64(HIST_MAX);
        sum as f64 / total as f64
    }

    /// Largest value with at least one observation.
    pub fn max(&self) -> usize {
        if self.overflow > 0 {
            return HIST_MAX;
        }
        self.buckets.iter().rposition(|&n| n > 0).unwrap_or(0)
    }

    /// Bucket counts (index = value). Trailing zero buckets are trimmed
    /// by construction of [`Histogram::record`].
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Semicolon-joined `value:count` pairs for CSV cells (sparse; only
    /// non-zero buckets appear). Empty string for an empty histogram.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        for (v, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if !out.is_empty() {
                out.push(';');
            }
            out.push_str(&format!("{v}:{n}"));
        }
        if self.overflow > 0 {
            if !out.is_empty() {
                out.push(';');
            }
            out.push_str(&format!(">{HIST_MAX}:{}", self.overflow));
        }
        out
    }

    /// Inverse of [`Histogram::to_compact`].
    pub fn from_compact(s: &str) -> Result<Histogram, String> {
        let mut h = Histogram::default();
        for pair in s.split(';').filter(|p| !p.is_empty()) {
            let (key, count) = pair
                .split_once(':')
                .ok_or_else(|| format!("bad histogram cell {pair:?}"))?;
            let n: u64 = count.parse().map_err(|_| format!("bad count {count:?}"))?;
            if let Some(rest) = key.strip_prefix('>') {
                let _: usize = rest.parse().map_err(|_| format!("bad bucket {key:?}"))?;
                h.overflow += n;
            } else {
                let v: usize = key.parse().map_err(|_| format!("bad bucket {key:?}"))?;
                if v > HIST_MAX {
                    h.overflow += n;
                } else {
                    if h.buckets.len() <= v {
                        h.buckets.resize(v + 1, 0);
                    }
                    h.buckets[v] += n;
                }
            }
        }
        Ok(h)
    }

    /// JSON form: `{"b":[...counts...],"over":n}`.
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            (
                "b".into(),
                Value::Arr(self.buckets.iter().map(|&n| Value::Uint(n)).collect()),
            ),
            ("over".into(), Value::Uint(self.overflow)),
        ])
    }

    /// Inverse of [`Histogram::to_json`].
    pub fn from_json(v: &Value) -> Result<Histogram, String> {
        let buckets = v
            .get("b")
            .and_then(Value::as_arr)
            .ok_or("histogram missing buckets")?
            .iter()
            .map(|x| x.as_u64().ok_or("bad bucket count"))
            .collect::<Result<Vec<_>, _>>()?;
        let overflow = v
            .get("over")
            .and_then(Value::as_u64)
            .ok_or("histogram missing overflow")?;
        Ok(Histogram { buckets, overflow })
    }
}

/// One layer's C-AMAT analyzer read-out (Fig. 4): the five primary
/// parameters plus the conventional-model pair and the APC identity.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetrics {
    /// Layer label (`"L1"`, `"L2"`, `"L3"`, `"DRAM"`).
    pub name: String,
    /// Configured hit time `H` in cycles.
    pub h: f64,
    /// Hit concurrency `CH`.
    pub ch: f64,
    /// Pure miss concurrency `CM`.
    pub cm: f64,
    /// Conventional miss concurrency `Cm`.
    pub cm_conv: f64,
    /// Pure miss rate `pMR`.
    pub pmr: f64,
    /// Conventional miss rate `MR`.
    pub mr: f64,
    /// Average pure miss penalty `pAMP` in cycles.
    pub pamp: f64,
    /// Conventional average miss penalty `AMP` in cycles.
    pub amp: f64,
    /// Accesses per memory-active cycle `APC` (Eq. 3).
    pub apc: f64,
    /// C-AMAT of the layer (Eq. 2; equals `1/APC`).
    pub camat: f64,
    /// Accesses observed this interval.
    pub accesses: u64,
}

impl LayerMetrics {
    /// Derive the full parameter set from raw analyzer counters.
    pub fn from_counters(name: &str, c: &LayerCounters) -> LayerMetrics {
        LayerMetrics {
            name: name.to_string(),
            h: c.hit_time as f64,
            ch: c.ch(),
            cm: c.cm_pure(),
            cm_conv: c.cm_conventional(),
            pmr: c.pmr(),
            mr: c.mr(),
            pamp: c.pamp(),
            amp: c.amp(),
            apc: c.apc(),
            camat: c.camat_via_apc(),
            accesses: c.accesses,
        }
    }

    /// DRAM has no miss phase below it: the analyzer only measures APC
    /// and C-AMAT (latency + queueing), so the miss-side parameters are
    /// zero and concurrencies are the APC itself.
    pub fn dram(latency: u64, accesses: u64, active_cycles: u64) -> LayerMetrics {
        let apc = if active_cycles == 0 {
            0.0
        } else {
            accesses as f64 / active_cycles as f64
        };
        let camat = if accesses == 0 {
            0.0
        } else {
            active_cycles as f64 / accesses as f64
        };
        LayerMetrics {
            name: "DRAM".into(),
            h: latency as f64,
            ch: apc,
            cm: 0.0,
            cm_conv: 0.0,
            pmr: 0.0,
            mr: 0.0,
            pamp: 0.0,
            amp: 0.0,
            apc,
            camat,
            accesses,
        }
    }

    /// JSON form (field names match the paper symbols).
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("H".into(), Value::Num(self.h)),
            ("CH".into(), Value::Num(self.ch)),
            ("CM".into(), Value::Num(self.cm)),
            ("Cm".into(), Value::Num(self.cm_conv)),
            ("pMR".into(), Value::Num(self.pmr)),
            ("MR".into(), Value::Num(self.mr)),
            ("pAMP".into(), Value::Num(self.pamp)),
            ("AMP".into(), Value::Num(self.amp)),
            ("APC".into(), Value::Num(self.apc)),
            ("camat".into(), Value::Num(self.camat)),
            ("accesses".into(), Value::Uint(self.accesses)),
        ])
    }

    /// Inverse of [`LayerMetrics::to_json`].
    pub fn from_json(v: &Value) -> Result<LayerMetrics, String> {
        let n = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Value::as_num_lossless)
                .ok_or_else(|| format!("layer missing {key}"))
        };
        Ok(LayerMetrics {
            name: v
                .get("name")
                .and_then(Value::as_str)
                .ok_or("layer missing name")?
                .to_string(),
            h: n("H")?,
            ch: n("CH")?,
            cm: n("CM")?,
            cm_conv: n("Cm")?,
            pmr: n("pMR")?,
            mr: n("MR")?,
            pamp: n("pAMP")?,
            amp: n("AMP")?,
            apc: n("APC")?,
            camat: n("camat")?,
            accesses: v
                .get("accesses")
                .and_then(Value::as_u64)
                .ok_or("layer missing accesses")?,
        })
    }
}

/// The occupancy observation shared by every cycle of a real step or an
/// idle span, taken by the simulator while a recorder is enabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleSample {
    /// MSHRs in use across all L1 caches.
    pub l1_mshrs: usize,
    /// MSHRs in use at the shared level (L2, or L3 when present).
    pub shared_mshrs: usize,
    /// ROB entries occupied across all cores.
    pub rob: usize,
    /// DRAM banks currently busy.
    pub dram_banks_busy: usize,
    /// Total DRAM banks.
    pub dram_banks_total: usize,
}

/// Accumulates [`CycleSample`]s into interval-level histograms.
#[derive(Debug, Clone, Default)]
pub struct CycleAccum {
    /// Cycles accumulated so far.
    pub cycles: u64,
    /// L1 MSHR occupancy histogram.
    pub l1_mshr_hist: Histogram,
    /// Shared-level MSHR occupancy histogram.
    pub shared_mshr_hist: Histogram,
    /// ROB occupancy histogram.
    pub rob_hist: Histogram,
    /// Σ busy banks over all sampled cycles.
    pub bank_busy_cycles: u64,
    /// Σ total banks over all sampled cycles.
    pub bank_cycles: u64,
}

impl CycleAccum {
    /// Fold in `n` cycles sharing one observation (a real step, or a
    /// coalesced idle span with constant occupancy).
    pub fn record(&mut self, s: &CycleSample, n: u64) {
        self.cycles += n;
        self.l1_mshr_hist.record(s.l1_mshrs, n);
        self.shared_mshr_hist.record(s.shared_mshrs, n);
        self.rob_hist.record(s.rob, n);
        self.bank_busy_cycles += crate::count_u64(s.dram_banks_busy) * n;
        self.bank_cycles += crate::count_u64(s.dram_banks_total) * n;
    }

    /// Average fraction of DRAM banks busy over the accumulated cycles.
    pub fn bank_util(&self) -> f64 {
        if self.bank_cycles == 0 {
            0.0
        } else {
            self.bank_busy_cycles as f64 / self.bank_cycles as f64
        }
    }

    /// Take the accumulated interval, leaving this accumulator empty.
    pub fn take(&mut self) -> CycleAccum {
        std::mem::take(self)
    }
}

/// A full per-interval telemetry snapshot: every per-layer C-AMAT
/// component, the layered matching ratios, occupancy histograms, and
/// run-rate metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Zero-based interval index.
    pub interval: u64,
    /// Cycle count at the end of the interval.
    pub cycle: u64,
    /// Interval length in cycles.
    pub cycles: u64,
    /// Per-layer analyzer read-outs, L1 outward (`L1`, `L2`, optional
    /// `L3`, `DRAM`).
    pub layers: Vec<LayerMetrics>,
    /// `LPMR1 = C-AMAT1 / CPIexe` (Eq. 9).
    pub lpmr1: f64,
    /// `LPMR2 = C-AMAT2·pMR1/ηext,1 / C-AMAT1` (Eq. 10).
    pub lpmr2: f64,
    /// `LPMR3` (Eq. 11); zero when the hierarchy has no L3.
    pub lpmr3: f64,
    /// Threshold `T1` (Eq. 14).
    pub t1: f64,
    /// Threshold `T2` (Eq. 15); zero when unattainable.
    pub t2: f64,
    /// Instructions per cycle over the interval.
    pub ipc: f64,
    /// Execution-only CPI (`CPIexe`).
    pub cpi_exe: f64,
    /// Measured memory stall cycles per instruction.
    pub stall_per_instr: f64,
    /// Whether the stall budget (`δ × CPIexe`) was met.
    pub stall_budget_met: bool,
    /// L1 MSHR occupancy per cycle.
    pub l1_mshr_hist: Histogram,
    /// Shared-level MSHR occupancy per cycle.
    pub shared_mshr_hist: Histogram,
    /// ROB occupancy per cycle.
    pub rob_hist: Histogram,
    /// Mean fraction of DRAM banks busy.
    pub dram_bank_util: f64,
    /// Wall-clock simulation throughput in simulated cycles per second
    /// (0 when timing was not captured).
    pub wall_cycles_per_sec: f64,
}

impl MetricsSnapshot {
    /// Serialize to a JSON object (`{"type":"snapshot",...}`).
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("type".into(), Value::Str("snapshot".into())),
            ("interval".into(), Value::Uint(self.interval)),
            ("cycle".into(), Value::Uint(self.cycle)),
            ("cycles".into(), Value::Uint(self.cycles)),
            (
                "layers".into(),
                Value::Arr(self.layers.iter().map(LayerMetrics::to_json).collect()),
            ),
            ("lpmr1".into(), Value::Num(self.lpmr1)),
            ("lpmr2".into(), Value::Num(self.lpmr2)),
            ("lpmr3".into(), Value::Num(self.lpmr3)),
            ("t1".into(), Value::Num(self.t1)),
            ("t2".into(), Value::Num(self.t2)),
            ("ipc".into(), Value::Num(self.ipc)),
            ("cpi_exe".into(), Value::Num(self.cpi_exe)),
            ("stall_per_instr".into(), Value::Num(self.stall_per_instr)),
            (
                "stall_budget_met".into(),
                Value::Bool(self.stall_budget_met),
            ),
            ("l1_mshr_hist".into(), self.l1_mshr_hist.to_json()),
            ("shared_mshr_hist".into(), self.shared_mshr_hist.to_json()),
            ("rob_hist".into(), self.rob_hist.to_json()),
            ("dram_bank_util".into(), Value::Num(self.dram_bank_util)),
            (
                "wall_cycles_per_sec".into(),
                Value::Num(self.wall_cycles_per_sec),
            ),
        ])
    }

    /// Inverse of [`MetricsSnapshot::to_json`].
    pub fn from_json(v: &Value) -> Result<MetricsSnapshot, String> {
        let u = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("snapshot missing {key}"))
        };
        // NaN fields (e.g. `t2` when unattainable) serialize as `null`;
        // parse them back to NaN so the round trip is byte-stable.
        let n = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Value::as_num_lossless)
                .ok_or_else(|| format!("snapshot missing {key}"))
        };
        let hist = |key: &str| -> Result<Histogram, String> {
            Histogram::from_json(
                v.get(key)
                    .ok_or_else(|| format!("snapshot missing {key}"))?,
            )
        };
        Ok(MetricsSnapshot {
            interval: u("interval")?,
            cycle: u("cycle")?,
            cycles: u("cycles")?,
            layers: v
                .get("layers")
                .and_then(Value::as_arr)
                .ok_or("snapshot missing layers")?
                .iter()
                .map(LayerMetrics::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            lpmr1: n("lpmr1")?,
            lpmr2: n("lpmr2")?,
            lpmr3: n("lpmr3")?,
            t1: n("t1")?,
            t2: n("t2")?,
            ipc: n("ipc")?,
            cpi_exe: n("cpi_exe")?,
            stall_per_instr: n("stall_per_instr")?,
            stall_budget_met: v
                .get("stall_budget_met")
                .and_then(Value::as_bool)
                .ok_or("snapshot missing stall_budget_met")?,
            l1_mshr_hist: hist("l1_mshr_hist")?,
            shared_mshr_hist: hist("shared_mshr_hist")?,
            rob_hist: hist("rob_hist")?,
            dram_bank_util: n("dram_bank_util")?,
            wall_cycles_per_sec: n("wall_cycles_per_sec")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_records_and_summarizes() {
        let mut h = Histogram::default();
        for v in [0, 1, 1, 4, 4, 4] {
            h.record(v, 1);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.max(), 4);
        assert!((h.mean() - 14.0 / 6.0).abs() < 1e-12);
        assert_eq!(h.buckets(), &[1, 2, 0, 0, 3]);
    }

    #[test]
    fn histogram_overflow_is_bounded() {
        let mut h = Histogram::default();
        h.record(HIST_MAX + 1000, 1);
        assert_eq!(h.total(), 1);
        assert_eq!(h.max(), HIST_MAX);
        assert!(h.buckets().is_empty());
    }

    #[test]
    fn histogram_compact_round_trips() {
        let mut h = Histogram::default();
        for v in [0, 2, 2, 7, HIST_MAX + 5] {
            h.record(v, 1);
        }
        let cell = h.to_compact();
        assert_eq!(Histogram::from_compact(&cell).unwrap(), h);
        assert_eq!(Histogram::from_compact("").unwrap(), Histogram::default());
        assert!(Histogram::from_compact("nonsense").is_err());
    }

    #[test]
    fn histogram_json_round_trips() {
        let mut h = Histogram::default();
        h.record(3, 1);
        h.record(HIST_MAX + 1, 1);
        let v = h.to_json();
        assert_eq!(Histogram::from_json(&v).unwrap(), h);
    }

    #[test]
    fn cycle_accum_builds_histograms() {
        let mut acc = CycleAccum::default();
        let s = |l1_mshrs, shared_mshrs, rob, dram_banks_busy| CycleSample {
            l1_mshrs,
            shared_mshrs,
            rob,
            dram_banks_busy,
            dram_banks_total: 8,
        };
        acc.record(&s(2, 1, 10, 3), 1);
        acc.record(&s(0, 0, 12, 5), 1);
        assert_eq!(acc.cycles, 2);
        assert!((acc.bank_util() - 0.5).abs() < 1e-12);
        assert_eq!(acc.rob_hist.total(), 2);
        let taken = acc.take();
        assert_eq!(taken.cycles, 2);
        assert_eq!(acc.cycles, 0);
    }

    /// Satellite contract for event-driven stepping: a 1000-cycle
    /// coalesced span and 1000 individual per-cycle samples must build
    /// byte-identical histograms and accumulator state.
    #[test]
    fn span_weighted_recording_matches_per_cycle_recording() {
        let s = CycleSample {
            l1_mshrs: 3,
            shared_mshrs: 7,
            rob: 42,
            dram_banks_busy: 2,
            dram_banks_total: 8,
        };
        let mut per_cycle = CycleAccum::default();
        for _ in 0..1000 {
            per_cycle.record(&s, 1);
        }
        let mut span = CycleAccum::default();
        span.record(&s, 1000);
        assert_eq!(span.cycles, per_cycle.cycles);
        assert_eq!(span.l1_mshr_hist, per_cycle.l1_mshr_hist);
        assert_eq!(span.shared_mshr_hist, per_cycle.shared_mshr_hist);
        assert_eq!(span.rob_hist, per_cycle.rob_hist);
        assert_eq!(span.bank_busy_cycles, per_cycle.bank_busy_cycles);
        assert_eq!(span.bank_cycles, per_cycle.bank_cycles);
        assert_eq!(
            span.rob_hist.to_compact(),
            per_cycle.rob_hist.to_compact(),
            "compact CSV cells must match too"
        );
    }

    #[test]
    fn histogram_weighted_record_matches_repeated_record() {
        let mut many = Histogram::default();
        for _ in 0..1000 {
            many.record(5, 1);
        }
        many.record(HIST_MAX + 3, 1);
        many.record(HIST_MAX + 3, 1);
        let mut once = Histogram::default();
        once.record(5, 1000);
        once.record(HIST_MAX + 3, 2);
        once.record(9, 0); // zero-length span is a no-op
        assert_eq!(once, many);
        assert_eq!(once.total(), 1002);
    }

    fn sample_snapshot() -> MetricsSnapshot {
        let mut c = LayerCounters::new(3);
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
        hist.record(1, 1);
        hist.record(3, 1);
        MetricsSnapshot {
            interval: 7,
            cycle: 80_000,
            cycles: 10_000,
            layers: vec![
                LayerMetrics::from_counters("L1", &c),
                LayerMetrics::dram(60, 100, 900),
            ],
            lpmr1: 2.5,
            lpmr2: 1.25,
            lpmr3: 0.0,
            t1: 1.5,
            t2: 0.8,
            ipc: 1.75,
            cpi_exe: 0.5,
            stall_per_instr: 0.07,
            stall_budget_met: true,
            l1_mshr_hist: hist.clone(),
            shared_mshr_hist: Histogram::default(),
            rob_hist: hist,
            dram_bank_util: 0.375,
            wall_cycles_per_sec: 1.0e6,
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = sample_snapshot();
        let line = snap.to_json().to_json();
        let back = MetricsSnapshot::from_json(&Value::parse(&line).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn layer_metrics_match_counter_accessors() {
        let snap = sample_snapshot();
        let l1 = &snap.layers[0];
        assert_eq!(l1.name, "L1");
        assert!((l1.ch - 2.5).abs() < 1e-12);
        assert!((l1.mr - 0.4).abs() < 1e-12);
        assert!((l1.apc - 5.0 / 6.0).abs() < 1e-12);
        let dram = &snap.layers[1];
        assert!((dram.camat - 9.0).abs() < 1e-12);
        assert_eq!(dram.mr, 0.0);
    }
}
