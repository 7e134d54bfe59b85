//! Exporter round-trip coverage: build a many-interval telemetry log,
//! serialize to both formats, parse back, and compare against the
//! in-memory structures.

use lpm_telemetry::{
    DecisionCase, Event, FaultTotals, HealthCounters, Histogram, LayerMetrics, MetricsSnapshot,
    Recorder, RingRecorder, RunSummary, SkipReason, TelemetryLog,
};

/// Deterministic pseudo-random stream (splitmix64) so the log exercises
/// a wide range of values without fixtures.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn synth_layer(name: &str, s: &mut Stream) -> LayerMetrics {
    LayerMetrics {
        name: name.to_string(),
        h: (1 + s.next() % 60) as f64,
        ch: 1.0 + s.f64() * 4.0,
        cm: 1.0 + s.f64() * 8.0,
        cm_conv: 1.0 + s.f64() * 8.0,
        pmr: s.f64(),
        mr: s.f64(),
        pamp: s.f64() * 200.0,
        amp: s.f64() * 200.0,
        apc: s.f64() * 4.0,
        camat: s.f64() * 50.0,
        accesses: s.next() % 1_000_000,
    }
}

fn synth_hist(s: &mut Stream) -> Histogram {
    let mut h = Histogram::default();
    for _ in 0..(s.next() % 40) {
        h.record((s.next() % 600) as usize, 1); // some overflow the 512 cap
    }
    h
}

fn synth_log(seed: u64, intervals: u64, with_l3: bool) -> TelemetryLog {
    let mut s = Stream(seed);
    let mut rec = RingRecorder::new(64);
    for i in 0..intervals {
        let cycle = (i + 1) * 10_000;
        let mut layers = vec![synth_layer("L1", &mut s), synth_layer("L2", &mut s)];
        if with_l3 {
            layers.push(synth_layer("L3", &mut s));
        }
        layers.push(synth_layer("DRAM", &mut s));
        rec.snapshot(MetricsSnapshot {
            interval: i,
            cycle,
            cycles: 10_000,
            layers,
            lpmr1: s.f64() * 20.0,
            lpmr2: s.f64() * 5.0,
            lpmr3: if with_l3 { s.f64() * 5.0 } else { 0.0 },
            t1: 1.0 + s.f64(),
            t2: s.f64(),
            ipc: s.f64() * 4.0,
            cpi_exe: 0.25 + s.f64(),
            stall_per_instr: s.f64(),
            stall_budget_met: s.next().is_multiple_of(2),
            l1_mshr_hist: synth_hist(&mut s),
            shared_mshr_hist: synth_hist(&mut s),
            rob_hist: synth_hist(&mut s),
            dram_bank_util: s.f64(),
            wall_cycles_per_sec: s.f64() * 1.0e7,
        });
        rec.event(Event::Decision {
            cycle,
            interval: i,
            case: match s.next() % 4 {
                0 => DecisionCase::CaseI,
                1 => DecisionCase::CaseII,
                2 => DecisionCase::CaseIII,
                _ => DecisionCase::CaseIV,
            },
            lpmr1: s.f64() * 20.0,
            lpmr2: s.f64() * 5.0,
            t1: 1.5,
            t2: s.f64(),
            ipc: s.f64() * 4.0,
            applied: s.next().is_multiple_of(2),
        });
        match s.next() % 4 {
            0 => rec.event(Event::KnobChange {
                cycle,
                knob: "mshrs",
                from: s.next() % 64,
                to: s.next() % 64,
            }),
            1 => rec.event(Event::FaultInjected {
                cycle,
                kind: "refresh-storm".into(),
                seed,
                duration: s.next() % 5_000,
            }),
            2 => rec.event(Event::WindowSkipped {
                cycle,
                reason: if s.next().is_multiple_of(2) {
                    SkipReason::DegenerateWindow
                } else {
                    SkipReason::SensorFault
                },
            }),
            _ => rec.event(Event::ThresholdCrossing {
                cycle,
                boundary: 1 + s.next() % 2,
                lpmr: s.f64() * 3.0,
                threshold: 1.5,
                upward: s.next().is_multiple_of(2),
            }),
        }
    }
    rec.into_log(RunSummary {
        total_cycles: intervals * 10_000,
        health: Some(HealthCounters {
            degenerate_windows: seed % 5,
            sensor_faults: seed % 3,
            rollbacks: seed % 7,
            clamped_steps: seed % 11,
            oscillation_trips: seed % 2,
        }),
        faults: Some(FaultTotals {
            seed: Some(seed),
            spike_events: 2,
            storm_events: 1,
            stall_events: 0,
            squeeze_events: 4,
            faulted_cycles: 12_345,
        }),
        ..RunSummary::default()
    })
}

#[test]
fn jsonl_round_trip_over_many_seeds() {
    for seed in [1u64, 7, 42, 0xFFFF_FFFF_FFFF_FFFF] {
        let log = synth_log(seed, 25, seed % 2 == 0);
        let parsed = TelemetryLog::from_jsonl(&log.to_jsonl())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(parsed, log, "seed {seed}");
    }
}

#[test]
fn csv_round_trip_over_many_seeds() {
    for seed in [3u64, 19, 1234] {
        let log = synth_log(seed, 25, seed % 2 == 0);
        let parsed =
            TelemetryLog::from_csv(&log.to_csv()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(parsed.snapshots, log.snapshots, "seed {seed}");
    }
}

#[test]
fn nan_fields_round_trip_to_identical_bytes() {
    // `t2` is NaN when the Eq. 15 threshold is unattainable; JSON has
    // no NaN, so it serializes as `null`. Parsing must bring it back as
    // NaN — not 0.0 — or a parse/re-export cycle (exactly what the
    // sweep checkpoint journal does) would change bytes.
    let mut log = synth_log(11, 3, false);
    log.snapshots[1].t2 = f64::NAN;
    log.snapshots[1].layers[0].amp = f64::NAN;
    let jsonl = log.to_jsonl();
    assert!(jsonl.contains("\"t2\":null"), "{jsonl}");
    let parsed = TelemetryLog::from_jsonl(&jsonl).unwrap();
    assert!(parsed.snapshots[1].t2.is_nan());
    assert!(parsed.snapshots[1].layers[0].amp.is_nan());
    assert_eq!(parsed.to_jsonl(), jsonl);
}

#[test]
fn ring_bound_is_respected_under_load() {
    let log = synth_log(99, 200, false);
    // 200 intervals × 2 events, ring capacity 64.
    assert_eq!(log.events.len(), 64);
    assert_eq!(log.summary.events_dropped, 400 - 64);
    assert_eq!(log.summary.intervals, 200);
}

#[test]
fn jsonl_and_csv_agree_on_snapshot_content() {
    let log = synth_log(5, 10, true);
    let via_json = TelemetryLog::from_jsonl(&log.to_jsonl()).unwrap();
    let via_csv = TelemetryLog::from_csv(&log.to_csv()).unwrap();
    assert_eq!(via_json.snapshots, via_csv.snapshots);
}
