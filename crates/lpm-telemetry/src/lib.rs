//! Structured telemetry for the LPM reproduction.
//!
//! The paper's C-AMAT analyzer (Fig. 4) is an *online measurement*
//! apparatus: HCD/MCD detectors streaming `H`, `CH`, `CM`, `Cm`, `pMR`,
//! `MR`, `pAMP`, `AMP` and `APC` per layer. This crate is that
//! apparatus's read-out path: a [`Recorder`] trait the simulator and
//! the online controller emit into, typed [`Event`]s for every
//! controller decision (Case I–IV), knob change, rollback, oscillation
//! freeze, skipped window, threshold crossing and injected fault, and a
//! per-interval [`MetricsSnapshot`] carrying every per-layer C-AMAT
//! component plus LPMR1/2/3, occupancy histograms, DRAM bank
//! utilization, IPC, stall-budget attainment and wall-clock simulation
//! throughput.
//!
//! # Zero cost when disabled
//!
//! Instrumented code is generic over `R: Recorder` and guards every
//! emission with `if R::ENABLED { ... }` where `ENABLED` is an
//! associated *constant*. The [`NullRecorder`] sets it to `false`, so
//! the disabled path monomorphizes to exactly the uninstrumented code:
//! no branches, no allocation, bit-for-bit identical simulation output
//! (asserted by the `telemetry_e2e` integration test).
//!
//! # Bounded memory
//!
//! The [`RingRecorder`] keeps the event log in a bounded ring: when
//! full, the oldest event is dropped and a drop counter incremented, so
//! a long run cannot grow without bound. Snapshots are one per
//! measurement interval and are kept in full.
//!
//! # Exports
//!
//! [`TelemetryLog`] serializes to JSON-lines (snapshots + events +
//! summary) and CSV (snapshot table), both with exact round-trip
//! parsers used by the test suite and the `telemetry_check` CI binary.

#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod json;
pub mod prof;
pub mod snapshot;

pub use event::{DecisionCase, Event, JobPhase, SkipReason};
pub use export::{FaultTotals, HealthCounters, RunSummary, TelemetryLog};
pub use json::Value;
pub use prof::{wall_now, AttrSample, CycleAttribution, Profiled, WallProfile, WallSpan};
pub use snapshot::{CycleAccum, CycleSample, Histogram, LayerMetrics, MetricsSnapshot};

use std::collections::VecDeque;

/// Widen a `usize` count to the `u64` wire type. Lossless on every
/// supported platform (`usize` is at most 64 bits); saturates rather
/// than wrapping if that ever stops holding — the P002 lint rule bans
/// the bare `as` cast that would wrap silently.
pub(crate) fn count_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Default event-ring capacity (`--trace-events` overrides it).
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// A telemetry sink the simulator and controller emit into.
///
/// Implementations with `ENABLED == false` compile the instrumentation
/// out entirely: call sites guard with `if R::ENABLED`, a constant the
/// optimizer folds, so hot loops pay nothing.
pub trait Recorder {
    /// Whether this recorder captures anything at all. Call sites must
    /// guard emissions (and any work to *construct* them) with this.
    const ENABLED: bool;

    /// Whether this recorder consumes cycle-attribution samples
    /// ([`AttrSample`]). Independent of `ENABLED` so a
    /// [`Profiled<NullRecorder>`](prof::Profiled) profiles without
    /// paying for event/snapshot capture; call sites guard
    /// `attr_sample` emissions (and the work to construct them) with
    /// this constant.
    const PROFILED: bool = false;

    /// Append a typed event to the log.
    fn event(&mut self, ev: Event);

    /// Observe `n` consecutive cycles sharing one occupancy sample: a
    /// real step is a span of one, a coalesced idle span from the
    /// event-driven fast path a span of `n`.
    fn cycle_sample(&mut self, s: &CycleSample, n: u64);

    /// Observe `n` consecutive cycles sharing one attribution sample
    /// (occupancies against capacities plus the per-cycle retirement
    /// delta; zero on every idle span). Default: discard.
    #[inline]
    fn attr_sample(&mut self, _s: &AttrSample, _n: u64) {}

    /// Drain the occupancy accumulator at an interval boundary.
    fn take_interval(&mut self) -> CycleAccum {
        CycleAccum::default()
    }

    /// Append a completed per-interval snapshot.
    fn snapshot(&mut self, snap: MetricsSnapshot);
}

/// The disabled recorder: every method is a no-op and `ENABLED` is
/// `false`, so instrumented code monomorphizes to the bare simulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn event(&mut self, _ev: Event) {}

    #[inline(always)]
    fn cycle_sample(&mut self, _s: &CycleSample, _n: u64) {}

    #[inline(always)]
    fn snapshot(&mut self, _snap: MetricsSnapshot) {}
}

/// The enabled recorder: a bounded event ring, a per-interval occupancy
/// accumulator, and the full snapshot series.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    capacity: usize,
    events: VecDeque<Event>,
    dropped: u64,
    accum: CycleAccum,
    snapshots: Vec<MetricsSnapshot>,
}

impl RingRecorder {
    /// Create a recorder holding at most `capacity` events (oldest
    /// dropped first). A capacity of 0 disables the event log but keeps
    /// snapshots.
    pub fn new(capacity: usize) -> Self {
        RingRecorder {
            capacity,
            events: VecDeque::with_capacity(capacity.min(1024)),
            dropped: 0,
            accum: CycleAccum::default(),
            snapshots: Vec::new(),
        }
    }

    /// Events currently held in the ring.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Snapshots recorded so far.
    pub fn snapshots(&self) -> &[MetricsSnapshot] {
        &self.snapshots
    }

    /// Consume the recorder into an exportable [`TelemetryLog`]. The
    /// caller supplies run-level totals (health, faults, cycle count);
    /// the event/drop counters are filled in here.
    pub fn into_log(self, mut summary: RunSummary) -> TelemetryLog {
        summary.events_recorded = count_u64(self.events.len());
        summary.events_dropped = self.dropped;
        summary.intervals = count_u64(self.snapshots.len());
        if let Some(last) = self.snapshots.last() {
            summary.final_ipc = last.ipc;
        }
        TelemetryLog {
            snapshots: self.snapshots,
            events: self.events.into(),
            summary,
        }
    }
}

impl Default for RingRecorder {
    fn default() -> Self {
        RingRecorder::new(DEFAULT_EVENT_CAPACITY)
    }
}

impl Recorder for RingRecorder {
    const ENABLED: bool = true;

    fn event(&mut self, ev: Event) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    fn cycle_sample(&mut self, s: &CycleSample, n: u64) {
        self.accum.record(s, n);
    }

    fn take_interval(&mut self) -> CycleAccum {
        self.accum.take()
    }

    fn snapshot(&mut self, snap: MetricsSnapshot) {
        self.snapshots.push(snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64) -> Event {
        Event::Rollback { cycle, streak: 1 }
    }

    #[test]
    fn null_recorder_is_disabled() {
        const { assert!(!NullRecorder::ENABLED) };
        let mut r = NullRecorder;
        r.event(ev(1));
        r.cycle_sample(&CycleSample::default(), 1);
        assert_eq!(r.take_interval().cycles, 0);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut r = RingRecorder::new(2);
        r.event(ev(1));
        r.event(ev(2));
        r.event(ev(3));
        assert_eq!(r.dropped(), 1);
        let cycles: Vec<u64> = r.events().map(Event::cycle).collect();
        assert_eq!(cycles, vec![2, 3]);
    }

    #[test]
    fn zero_capacity_ring_keeps_nothing() {
        let mut r = RingRecorder::new(0);
        r.event(ev(1));
        assert_eq!(r.events().count(), 0);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn take_interval_resets_accumulator() {
        let mut r = RingRecorder::default();
        r.cycle_sample(
            &CycleSample {
                l1_mshrs: 1,
                shared_mshrs: 0,
                rob: 5,
                dram_banks_busy: 2,
                dram_banks_total: 4,
            },
            1,
        );
        let acc = r.take_interval();
        assert_eq!(acc.cycles, 1);
        assert!((acc.bank_util() - 0.5).abs() < 1e-12);
        assert_eq!(r.take_interval().cycles, 0);
    }

    #[test]
    fn ring_span_sampling_matches_per_cycle_sampling() {
        let s = CycleSample {
            l1_mshrs: 2,
            shared_mshrs: 1,
            rob: 17,
            dram_banks_busy: 3,
            dram_banks_total: 8,
        };
        let mut per_cycle = RingRecorder::default();
        for _ in 0..1000 {
            per_cycle.cycle_sample(&s, 1);
        }
        let mut span = RingRecorder::default();
        span.cycle_sample(&s, 1000);
        let a = per_cycle.take_interval();
        let b = span.take_interval();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.rob_hist, b.rob_hist);
        assert_eq!(a.l1_mshr_hist, b.l1_mshr_hist);
        assert_eq!(a.shared_mshr_hist, b.shared_mshr_hist);
        assert_eq!(a.bank_busy_cycles, b.bank_busy_cycles);
        assert_eq!(a.bank_cycles, b.bank_cycles);
    }

    #[test]
    fn into_log_fills_event_counters() {
        let mut r = RingRecorder::new(1);
        r.event(ev(1));
        r.event(ev(2));
        let log = r.into_log(RunSummary::default());
        assert_eq!(log.summary.events_recorded, 1);
        assert_eq!(log.summary.events_dropped, 1);
        assert_eq!(log.events.len(), 1);
    }
}
