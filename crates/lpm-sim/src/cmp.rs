//! The chip multiprocessor: N out-of-order cores with private L1 caches,
//! a shared banked L2 (the LLC), and shared DRAM — the substrate of both
//! case studies.
//!
//! Workloads are multiprogrammed: each core runs in a disjoint address
//! region, exactly like the paper's SPEC rate-style setup, so no
//! coherence protocol is required (documented in DESIGN.md). Traces are
//! shared, immutable buffers; a core's region base is applied at its L1
//! port, so sixteen cores running one program read one copy of it.
//!
//! # Per-cycle order of operations
//!
//! 1. each core retires/issues/dispatches, pushing new accesses into its
//!    L1 (completions from the previous cycle are delivered first);
//! 2. queued L1 miss/writeback requests are presented to the L2 (head-of-
//!    line, modelling a shared bus);
//! 3. queued L2 miss/writeback requests are presented to DRAM;
//! 4. every analyzer samples its layer (the HCD/MCD contract: sample
//!    after new accesses, before `step`);
//! 5. DRAM advances; read completions become L2 fills;
//! 6. the L2 advances; demand-fill completions become L1 fills, misses
//!    and writebacks queue toward DRAM;
//! 7. each L1 advances; completions are buffered for its core's next
//!    cycle, misses and writebacks queue toward the L2.

use std::collections::VecDeque;

use lpm_cache::{AccessId, AccessResponse, Cache, CacheConfig, StepOutput};
use lpm_cpu::{Core, CoreConfig, CoreStats, MemoryPort};
use lpm_dram::{Dram, DramConfig, DramRequest};
use lpm_model::LayerCounters;
use lpm_telemetry::{AttrSample, CycleSample, Event, NullRecorder, Recorder};
use lpm_trace::Trace;

use crate::analyzer::{CacheAnalyzer, DramAnalyzer};
use crate::error::SimError;
use crate::fault::{FaultActions, FaultConfig, FaultInjector, FaultStats};
use crate::report::SystemReport;

/// Per-core configuration slot (heterogeneous L1s are the point of case
/// study II).
#[derive(Debug, Clone, PartialEq)]
pub struct CoreSlot {
    /// Core sizing.
    pub core: CoreConfig,
    /// Private L1 configuration.
    pub l1: CacheConfig,
}

/// Address-space bits reserved per core; traces must fit below this.
/// Core `i`'s region starts at `i << CORE_SPACE_BITS`.
const CORE_SPACE_BITS: u32 = 36;
/// Bit position where shared-level request tags start.
const TAG_SHIFT: u32 = 44;
/// Tags 1..=32 route a fill to that core's L1; tags `SHARED_TAG_BASE + j`
/// route a fill to shared level `j`; `WRITEBACK_TAG` has no consumer.
const SHARED_TAG_BASE: u64 = 33;
/// Tag value marking a writeback (a store with no reply consumer).
const WRITEBACK_TAG: u64 = 63;
const LINE_MASK: u64 = (1 << TAG_SHIFT) - 1;

/// A request queued toward a shared cache level.
#[derive(Debug, Clone, Copy)]
struct LevelReq {
    id: u64,
    line: u64,
    is_store: bool,
}

/// How many cycles without any retirement before the simulator assumes a
/// deadlock (a simulator bug, not a modelling outcome). Every real step
/// ([`Cmp::try_step_with`]) checks it and reports [`SimError::Deadlock`].
const WATCHDOG_CYCLES: u64 = 500_000;

/// The N-core chip multiprocessor. The shared side of the hierarchy is a
/// chain of one or more levels (L2 [, L3, …]) ending at DRAM — "the
/// extension to additional cache levels is straightforward" (§III).
#[derive(Debug)]
pub struct Cmp {
    cores: Vec<Core>,
    l1s: Vec<Cache>,
    l1_analyzers: Vec<CacheAnalyzer>,
    shared: Vec<Cache>,
    shared_analyzers: Vec<CacheAnalyzer>,
    dram: Dram,
    dram_analyzer: DramAnalyzer,
    /// `level_queues[j]` feeds shared level `j` (from the L1s for j = 0,
    /// from shared level j−1 otherwise).
    level_queues: Vec<VecDeque<LevelReq>>,
    to_dram: VecDeque<DramRequest>,
    core_completions: Vec<Vec<u64>>,
    finished_at: Vec<Option<u64>>,
    /// Optional memory-parallelism partition: cap on outstanding shared-L2
    /// demand fills per core (the paper's "memory parallelism partition"
    /// future-work direction). `None` = unpartitioned.
    mlp_quota: Option<u32>,
    /// Outstanding shared-L2 demand fills per core.
    l2_outstanding: Vec<u32>,
    /// Optional fault injector (robustness testing); `None` leaves the
    /// simulation bit-for-bit identical to a clean run.
    fault: Option<FaultInjector>,
    /// When `true`, every run loop advances strictly cycle-by-cycle (the
    /// reference loop). The event-driven fast path is the default; this
    /// switch exists so differential tests can pin the reference
    /// behaviour and prove the fast path bit-identical to it.
    reference_stepping: bool,
    /// The [`FaultActions`] applied to the hardware at the most recent
    /// real step — the baseline a skipped span is checked against.
    last_fault_act: FaultActions,
    /// Actions pre-drawn by a span scan for the cycle that truncated the
    /// span. The next real step consumes them instead of re-ticking the
    /// injector, so the RNG stream sees exactly one draw set per cycle.
    pending_fault_act: Option<FaultActions>,
    /// Fast-path effectiveness counters: idle spans coalesced and the
    /// cycles they covered. Diagnostics only — never part of a report.
    skipped_spans: u64,
    skipped_cycles: u64,
    /// Reusable per-cycle output buffers (cache step and DRAM
    /// completions), so the hot loop never allocates.
    step_out: StepOutput,
    dram_out: Vec<(u64, bool)>,
    now: u64,
    last_retired_total: u64,
    last_progress_cycle: u64,
}

/// Core `i`'s view of its L1: every address the core presents is moved
/// into the core's region by OR-ing in `base` (`i << CORE_SPACE_BITS`).
/// Traces are validated below `1 << CORE_SPACE_BITS`, so this is the
/// same address as `addr + base`.
struct L1Port<'a> {
    l1: &'a mut Cache,
    base: u64,
}

impl MemoryPort for L1Port<'_> {
    fn try_access(&mut self, now: u64, id: u64, addr: u64, is_store: bool) -> bool {
        matches!(
            self.l1
                .access(now, AccessId(id), addr | self.base, is_store),
            AccessResponse::Accepted
        )
    }
}

impl Cmp {
    /// Build a CMP. `slots[i]` configures core `i`, which executes
    /// `traces[i]` in its own address region (its L1 port adds the
    /// region base; the trace itself is shared, not copied), looping it
    /// `repeats` times (rate mode: no program runs dry while slower
    /// co-runners are still being measured). The shared side of the
    /// hierarchy is the chain `shared_cfgs[0] → shared_cfgs[1] → … →
    /// DRAM` (an L2, optionally followed by an L3). `seed` feeds
    /// replacement-policy randomness. Structural configuration problems
    /// come back as [`SimError::InvalidConfig`].
    pub fn try_new_with_hierarchy(
        slots: Vec<CoreSlot>,
        shared_cfgs: Vec<CacheConfig>,
        dram: DramConfig,
        traces: Vec<Trace>,
        repeats: u32,
        seed: u64,
    ) -> Result<Self, SimError> {
        let bad = |msg: String| Err(SimError::InvalidConfig(msg));
        if slots.len() != traces.len() {
            return bad(format!(
                "one trace per core ({} slots, {} traces)",
                slots.len(),
                traces.len()
            ));
        }
        if slots.is_empty() {
            return bad("need at least one core".into());
        }
        if repeats == 0 {
            return bad("need at least one pass over each trace".into());
        }
        if slots.len() > 32 {
            return bad("tag encoding supports up to 32 cores".into());
        }
        if shared_cfgs.is_empty() || shared_cfgs.len() > 8 {
            return bad(format!(
                "need 1..=8 shared levels, got {}",
                shared_cfgs.len()
            ));
        }
        for c in &shared_cfgs {
            c.validate().map_err(SimError::InvalidConfig)?;
            if c.line_bytes != shared_cfgs[0].line_bytes {
                return bad("mixed line sizes are not modelled".into());
            }
        }
        dram.validate().map_err(SimError::InvalidConfig)?;
        let l2 = &shared_cfgs[0];
        let n = slots.len();
        let mut cores = Vec::with_capacity(n);
        let mut l1s = Vec::with_capacity(n);
        let mut l1_analyzers = Vec::with_capacity(n);
        for (i, (slot, trace)) in slots.into_iter().zip(traces).enumerate() {
            slot.core.validate().map_err(SimError::InvalidConfig)?;
            slot.l1.validate().map_err(SimError::InvalidConfig)?;
            if slot.l1.line_bytes != l2.line_bytes {
                return bad("mixed line sizes are not modelled".into());
            }
            let max_addr = trace
                .iter()
                .filter_map(|ins| ins.op.addr())
                .max()
                .unwrap_or(0);
            if max_addr >= 1 << CORE_SPACE_BITS {
                return bad(format!(
                    "trace addresses must fit in {CORE_SPACE_BITS} bits, found {max_addr:#x}"
                ));
            }
            let analyzer = CacheAnalyzer::new(slot.l1.hit_latency);
            l1s.push(Cache::new(slot.l1, seed.wrapping_add(i as u64)));
            l1_analyzers.push(analyzer);
            cores.push(Core::new_looping(slot.core, trace, repeats));
        }
        let shared_analyzers: Vec<CacheAnalyzer> = shared_cfgs
            .iter()
            .map(|c| CacheAnalyzer::new(c.hit_latency))
            .collect();
        let shared: Vec<Cache> = shared_cfgs
            .into_iter()
            .enumerate()
            .map(|(j, c)| Cache::new(c, seed.wrapping_mul(31 + j as u64)))
            .collect();
        let level_queues = (0..shared.len()).map(|_| VecDeque::new()).collect();
        Ok(Cmp {
            cores,
            l1s,
            l1_analyzers,
            shared,
            shared_analyzers,
            dram: Dram::new(dram),
            dram_analyzer: DramAnalyzer::default(),
            level_queues,
            to_dram: VecDeque::new(),
            core_completions: vec![Vec::new(); n],
            finished_at: vec![None; n],
            mlp_quota: None,
            l2_outstanding: vec![0; n],
            fault: None,
            reference_stepping: false,
            last_fault_act: FaultActions::default(),
            pending_fault_act: None,
            skipped_spans: 0,
            skipped_cycles: 0,
            step_out: StepOutput::default(),
            dram_out: Vec::new(),
            now: 0,
            last_retired_total: 0,
            last_progress_cycle: 0,
        })
    }

    /// Attach (or with `None` detach) a fault injector. The injector is
    /// ticked once per cycle before the hardware advances; detached, the
    /// simulation is bit-for-bit identical to a clean run.
    pub fn set_fault_injector(&mut self, inj: Option<FaultInjector>) {
        if inj.is_none() {
            // Clear any residual fault state in the hardware.
            self.dram.set_fault(0, false);
            for c in self.l1s.iter_mut().chain(self.shared.iter_mut()) {
                c.set_fault(false, 0);
            }
            self.last_fault_act = FaultActions::default();
        }
        self.pending_fault_act = None;
        self.fault = inj;
    }

    /// Enable fault injection per `cfg` (convenience over
    /// [`Cmp::set_fault_injector`]).
    pub fn enable_faults(&mut self, cfg: FaultConfig) {
        self.set_fault_injector(Some(FaultInjector::new(cfg)));
    }

    /// Injection totals, when an injector is attached.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.fault.as_ref().map(|f| f.stats())
    }

    /// Enable (or disable with `None`) memory-parallelism partitioning:
    /// each core may have at most `quota` demand fills outstanding at the
    /// shared L2. Prevents one MLP-hungry program from monopolizing the
    /// shared miss-handling resources.
    pub fn set_mlp_partition(&mut self, quota: Option<u32>) {
        if let Some(q) = quota {
            assert!(q >= 1, "quota must allow at least one outstanding fill");
        }
        self.mlp_quota = quota;
    }

    /// Force (or with `false` lift) strict per-cycle stepping. The
    /// event-driven fast path — skipping provably idle spans in one jump
    /// — is the default and is bit-identical to the reference loop; this
    /// switch exists so differential tests can run both sides of that
    /// contract against each other.
    pub fn set_reference_stepping(&mut self, on: bool) {
        self.reference_stepping = on;
    }

    /// Whether the strict per-cycle reference loop is forced.
    pub fn reference_stepping(&self) -> bool {
        self.reference_stepping
    }

    /// Fast-path effectiveness: `(spans, cycles)` coalesced so far.
    /// Diagnostics only (skip rate = cycles / `now`); the counters are
    /// not part of any report or export.
    pub fn skipped(&self) -> (u64, u64) {
        (self.skipped_spans, self.skipped_cycles)
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Whether every core has drained its trace.
    pub fn all_finished(&self) -> bool {
        self.cores.iter().all(|c| c.finished())
    }

    /// The cycle at which core `i` finished, if it has.
    pub fn finished_at(&self, i: usize) -> Option<u64> {
        self.finished_at[i]
    }

    /// Core-side statistics for core `i`.
    pub fn core_stats(&self, i: usize) -> &CoreStats {
        self.cores[i].stats()
    }

    /// L1 analyzer counters for core `i`.
    pub fn l1_counters(&self, i: usize) -> LayerCounters {
        self.l1_analyzers[i].counters()
    }

    /// Shared-L2 analyzer counters.
    pub fn l2_counters(&self) -> LayerCounters {
        self.shared_analyzers[0].counters()
    }

    /// Number of shared cache levels (1 = L2 only, 2 = L2+L3, …).
    pub fn num_shared_levels(&self) -> usize {
        self.shared.len()
    }

    /// L3 analyzer counters, when an L3 is configured.
    pub fn l3_counters(&self) -> Option<LayerCounters> {
        self.shared_analyzers.get(1).map(|a| a.counters())
    }

    /// DRAM occupancy analyzer.
    pub fn dram_analyzer(&self) -> &DramAnalyzer {
        &self.dram_analyzer
    }

    /// Functional stats of core `i`'s L1.
    pub fn l1_stats(&self, i: usize) -> &lpm_cache::CacheStats {
        self.l1s[i].stats()
    }

    /// Functional stats of the shared L2.
    pub fn l2_stats(&self) -> &lpm_cache::CacheStats {
        self.shared[0].stats()
    }

    /// Functional stats of the DRAM controller.
    pub fn dram_stats(&self) -> &lpm_dram::DramStats {
        self.dram.stats()
    }

    /// Runtime reconfiguration of core `i`'s out-of-order structures
    /// (reconfigurable-architecture support; see case study I). The paper
    /// charges four cycles per reconfiguration operation — callers model
    /// that by spending [`Cmp::try_run_for_with_budget`] cycles at the
    /// decision point.
    /// An invalid `cfg` is [`SimError::InvalidConfig`].
    pub fn reconfigure_core(&mut self, i: usize, cfg: CoreConfig) -> Result<(), SimError> {
        cfg.validate().map_err(SimError::InvalidConfig)?;
        self.cores[i].reconfigure(cfg);
        Ok(())
    }

    /// Runtime reconfiguration of core `i`'s L1 parallelism resources.
    pub fn reconfigure_l1(&mut self, i: usize, ports: u32, mshrs: u32, banks: u32) {
        self.l1s[i].reconfigure_parallelism(ports, mshrs, banks);
    }

    /// Runtime reconfiguration of the shared L2's parallelism resources.
    pub fn reconfigure_l2(&mut self, ports: u32, mshrs: u32, banks: u32) {
        self.shared[0].reconfigure_parallelism(ports, mshrs, banks);
    }

    /// A full report for core `i`; `cpi_exe` comes from a perfect-cache
    /// run of the same trace (see [`crate::System::try_measure_cpi_exe`]).
    pub fn report_for(&self, i: usize, cpi_exe: f64) -> SystemReport {
        let mut r = SystemReport {
            core: *self.cores[i].stats(),
            l1: self.l1_analyzers[i].counters(),
            l2: self.shared_analyzers[0].counters(),
            l3: self.shared_analyzers.get(1).map(|a| a.counters()),
            dram_accesses: self.dram_analyzer.accesses,
            dram_active_cycles: self.dram_analyzer.active_cycles,
            cpi_exe,
        };
        // Sensor faults (counter noise/dropout) act at read-out only, so
        // the same window reads identically however often it is sampled.
        if let Some(inj) = &self.fault {
            inj.perturb_report(&mut r, self.now);
        }
        r
    }

    /// Exclude everything measured so far (warmup): zero core statistics
    /// and analyzer windows. Architectural state — cache and row-buffer
    /// contents, in-flight requests, trace positions — is preserved, so
    /// subsequent measurements reflect steady state (the role SimPoint
    /// sampling plays in the paper's methodology).
    pub fn reset_measurement(&mut self) {
        for core in &mut self.cores {
            core.reset_stats();
        }
        for (an, l1) in self.l1_analyzers.iter_mut().zip(&self.l1s) {
            an.reset(l1);
        }
        for (an, c) in self.shared_analyzers.iter_mut().zip(&self.shared) {
            an.reset(c);
        }
        self.dram_analyzer.reset(&self.dram);
        // Re-arm the watchdog: per-core retirement counters just dropped
        // to zero, so the old running maximum no longer means progress.
        self.last_retired_total = 0;
        self.last_progress_cycle = self.now;
    }

    /// Total instructions retired by core `i` (survives measurement
    /// resets only as the per-window count; use [`Cmp::finished_at`] and
    /// trace lengths for absolute progress).
    pub fn retired(&self, i: usize) -> u64 {
        self.cores[i].retired()
    }

    /// Run until core 0 has retired `instructions` more instructions (or
    /// every core finishes), then reset measurement windows. Returns the
    /// warmup cycle count.
    pub fn try_warm_up(&mut self, instructions: u64) -> Result<u64, SimError> {
        let target = self.cores[0].retired() + instructions;
        self.warm_up_while(|s| s.cores[0].retired() < target && !s.all_finished())
    }

    /// Run until **every** core has retired `instructions` more
    /// instructions (or finished its trace), then reset measurement
    /// windows — the multiprogrammed warmup used by the scheduling study,
    /// where cores progress at very different rates. Returns the warmup
    /// cycle count.
    pub fn try_warm_up_all(&mut self, instructions: u64) -> Result<u64, SimError> {
        let targets = self.retire_targets(instructions);
        self.warm_up_while(|s| s.behind(&targets))
    }

    /// Step while `keep` holds, then reset measurement windows; returns
    /// the warmup cycle count. No explicit cap: the watchdog horizon
    /// bounds every span while any core is unfinished, which every
    /// warm-up predicate implies.
    fn warm_up_while(&mut self, keep: impl Fn(&Self) -> bool) -> Result<u64, SimError> {
        self.run_while(&mut NullRecorder, u64::MAX, keep)?;
        self.reset_measurement();
        Ok(self.now)
    }

    /// Each core's retirement count `instructions` from now.
    fn retire_targets(&self, instructions: u64) -> Vec<u64> {
        self.cores
            .iter()
            .map(|c| c.retired() + instructions)
            .collect()
    }

    /// Whether some unfinished core has not reached its target yet.
    fn behind(&self, targets: &[u64]) -> bool {
        self.cores
            .iter()
            .zip(targets)
            .any(|(c, &t)| !c.finished() && c.retired() < t)
    }

    /// Advance one cycle, emitting into a telemetry recorder: per-cycle
    /// occupancy samples (MSHRs, ROB, DRAM banks) and fault-onset events
    /// carrying the injector's seed. With [`NullRecorder`] every
    /// instrumentation block is guarded by the constant `R::ENABLED` and
    /// monomorphizes away, leaving the step bit-for-bit identical to the
    /// uninstrumented simulator.
    pub fn try_step_with<R: Recorder>(&mut self, rec: &mut R) -> Result<(), SimError> {
        let now = self.now;

        // 0. Fault injection: decide what misbehaves this cycle and push
        // it into the hardware before anything advances. A span scan may
        // already have ticked the injector for this cycle (the draw that
        // truncated the span); consume that result instead of re-ticking
        // so the RNG stream advances exactly once per cycle.
        let predrawn = self.pending_fault_act.take();
        if let Some(inj) = &mut self.fault {
            if R::ENABLED {
                inj.set_onset_logging(true);
            }
            let act = match predrawn {
                Some(a) => a,
                None => inj.tick(now),
            };
            self.last_fault_act = act;
            self.dram
                .set_fault(act.dram_extra_latency, act.dram_blocked);
            for c in self.l1s.iter_mut().chain(self.shared.iter_mut()) {
                c.set_fault(act.cache_stalled, act.mshr_reserved);
            }
            if R::ENABLED {
                let seed = inj.config().seed;
                for onset in inj.drain_onsets() {
                    rec.event(Event::FaultInjected {
                        cycle: onset.cycle,
                        kind: onset.kind.label().into(),
                        seed,
                        duration: onset.duration,
                    });
                }
            }
        }

        // 1. Cores.
        for i in 0..self.cores.len() {
            if self.cores[i].finished() {
                continue;
            }
            let (cores, comps) = (&mut self.cores, &mut self.core_completions);
            for id in comps[i].drain(..) {
                cores[i].complete_mem(id);
            }
            let core = &mut self.cores[i];
            let l1 = &mut self.l1s[i];
            let base = (i as u64) << CORE_SPACE_BITS;
            let mut port = L1Port { l1, base };
            core.cycle(now, &mut port);
            if core.finished() && self.finished_at[i].is_none() {
                self.finished_at[i] = Some(now + 1);
            }
        }

        // 2. Route each shared level's input queue (head-of-line shared
        // buses: L1s → shared[0] → shared[1] → …). Under an MLP partition,
        // over-quota demand requests at the L2 are skipped (their slot in
        // the queue is kept) so throttling one core does not block others.
        for j in 0..self.shared.len() {
            let mut idx = 0;
            while idx < self.level_queues[j].len() {
                let req = self.level_queues[j][idx];
                let tag = req.id >> TAG_SHIFT;
                let demand_core = if j == 0 && tag >= 1 && tag <= self.cores.len() as u64 {
                    Some((tag - 1) as usize)
                } else {
                    None
                };
                if let (Some(core), Some(q)) = (demand_core, self.mlp_quota) {
                    if self.l2_outstanding[core] >= q {
                        idx += 1; // throttled: leave in place, try the next
                        continue;
                    }
                }
                match self.shared[j].access(now, AccessId(req.id), req.line, req.is_store) {
                    AccessResponse::Accepted => {
                        self.level_queues[j].remove(idx);
                        if let Some(core) = demand_core {
                            self.l2_outstanding[core] += 1;
                        }
                    }
                    AccessResponse::RejectPort => break,
                }
            }
        }

        // 3. Last shared level → DRAM routing.
        while let Some(req) = self.to_dram.front().copied() {
            if self.dram.enqueue(now, req) {
                self.to_dram.pop_front();
            } else {
                break;
            }
        }

        // 4. Analyzers and telemetry sample the cycle.
        self.sample_layers(rec, 1);

        // 5. DRAM advances; reads fill the last shared level.
        let mut dram_out = std::mem::take(&mut self.dram_out);
        self.dram.step_into(now, &mut dram_out);
        for &(id, is_write) in &dram_out {
            if !is_write {
                // lpm-lint: allow(P001) constructor rejects empty shared hierarchies, L2 always exists
                self.shared.last_mut().expect("at least L2").fill(id);
            }
        }
        self.dram_out = dram_out;

        // 6. Shared levels advance, deepest first, so a fill produced by
        // level j reaches level j−1 within the same cycle's step.
        let mut out = std::mem::take(&mut self.step_out);
        for j in (0..self.shared.len()).rev() {
            self.shared[j].step_into(now, &mut out);
            for c in out.completions.drain(..) {
                let tag = c.id.0 >> TAG_SHIFT;
                let line = c.id.0 & LINE_MASK;
                if tag >= 1 && tag <= self.cores.len() as u64 {
                    let core = (tag - 1) as usize;
                    self.l1s[core].fill(line);
                    if j == 0 {
                        self.l2_outstanding[core] = self.l2_outstanding[core].saturating_sub(1);
                    }
                } else if tag >= SHARED_TAG_BASE && tag < SHARED_TAG_BASE + j as u64 {
                    self.shared[(tag - SHARED_TAG_BASE) as usize].fill(line);
                }
                // WRITEBACK_TAG completions are posted writes: dropped.
            }
            if j + 1 < self.shared.len() {
                for line in out.outgoing_misses.drain(..) {
                    self.level_queues[j + 1].push_back(LevelReq {
                        id: line | ((SHARED_TAG_BASE + j as u64) << TAG_SHIFT),
                        line,
                        is_store: false,
                    });
                }
                for line in out.writebacks.drain(..) {
                    self.level_queues[j + 1].push_back(LevelReq {
                        id: line | (WRITEBACK_TAG << TAG_SHIFT),
                        line,
                        is_store: true,
                    });
                }
            } else {
                for line in out.outgoing_misses.drain(..) {
                    self.to_dram.push_back(DramRequest {
                        id: line,
                        addr: line,
                        is_write: false,
                    });
                }
                for line in out.writebacks.drain(..) {
                    self.to_dram.push_back(DramRequest {
                        id: line | (1 << 63),
                        addr: line,
                        is_write: true,
                    });
                }
            }
        }

        // 7. L1s advance.
        for i in 0..self.l1s.len() {
            self.l1s[i].step_into(now, &mut out);
            for c in out.completions.drain(..) {
                self.core_completions[i].push(c.id.0);
            }
            for line in out.outgoing_misses.drain(..) {
                debug_assert_eq!(line & !LINE_MASK, 0);
                self.level_queues[0].push_back(LevelReq {
                    id: line | ((i as u64 + 1) << TAG_SHIFT),
                    line,
                    is_store: false,
                });
            }
            for line in out.writebacks.drain(..) {
                self.level_queues[0].push_back(LevelReq {
                    id: line | (WRITEBACK_TAG << TAG_SHIFT),
                    line,
                    is_store: true,
                });
            }
        }
        self.step_out = out;

        // Watchdog: a simulator deadlock manifests as no retirement
        // anywhere for a very long time.
        let retired_total: u64 = self.cores.iter().map(|c| c.stats().retired).sum();

        // Cycle attribution: occupancies against capacities at the end
        // of the cycle, plus this cycle's retirement delta.
        let retired_delta = retired_total.saturating_sub(self.last_retired_total);
        self.attribute(rec, retired_delta, 1);

        if retired_total > self.last_retired_total {
            self.last_retired_total = retired_total;
            self.last_progress_cycle = now;
        } else if !self.all_finished() && now - self.last_progress_cycle > WATCHDOG_CYCLES {
            return Err(self.deadlock_error(now));
        }

        self.now += 1;
        Ok(())
    }

    /// Build the watchdog's diagnostic payload.
    fn deadlock_error(&self, now: u64) -> SimError {
        let detail = format!(
            "queues={:?} to_dram={} shared_mshrs={:?} shared_deferred={:?} \
             dram_outstanding={} dram_reads={} \
             l1_mshrs={:?} l1_deferred={:?} heads={:#?}",
            self.level_queues
                .iter()
                .map(|q| q.len())
                .collect::<Vec<_>>(),
            self.to_dram.len(),
            self.shared
                .iter()
                .map(|c| c.mshrs_in_use())
                .collect::<Vec<_>>(),
            self.shared
                .iter()
                .map(|c| c.deferred_misses())
                .collect::<Vec<_>>(),
            self.dram.outstanding(),
            self.dram.stats().reads,
            self.l1s
                .iter()
                .map(|c| c.mshrs_in_use())
                .collect::<Vec<_>>(),
            self.l1s
                .iter()
                .map(|c| c.deferred_misses())
                .collect::<Vec<_>>(),
            self.cores
                .iter()
                .map(|c| c.head_debug())
                .collect::<Vec<_>>(),
        );
        SimError::Deadlock {
            since: self.last_progress_cycle,
            now,
            detail,
        }
    }

    /// Whether the memory system has no in-flight work (queues, lookups,
    /// MSHRs, DRAM and undelivered completions all empty).
    pub fn memory_idle(&self) -> bool {
        self.level_queues.iter().all(|q| q.is_empty())
            && self.to_dram.is_empty()
            && self.dram.outstanding() == 0
            && self.core_completions.iter().all(|c| c.is_empty())
            && self
                .l1s
                .iter()
                .all(|c| c.miss_phase_count() == 0 && c.hit_phase_count(self.now) == 0)
            && self
                .shared
                .iter()
                .all(|c| c.miss_phase_count() == 0 && c.hit_phase_count(self.now) == 0)
    }

    /// The earliest cycle at or after `now` at which any component can
    /// change state — one pass over the components, stopping at the
    /// first that acts this cycle. `now` forces a real step: work is
    /// queued between layers, a completion is deliverable, or some core,
    /// cache or the DRAM controller can act right now. Otherwise it is
    /// the soonest instruction-execution completion, cache lookup
    /// resolution, DRAM completion or issue opportunity — or the cycle
    /// at which the deadlock watchdog would fire. `u64::MAX` when every
    /// core finished and the memory system drained. Fault-schedule
    /// transitions are *not* folded in here; the span scan in
    /// [`Cmp::skip_span_with`] ticks the injector cycle-by-cycle and
    /// truncates the span itself.
    fn next_wake(&self) -> u64 {
        let now = self.now;
        if self.level_queues.iter().any(|q| !q.is_empty())
            || !self.to_dram.is_empty()
            || self.core_completions.iter().any(|c| !c.is_empty())
        {
            return now;
        }
        // Polled lazily and in order, stopping at the first component
        // that acts now: a core's poll may set its idle memo, so no core
        // is polled while an earlier component already forces the step.
        let caches = self.l1s.iter().chain(&self.shared).map(|c| c.wake_at(now));
        let cores = self
            .cores
            .iter()
            .filter(|c| !c.finished())
            .map(|c| c.wake_at(now));
        let mut wakes = std::iter::once(self.dram.wake_at(now))
            .chain(caches)
            .chain(cores);
        let mut wake = u64::MAX;
        while wake > now {
            let Some(w) = wakes.next() else { break };
            wake = wake.min(w);
        }
        if !self.all_finished() {
            // First cycle at which `try_step_with`'s watchdog could
            // fire: progress checks must not be skipped past it.
            wake = wake.min(self.last_progress_cycle + WATCHDOG_CYCLES + 1);
        }
        wake
    }

    /// Advance by one fast-path quantum, never past cycle `cap`: a
    /// single real step when something can act this cycle (or the
    /// reference loop is forced), otherwise one idle-span jump to the
    /// next wake. Callers loop on their own condition; everything a
    /// loop condition can observe (retirement, `all_finished`,
    /// `memory_idle`) only changes at real steps, so checking it per
    /// quantum is equivalent to checking it per cycle.
    fn advance_with<R: Recorder>(&mut self, rec: &mut R, cap: u64) -> Result<(), SimError> {
        if self.reference_stepping {
            return self.try_step_with(rec);
        }
        let wake = self.next_wake();
        if wake <= self.now {
            return self.try_step_with(rec);
        }
        self.skip_span_with(rec, wake.min(cap))
    }

    /// Skip the provably idle cycles `[now, span_end)` in one jump. The
    /// fault injector is still ticked once per skipped cycle — the RNG
    /// stream and `FaultStats` are part of the bit-identity contract —
    /// and the span is truncated at the first cycle whose actions differ
    /// from the span's baseline (or that logs an onset, which must be
    /// emitted from its own cycle): that cycle becomes a real step
    /// consuming the already-drawn actions.
    fn skip_span_with<R: Recorder>(
        &mut self,
        rec: &mut R,
        mut span_end: u64,
    ) -> Result<(), SimError> {
        if let Some(inj) = &mut self.fault {
            if R::ENABLED {
                inj.set_onset_logging(true);
            }
            let base = self.last_fault_act;
            for c in self.now..span_end {
                let logged = if R::ENABLED { inj.pending_onsets() } else { 0 };
                let act = inj.tick(c);
                if act != base || (R::ENABLED && inj.pending_onsets() != logged) {
                    self.pending_fault_act = Some(act);
                    span_end = c;
                    break;
                }
            }
        }
        let k = span_end - self.now;
        if k > 0 {
            self.apply_idle_span(rec, k);
        }
        if self.pending_fault_act.is_some() {
            // The truncating cycle is a real step; `try_step_with`
            // consumes the pre-drawn actions instead of re-ticking.
            return self.try_step_with(rec);
        }
        Ok(())
    }

    /// Apply `k` cycles' worth of idle-span bookkeeping in one batch:
    /// exactly what `k` reference steps would have recorded, exploiting
    /// that every sampled quantity is constant across a span in which no
    /// component acts. Occupancy histograms and attribution samples are
    /// weighted by the span length; the retirement delta of every
    /// skipped cycle is zero by construction.
    fn apply_idle_span<R: Recorder>(&mut self, rec: &mut R, k: u64) {
        self.skipped_spans += 1;
        self.skipped_cycles += k;
        for core in &mut self.cores {
            if !core.finished() {
                core.skip_idle_span(k);
            }
        }
        self.sample_layers(rec, k);
        self.dram.skip_idle_span(k);
        for c in self.l1s.iter_mut().chain(self.shared.iter_mut()) {
            // k failing retries of any stalled deferred misses.
            c.skip_idle_span(k);
        }
        self.attribute(rec, 0, k);
        self.now += k;
    }

    /// Sample `k` cycles at the point in the cycle every analyzer
    /// observes (after new accesses, before any component steps): the
    /// HCD/MCD and DRAM analyzers, then the telemetry occupancy sample.
    /// A real step is `k = 1`; an idle span passes its length. Inlined
    /// so the real step's constant folds into the per-cycle path.
    #[inline(always)]
    fn sample_layers<R: Recorder>(&mut self, rec: &mut R, k: u64) {
        let now = self.now;
        for (an, l1) in self.l1_analyzers.iter_mut().zip(self.l1s.iter_mut()) {
            an.sample(now, l1, k);
        }
        for (an, c) in self.shared_analyzers.iter_mut().zip(self.shared.iter_mut()) {
            an.sample(now, c, k);
        }
        self.dram_analyzer.sample(&self.dram, k);
        if R::ENABLED {
            rec.cycle_sample(
                &CycleSample {
                    l1_mshrs: self.l1s.iter().map(|c| c.mshrs_in_use()).sum(),
                    shared_mshrs: self.shared.iter().map(|c| c.mshrs_in_use()).sum(),
                    rob: self.cores.iter().map(|c| c.rob_occupancy()).sum(),
                    dram_banks_busy: self.dram.banks_busy(now),
                    dram_banks_total: self.dram.banks_total(),
                },
                k,
            );
        }
    }

    /// Attribute the `k` cycles starting at `now`, each retiring
    /// `retired_delta` instructions (zero on every idle span), from
    /// occupancies against capacities after all components stepped. A
    /// pure function of the deterministic simulation — byte-identical
    /// across worker counts and stepping modes — and compiled out unless
    /// the recorder opts in via `R::PROFILED`. Inlined for the same
    /// reason as [`Cmp::sample_layers`].
    #[inline(always)]
    fn attribute<R: Recorder>(&self, rec: &mut R, retired_delta: u64, k: u64) {
        if !R::PROFILED {
            return;
        }
        // The sample is built lazily by classification tier:
        // [`CycleAttribution::observe`] reads nothing past
        // `retired_delta` on a retire cycle, and nothing past the ROB
        // fields on a rob-full stall (the first branch of its priority
        // order) — together the overwhelming share of cycles. Only the
        // rare remainder pays for the MSHR sums and the DRAM bank scan.
        // Unread fields stay zero.
        let s = if retired_delta > 0 {
            AttrSample {
                retired_delta,
                ..AttrSample::default()
            }
        } else {
            let rob = self.cores.iter().map(|c| c.rob_occupancy()).sum();
            let rob_capacity = self.cores.iter().map(|c| c.rob_capacity()).sum();
            if rob_capacity > 0 && rob >= rob_capacity {
                AttrSample {
                    rob,
                    rob_capacity,
                    ..AttrSample::default()
                }
            } else {
                AttrSample {
                    retired_delta: 0,
                    rob,
                    rob_capacity,
                    l1_mshrs: self.l1s.iter().map(|c| c.mshrs_in_use()).sum(),
                    l1_mshr_capacity: self.l1s.iter().map(|c| c.mshr_capacity()).sum(),
                    shared_mshrs: self.shared.iter().map(|c| c.mshrs_in_use()).sum(),
                    shared_mshr_capacity: self.shared.iter().map(|c| c.mshr_capacity()).sum(),
                    dram_banks_busy: self.dram.banks_busy(self.now),
                    dram_banks_total: self.dram.banks_total(),
                }
            }
        };
        rec.attr_sample(&s, k);
    }

    /// The one stepping loop every run method uses: advance by quanta —
    /// never past cycle `cap` — while `now < cap` and `keep` holds.
    /// `keep` is checked before every quantum and never once the cap is
    /// reached.
    fn run_while<R: Recorder>(
        &mut self,
        rec: &mut R,
        cap: u64,
        keep: impl Fn(&Self) -> bool,
    ) -> Result<(), SimError> {
        while self.now < cap && keep(self) {
            self.advance_with(rec, cap)?;
        }
        Ok(())
    }

    /// Run until every core finishes or `max_cycles` elapse, then drain
    /// the memory system (posted stores may still be in flight when the
    /// last instruction retires; their fills, evictions and writebacks
    /// complete during the drain). Returns whether all cores finished.
    pub fn try_run(&mut self, max_cycles: u64) -> Result<bool, SimError> {
        self.run_while(&mut NullRecorder, max_cycles, |s| !s.all_finished())?;
        if !self.all_finished() {
            return Ok(false);
        }
        // Bounded drain: every in-flight access resolves within a DRAM
        // round trip plus queueing.
        let drain_budget = self.now + 1_000_000;
        self.run_while(&mut NullRecorder, drain_budget, |s| !s.memory_idle())?;
        Ok(true)
    }

    /// Run `cycles` more cycles (finished cores idle), emitting into
    /// `rec`, but refuse to step past the absolute simulated-cycle cap
    /// `budget`: [`SimError::CycleBudgetExceeded`] at cycle `budget`, or
    /// at once when `budget` has already passed and `cycles > 0`. The
    /// loop itself stops at the cap, so the error fires at the same
    /// simulated cycle in both stepping modes and however the caller
    /// chunks its runs — the deterministic half of the sweep harness's
    /// per-point watchdog. `u64::MAX` is no budget.
    pub fn try_run_for_with_budget<R: Recorder>(
        &mut self,
        cycles: u64,
        rec: &mut R,
        budget: u64,
    ) -> Result<(), SimError> {
        let end = self.now + cycles;
        self.run_while(rec, end.min(budget), |_| true)?;
        if self.now < end {
            return Err(SimError::CycleBudgetExceeded {
                budget,
                now: self.now,
            });
        }
        Ok(())
    }

    /// Run until every core has retired `instructions` more instructions
    /// (or finished), within `max_cycles`. Returns whether all reached
    /// their target before the cap; targets met by the quantum that
    /// reaches the cap count as missed. The fixed-work-per-core
    /// measurement window of the scheduling study.
    pub fn try_run_until_all_retired(
        &mut self,
        instructions: u64,
        max_cycles: u64,
    ) -> Result<bool, SimError> {
        let targets = self.retire_targets(instructions);
        self.run_while(&mut NullRecorder, max_cycles, |s| s.behind(&targets))?;
        Ok(self.now < max_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpm_trace::{Generator, Instr};

    fn slot(l1_kib: u64) -> CoreSlot {
        let mut l1 = CacheConfig::l1_default();
        l1.size_bytes = l1_kib << 10;
        CoreSlot {
            core: CoreConfig::small(),
            l1,
        }
    }

    /// One-lap CMP over the default L2 and DRAM.
    fn build(slots: Vec<CoreSlot>, traces: Vec<Trace>) -> Result<Cmp, SimError> {
        Cmp::try_new_with_hierarchy(
            slots,
            vec![CacheConfig::l2_default()],
            DramConfig::ddr3_default(),
            traces,
            1,
            7,
        )
    }

    fn tiny_trace(n: usize) -> Trace {
        // Sweep 16 lines repeatedly with some compute.
        (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    Instr::load(((i / 3) as u64 % 16) * 64)
                } else {
                    Instr::compute()
                }
            })
            .collect()
    }

    #[test]
    fn single_core_completes_and_counters_are_consistent() {
        let mut cmp = build(vec![slot(32)], vec![tiny_trace(3000)]).unwrap();
        assert!(cmp.try_run(1_000_000).unwrap(), "did not finish");
        assert_eq!(cmp.core_stats(0).retired, 3000);
        let l1 = cmp.l1_counters(0);
        l1.validate().unwrap();
        // Port contention can stretch lookup occupancy; allow slack.
        l1.check_identity(0.5).unwrap();
        let l2 = cmp.l2_counters();
        l2.validate().unwrap();
        // 16 lines: essentially everything hits after warmup.
        assert!(l1.mr() < 0.05, "MR1 {}", l1.mr());
    }

    #[test]
    fn streaming_workload_misses_and_reaches_dram() {
        // Stream far beyond L1 and L2 capacity.
        let gen = lpm_trace::gen::StrideGen::new(4, 64, 8 << 20, 0.5);
        let trace = gen.generate(20_000, 3);
        let mut cmp = build(vec![slot(4)], vec![trace]).unwrap();
        assert!(cmp.try_run(5_000_000).unwrap());
        let l1 = cmp.l1_counters(0);
        assert!(l1.mr() > 0.1, "stream must miss L1: MR1 {}", l1.mr());
        assert!(cmp.dram_analyzer().accesses > 100, "misses must reach DRAM");
        // Pure misses exist and are no more numerous than misses.
        assert!(l1.pure_misses > 0);
        assert!(l1.pure_misses <= l1.misses);
    }

    #[test]
    fn two_cores_have_disjoint_footprints() {
        let mut alone = build(vec![slot(32)], vec![tiny_trace(2000)]).unwrap();
        assert!(alone.try_run(1_000_000).unwrap());
        let alone_misses = alone.l2_stats().primary_misses;
        assert!(alone_misses > 0);
        // One shared trace on two cores: each core's L1 port moves it
        // into that core's region, so the cores behave alike and the L2
        // cold-misses on twice the lines of a single run.
        let trace = tiny_trace(2000);
        let traces = vec![trace.clone(), trace];
        let mut cmp = build(vec![slot(32), slot(32)], traces).unwrap();
        assert!(cmp.try_run(1_000_000).unwrap());
        assert_eq!(cmp.core_stats(0).retired, 2000);
        assert_eq!(cmp.core_stats(1).retired, 2000);
        let mr0 = cmp.l1_counters(0).mr();
        let mr1 = cmp.l1_counters(1).mr();
        assert!((mr0 - mr1).abs() < 0.02, "symmetric cores diverged");
        assert_eq!(cmp.l2_stats().primary_misses, 2 * alone_misses);
    }

    #[test]
    fn bigger_l1_reduces_miss_rate() {
        // Working set ~32 KiB of random lines.
        let gen = lpm_trace::gen::RandomGen::new(32 << 10, 0.5, 0.2);
        let t = gen.generate(30_000, 5);
        let run_with = |kib: u64| {
            let mut cmp = build(vec![slot(kib)], vec![t.clone()]).unwrap();
            assert!(cmp.try_run(20_000_000).unwrap());
            cmp.l1_counters(0).mr()
        };
        let small = run_with(4);
        let large = run_with(64);
        assert!(
            large < small * 0.5,
            "64 KiB MR {large} not much better than 4 KiB MR {small}"
        );
    }

    #[test]
    fn ipc_improves_with_core_resources() {
        let gen = lpm_trace::gen::StrideGen::new(8, 64, 4 << 20, 0.5);
        let t = gen.generate(20_000, 9);
        let run_with = |core: CoreConfig, mshrs: u32, ports: u32| {
            let mut l1 = CacheConfig::l1_default();
            l1.mshrs = mshrs;
            l1.ports = ports;
            let mut cmp = build(vec![CoreSlot { core, l1 }], vec![t.clone()]).unwrap();
            assert!(cmp.try_run(20_000_000).unwrap());
            cmp.core_stats(0).ipc()
        };
        let weak = run_with(CoreConfig::small(), 2, 1);
        let strong = run_with(CoreConfig::big(), 16, 4);
        assert!(
            strong > weak * 1.3,
            "big config IPC {strong} vs small {weak}"
        );
    }

    #[test]
    fn run_for_advances_exactly() {
        let mut cmp = build(vec![slot(32)], vec![tiny_trace(100_000)]).unwrap();
        cmp.try_run_for_with_budget(500, &mut NullRecorder, u64::MAX)
            .unwrap();
        assert_eq!(cmp.now(), 500);
    }

    #[test]
    fn until_all_retired_misses_targets_met_at_the_cap() {
        for reference in [false, true] {
            let make = || {
                let mut cmp = build(vec![slot(4), slot(32)], vec![tiny_trace(20_000); 2]).unwrap();
                cmp.set_reference_stepping(reference);
                cmp
            };
            // The cycle at which both cores reach their targets.
            let mut free = make();
            assert!(free.try_run_until_all_retired(3_000, u64::MAX).unwrap());
            let met = free.now();
            // A cap at that cycle ends the loop before it can re-check.
            let mut at_cap = make();
            assert!(!at_cap.try_run_until_all_retired(3_000, met).unwrap());
            assert_eq!(at_cap.now(), met);
            let mut past_cap = make();
            assert!(past_cap.try_run_until_all_retired(3_000, met + 1).unwrap());
            assert_eq!(past_cap.now(), met);
        }
    }

    #[test]
    fn event_driven_run_and_drain_match_reference_cycle_for_cycle() {
        // Store-heavy stream far past cache capacity: writebacks and
        // fills are still in flight when the last instruction retires,
        // so `try_run`'s drain phase does real work. The drain used to
        // tick `memory_idle()` cycle-by-cycle; it now leaps between
        // events — the cycle count at which the memory system quiesces
        // must not move.
        let make = || {
            let t = lpm_trace::gen::StrideGen::new(4, 64, 8 << 20, 0.5).generate(20_000, 3);
            build(vec![slot(4)], vec![t]).unwrap()
        };
        let mut fast = make();
        let mut reference = make();
        reference.set_reference_stepping(true);
        assert!(fast.try_run(5_000_000).unwrap());
        assert!(reference.try_run(5_000_000).unwrap());
        assert_eq!(
            fast.now(),
            reference.now(),
            "drain cycle counts diverged between fast and reference stepping"
        );
        assert!(fast.memory_idle() && reference.memory_idle());
        assert_eq!(
            format!("{:?}", fast.report_for(0, 0.3)),
            format!("{:?}", reference.report_for(0, 0.3)),
        );
        assert_eq!(fast.l1_stats(0), reference.l1_stats(0));
        assert_eq!(fast.l2_stats(), reference.l2_stats());
        assert_eq!(fast.dram_stats(), reference.dram_stats());
    }

    #[test]
    #[should_panic(expected = "one trace per core")]
    fn trace_count_mismatch_rejected() {
        build(vec![slot(32), slot(32)], vec![tiny_trace(10)]).unwrap();
    }

    #[test]
    fn zero_repeats_rejected() {
        let err = Cmp::try_new_with_hierarchy(
            vec![slot(32)],
            vec![CacheConfig::l2_default()],
            DramConfig::ddr3_default(),
            vec![tiny_trace(10)],
            0,
            7,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(m) if m.contains("at least one pass")));
    }

    /// Idle spans of any length are batched. A chain of dependent L1
    /// hits leaves the machine idle only for the few cycles of each
    /// lookup; every such gap is skipped, bit-identical to stepping it.
    #[test]
    fn short_idle_gaps_are_skipped_and_match_reference() {
        let chase: Trace = (0..4_000u64)
            .map(|i| {
                let load = Instr::load((i % 16) * 64);
                if i == 0 {
                    load
                } else {
                    load.depending_on(1)
                }
            })
            .collect();
        let make = || build(vec![slot(32)], vec![chase.clone()]).unwrap();
        let mut fast = make();
        let mut reference = make();
        reference.set_reference_stepping(true);
        assert!(fast.try_run(1_000_000).unwrap());
        assert!(reference.try_run(1_000_000).unwrap());
        assert_eq!(fast.now(), reference.now());
        assert_eq!(
            format!("{:?}", fast.report_for(0, 0.3)),
            format!("{:?}", reference.report_for(0, 0.3)),
        );
        assert_eq!(fast.l1_stats(0), reference.l1_stats(0));
        assert_eq!(fast.core_stats(0), reference.core_stats(0));
        let (spans, cycles) = fast.skipped();
        assert!(spans > 0, "no idle span was skipped");
        assert!(
            cycles < 8 * spans,
            "mean skipped span {:.2} cycles is not short",
            cycles as f64 / spans as f64
        );
        assert_eq!(reference.skipped(), (0, 0));
    }
}

#[cfg(test)]
mod l3_tests {
    use super::*;
    use lpm_trace::{Generator, Instr};

    fn l3_cfg() -> CacheConfig {
        let mut c = CacheConfig::l2_default();
        c.size_bytes = 8 << 20;
        c.hit_latency = 30;
        c.mshrs = 32;
        c
    }

    fn slot() -> CoreSlot {
        CoreSlot {
            core: CoreConfig::small(),
            l1: CacheConfig::l1_default(),
        }
    }

    #[test]
    fn three_level_hierarchy_runs_and_counts_consistently() {
        // Word-granular streams (8 accesses per line) over a 4 MiB
        // footprint: larger than L2 (2 MiB) but inside L3 (8 MiB), so
        // in steady state the L3 absorbs what the L2 cannot.
        let gen = lpm_trace::gen::StrideGen::new(4, 8, 1 << 20, 0.5);
        let trace = gen.generate(30_000, 3);
        let mut cmp = Cmp::try_new_with_hierarchy(
            vec![slot()],
            vec![CacheConfig::l2_default(), l3_cfg()],
            DramConfig::ddr3_default(),
            vec![trace],
            1,
            7,
        )
        .unwrap();
        assert_eq!(cmp.num_shared_levels(), 2);
        assert!(cmp.try_run(80_000_000).unwrap(), "did not finish");
        let l1 = cmp.l1_counters(0);
        let l2 = cmp.l2_counters();
        let l3 = cmp.l3_counters().expect("L3 configured");
        l1.validate().unwrap();
        l2.validate().unwrap();
        l3.validate().unwrap();
        // Traffic cascades: L1 sees the most, then L2, then L3, then DRAM.
        assert!(l1.accesses > l2.accesses);
        assert!(l2.accesses >= l3.accesses);
        assert!(l3.accesses as u64 >= cmp.dram_analyzer().accesses);
        assert!(l3.accesses > 0, "L3 must see traffic");
    }

    #[test]
    fn l3_report_exposes_four_boundaries() {
        let gen = lpm_trace::gen::StrideGen::new(4, 64, 1 << 20, 0.5);
        let trace = gen.generate(20_000, 3);
        let mut cmp = Cmp::try_new_with_hierarchy(
            vec![slot()],
            vec![CacheConfig::l2_default(), l3_cfg()],
            DramConfig::ddr3_default(),
            vec![trace],
            1,
            7,
        )
        .unwrap();
        assert!(cmp.try_run(80_000_000).unwrap());
        let report = cmp.report_for(0, 0.3);
        assert!(report.l3.is_some());
        let lpmrs = report.lpmrs().unwrap();
        assert!(lpmrs.l4.is_some(), "DRAM boundary becomes LPMR4");
        // Deeper boundaries are progressively filtered by the cascade.
        assert!(lpmrs.l1.value() >= lpmrs.l4.unwrap().value());
    }

    #[test]
    fn l3_hit_is_faster_than_dram_but_slower_than_l2() {
        // One cold load through each depth; measure completion latency.
        let latency_of = |shared: Vec<CacheConfig>, warm: &[u64], probe: u64| -> u64 {
            let trace: Trace = std::iter::once(Instr::load(probe)).collect();
            let mut cmp = Cmp::try_new_with_hierarchy(
                vec![slot()],
                shared,
                DramConfig::ddr3_default(),
                vec![trace],
                1,
                7,
            )
            .unwrap();
            // Pre-warm chosen levels functionally via fills.
            for &line in warm {
                // fill deepest-first so upper levels get it too if listed
                cmp.shared[0].fill(line);
            }
            if !warm.is_empty() {
                // apply fills
                cmp.shared[0].step(u64::MAX - 1);
            }
            assert!(cmp.try_run(1_000_000).unwrap());
            cmp.finished_at(0).unwrap()
        };
        let l2_cfg = CacheConfig::l2_default();
        // L2 warm: fastest. L3 only: middle. Nothing: DRAM, slowest.
        let t_l2 = latency_of(vec![l2_cfg.clone(), l3_cfg()], &[0], 0);
        let t_dram = latency_of(vec![l2_cfg.clone(), l3_cfg()], &[], 0);
        assert!(
            t_l2 < t_dram,
            "L2 hit {t_l2} must beat DRAM roundtrip {t_dram}"
        );
    }
}

#[cfg(test)]
mod mlp_partition_tests {
    use super::*;
    use lpm_trace::Generator;

    fn slot() -> CoreSlot {
        CoreSlot {
            core: CoreConfig::big(),
            l1: {
                let mut l1 = CacheConfig::l1_default();
                l1.mshrs = 16;
                l1.ports = 4;
                l1
            },
        }
    }

    /// A DRAM-streaming hog next to a latency-sensitive chaser.
    fn build(quota: Option<u32>) -> Cmp {
        let hog = lpm_trace::gen::StrideGen::new(8, 64, 4 << 20, 0.6).generate(40_000, 3);
        let victim = lpm_trace::gen::ChaseGen::new(8 << 20, 0.4).generate(12_000, 4);
        let mut l2 = CacheConfig::l2_default();
        l2.mshrs = 8; // scarce shared miss resources
        let mut cmp = Cmp::try_new_with_hierarchy(
            vec![slot(), slot()],
            vec![l2],
            DramConfig::ddr3_default(),
            vec![hog, victim],
            100,
            7,
        )
        .unwrap();
        cmp.set_mlp_partition(quota);
        cmp
    }

    #[test]
    fn partition_protects_the_latency_sensitive_core() {
        let victim_progress = |quota: Option<u32>| -> u64 {
            let mut cmp = build(quota);
            cmp.try_run_for_with_budget(400_000, &mut NullRecorder, u64::MAX)
                .unwrap();
            cmp.retired(1)
        };
        let free = victim_progress(None);
        let partitioned = victim_progress(Some(4));
        assert!(
            partitioned as f64 > free as f64 * 1.05,
            "partition should help the chaser: {free} → {partitioned}"
        );
    }

    #[test]
    fn quota_bounds_are_respected_and_balanced() {
        let mut cmp = build(Some(2));
        for _ in 0..100_000 {
            cmp.try_step_with(&mut NullRecorder).unwrap();
            assert!(
                cmp.l2_outstanding.iter().all(|&o| o <= 2),
                "quota violated: {:?}",
                cmp.l2_outstanding
            );
        }
        // Quiesce: stop after the hog's current window and let everything
        // drain; outstanding counters must return to zero.
        let mut spare = 0;
        while spare < 200_000 && cmp.l2_outstanding.iter().any(|&o| o > 0) {
            cmp.try_step_with(&mut NullRecorder).unwrap();
            spare += 1;
        }
        // (cores keep issuing, so just check the invariant held throughout)
    }

    #[test]
    #[should_panic(expected = "at least one outstanding")]
    fn zero_quota_rejected() {
        let mut cmp = build(None);
        cmp.set_mlp_partition(Some(0));
    }
}
