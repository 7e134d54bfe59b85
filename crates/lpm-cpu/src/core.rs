//! The out-of-order engine: dispatch → issue → execute → retire.

use std::collections::VecDeque;

use lpm_trace::{Op, Trace};

use crate::port::MemoryPort;

/// Sizing of the out-of-order structures (the Table I core-side knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions dispatched / issued / retired per cycle.
    pub issue_width: u32,
    /// Issue-window entries: un-issued instructions eligible for
    /// wakeup/select each cycle.
    pub iw_size: u32,
    /// Reorder-buffer entries.
    pub rob_size: u32,
    /// Execution latency of compute instructions, cycles.
    pub compute_latency: u64,
    /// Store-buffer entries: posted stores in flight to memory. A store
    /// retires as soon as it issues, but it occupies a buffer slot until
    /// its write completes — bounding how far stores can run ahead.
    pub store_buffer: u32,
}

impl CoreConfig {
    /// The paper's configuration A core side: 4-wide, IW 32, ROB 32.
    pub fn small() -> Self {
        CoreConfig {
            issue_width: 4,
            iw_size: 32,
            rob_size: 32,
            compute_latency: 1,
            store_buffer: 32,
        }
    }

    /// A big core: 8-wide, IW 128, ROB 128 (configuration D).
    pub fn big() -> Self {
        CoreConfig {
            issue_width: 8,
            iw_size: 128,
            rob_size: 128,
            compute_latency: 1,
            store_buffer: 64,
        }
    }

    /// Validate structural constraints, returning a descriptive message
    /// on violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.issue_width < 1 {
            return Err("issue width must be >= 1".into());
        }
        if self.iw_size < 1 {
            return Err("issue window must hold an instruction".into());
        }
        if self.rob_size < 1 {
            return Err("ROB must hold an instruction".into());
        }
        if self.compute_latency < 1 {
            return Err("compute latency must be >= 1".into());
        }
        if self.store_buffer < 1 {
            return Err("store buffer must hold an entry".into());
        }
        Ok(())
    }
}

/// `cfg` itself, or a panic with [`CoreConfig::validate`]'s message:
/// the single check behind [`Core::new_looping`] and [`Core::reconfigure`].
fn checked(cfg: CoreConfig) -> CoreConfig {
    if let Err(msg) = cfg.validate() {
        // lpm-lint: allow(P001) documented contract: an invalid config is a caller bug
        panic!("{msg}");
    }
    cfg
}

/// Execution state of a ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Not yet issued (waiting for dependences or an issue slot).
    Waiting,
    /// Compute op executing; done at the stored cycle.
    Executing(u64),
    /// Memory op in flight; completion arrives via `complete_mem`.
    WaitingMem,
    /// Finished; may retire when it reaches the ROB head.
    Done,
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    seq: u64,
    op: Op,
    state: State,
    /// Sequence number of the instruction this one depends on, if any.
    dep: Option<u64>,
}

/// End-of-chain marker in the waiter chains.
const NO_WAITER: u32 = u32::MAX;

/// Measured core-side quantities.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Memory instructions retired.
    pub mem_retired: u64,
    /// Cycles with zero retirement while the ROB head waited on memory.
    pub data_stall_cycles: u64,
    /// Cycles with at least one memory access outstanding.
    pub mem_busy_cycles: u64,
    /// Memory-busy cycles during which computation still made progress
    /// (≥ 1 non-memory instruction completed execution) — the numerator
    /// of Eq. (8).
    pub overlap_cycles: u64,
    /// Memory accesses issued to the port.
    pub mem_issued: u64,
    /// Issue attempts rejected by the memory port.
    pub mem_rejects: u64,
}

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.cycles as f64 / self.retired as f64
        }
    }

    /// Measured memory-instruction fraction.
    pub fn fmem(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.mem_retired as f64 / self.retired as f64
        }
    }

    /// Eq. (8): computing/memory overlap ratio.
    pub fn overlap_ratio(&self) -> f64 {
        if self.mem_busy_cycles == 0 {
            0.0
        } else {
            self.overlap_cycles as f64 / self.mem_busy_cycles as f64
        }
    }

    /// Data stall cycles per retired instruction.
    pub fn stall_per_instruction(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.data_stall_cycles as f64 / self.retired as f64
        }
    }
}

/// The out-of-order core.
#[derive(Debug)]
pub struct Core {
    cfg: CoreConfig,
    trace: Trace,
    next_dispatch: usize,
    /// `next_dispatch % trace.len()`, maintained incrementally so the
    /// dispatch loop never divides.
    trace_cursor: usize,
    /// Total instructions to execute: `trace.len() × repeats`.
    total_instructions: usize,
    rob: VecDeque<RobEntry>,
    /// Outstanding memory accesses (issued, not yet completed).
    outstanding_mem: u64,
    /// Ids of posted stores whose writes are still in flight. Bounded by
    /// `cfg.store_buffer` (small), so a plain vector with linear
    /// membership tests beats a tree and never reallocates once warm.
    posted_stores: Vec<u64>,
    stats: CoreStats,
    /// Non-memory instructions that finished execution this cycle
    /// (overlap bookkeeping).
    compute_done_this_cycle: bool,
    /// `(done_at, seq)` of every `Executing` ROB entry — a small mirror
    /// so per-cycle completion checks touch only in-flight computes
    /// instead of scanning the whole ROB.
    executing: Vec<(u64, u64)>,
    /// Earliest `done_at` across `executing` (`u64::MAX` when none are
    /// in flight). Updated at issue, recomputed when completions drain —
    /// turns the per-cycle "anything due?" checks into one comparison.
    exec_min_done: u64,
    /// `Waiting` ROB entries: the issue queue's occupancy.
    waiting: usize,
    /// Ring bitmap of `Done` ROB entries, indexed by `seq` modulo its
    /// size: set at every transition to `Done`, cleared at dispatch. Its
    /// size is a power of two no smaller than the ROB (regrown by
    /// `reconfigure`), so a live entry owns its bit.
    done: Vec<u64>,
    /// Ring bitmap of *ready* `Waiting` entries (dependence met), indexed
    /// like `done`: set at dispatch or when the producer turns `Done`,
    /// cleared when the entry leaves the queue. Issue walks only these.
    ready: Vec<u64>,
    /// Per ring slot: the first consumer slot waiting on this slot's
    /// producer (`NO_WAITER` when none). `set_done` walks the chain and
    /// sets each consumer's ready bit.
    waiters: Vec<u32>,
    /// Per ring slot: the next consumer slot on the same producer's chain.
    next_waiter: Vec<u32>,
    /// Memoized idle verdict: `true` means the *state-based* clauses of
    /// [`Core::wake_at`] (retirable head, issuable Waiting entry,
    /// dispatch room) were checked and found false, and no state has
    /// changed since. Those clauses do not depend on the cycle number,
    /// so the verdict stays valid until an event mutates the core: a
    /// compute completion, retirement, issue attempt, dispatch, an
    /// external [`Core::complete_mem`], or a [`Core::reconfigure`] —
    /// each of which clears the flag. Only the time-based
    /// executing-completion clause is rechecked while the flag is set.
    idle_memo: std::cell::Cell<bool>,
}

impl Core {
    /// Build a core that will execute `trace` once.
    pub fn new(cfg: CoreConfig, trace: Trace) -> Self {
        Self::new_looping(cfg, trace, 1)
    }

    /// Build a core that executes `trace` `repeats` times back to back
    /// (rate-mode steady state: the address stream and dependence
    /// structure repeat, the cache state persists across laps). Used by
    /// the scheduling study, where cores progress at wildly different
    /// speeds and none may run dry during another's measurement window.
    /// Panics on a `cfg` that fails [`CoreConfig::validate`], which callers
    /// check first.
    pub fn new_looping(cfg: CoreConfig, trace: Trace, repeats: u32) -> Self {
        let cfg = checked(cfg);
        assert!(repeats >= 1, "need at least one pass over the trace");
        let total_instructions = trace.len() * repeats as usize;
        let mut core = Core {
            cfg,
            trace,
            next_dispatch: 0,
            trace_cursor: 0,
            total_instructions,
            rob: VecDeque::with_capacity(cfg.rob_size as usize),
            outstanding_mem: 0,
            posted_stores: Vec::new(),
            stats: CoreStats::default(),
            compute_done_this_cycle: false,
            executing: Vec::new(),
            exec_min_done: u64::MAX,
            waiting: 0,
            done: Vec::new(),
            ready: Vec::new(),
            waiters: Vec::new(),
            next_waiter: Vec::new(),
            idle_memo: std::cell::Cell::new(false),
        };
        core.regrow_rings();
        core
    }

    /// The core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Measured statistics so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Zero the measured statistics (warmup exclusion). Architectural
    /// state — ROB contents, trace position, outstanding accesses — is
    /// untouched, so measurement resumes mid-execution, exactly like
    /// resetting hardware performance counters.
    pub fn reset_stats(&mut self) {
        self.stats = CoreStats::default();
    }

    /// Reconfigure the out-of-order structures at runtime (the
    /// reconfigurable-architecture support of case study I). Growing takes
    /// effect immediately. Shrinking is graceful: in-flight instructions
    /// stay in the ROB and dispatch simply pauses until occupancy drops
    /// below the new size — modelling the short drain a real
    /// reconfiguration would require.
    /// Panics on a `cfg` that fails [`CoreConfig::validate`].
    pub fn reconfigure(&mut self, cfg: CoreConfig) {
        self.cfg = checked(cfg);
        self.regrow_rings();
        // Grown structures (ROB, issue window, store buffer) can make a
        // previously inert core actionable again.
        self.idle_memo.set(false);
    }

    /// Size the rings for the ROB (never shrinking them) and, when they
    /// grow, rebuild them from the ROB in sequence order: done bits,
    /// ready bits and waiter chains all move to their new slots.
    fn regrow_rings(&mut self) {
        let words = ring_words((self.cfg.rob_size as usize).max(self.rob.len()));
        if words <= self.done.len() {
            return;
        }
        self.done = vec![0; words];
        self.ready = vec![0; words];
        self.waiters = vec![NO_WAITER; words * 64];
        self.next_waiter = vec![NO_WAITER; words * 64];
        let head_seq = self.head_seq();
        for i in 0..self.rob.len() {
            let e = self.rob[i];
            match e.state {
                State::Done => self.set_done(e.seq),
                State::Waiting => self.enqueue(e.seq, e.dep, head_seq),
                State::Executing(_) | State::WaitingMem => {}
            }
        }
    }

    /// Sequence number of the ROB head (of the next dispatch when the
    /// ROB is empty): the ROB holds exactly the seqs below `next_dispatch`
    /// from here on.
    #[inline]
    fn head_seq(&self) -> u64 {
        (self.next_dispatch - self.rob.len()) as u64
    }

    /// Whether the whole trace (all repeats) has been dispatched and
    /// retired.
    pub fn finished(&self) -> bool {
        self.next_dispatch == self.total_instructions && self.rob.is_empty()
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.stats.retired
    }

    /// ROB entries currently occupied (for telemetry's occupancy
    /// sampling).
    pub fn rob_occupancy(&self) -> usize {
        self.rob.len()
    }

    /// Configured ROB capacity (for cycle-attribution profiling: a full
    /// ROB is a dispatch stall).
    pub fn rob_capacity(&self) -> usize {
        self.cfg.rob_size as usize
    }

    /// Debug summary of the ROB head: (seq, state description, outstanding
    /// memory accesses). For deadlock diagnostics.
    pub fn head_debug(&self) -> String {
        match self.rob.front() {
            None => format!("rob empty, next_dispatch={}", self.next_dispatch),
            Some(e) => format!(
                "head seq={} op={:?} state={:?} outstanding_mem={}",
                e.seq, e.op, e.state, self.outstanding_mem
            ),
        }
    }

    /// Deliver a memory completion for instruction `id` (the sequence
    /// number passed to the port). Unknown ids (never issued, or already
    /// completed) are ignored and change no state.
    pub fn complete_mem(&mut self, id: u64) {
        if let Some(i) = self.posted_stores.iter().position(|&p| p == id) {
            // A posted store's write landed; nothing waits on it.
            self.posted_stores.swap_remove(i);
        } else {
            match id
                .checked_sub(self.head_seq())
                .and_then(|idx| self.rob.get_mut(idx as usize))
            {
                Some(e) if e.seq == id && e.state == State::WaitingMem => e.state = State::Done,
                _ => return,
            }
            self.set_done(id);
        }
        self.outstanding_mem -= 1;
        // A completion can ready a dependent or free a store-buffer
        // slot: any cached idle verdict is stale.
        self.idle_memo.set(false);
    }

    /// Word index and bit mask of `seq` in the done ring.
    #[inline]
    fn done_bit(&self, seq: u64) -> (usize, u64) {
        ((seq >> 6) as usize & (self.done.len() - 1), 1 << (seq & 63))
    }

    /// Ring slot of `seq` (the bit index `done_bit` splits in two).
    #[inline]
    fn slot(&self, seq: u64) -> usize {
        seq as usize & (self.waiters.len() - 1)
    }

    /// Mark `seq` `Done` and wake its waiter chain.
    fn set_done(&mut self, seq: u64) {
        let (word, bit) = self.done_bit(seq);
        self.done[word] |= bit;
        let slot = self.slot(seq);
        let mut w = std::mem::replace(&mut self.waiters[slot], NO_WAITER);
        while w != NO_WAITER {
            self.ready[w as usize >> 6] |= 1 << (w & 63);
            w = self.next_waiter[w as usize];
        }
    }

    /// Enter `Waiting` entry `seq` into the issue queue: not `Done`, no
    /// waiters yet, and ready now if its dependence is met, else linked
    /// onto its producer's waiter chain.
    fn enqueue(&mut self, seq: u64, dep: Option<u64>, head_seq: u64) {
        let (word, bit) = self.done_bit(seq);
        let slot = self.slot(seq);
        self.done[word] &= !bit;
        self.waiters[slot] = NO_WAITER;
        match dep {
            Some(d) if !self.dep_ready(dep, head_seq) => {
                self.ready[word] &= !bit;
                let producer = self.slot(d);
                self.next_waiter[slot] = self.waiters[producer];
                self.waiters[producer] = slot as u32;
            }
            _ => self.ready[word] |= bit,
        }
    }

    /// The first ready entry with `from <= seq < end`, walking the ready
    /// ring a word at a time.
    #[inline]
    fn next_ready(&self, mut from: u64, end: u64) -> Option<u64> {
        while from < end {
            let (word, _) = self.done_bit(from);
            let bits = self.ready[word] >> (from & 63);
            if bits != 0 {
                let seq = from + u64::from(bits.trailing_zeros());
                return (seq < end).then_some(seq);
            }
            from = (from | 63) + 1;
        }
        None
    }

    /// One past the last seq in the issue window. Normally the window
    /// holds every `Waiting` entry; after a `reconfigure` shrank it below
    /// the queue's occupancy, only the oldest `iw_size` are eligible
    /// (a rare state, so it may scan).
    fn window_end(&self) -> u64 {
        let iw = self.cfg.iw_size as usize;
        if self.waiting <= iw {
            return self.next_dispatch as u64;
        }
        self.rob
            .iter()
            .filter(|e| e.state == State::Waiting)
            .nth(iw - 1)
            .map_or(self.next_dispatch as u64, |e| e.seq + 1)
    }

    /// Debug-build oracle for the pushed issue-queue state: the ready
    /// bits re-derived by the dependence scan they replace.
    fn check_ready_bits(&self) {
        if cfg!(debug_assertions) {
            let head_seq = self.head_seq();
            let mut waiting = 0;
            for e in self.rob.iter().filter(|e| e.state == State::Waiting) {
                let (word, bit) = self.done_bit(e.seq);
                let ready = self.ready[word] & bit != 0;
                assert_eq!(
                    ready,
                    self.dep_ready(e.dep, head_seq),
                    "ready bit of {}",
                    e.seq
                );
                waiting += 1;
            }
            assert_eq!(waiting, self.waiting, "waiting count out of sync");
        }
    }

    /// Whether a dependence is satisfied: none, retired (below the ROB
    /// head `head_seq`), or `Done` in the ROB.
    #[inline]
    fn dep_ready(&self, dep: Option<u64>, head_seq: u64) -> bool {
        dep.is_none_or(|d| {
            d < head_seq || {
                let (word, bit) = self.done_bit(d);
                self.done[word] & bit != 0
            }
        })
    }

    /// Earliest cycle at or after `now` at which [`Core::cycle`] could do
    /// anything beyond the per-cycle stall bookkeeping: `now` if it can
    /// retire, issue (or even *attempt* the memory port — a rejection
    /// mutates `mem_rejects`) or dispatch, otherwise the soonest
    /// executing-op completion (`u64::MAX` when the core waits purely on
    /// memory completions, external events the caller tracks). Every
    /// cycle before it is provably inert and may be coalesced into a
    /// span whose stats are applied by [`Core::skip_idle_span`].
    ///
    /// The one deliberate exclusion mirrors the issue loop: a ready
    /// store blocked on a full store buffer is skipped there without
    /// touching any persistent state, so it does not wake the core (and
    /// the buffer cannot drain without an external completion, which
    /// ends the span at the CMP level anyway).
    pub fn wake_at(&self, now: u64) -> u64 {
        // Step 1/2: an executing op completing, or a retirable head.
        if self.exec_min_done <= now {
            return now;
        }
        if self.idle_memo.get() {
            // State-based clauses were false and nothing has changed
            // since; only the time clause can wake the core.
            return self.exec_min_done;
        }
        if matches!(self.rob.front(), Some(e) if e.state == State::Done) {
            return now;
        }
        // Step 3: mirror the issue pass. Any ready entry in the window
        // that would issue a compute or attempt the port acts this cycle.
        self.check_ready_bits();
        let head_seq = self.head_seq();
        let store_room = self.posted_stores.len() < self.cfg.store_buffer as usize;
        let end = self.window_end();
        let mut from = head_seq;
        while let Some(seq) = self.next_ready(from, end) {
            if store_room || !matches!(self.rob[(seq - head_seq) as usize].op, Op::Store(_)) {
                return now;
            }
            from = seq + 1;
        }
        // Step 4: dispatch possible.
        if self.rob.len() < self.cfg.rob_size as usize
            && self.waiting < self.cfg.iw_size as usize
            && self.next_dispatch < self.total_instructions
        {
            return now;
        }
        // Every state-based clause is false: cache the verdict so
        // repeated polls while other components stay busy are O(1).
        self.idle_memo.set(true);
        self.exec_min_done
    }

    /// Apply the stats of `k` provably-inert cycles (each before
    /// [`Core::wake_at`]) in one shot — exactly what `k`
    /// calls to [`Core::cycle`] would have recorded: no retirement, no
    /// compute completion (so never an overlap cycle), just the stall
    /// and memory-busy bookkeeping.
    pub fn skip_idle_span(&mut self, k: u64) {
        self.stats.cycles += k;
        if self
            .rob
            .front()
            .is_some_and(|e| e.state == State::WaitingMem)
        {
            self.stats.data_stall_cycles += k;
        }
        if self.outstanding_mem > 0 {
            self.stats.mem_busy_cycles += k;
        }
    }

    /// Run one cycle: retire, complete, issue, dispatch.
    ///
    /// `mem` is the memory the core issues loads/stores into; completions
    /// must be delivered through [`Core::complete_mem`] by the caller
    /// (before or after `cycle`, consistently).
    pub fn cycle(&mut self, now: u64, mem: &mut dyn MemoryPort) {
        // Inert-cycle short circuit: a cached idle verdict (set by
        // [`Core::wake_at`], cleared by any event) plus no executing op
        // due means this cycle is provably a no-op beyond the stall
        // bookkeeping — the same proof the span skipper relies on,
        // applied one cycle at a time. Never taken under reference
        // stepping, which polls no verdicts and so keeps the memo
        // false and every cycle fully simulated.
        if self.idle_memo.get() && self.exec_min_done > now {
            self.compute_done_this_cycle = false;
            self.skip_idle_span(1);
            return;
        }
        self.stats.cycles += 1;
        self.compute_done_this_cycle = false;

        // 1. Complete executing compute ops (tracked in the small
        // `executing` mirror; entries in it never retire before they
        // complete, so their seq→index mapping stays valid).
        if self.exec_min_done <= now {
            let head_seq = self.head_seq();
            let mut i = 0;
            while i < self.executing.len() {
                let (done_at, seq) = self.executing[i];
                if done_at <= now {
                    self.rob[(seq - head_seq) as usize].state = State::Done;
                    self.set_done(seq);
                    self.compute_done_this_cycle = true;
                    self.executing.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            self.exec_min_done = self
                .executing
                .iter()
                .map(|&(done_at, _)| done_at)
                .min()
                .unwrap_or(u64::MAX);
        }

        // 2. Retire in order.
        let mut retired_this_cycle = 0u32;
        while retired_this_cycle < self.cfg.issue_width {
            if !matches!(self.rob.front(), Some(e) if e.state == State::Done) {
                break;
            }
            let Some(e) = self.rob.pop_front() else { break };
            self.stats.retired += 1;
            if e.op.is_mem() {
                self.stats.mem_retired += 1;
            }
            retired_this_cycle += 1;
        }

        // 3. Issue: walk the ready entries of the window in sequence
        // order; issue up to `issue_width`. The ring is re-read as the
        // walk advances, so a store posted here wakes a younger consumer
        // in the same pass.
        self.check_ready_bits();
        let head_seq = self.head_seq();
        let end = self.window_end();
        let mut issued = 0u32;
        let mut from = head_seq;
        while issued < self.cfg.issue_width {
            let Some(seq) = self.next_ready(from, end) else {
                break;
            };
            from = seq + 1;
            let rob_idx = (seq - head_seq) as usize;
            let op = self.rob[rob_idx].op;
            let leaves = match op {
                Op::Compute => {
                    let done_at = now + self.cfg.compute_latency;
                    self.rob[rob_idx].state = State::Executing(done_at);
                    self.executing.push((done_at, seq));
                    self.exec_min_done = self.exec_min_done.min(done_at);
                    issued += 1;
                    true
                }
                // Store buffer full: structural stall, the store waits
                // without consuming the slot.
                Op::Store(_) if self.posted_stores.len() >= self.cfg.store_buffer as usize => false,
                Op::Load(addr) | Op::Store(addr) => {
                    let is_store = matches!(op, Op::Store(_));
                    // Accepted or not, the attempt uses a slot.
                    issued += 1;
                    if !mem.try_access(now, seq, addr, is_store) {
                        self.stats.mem_rejects += 1;
                        false
                    } else {
                        self.outstanding_mem += 1;
                        self.stats.mem_issued += 1;
                        if is_store {
                            // Stores are posted: they drain through a
                            // write buffer and never block retirement.
                            self.posted_stores.push(seq);
                            self.rob[rob_idx].state = State::Done;
                            self.set_done(seq);
                        } else {
                            // Loads wait for their data.
                            self.rob[rob_idx].state = State::WaitingMem;
                        }
                        true
                    }
                }
            };
            if leaves {
                let (word, bit) = self.done_bit(seq);
                self.ready[word] &= !bit;
                self.waiting -= 1;
            }
        }

        // 4. Dispatch from the trace.
        let mut dispatched = 0u32;
        while dispatched < self.cfg.issue_width
            && self.rob.len() < self.cfg.rob_size as usize
            && self.waiting < self.cfg.iw_size as usize
            && self.next_dispatch < self.total_instructions
        {
            let i = self.trace.instrs()[self.trace_cursor];
            self.trace_cursor += 1;
            if self.trace_cursor == self.trace.len() {
                self.trace_cursor = 0;
            }
            let seq = self.next_dispatch as u64;
            let dep = (i.dep > 0 && u64::from(i.dep) <= seq).then(|| seq - u64::from(i.dep));
            self.enqueue(seq, dep, seq - self.rob.len() as u64);
            self.rob.push_back(RobEntry {
                seq,
                op: i.op,
                state: State::Waiting,
                dep,
            });
            self.waiting += 1;
            self.next_dispatch += 1;
            dispatched += 1;
        }

        // The events above are exactly what can invalidate a cached
        // idle verdict; an eventless cycle leaves it untouched.
        if self.compute_done_this_cycle || retired_this_cycle > 0 || issued > 0 || dispatched > 0 {
            self.idle_memo.set(false);
        }

        // 5. Stall and overlap bookkeeping.
        let head_waiting_mem = self
            .rob
            .front()
            .is_some_and(|e| e.state == State::WaitingMem);
        if retired_this_cycle == 0 && head_waiting_mem {
            self.stats.data_stall_cycles += 1;
        }
        if self.outstanding_mem > 0 {
            self.stats.mem_busy_cycles += 1;
            if self.compute_done_this_cycle {
                self.stats.overlap_cycles += 1;
            }
        }
    }
}

/// 64-bit words in a done ring covering `entries` live ROB entries: a
/// power of two, so the ring wraps with a mask.
fn ring_words(entries: usize) -> usize {
    entries.div_ceil(64).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::PerfectMemory;
    use lpm_trace::Instr;

    /// Run a trace on a perfect memory; returns stats.
    fn run_perfect(cfg: CoreConfig, trace: Trace, latency: u64, limit: u64) -> CoreStats {
        let mut core = Core::new(cfg, trace);
        let mut mem = PerfectMemory::new(latency);
        for now in 0..limit {
            for id in mem.take_completions(now) {
                core.complete_mem(id);
            }
            core.cycle(now, &mut mem);
            if core.finished() {
                break;
            }
        }
        assert!(core.finished(), "core did not finish within {limit} cycles");
        *core.stats()
    }

    #[test]
    fn independent_computes_reach_full_width() {
        // 4-wide core, 400 independent computes: IPC approaches 4.
        let trace: Trace = (0..400).map(|_| Instr::compute()).collect();
        let s = run_perfect(CoreConfig::small(), trace, 1, 10_000);
        assert_eq!(s.retired, 400);
        assert!(s.ipc() > 3.0, "ipc {}", s.ipc());
    }

    #[test]
    fn dependence_chain_serializes() {
        // Every compute depends on the previous one: IPC near
        // 1/compute_latency regardless of width.
        let trace: Trace = (0..300)
            .map(|i| {
                let instr = Instr::compute();
                if i > 0 {
                    instr.depending_on(1)
                } else {
                    instr
                }
            })
            .collect();
        let s = run_perfect(CoreConfig::big(), trace, 1, 10_000);
        assert!(s.ipc() < 1.2, "ipc {}", s.ipc());
    }

    #[test]
    fn rob_size_one_is_effectively_in_order() {
        let cfg = CoreConfig {
            issue_width: 4,
            iw_size: 1,
            rob_size: 1,
            compute_latency: 1,
            store_buffer: 32,
        };
        let trace: Trace = (0..100).map(|_| Instr::compute()).collect();
        let s = run_perfect(cfg, trace, 1, 10_000);
        // One instruction per dispatch-issue-retire round.
        assert!(s.ipc() <= 0.5, "ipc {}", s.ipc());
    }

    #[test]
    fn fmem_measured() {
        let trace: Trace = (0..200)
            .map(|i| {
                if i % 4 == 0 {
                    Instr::load((i as u64) * 64)
                } else {
                    Instr::compute()
                }
            })
            .collect();
        let s = run_perfect(CoreConfig::small(), trace, 2, 20_000);
        assert!((s.fmem() - 0.25).abs() < 1e-9);
        assert_eq!(s.mem_issued, 50);
    }

    #[test]
    fn independent_loads_overlap_in_memory() {
        // Loads with a long latency but no dependences: the core keeps
        // many in flight, so total cycles << serial latency sum.
        let n = 64u64;
        let lat = 50u64;
        let trace: Trace = (0..n).map(|i| Instr::load(i * 64)).collect();
        let s = run_perfect(CoreConfig::big(), trace, lat, 100_000);
        assert!(s.cycles < n * lat / 4, "cycles {} suggest no MLP", s.cycles);
    }

    #[test]
    fn dependent_loads_serialize_in_memory() {
        let n = 32u64;
        let lat = 50u64;
        let trace: Trace = (0..n)
            .map(|i| {
                let l = Instr::load(i * 64);
                if i > 0 {
                    l.depending_on(1)
                } else {
                    l
                }
            })
            .collect();
        let s = run_perfect(CoreConfig::big(), trace, lat, 100_000);
        assert!(
            s.cycles > n * lat,
            "cycles {} suggest impossible overlap",
            s.cycles
        );
    }

    #[test]
    fn small_rob_limits_mlp() {
        let n = 64u64;
        let lat = 50u64;
        let trace: Trace = (0..n).map(|i| Instr::load(i * 64)).collect();
        let small = run_perfect(
            CoreConfig {
                issue_width: 4,
                iw_size: 4,
                rob_size: 4,
                compute_latency: 1,
                store_buffer: 32,
            },
            trace.clone(),
            lat,
            100_000,
        );
        let big = run_perfect(CoreConfig::big(), trace, lat, 100_000);
        assert!(
            small.cycles > big.cycles * 2,
            "small {} vs big {}",
            small.cycles,
            big.cycles
        );
    }

    #[test]
    fn data_stall_counted_when_head_waits() {
        // A single long-latency load followed by nothing else: most
        // cycles are data stalls.
        let trace: Trace = std::iter::once(Instr::load(0)).collect();
        let s = run_perfect(CoreConfig::small(), trace, 100, 10_000);
        assert!(s.data_stall_cycles >= 99, "stalls {}", s.data_stall_cycles);
    }

    #[test]
    fn overlap_ratio_high_for_mixed_independent_work() {
        // Loads interleaved with independent computes: computation
        // proceeds while memory is busy → high overlap ratio.
        let trace: Trace = (0..400)
            .map(|i| {
                if i % 8 == 0 {
                    Instr::load((i as u64) * 64)
                } else {
                    Instr::compute()
                }
            })
            .collect();
        let s = run_perfect(CoreConfig::big(), trace, 20, 100_000);
        assert!(s.overlap_ratio() > 0.5, "overlap {}", s.overlap_ratio());
    }

    #[test]
    fn overlap_ratio_low_for_pure_pointer_chase() {
        let trace: Trace = (0..100)
            .map(|i| {
                let l = Instr::load((i as u64) * 64);
                if i > 0 {
                    l.depending_on(1)
                } else {
                    l
                }
            })
            .collect();
        let s = run_perfect(CoreConfig::big(), trace, 30, 100_000);
        assert!(s.overlap_ratio() < 0.2, "overlap {}", s.overlap_ratio());
    }

    #[test]
    fn cpi_exe_reflects_issue_width() {
        let trace: Trace = (0..1000).map(|_| Instr::compute()).collect();
        let narrow = run_perfect(
            CoreConfig {
                issue_width: 1,
                iw_size: 32,
                rob_size: 32,
                compute_latency: 1,
                store_buffer: 32,
            },
            trace.clone(),
            1,
            100_000,
        );
        let wide = run_perfect(CoreConfig::big(), trace, 1, 100_000);
        assert!(narrow.cpi() > 0.9);
        assert!(wide.cpi() < narrow.cpi() / 2.0);
    }

    #[test]
    fn port_rejection_is_retried() {
        /// A port that rejects the first `n` attempts.
        struct Flaky {
            rejects_left: u32,
            inner: PerfectMemory,
        }
        impl MemoryPort for Flaky {
            fn try_access(&mut self, now: u64, id: u64, addr: u64, is_store: bool) -> bool {
                if self.rejects_left > 0 {
                    self.rejects_left -= 1;
                    return false;
                }
                self.inner.try_access(now, id, addr, is_store)
            }
        }
        let trace: Trace = std::iter::once(Instr::load(0)).collect();
        let mut core = Core::new(CoreConfig::small(), trace);
        let mut mem = Flaky {
            rejects_left: 3,
            inner: PerfectMemory::new(2),
        };
        for now in 0..100 {
            for id in mem.inner.take_completions(now) {
                core.complete_mem(id);
            }
            core.cycle(now, &mut mem);
            if core.finished() {
                break;
            }
        }
        assert!(core.finished());
        assert_eq!(core.stats().mem_rejects, 3);
        assert_eq!(core.stats().mem_issued, 1);
    }

    /// Differential check for the event-driven fast path: a core stuck
    /// behind a long-latency load wakes no sooner than its load, and
    /// skipping the idle span in one shot leaves it in a state
    /// indistinguishable (stats now and forever after) from stepping
    /// the same span cycle by cycle.
    #[test]
    fn idle_span_skip_matches_per_cycle_stepping() {
        let make = || {
            let trace: Trace = (0..8)
                .map(|i| {
                    if i == 0 {
                        Instr::load(0)
                    } else {
                        Instr::compute().depending_on(1)
                    }
                })
                .collect();
            Core::new(CoreConfig::small(), trace)
        };
        let mut per_cycle = make();
        let mut skipped = make();
        let mut mem = PerfectMemory::new(1_000_000); // never completes on its own
                                                     // Warm both cores identically until the load is in flight and
                                                     // everything else is dependence-blocked.
        let mut now = 0u64;
        while per_cycle.wake_at(now) <= now {
            per_cycle.cycle(now, &mut mem);
            skipped.cycle(now, &mut mem);
            now += 1;
            assert!(now < 100, "core never went idle");
        }
        assert!(skipped.wake_at(now) > now);
        assert_eq!(per_cycle.wake_at(now), u64::MAX, "waiting purely on memory");
        // 500 idle cycles: reference steps them, fast path leaps them.
        for t in now..now + 500 {
            per_cycle.cycle(t, &mut mem);
        }
        skipped.skip_idle_span(500);
        now += 500;
        assert_eq!(per_cycle.stats(), skipped.stats());
        assert!(per_cycle.stats().data_stall_cycles >= 500);
        // Deliver the completion and run both to the end in lockstep.
        per_cycle.complete_mem(0);
        skipped.complete_mem(0);
        while !per_cycle.finished() || !skipped.finished() {
            per_cycle.cycle(now, &mut mem);
            skipped.cycle(now, &mut mem);
            assert_eq!(per_cycle.stats(), skipped.stats());
            now += 1;
            assert!(now < 10_000, "cores did not finish");
        }
        assert_eq!(per_cycle.stats(), skipped.stats());
    }

    /// A port that accepts at most `per_cycle` accesses each cycle and
    /// rejects the rest (exercises rejected issue attempts).
    struct Throttled {
        inner: PerfectMemory,
        per_cycle: u32,
        cycle: u64,
        used: u32,
    }

    impl MemoryPort for Throttled {
        fn try_access(&mut self, now: u64, id: u64, addr: u64, is_store: bool) -> bool {
            if now != self.cycle {
                self.cycle = now;
                self.used = 0;
            }
            if self.used == self.per_cycle {
                return false;
            }
            self.used += 1;
            self.inner.try_access(now, id, addr, is_store)
        }
    }

    /// Fold one cycle's stats into an FNV-1a digest.
    fn fold_stats(h: &mut u64, s: &CoreStats) {
        for v in [
            s.cycles,
            s.retired,
            s.mem_retired,
            s.data_stall_cycles,
            s.mem_busy_cycles,
            s.overlap_cycles,
            s.mem_issued,
            s.mem_rejects,
        ] {
            for b in v.to_le_bytes() {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// `reconfigure` mid-run: shrink the issue window below the number of
    /// waiting entries (the `considered < iw_size` window bounds the scan
    /// while dispatch pauses), then grow the ROB and window well past the
    /// initial ROB. Per-cycle stats are pinned by a digest and the phase
    /// boundaries by full snapshots.
    #[test]
    fn reconfigure_mid_run_shrinks_then_grows() {
        let trace: Trace = (0..900u64)
            .map(|i| match i % 10 {
                0 | 6 => Instr::load(i * 64),
                3 => Instr::load(i * 64).depending_on(3),
                4 | 8 => Instr::store(i * 64).depending_on(1),
                _ => Instr::compute().depending_on((i % 3 + 1) as u32),
            })
            .collect();
        let initial = CoreConfig {
            issue_width: 4,
            iw_size: 16,
            rob_size: 24,
            compute_latency: 2,
            store_buffer: 2,
        };
        let mut core = Core::new(initial, trace);
        let mut mem = Throttled {
            inner: PerfectMemory::new(30),
            per_cycle: 2,
            cycle: 0,
            used: 0,
        };
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut now = 0u64;
        let mut step = |core: &mut Core, now: &mut u64| {
            for id in mem.inner.take_completions(*now) {
                core.complete_mem(id);
            }
            // Poll like the fast path does, so the idle memo is live too.
            core.wake_at(*now);
            core.cycle(*now, &mut mem);
            fold_stats(&mut digest, core.stats());
            *now += 1;
        };
        for _ in 0..40 {
            step(&mut core, &mut now);
        }
        let waiting = core.waiting;
        assert!(waiting > 2, "only {waiting} waiting entries at the shrink");
        let phase1 = *core.stats();
        core.reconfigure(CoreConfig {
            iw_size: 2,
            ..initial
        });
        for _ in 0..80 {
            step(&mut core, &mut now);
        }
        let phase2 = *core.stats();
        core.reconfigure(CoreConfig {
            issue_width: 6,
            iw_size: 96,
            rob_size: 160,
            compute_latency: 2,
            store_buffer: 4,
        });
        while !core.finished() {
            step(&mut core, &mut now);
            assert!(now < 20_000, "core did not finish");
        }
        let end = *core.stats();
        let snapshot = |s: CoreStats| {
            [
                s.cycles,
                s.retired,
                s.mem_retired,
                s.data_stall_cycles,
                s.mem_busy_cycles,
                s.overlap_cycles,
                s.mem_issued,
                s.mem_rejects,
            ]
        };
        assert_eq!(snapshot(phase1), [40, 3, 1, 38, 39, 6, 10, 0]);
        assert_eq!(snapshot(phase2), [120, 28, 14, 59, 119, 14, 15, 0]);
        assert_eq!(snapshot(end), [1447, 900, 450, 115, 1446, 272, 450, 3]);
        assert_eq!(digest, 0x72a2_c21e_77cf_8f96);
    }

    /// A shrink below the number of *ready* entries: when the producer's
    /// data lands, only the oldest `iw_size` waiting entries may issue,
    /// however wide the core and however many are ready.
    #[test]
    fn shrunk_window_issues_only_the_oldest_ready_entries() {
        let trace: Trace = std::iter::once(Instr::load(0))
            .chain((1..=6).map(|i| Instr::compute().depending_on(i)))
            .collect();
        let cfg = CoreConfig {
            issue_width: 8,
            iw_size: 8,
            rob_size: 8,
            compute_latency: 1,
            store_buffer: 4,
        };
        let mut core = Core::new(cfg, trace);
        let mut mem = PerfectMemory::new(1_000_000);
        core.cycle(0, &mut mem); // dispatch all seven
        core.cycle(1, &mut mem); // issue the load; the computes wait on it
        assert_eq!((core.waiting, core.outstanding_mem), (6, 1));
        core.reconfigure(CoreConfig { iw_size: 2, ..cfg });
        core.complete_mem(0); // all six computes turn ready at once
        assert_eq!(core.wake_at(2), 2);
        core.cycle(2, &mut mem);
        let executing = |c: &Core| {
            let mut seqs: Vec<u64> = c.executing.iter().map(|&(_, s)| s).collect();
            seqs.sort_unstable();
            seqs
        };
        assert_eq!(executing(&core), vec![1, 2], "window of two, oldest first");
        assert_eq!(core.waiting, 4);
        core.cycle(3, &mut mem);
        assert_eq!(executing(&core), vec![3, 4]);
        while !core.finished() {
            let now = core.stats().cycles;
            core.cycle(now, &mut mem);
            assert!(now < 100, "core did not finish");
        }
    }

    /// A store posted in an issue pass readies its consumer in the same
    /// pass: the ready ring is re-read as the walk advances.
    #[test]
    fn posted_store_wakes_a_younger_consumer_in_the_same_pass() {
        let trace: Trace = [
            Instr::store(0),
            Instr::compute(),
            Instr::compute().depending_on(2),
        ]
        .into_iter()
        .collect();
        let mut core = Core::new(CoreConfig::small(), trace);
        let mut mem = PerfectMemory::new(50);
        core.cycle(0, &mut mem); // dispatch all three
        assert_eq!(core.waiting, 3);
        core.cycle(1, &mut mem); // the store posts, then both computes issue
        assert_eq!(core.waiting, 0);
        assert_eq!(core.stats().mem_issued, 1);
        let mut seqs: Vec<u64> = core.executing.iter().map(|&(_, s)| s).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn complete_mem_ignores_unknown_ids() {
        let trace: Trace = [Instr::load(0), Instr::load(64)].into_iter().collect();
        let mut core = Core::new(CoreConfig::small(), trace);
        let mut mem = PerfectMemory::new(1_000_000);
        core.cycle(0, &mut mem); // dispatch both loads
        core.cycle(1, &mut mem); // issue both
        assert_eq!(core.outstanding_mem, 2);
        assert_eq!(
            core.wake_at(2),
            u64::MAX,
            "both loads in flight, nothing to do"
        );
        for unknown in [7, 2, u64::MAX] {
            core.complete_mem(unknown);
        }
        assert_eq!(core.outstanding_mem, 2);
        assert!(core.idle_memo.get(), "an unknown id must change no state");
        core.complete_mem(0);
        core.complete_mem(0); // a repeated completion is unknown too
        assert_eq!(core.outstanding_mem, 1);
        assert_eq!(core.wake_at(2), 2, "the completed head can retire");
    }

    #[test]
    fn stats_ratios_on_empty_run() {
        let s = CoreStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.cpi(), 0.0);
        assert_eq!(s.fmem(), 0.0);
        assert_eq!(s.overlap_ratio(), 0.0);
        assert_eq!(s.stall_per_instruction(), 0.0);
    }
}
