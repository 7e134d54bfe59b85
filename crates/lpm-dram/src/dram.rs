//! The DRAM device: per-channel queues, per-bank row buffers, shared
//! per-channel data buses.

use crate::config::{DramConfig, SchedPolicy};

/// One memory request as seen by the DRAM controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramRequest {
    /// Caller-assigned identity returned on completion.
    pub id: u64,
    /// Byte address (any address within the line works).
    pub addr: u64,
    /// Writes complete into the row buffer; they occupy the bank and bus
    /// like reads but the caller usually ignores their completions.
    pub is_write: bool,
}

/// Aggregate controller statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Requests accepted into a queue.
    pub accepted: u64,
    /// Requests rejected because the channel queue was full.
    pub rejected: u64,
    /// Completed reads.
    pub reads: u64,
    /// Completed writes.
    pub writes: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Accesses to an idle (closed) bank.
    pub row_empty: u64,
    /// Row conflicts (precharge needed).
    pub row_conflicts: u64,
    /// Cycles with at least one request in flight or queued.
    pub busy_cycles: u64,
}

#[derive(Debug, Clone, Copy)]
struct QueuedReq {
    req: DramRequest,
    arrival: u64,
    bank: u32,
    row: u64,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    id: u64,
    is_write: bool,
    done_at: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

#[derive(Debug)]
struct Channel {
    queue: Vec<QueuedReq>,
    banks: Vec<Bank>,
    bus_free_at: u64,
    in_flight: Vec<InFlight>,
    /// Soonest `busy_until` over the banks of queued requests
    /// (`u64::MAX` when the queue is empty): before it, no request is
    /// ready and the scheduler has nothing to pick. Lowered at enqueue,
    /// recomputed at issue (the only time a bank's `busy_until` moves).
    next_issue: u64,
    /// Soonest in-flight `done_at` (`u64::MAX` when none): lowered at
    /// issue, recomputed when completions drain.
    next_done: u64,
}

impl Channel {
    /// [`Channel::next_issue`] by a full scan.
    fn scan_next_issue(&self) -> u64 {
        let busy = |q: &QueuedReq| self.banks[q.bank as usize].busy_until;
        self.queue.iter().map(busy).min().unwrap_or(u64::MAX)
    }

    /// [`Channel::next_done`] by a full scan.
    fn scan_next_done(&self) -> u64 {
        self.in_flight
            .iter()
            .map(|f| f.done_at)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Debug-build oracle: the pushed event times equal the full scans.
    fn check_times(&self) {
        debug_assert_eq!(
            self.next_issue,
            self.scan_next_issue(),
            "next_issue out of sync"
        );
        debug_assert_eq!(
            self.next_done,
            self.scan_next_done(),
            "next_done out of sync"
        );
    }
}

/// The DRAM controller + devices.
#[derive(Debug)]
pub struct Dram {
    cfg: DramConfig,
    channels: Vec<Channel>,
    /// Fault injection: extra cycles added to every newly issued access
    /// (a latency spike).
    fault_extra_latency: u64,
    /// Fault injection: while set, no new commands issue (a refresh
    /// storm). Queued requests wait; in-flight transfers still complete.
    fault_blocked: bool,
    stats: DramStats,
}

impl Dram {
    /// Build a DRAM system from `cfg`. Panics on a `cfg` that fails
    /// [`DramConfig::validate`], which callers check first.
    pub fn new(cfg: DramConfig) -> Self {
        if let Err(msg) = cfg.validate() {
            // lpm-lint: allow(P001) documented contract: an invalid config is a caller bug
            panic!("{msg}");
        }
        let channels = (0..cfg.channels)
            .map(|_| Channel {
                queue: Vec::with_capacity(cfg.queue_depth),
                banks: vec![Bank::default(); cfg.banks_per_channel as usize],
                bus_free_at: 0,
                in_flight: Vec::new(),
                next_issue: u64::MAX,
                next_done: u64::MAX,
            })
            .collect();
        Dram {
            cfg,
            channels,
            fault_extra_latency: 0,
            fault_blocked: false,
            stats: DramStats::default(),
        }
    }

    /// Set (or clear) the injected fault state for this cycle:
    /// `extra_latency` is added to each newly issued access's array
    /// latency; `blocked` suppresses command issue entirely (requests
    /// queue up, completions still drain). Clearing (`0, false`) restores
    /// nominal behaviour exactly.
    pub fn set_fault(&mut self, extra_latency: u64, blocked: bool) {
        self.fault_extra_latency = extra_latency;
        self.fault_blocked = blocked;
    }

    /// The configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Offer a request at cycle `now`. Returns `false` (and leaves the
    /// request with the caller) if the target channel's queue is full.
    pub fn enqueue(&mut self, now: u64, req: DramRequest) -> bool {
        let (ch, bank, row) = self.cfg.map(req.addr);
        let channel = &mut self.channels[ch as usize];
        if channel.queue.len() >= self.cfg.queue_depth {
            self.stats.rejected += 1;
            return false;
        }
        channel.queue.push(QueuedReq {
            req,
            arrival: now,
            bank,
            row,
        });
        channel.next_issue = channel
            .next_issue
            .min(channel.banks[bank as usize].busy_until);
        self.stats.accepted += 1;
        true
    }

    /// Requests currently queued or in flight (for occupancy tracking).
    pub fn outstanding(&self) -> usize {
        self.channels
            .iter()
            .map(|c| c.queue.len() + c.in_flight.len())
            .sum()
    }

    /// Banks currently mid-operation at cycle `now` (for telemetry's
    /// bank-utilization sampling).
    pub fn banks_busy(&self, now: u64) -> usize {
        self.channels
            .iter()
            .flat_map(|c| c.banks.iter())
            .filter(|b| b.busy_until > now)
            .count()
    }

    /// Total banks across all channels.
    pub fn banks_total(&self) -> usize {
        self.channels.iter().map(|c| c.banks.len()).sum()
    }

    /// Earliest cycle at or after `now` at which a `step` could mutate
    /// any state or statistic beyond the busy-cycle counter: the soonest
    /// in-flight completion or — unless a refresh storm blocks command
    /// issue — the soonest bank-free time of a queued request. The data
    /// bus never gates *issue* (it only shifts the transfer slot), so
    /// `bus_free_at` contributes no event. `now` means the controller
    /// acts this cycle; `u64::MAX` when drained (or blocked with nothing
    /// in flight). Until the returned cycle each step only ticks
    /// `busy_cycles`, which [`Dram::skip_idle_span`] batches.
    pub fn wake_at(&self, now: u64) -> u64 {
        let soonest = |c: &Channel| {
            c.check_times();
            if self.fault_blocked {
                c.next_done
            } else {
                c.next_done.min(c.next_issue)
            }
        };
        self.channels
            .iter()
            .map(soonest)
            .fold(u64::MAX, u64::min)
            .max(now)
    }

    /// Apply the stats of `k` provably-inert cycles (each before
    /// [`Dram::wake_at`]) in one shot — exactly what `k`
    /// calls to [`Dram::step`] would have recorded.
    pub fn skip_idle_span(&mut self, k: u64) {
        if self.outstanding() > 0 {
            self.stats.busy_cycles += k;
        }
    }

    /// Advance one cycle: schedule at most one request per channel and
    /// collect completions. Returns `(id, is_write)` pairs.
    pub fn step(&mut self, now: u64) -> Vec<(u64, bool)> {
        let mut completions = Vec::new();
        self.step_into(now, &mut completions);
        completions
    }

    /// [`Dram::step`] writing completions into a caller-owned buffer
    /// (cleared first), so per-cycle drivers can reuse one allocation.
    pub fn step_into(&mut self, now: u64, completions: &mut Vec<(u64, bool)>) {
        completions.clear();
        if self.outstanding() > 0 {
            self.stats.busy_cycles += 1;
        }
        let fault_blocked = self.fault_blocked;
        let fault_extra_latency = self.fault_extra_latency;
        for channel in &mut self.channels {
            channel.check_times();
            // Completions first (none are due before `next_done`).
            if channel.next_done <= now {
                let mut i = 0;
                while i < channel.in_flight.len() {
                    if channel.in_flight[i].done_at <= now {
                        let f = channel.in_flight.swap_remove(i);
                        completions.push((f.id, f.is_write));
                        if f.is_write {
                            self.stats.writes += 1;
                        } else {
                            self.stats.reads += 1;
                        }
                    } else {
                        i += 1;
                    }
                }
                channel.next_done = channel.scan_next_done();
            }
            // A refresh storm blocks command issue; completions above
            // still drain. Before `next_issue` no queued request's bank
            // is free, so the scheduler below would pick nothing.
            if fault_blocked || channel.next_issue > now {
                continue;
            }
            // Pick the next request to issue (one command per channel per
            // cycle). The bank must be free; the data bus is *reserved*
            // for the future transfer slot rather than gating the whole
            // access, so bank latencies pipeline behind transfers.
            let ready = |q: &QueuedReq| channel.banks[q.bank as usize].busy_until <= now;
            let oldest_ready = channel
                .queue
                .iter()
                .enumerate()
                .filter(|(_, q)| ready(q))
                .min_by_key(|(_, q)| q.arrival)
                .map(|(i, _)| i);
            let pick = match self.cfg.policy {
                SchedPolicy::Fcfs => oldest_ready,
                SchedPolicy::FrFcfs => {
                    // Starvation guard first: a request that has waited too
                    // long wins over row-hit preference.
                    let starving = oldest_ready.filter(|&i| {
                        now.saturating_sub(channel.queue[i].arrival) > self.cfg.starvation_threshold
                    });
                    let row_hit =
                        |q: &QueuedReq| channel.banks[q.bank as usize].open_row == Some(q.row);
                    starving.or_else(|| {
                        channel
                            .queue
                            .iter()
                            .enumerate()
                            .filter(|(_, q)| ready(q) && row_hit(q))
                            .min_by_key(|(_, q)| q.arrival)
                            .map(|(i, _)| i)
                            .or(oldest_ready)
                    })
                }
            };
            let Some(idx) = pick else { continue };
            let q = channel.queue.swap_remove(idx);
            let bank = &mut channel.banks[q.bank as usize];
            let access_latency = match bank.open_row {
                Some(r) if r == q.row => {
                    self.stats.row_hits += 1;
                    self.cfg.row_hit_latency()
                }
                Some(_) => {
                    self.stats.row_conflicts += 1;
                    self.cfg.row_conflict_latency()
                }
                None => {
                    self.stats.row_empty += 1;
                    self.cfg.row_empty_latency()
                }
            };
            bank.open_row = Some(q.row);
            // The transfer takes the first bus slot after the array access
            // completes; the bank stays busy through its transfer.
            let data_start = (now + access_latency + fault_extra_latency).max(channel.bus_free_at);
            let done = data_start + self.cfg.burst_cycles;
            bank.busy_until = done;
            channel.bus_free_at = done;
            channel.in_flight.push(InFlight {
                id: q.req.id,
                is_write: q.req.is_write,
                done_at: done,
            });
            channel.next_done = channel.next_done.min(done);
            channel.next_issue = channel.scan_next_issue();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig::ddr3_default())
    }

    fn read(id: u64, addr: u64) -> DramRequest {
        DramRequest {
            id,
            addr,
            is_write: false,
        }
    }

    /// Run until `want` completions are gathered; returns (id → cycle).
    fn drain(
        d: &mut Dram,
        start: u64,
        want: usize,
        limit: u64,
    ) -> std::collections::BTreeMap<u64, u64> {
        let mut out = std::collections::BTreeMap::new();
        for now in start..start + limit {
            for (id, _) in d.step(now) {
                out.insert(id, now);
            }
            if out.len() == want {
                break;
            }
        }
        assert_eq!(out.len(), want, "not all requests completed");
        out
    }

    #[test]
    fn single_read_latency_is_empty_row_class() {
        let mut d = dram();
        assert!(d.enqueue(0, read(1, 0)));
        let done = drain(&mut d, 0, 1, 200);
        // Issue at cycle 0: tRCD + tCAS + burst = 24+24+8 = 56.
        assert_eq!(done[&1], 56);
        assert_eq!(d.stats().row_empty, 1);
    }

    #[test]
    fn row_hit_is_faster_than_conflict() {
        let mut d = dram();
        // Two reads in the same row, back to back.
        d.enqueue(0, read(1, 0));
        d.enqueue(0, read(2, 64));
        let done = drain(&mut d, 0, 2, 400);
        assert_eq!(d.stats().row_hits, 1);
        let hit_gap = done[&2] - done[&1];

        // Two reads in different rows of the same bank.
        let mut d2 = dram();
        let step = 2048 * 2 * 8; // same (channel, bank), next row
        d2.enqueue(0, read(1, 0));
        d2.enqueue(0, read(2, step));
        let done2 = drain(&mut d2, 0, 2, 400);
        assert_eq!(d2.stats().row_conflicts, 1);
        let conflict_gap = done2[&2] - done2[&1];
        assert!(
            conflict_gap > hit_gap,
            "conflict gap {conflict_gap} <= hit gap {hit_gap}"
        );
    }

    #[test]
    fn different_channels_overlap() {
        let mut d = dram();
        // Rows 0 and 1 land on different channels.
        d.enqueue(0, read(1, 0));
        d.enqueue(0, read(2, 2048));
        let done = drain(&mut d, 0, 2, 200);
        // Both issue at cycle 0 → identical completion time.
        assert_eq!(done[&1], done[&2]);
    }

    #[test]
    fn same_channel_shares_the_bus() {
        let mut d = dram();
        // Rows 0 and 2 (stride 2 rows) share channel 0, different banks.
        d.enqueue(0, read(1, 0));
        d.enqueue(0, read(2, 2 * 2048));
        let done = drain(&mut d, 0, 2, 400);
        assert_ne!(done[&1], done[&2], "bus must serialize transfers");
    }

    #[test]
    fn queue_depth_limits_acceptance() {
        let mut cfg = DramConfig::ddr3_default();
        cfg.queue_depth = 2;
        cfg.channels = 1;
        let mut d = Dram::new(cfg);
        assert!(d.enqueue(0, read(1, 0)));
        assert!(d.enqueue(0, read(2, 64)));
        assert!(!d.enqueue(0, read(3, 128)));
        assert_eq!(d.stats().rejected, 1);
    }

    #[test]
    fn frfcfs_prefers_row_hits() {
        let mut cfg = DramConfig::ddr3_default();
        cfg.channels = 1;
        cfg.banks_per_channel = 1;
        let mut d = Dram::new(cfg);
        // Open row 0 with request 1; then queue a conflict (row 1) at
        // t=60 and a row-hit (row 0) later at t=61. FR-FCFS serves the
        // hit first despite its later arrival.
        d.enqueue(0, read(1, 0));
        let first = drain(&mut d, 0, 1, 200);
        let t = first[&1];
        d.enqueue(t + 1, read(2, 2048)); // row 1 (conflict)
        d.enqueue(t + 2, read(3, 64)); // row 0 (hit)
        let done = drain(&mut d, t + 3, 2, 500);
        assert!(
            done[&3] < done[&2],
            "row hit should be served before older conflict"
        );
    }

    #[test]
    fn fcfs_preserves_arrival_order() {
        let mut cfg = DramConfig::ddr3_default();
        cfg.channels = 1;
        cfg.banks_per_channel = 1;
        cfg.policy = SchedPolicy::Fcfs;
        let mut d = Dram::new(cfg);
        d.enqueue(0, read(1, 0));
        let first = drain(&mut d, 0, 1, 200);
        let t = first[&1];
        d.enqueue(t + 1, read(2, 2048)); // conflict, older
        d.enqueue(t + 2, read(3, 64)); // hit, younger
        let done = drain(&mut d, t + 3, 2, 500);
        assert!(done[&2] < done[&3]);
    }

    #[test]
    fn writes_complete_and_are_counted() {
        let mut d = dram();
        d.enqueue(
            0,
            DramRequest {
                id: 9,
                addr: 0,
                is_write: true,
            },
        );
        let mut saw = false;
        for now in 0..200 {
            for (id, is_write) in d.step(now) {
                assert_eq!(id, 9);
                assert!(is_write);
                saw = true;
            }
        }
        assert!(saw);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().reads, 0);
    }

    /// Event-horizon contract: during a bank's array access no step
    /// mutates anything, `wake_at` names the completion cycle, and
    /// skipping the span leaves stats identical to stepping it.
    #[test]
    fn idle_span_skip_matches_per_cycle_stepping() {
        let mut per_cycle = dram();
        let mut skipped = dram();
        per_cycle.enqueue(0, read(1, 0));
        skipped.enqueue(0, read(1, 0));
        // Cycle 0 issues the command on both.
        assert_eq!(per_cycle.wake_at(0), 0);
        assert!(per_cycle.step(0).is_empty());
        assert!(skipped.step(0).is_empty());
        // tRCD + tCAS + burst = 56: cycles 1..=55 are provably inert.
        let done = skipped.wake_at(1);
        assert_eq!(done, 56, "one request in flight");
        for t in 1..done {
            assert!(per_cycle.wake_at(t) > t, "cycle {t} must be inert");
            assert!(per_cycle.step(t).is_empty());
        }
        skipped.skip_idle_span(done - 1);
        assert_eq!(per_cycle.stats(), skipped.stats());
        assert_eq!(per_cycle.step(done), skipped.step(done));
        assert_eq!(per_cycle.stats(), skipped.stats());
        assert_eq!(skipped.wake_at(done + 1), u64::MAX);
    }

    #[test]
    fn fault_block_suppresses_issue_events_but_not_completions() {
        let mut d = dram();
        d.enqueue(0, read(1, 0));
        d.set_fault(0, true);
        // Blocked with nothing in flight: no event, not actionable.
        assert_eq!(d.wake_at(0), u64::MAX);
        d.set_fault(0, false);
        assert_eq!(d.wake_at(0), 0, "free bank + queued request must issue");
        d.step(0);
        d.set_fault(0, true);
        // In-flight completion still an event while blocked.
        assert_eq!(d.wake_at(1), 56);
    }

    /// Refresh storms toggled while requests queue and drain: on every
    /// cycle `wake_at` lies at or after `now` and agrees with what
    /// `step` then does — an inert cycle only ticks `busy_cycles`,
    /// an active one completes or issues something.
    #[test]
    fn fault_toggles_keep_can_act_and_next_event_in_step_with_step() {
        let mut d = dram();
        let rows = [0u64, 3, 6, 1, 2, 9, 4, 12, 5, 0, 7, 3];
        let mut id = 0u64;
        let mut completed = 0;
        let mut now = 0u64;
        while completed < 20 {
            if id < 20 && now.is_multiple_of(11) {
                d.enqueue(
                    now,
                    read(id, rows[id as usize % rows.len()] * 2048 + id * 64),
                );
                id += 1;
            }
            d.set_fault(0, (now / 37) % 2 == 1);
            let next = d.wake_at(now);
            let acts = next <= now;
            assert!(next >= now, "cycle {now}");
            let before = *d.stats();
            let out = d.step(now);
            let mut after = *d.stats();
            after.busy_cycles = before.busy_cycles;
            if acts {
                assert!(!out.is_empty() || after != before, "cycle {now} must act");
            } else {
                assert!(
                    out.is_empty() && after == before,
                    "cycle {now} must be inert"
                );
                assert_eq!(d.wake_at(now + 1), next);
            }
            completed += out.len();
            now += 1;
            assert!(now < 20_000, "requests did not drain");
        }
        assert_eq!(d.wake_at(now), u64::MAX);
    }

    #[test]
    fn busy_cycles_track_occupancy() {
        let mut d = dram();
        d.enqueue(0, read(1, 0));
        drain(&mut d, 0, 1, 200);
        let busy = d.stats().busy_cycles;
        assert!(busy >= 56, "busy {busy}");
        // Idle stepping adds nothing.
        for now in 300..400 {
            d.step(now);
        }
        assert_eq!(d.stats().busy_cycles, busy);
    }
}

#[cfg(test)]
mod stress_tests {
    use super::*;

    /// Saturate the controller with a mixed read/write stream, then stop
    /// issuing and verify everything drains: no request is ever lost and
    /// no starvation persists.
    #[test]
    fn saturation_drains_completely() {
        let mut d = Dram::new(DramConfig::ddr3_default());
        let mut x = 12345u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut backlog: Vec<DramRequest> = Vec::new();
        let mut issued_reads = 0u64;
        let mut completed_reads = 0u64;
        let horizon = 60_000u64;
        let mut now = 0u64;
        loop {
            if now < horizon && next() % 4 == 0 {
                let is_write = next() % 4 == 0;
                let addr = (next() % (1 << 20)) * 64;
                backlog.push(DramRequest {
                    id: now << 1 | (is_write as u64),
                    addr,
                    is_write,
                });
                if !is_write {
                    issued_reads += 1;
                }
            }
            let i = 0;
            while i < backlog.len() {
                if d.enqueue(now, backlog[i]) {
                    backlog.remove(i);
                } else {
                    break;
                }
            }
            for (_, w) in d.step(now) {
                if !w {
                    completed_reads += 1;
                }
            }
            now += 1;
            if now > horizon && backlog.is_empty() && d.outstanding() == 0 {
                break;
            }
            assert!(
                now < horizon * 40,
                "controller failed to drain: outstanding={} backlog={} \
                 reads {}/{}",
                d.outstanding(),
                backlog.len(),
                completed_reads,
                issued_reads
            );
        }
        assert_eq!(issued_reads, completed_reads);
        // Sustained throughput: transfers pipeline behind bank access, so
        // the channel serves roughly one line per burst slot when loaded.
        let served = d.stats().reads + d.stats().writes;
        assert!(
            served * 40 > horizon,
            "throughput too low: {served} requests in {horizon} cycles"
        );
    }

    /// A stream of row-hit requests must not starve a closed-row request
    /// beyond the starvation threshold.
    #[test]
    fn starvation_guard_bounds_waiting() {
        let mut cfg = DramConfig::ddr3_default();
        cfg.channels = 1;
        cfg.banks_per_channel = 2;
        let mut d = Dram::new(cfg.clone());
        // Open row 0 on bank 0 and keep hammering it with row hits.
        // The victim goes to a different row of the same bank.
        d.enqueue(
            0,
            DramRequest {
                id: u64::MAX,
                addr: 2 * 2048, // bank 0, row 1 (conflict once row 0 opens)
                is_write: false,
            },
        );
        let mut victim_done = None;
        let mut hammer_id = 0u64;
        for now in 0..20_000u64 {
            // Two row-0 hammer requests per slot keep the queue hot.
            if now % 4 == 0 {
                hammer_id += 1;
                d.enqueue(
                    now,
                    DramRequest {
                        id: hammer_id,
                        addr: (hammer_id % 32) * 64, // row 0, bank 0
                        is_write: false,
                    },
                );
            }
            for (id, _) in d.step(now) {
                if id == u64::MAX {
                    victim_done = Some(now);
                }
            }
            if victim_done.is_some() {
                break;
            }
        }
        let done = victim_done.expect("victim starved forever");
        assert!(
            done < cfg.starvation_threshold + 1_000,
            "victim waited {done} cycles"
        );
    }
}
