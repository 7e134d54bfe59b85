//! DRAM configuration and address mapping.

/// Request scheduling policy of the per-channel controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Oldest request first.
    Fcfs,
    /// First-ready (row-hit) first, then oldest — the standard
    /// bandwidth-oriented policy.
    FrFcfs,
}

/// Static configuration of the memory system.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Independent channels (each with its own data bus and queue).
    pub channels: u32,
    /// Banks per channel.
    pub banks_per_channel: u32,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// Column access latency (row already open), CPU cycles.
    pub t_cas: u64,
    /// Activate latency (row empty), CPU cycles.
    pub t_rcd: u64,
    /// Precharge latency (row conflict), CPU cycles.
    pub t_rp: u64,
    /// Data-bus occupancy per request, CPU cycles.
    pub burst_cycles: u64,
    /// Per-channel request queue depth.
    pub queue_depth: usize,
    /// Scheduling policy.
    pub policy: SchedPolicy,
    /// Starvation guard: once the oldest ready request has waited this
    /// many cycles, it is served next regardless of row-hit preference
    /// (real FR-FCFS controllers cap row-hit streaks for the same
    /// reason).
    pub starvation_threshold: u64,
}

impl DramConfig {
    /// A DDR3-1600-flavoured default as seen from a ~3 GHz core:
    /// 2 channels × 8 banks, 2 KiB rows, CAS/RCD/RP ≈ 24 cycles each,
    /// 8-cycle bursts, FR-FCFS.
    pub fn ddr3_default() -> Self {
        DramConfig {
            channels: 2,
            banks_per_channel: 8,
            row_bytes: 2048,
            t_cas: 24,
            t_rcd: 24,
            t_rp: 24,
            burst_cycles: 8,
            queue_depth: 32,
            policy: SchedPolicy::FrFcfs,
            starvation_threshold: 200,
        }
    }

    /// Validate structural constraints, returning a descriptive message
    /// on violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels < 1 {
            return Err("need at least one channel".into());
        }
        if self.banks_per_channel < 1 {
            return Err("need at least one bank".into());
        }
        if !(self.row_bytes.is_power_of_two() && self.row_bytes >= 64) {
            return Err("row size must be a power of two >= 64".into());
        }
        if self.t_cas < 1 || self.burst_cycles < 1 {
            return Err("t_cas and burst_cycles must be >= 1".into());
        }
        if self.queue_depth < 1 {
            return Err("queue depth must be >= 1".into());
        }
        Ok(())
    }

    /// Map an address to `(channel, bank, row)`.
    ///
    /// Interleaving is at row-buffer granularity so that streaming access
    /// patterns enjoy row hits: consecutive rows rotate over channels,
    /// then banks.
    pub fn map(&self, addr: u64) -> (u32, u32, u64) {
        let row_chunk = addr / self.row_bytes;
        let channel = (row_chunk % self.channels as u64) as u32;
        let bank = ((row_chunk / self.channels as u64) % self.banks_per_channel as u64) as u32;
        let row = row_chunk / self.channels as u64 / self.banks_per_channel as u64;
        (channel, bank, row)
    }

    /// Latency classes, in cycles, excluding queueing and bus transfer.
    pub fn row_hit_latency(&self) -> u64 {
        self.t_cas
    }

    /// Latency when the bank has no open row.
    pub fn row_empty_latency(&self) -> u64 {
        self.t_rcd + self.t_cas
    }

    /// Latency when another row is open (precharge first).
    pub fn row_conflict_latency(&self) -> u64 {
        self.t_rp + self.t_rcd + self.t_cas
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        DramConfig::ddr3_default().validate().unwrap();
    }

    #[test]
    fn mapping_rotates_rows_over_channels_then_banks() {
        let c = DramConfig::ddr3_default();
        // Same row chunk → same (channel, bank, row).
        assert_eq!(c.map(0), c.map(2047));
        let (ch0, b0, r0) = c.map(0);
        let (ch1, _b1, _r1) = c.map(2048);
        assert_ne!(ch0, ch1, "adjacent rows should change channel");
        // After channels × banks rows we return to (ch0, b0) at row r0+1.
        let step = 2048 * (c.channels as u64) * (c.banks_per_channel as u64);
        let (ch, b, r) = c.map(step);
        assert_eq!((ch, b), (ch0, b0));
        assert_eq!(r, r0 + 1);
    }

    #[test]
    fn latency_classes_are_ordered() {
        let c = DramConfig::ddr3_default();
        assert!(c.row_hit_latency() < c.row_empty_latency());
        assert!(c.row_empty_latency() < c.row_conflict_latency());
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let mut c = DramConfig::ddr3_default();
        c.channels = 0;
        c.validate().unwrap();
    }
}
