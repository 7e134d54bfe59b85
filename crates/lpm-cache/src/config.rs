//! Cache configuration.

use std::fmt;

use crate::bypass::BypassPolicy;
use crate::prefetch::PrefetchKind;
use crate::replacement::Policy;

/// Static configuration of one cache level.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be a power of two.
    pub size_bytes: u64,
    /// Associativity (ways). Must be a power of two and divide the line
    /// count.
    pub assoc: u32,
    /// Line size in bytes. Must be a power of two.
    pub line_bytes: u64,
    /// Access (hit) latency in cycles, `H` in the models. Must be >= 1.
    pub hit_latency: u64,
    /// Number of ports: accesses that may *start* per cycle.
    pub ports: u32,
    /// Number of banks (interleaving): at most one access may start per
    /// bank per cycle. Must be a power of two.
    pub banks: u32,
    /// MSHR entries: maximum outstanding distinct line misses.
    pub mshrs: u32,
    /// Secondary misses that may merge into one MSHR entry.
    pub targets_per_mshr: u32,
    /// Whether lookups are pipelined (a port can start a new access every
    /// cycle) or occupy their port for the full `hit_latency`.
    pub pipelined: bool,
    /// Replacement policy.
    pub policy: Policy,
    /// Hardware prefetcher attached to this cache.
    pub prefetch: PrefetchKind,
    /// Selective-bypass policy (streaming fills skip installation).
    pub bypass: BypassPolicy,
}

impl CacheConfig {
    /// A conventional L1-style configuration: 32 KiB, 8-way, 64 B lines,
    /// 3-cycle hits, 1 port, 1 bank, 4 MSHRs, LRU.
    pub fn l1_default() -> Self {
        CacheConfig {
            size_bytes: 32 << 10,
            assoc: 8,
            line_bytes: 64,
            hit_latency: 3,
            ports: 1,
            banks: 1,
            mshrs: 4,
            targets_per_mshr: 8,
            pipelined: true,
            policy: Policy::Lru,
            prefetch: PrefetchKind::None,
            bypass: BypassPolicy::None,
        }
    }

    /// A conventional shared-L2 configuration: 2 MiB, 16-way, 64 B lines,
    /// 12-cycle hits, 2 ports, 4 banks, 16 MSHRs, LRU.
    pub fn l2_default() -> Self {
        CacheConfig {
            size_bytes: 2 << 20,
            assoc: 16,
            line_bytes: 64,
            hit_latency: 12,
            ports: 2,
            banks: 4,
            mshrs: 16,
            targets_per_mshr: 8,
            pipelined: true,
            policy: Policy::Lru,
            prefetch: PrefetchKind::None,
            bypass: BypassPolicy::None,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / self.line_bytes / self.assoc as u64
    }

    /// The bank an address maps to (line interleaving).
    pub fn bank_of(&self, addr: u64) -> u32 {
        ((addr / self.line_bytes) & (self.banks as u64 - 1)) as u32
    }

    /// The line-aligned address containing `addr`.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }

    /// The set index of `addr`.
    pub fn set_of(&self, addr: u64) -> u64 {
        (addr / self.line_bytes) & (self.sets() - 1)
    }

    /// The tag of `addr` (line address beyond the set index).
    pub fn tag_of(&self, addr: u64) -> u64 {
        addr / self.line_bytes / self.sets()
    }

    /// Validate structural constraints, returning a descriptive message
    /// on violation.
    pub fn validate(&self) -> Result<(), String> {
        if !self.size_bytes.is_power_of_two() {
            return Err(format!(
                "cache size must be a power of two, got {}",
                self.size_bytes
            ));
        }
        if !(self.line_bytes.is_power_of_two() && self.line_bytes >= 8) {
            return Err(format!(
                "line size must be a power of two >= 8, got {}",
                self.line_bytes
            ));
        }
        if !self.assoc.is_power_of_two() {
            return Err(format!(
                "associativity must be a power of two, got {}",
                self.assoc
            ));
        }
        if self.policy == Policy::Plru && self.assoc > 64 {
            return Err(format!(
                "tree-PLRU supports at most 64 ways (one 64-bit tree per set), got {}",
                self.assoc
            ));
        }
        if self.size_bytes < self.line_bytes * self.assoc as u64 {
            return Err(format!(
                "cache too small for one set of {} ways",
                self.assoc
            ));
        }
        if self.hit_latency < 1 {
            return Err("hit latency must be >= 1".into());
        }
        if self.ports < 1 {
            return Err("need at least one port".into());
        }
        if !self.banks.is_power_of_two() {
            return Err(format!("banks must be a power of two, got {}", self.banks));
        }
        if self.mshrs < 1 {
            return Err("need at least one MSHR".into());
        }
        if self.targets_per_mshr < 1 {
            return Err("need at least one target".into());
        }
        Ok(())
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}KiB/{}-way/{}B {}cy {}p/{}b {}mshr {:?}",
            self.size_bytes >> 10,
            self.assoc,
            self.line_bytes,
            self.hit_latency,
            self.ports,
            self.banks,
            self.mshrs,
            self.policy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry() {
        let c = CacheConfig::l1_default();
        c.validate().unwrap();
        assert_eq!(c.sets(), 64);
        let l2 = CacheConfig::l2_default();
        l2.validate().unwrap();
        assert_eq!(l2.sets(), 2048);
    }

    #[test]
    fn address_decomposition_roundtrips() {
        let c = CacheConfig::l1_default();
        for addr in [0u64, 64, 4095, 1 << 20, (1 << 30) + 777] {
            let line = c.line_of(addr);
            assert_eq!(line % 64, 0);
            assert!(addr - line < 64);
            let set = c.set_of(addr);
            assert!(set < c.sets());
            // tag × sets + set re-derives the line index.
            assert_eq!((c.tag_of(addr) * c.sets() + set) * c.line_bytes, line);
        }
    }

    #[test]
    fn banks_partition_lines() {
        let mut c = CacheConfig::l1_default();
        c.banks = 4;
        // Consecutive lines rotate through banks.
        assert_eq!(c.bank_of(0), 0);
        assert_eq!(c.bank_of(64), 1);
        assert_eq!(c.bank_of(128), 2);
        assert_eq!(c.bank_of(192), 3);
        assert_eq!(c.bank_of(256), 0);
        // Same line, same bank regardless of offset.
        assert_eq!(c.bank_of(65), c.bank_of(64));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_size_rejected() {
        let mut c = CacheConfig::l1_default();
        c.size_bytes = 3000;
        c.validate().unwrap();
    }

    #[test]
    fn plru_wider_than_its_tree_is_rejected() {
        let mut c = CacheConfig::l1_default();
        c.policy = Policy::Plru;
        c.size_bytes = 8 << 10; // one set of 128 ways
        c.assoc = 128;
        assert!(c.validate().unwrap_err().contains("at most 64 ways"));
        c.size_bytes = 4 << 10; // one set of 64 ways: the widest tree
        c.assoc = 64;
        c.validate().unwrap();
        let mut a = crate::array::TagArray::new(&c, 0);
        for line in 0..130u64 {
            a.fill(line * 64, false, false);
            assert_eq!(a.access(line * 64, false), Some(false));
        }
        assert_eq!(a.valid_lines(), 64);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn degenerate_geometry_rejected() {
        let mut c = CacheConfig::l1_default();
        c.size_bytes = 256;
        c.assoc = 8;
        c.line_bytes = 64;
        c.validate().unwrap();
    }
}
