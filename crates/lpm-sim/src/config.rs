//! Whole-system configuration.

use lpm_cache::CacheConfig;
use lpm_cpu::CoreConfig;
use lpm_dram::DramConfig;

/// Configuration of a single-core system (or of one core slot plus the
/// shared levels of a CMP).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Out-of-order core sizing.
    pub core: CoreConfig,
    /// Private L1 data cache.
    pub l1: CacheConfig,
    /// Shared L2 (the last-level cache in the paper's study).
    pub l2: CacheConfig,
    /// Optional shared L3 below the L2 (an extension beyond the paper's
    /// two-cache hierarchy).
    pub l3: Option<CacheConfig>,
    /// Main memory.
    pub dram: DramConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            core: CoreConfig::small(),
            l1: CacheConfig::l1_default(),
            l2: CacheConfig::l2_default(),
            l3: None,
            dram: DramConfig::ddr3_default(),
        }
    }
}

impl SystemConfig {
    /// Validate all components, returning a descriptive message on
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        self.core.validate()?;
        self.l1.validate()?;
        self.l2.validate()?;
        self.dram.validate()?;
        if self.l1.line_bytes != self.l2.line_bytes {
            return Err("mixed line sizes between levels are not modelled".into());
        }
        if let Some(l3) = &self.l3 {
            l3.validate()?;
            if l3.line_bytes != self.l2.line_bytes {
                return Err("mixed line sizes between levels are not modelled".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        SystemConfig::default().validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "mixed line sizes")]
    fn mixed_line_sizes_rejected() {
        let mut c = SystemConfig::default();
        c.l2.line_bytes = 128;
        c.validate().unwrap();
    }
}
