//! Memory subsystem configuration.

use std::fmt;

use crate::error::{require_at_least, require_multiple_of, ConfigError};

/// Which request class wins ties at the memory interface.
///
/// The paper's simulator "was also able to select whether data or
/// instructions have priority at the memory interface" (§5); all presented
/// results give instruction requests priority over data requests, which is
/// the default here. Demand requests always rank above instruction
/// prefetches, and floating-point results rank between loads/stores and
/// prefetches, exactly as described for the return bus in §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PriorityPolicy {
    /// Demand instruction fetches beat data requests (paper default).
    #[default]
    InstructionFirst,
    /// Data requests beat demand instruction fetches.
    DataFirst,
}

impl fmt::Display for PriorityPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PriorityPolicy::InstructionFirst => f.write_str("instruction-first"),
            PriorityPolicy::DataFirst => f.write_str("data-first"),
        }
    }
}

/// Configuration of the external memory system.
///
/// What the paper fixes is not configurable: a request (an address, plus
/// store data) occupies the output bus for one cycle, and an FPU
/// operation takes [`FPU_LATENCY`](crate::FPU_LATENCY) cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// Cycles between accepting a request and its first response beat
    /// appearing on the input bus (the paper sweeps 1–6).
    pub access_cycles: u32,
    /// If `true`, the memory accepts a new request every cycle; otherwise
    /// it services one request at a time.
    pub pipelined: bool,
    /// Input (return) bus width in bytes delivered per cycle (4 or 8 in the
    /// paper).
    pub in_bus_bytes: u32,
    /// Tie-breaking between instruction and data requests.
    pub priority: PriorityPolicy,
    /// Optional finite external cache (the paper assumes `None`: a 100 %
    /// hit rate). When set, a missing request pays the configured penalty
    /// before its access begins.
    pub external_cache: Option<crate::extcache::ExternalCacheConfig>,
}

impl MemConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first invalid field: zero access time, a zero or odd
    /// input bus width, or an invalid external-cache geometry.
    pub fn validate(&self) -> Result<(), ConfigError> {
        require_at_least("access_cycles", u64::from(self.access_cycles), 1)?;
        require_multiple_of("in_bus_bytes", self.in_bus_bytes, 2)?;
        if let Some(ec) = &self.external_cache {
            ec.validate()?;
        }
        Ok(())
    }
}

impl Default for MemConfig {
    /// The paper's fast-memory baseline: 1-cycle access, non-pipelined,
    /// 4-byte input bus, instruction priority.
    fn default() -> MemConfig {
        MemConfig {
            access_cycles: 1,
            pipelined: false,
            in_bus_bytes: 4,
            priority: PriorityPolicy::InstructionFirst,
            external_cache: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_baseline() {
        let c = MemConfig::default();
        assert_eq!(c.access_cycles, 1);
        assert!(!c.pipelined);
        assert_eq!(c.in_bus_bytes, 4);
        assert_eq!(c.priority, PriorityPolicy::InstructionFirst);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let c = MemConfig {
            access_cycles: 0,
            ..MemConfig::default()
        };
        assert!(c.validate().is_err());

        let c = MemConfig {
            in_bus_bytes: 3,
            ..MemConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
