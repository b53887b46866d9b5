//! Simulation configuration.
//!
//! The fetch front-end is described by `pipe-icache`'s unified
//! [`FetchConfig`](pipe_icache::FetchConfig), re-exported here under its
//! historical name [`FetchStrategy`]. All engine construction goes through
//! [`FetchStrategy::build`]; the processor does not know the individual
//! engine constructors.

use pipe_icache::PipeFetchConfig;
use pipe_mem::error::require_at_least;
use pipe_mem::{ConfigError, MemConfig};

pub use pipe_icache::FetchConfig as FetchStrategy;

/// Entries in each architectural queue: the LAQ, LDQ, SAQ and SDQ.
pub const QUEUE_ENTRIES: usize = 8;

/// Full simulation configuration: memory system and fetch strategy. The
/// architectural queues hold [`QUEUE_ENTRIES`] each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// External memory parameters.
    pub mem: MemConfig,
    /// Instruction fetch front-end.
    pub fetch: FetchStrategy,
    /// Abort the run after this many cycles (guards against deadlock bugs).
    pub max_cycles: u64,
}

impl SimConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid memory/fetch parameters or a
    /// zero cycle budget.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.mem.validate()?;
        self.fetch.validate()?;
        require_at_least("max_cycles", self.max_cycles, 1)
    }
}

impl Default for SimConfig {
    /// The PIPE chip as built: a 128-byte cache of sixteen 8-byte (4-word)
    /// lines with 8-byte IQ and IQB (paper §3.2) and fast external memory.
    fn default() -> SimConfig {
        SimConfig {
            mem: MemConfig::default(),
            fetch: FetchStrategy::Pipe(PipeFetchConfig::table2(128, 8, 8, 8)),
            max_cycles: 500_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipe_icache::CacheConfig;

    #[test]
    fn default_matches_chip() {
        let c = SimConfig::default();
        assert!(c.validate().is_ok());
        match c.fetch {
            FetchStrategy::Pipe(p) => {
                assert_eq!(p.cache.size_bytes, 128);
                assert_eq!(p.cache.line_bytes, 8);
                assert_eq!(p.iq_bytes, 8);
                assert_eq!(p.iqb_bytes, 8);
            }
            other => panic!("unexpected default: {other:?}"),
        }
    }

    #[test]
    fn labels() {
        assert_eq!(FetchStrategy::Perfect.label(), "perfect");
        assert!(FetchStrategy::conventional(CacheConfig::new(64, 16))
            .label()
            .contains("64"));
    }
}
