//! One value describing any fetch front end.
//!
//! [`FetchConfig`] names the engine and carries its parameters. It is the
//! single description the processor, the experiment matrix and the CLIs
//! build engines from, through [`FetchConfig::build`], which validates
//! first. Callers pick the variant and its geometry themselves: the
//! engines' own config types (`PipeFetchConfig::table2`,
//! `TibConfig::with_budget`, ...) hold the defaults.
//!
//! ```
//! use pipe_icache::{FetchConfig, PipeFetchConfig};
//! use pipe_isa::{Assembler, InstrFormat};
//!
//! let program = Assembler::new(InstrFormat::Fixed32)
//!     .assemble("nop\nhalt\n")
//!     .unwrap();
//! let engine = FetchConfig::Pipe(PipeFetchConfig::table2(64, 16, 16, 16))
//!     .build(&program)
//!     .unwrap();
//! assert_eq!(engine.name(), "pipe");
//! ```

use pipe_isa::Program;
use pipe_mem::ConfigError;

use crate::buffers::{BufferConfig, BufferFetch};
use crate::cache::{CacheConfig, SUBBLOCK_BYTES};
use crate::conventional::{ConvPrefetch, ConventionalConfig, ConventionalFetch};
use crate::engine::FetchEngine;
use crate::perfect::PerfectFetch;
use crate::pipe_fetch::{PipeFetch, PipeFetchConfig};
use crate::tib::{TibConfig, TibFetch};

/// Complete description of an instruction-fetch front-end: which engine,
/// with which parameters. Every engine in the simulator is constructed
/// from one of these via [`FetchConfig::build`]; `pipe-core` re-exports
/// this type as `FetchStrategy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchConfig {
    /// Perfect fetch: one instruction per cycle, no memory traffic. For
    /// functional testing and upper-bound comparisons.
    Perfect,
    /// Hill's conventional cache with a prefetch strategy (paper §4.1).
    Conventional(ConventionalConfig),
    /// The PIPE cache + IQ + IQB strategy (paper §4.2).
    Pipe(PipeFetchConfig),
    /// A cache-less Target Instruction Buffer (paper §2.1, AMD29000
    /// style).
    Tib(TibConfig),
    /// Rau & Rossman-style prefetch buffers with an optional instruction
    /// cache (paper §2.1).
    Buffers(BufferConfig),
}

impl FetchConfig {
    /// The paper's conventional cache (always-prefetch) over `cache`.
    pub fn conventional(cache: CacheConfig) -> FetchConfig {
        FetchConfig::Conventional(ConventionalConfig::new(cache))
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the underlying config type's [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            FetchConfig::Perfect => Ok(()),
            FetchConfig::Conventional(c) => c.validate(),
            FetchConfig::Pipe(c) => c.validate(),
            FetchConfig::Tib(c) => c.validate(),
            FetchConfig::Buffers(c) => c.validate(),
        }
    }

    /// Constructs the configured engine over `program`. This is the single
    /// construction path used by the processor, the experiment harness,
    /// and the CLIs.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration fails
    /// [`validate`](FetchConfig::validate).
    pub fn build(&self, program: &Program) -> Result<Box<dyn FetchEngine>, ConfigError> {
        self.validate()?;
        Ok(match *self {
            FetchConfig::Perfect => Box::new(PerfectFetch::new(program)),
            FetchConfig::Conventional(cfg) => Box::new(ConventionalFetch::new(program, cfg)),
            FetchConfig::Pipe(cfg) => Box::new(PipeFetch::new(program, cfg)),
            FetchConfig::Tib(cfg) => Box::new(TibFetch::new(program, cfg)),
            FetchConfig::Buffers(cfg) => Box::new(BufferFetch::new(program, cfg)),
        })
    }

    /// A short name for reports.
    pub fn label(&self) -> String {
        match self {
            FetchConfig::Perfect => "perfect".to_string(),
            FetchConfig::Conventional(c) => match c.prefetch {
                ConvPrefetch::Always => format!("conventional({}B)", c.cache.size_bytes),
                p => format!("conventional({}B, {p})", c.cache.size_bytes),
            },
            FetchConfig::Pipe(c) => format!(
                "pipe({}B, line {}, iq {}, iqb {})",
                c.cache.size_bytes, c.cache.line_bytes, c.iq_bytes, c.iqb_bytes
            ),
            FetchConfig::Tib(c) => {
                format!("tib({}x{}B)", c.entries, c.entry_bytes)
            }
            FetchConfig::Buffers(c) => match c.cache {
                Some(cache) => format!("buffers({}x4B + {}B cache)", c.buffers, cache.size_bytes),
                None => format!("buffers({}x4B)", c.buffers),
            },
        }
    }

    /// A canonical single-line description covering *every* parameter, for
    /// sweep-point keys and trace headers. Unlike [`label`](FetchConfig::label)
    /// it includes the sub-block size, prefetch policies, and partial-line
    /// flags, so two configs hash equal only if they simulate identically.
    /// The fixed sub-block size and the TIB's derived fetch queue are in
    /// the text too, because recorded trace headers carry it.
    pub fn cache_key(&self) -> String {
        match self {
            FetchConfig::Perfect => "perfect".to_string(),
            FetchConfig::Conventional(c) => format!(
                "conventional:size={},line={},sub={},prefetch={}",
                c.cache.size_bytes, c.cache.line_bytes, SUBBLOCK_BYTES, c.prefetch
            ),
            FetchConfig::Pipe(c) => format!(
                "pipe:size={},line={},sub={},iq={},iqb={},policy={},partial={}",
                c.cache.size_bytes,
                c.cache.line_bytes,
                SUBBLOCK_BYTES,
                c.iq_bytes,
                c.iqb_bytes,
                c.policy,
                c.partial_lines
            ),
            FetchConfig::Tib(c) => format!(
                "tib:entries={},entry={},queue={}",
                c.entries,
                c.entry_bytes,
                c.fetch_queue_bytes()
            ),
            FetchConfig::Buffers(c) => match c.cache {
                Some(cache) => format!(
                    "buffers:n={},cache={},line={},sub={}",
                    c.buffers, cache.size_bytes, cache.line_bytes, SUBBLOCK_BYTES
                ),
                None => format!("buffers:n={},cache=none", c.buffers),
            },
        }
    }
}

impl std::fmt::Display for FetchConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipe_isa::{Assembler, InstrFormat};

    #[test]
    fn builder_constructs_every_kind() {
        let p = Assembler::new(InstrFormat::Fixed32)
            .assemble("nop\nnop\nhalt\n")
            .unwrap();
        let cache = CacheConfig::new(64, 16);
        for cfg in [
            FetchConfig::Perfect,
            FetchConfig::conventional(cache),
            FetchConfig::Pipe(PipeFetchConfig::table2(64, 16, 16, 16)),
            FetchConfig::Tib(TibConfig::with_budget(64, 16)),
            FetchConfig::Buffers(BufferConfig {
                buffers: 4,
                cache: Some(cache),
            }),
        ] {
            let engine = cfg.build(&p).unwrap_or_else(|e| panic!("{cfg}: {e}"));
            // Engine names elaborate on the kind (e.g. "prefetch-buffers").
            let kind = cfg.label();
            let kind = kind.split('(').next().unwrap();
            assert!(engine.name().contains(kind), "{} !~ {kind}", engine.name());
        }
    }

    #[test]
    fn invalid_geometry_is_typed() {
        let err = FetchConfig::conventional(CacheConfig::new(8, 16))
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::Exceeds {
                field: "line_bytes",
                value: 16,
                limit_field: "size_bytes",
                limit: 8,
            }
        );
    }

    #[test]
    fn every_config_error_variant_is_reachable() {
        // NotPowerOfTwo: a 96-byte cache.
        assert!(matches!(
            FetchConfig::conventional(CacheConfig::new(96, 16)).validate(),
            Err(ConfigError::NotPowerOfTwo {
                field: "size_bytes",
                value: 96
            })
        ));
        // Exceeds: line larger than the cache (asserted exactly in
        // `invalid_geometry_is_typed`).
        assert!(FetchConfig::Pipe(PipeFetchConfig::table2(8, 16, 16, 16))
            .validate()
            .is_err());
        // NotMultipleOf: a PIPE queue that can't hold whole parcels.
        assert!(matches!(
            FetchConfig::Pipe(PipeFetchConfig::table2(128, 16, 3, 16)).validate(),
            Err(ConfigError::NotMultipleOf {
                field: "iq_bytes",
                value: 3,
                ..
            })
        ));
        // TooSmall: a buffer engine with zero buffers.
        assert!(matches!(
            FetchConfig::Buffers(BufferConfig {
                buffers: 0,
                cache: None
            })
            .validate(),
            Err(ConfigError::TooSmall {
                field: "buffers",
                value: 0,
                min: 1
            })
        ));
    }

    #[test]
    fn errors_display_and_implement_std_error() {
        let err = FetchConfig::conventional(CacheConfig::new(96, 16))
            .validate()
            .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("size_bytes") && text.contains("96"), "{text}");
        let _: &dyn std::error::Error = &err;
    }

    #[test]
    fn cache_keys_distinguish_configs() {
        let a = PipeFetchConfig::table2(128, 16, 16, 16);
        let b = PipeFetchConfig {
            partial_lines: true,
            ..a
        };
        let (a, b) = (FetchConfig::Pipe(a), FetchConfig::Pipe(b));
        assert_ne!(a.cache_key(), b.cache_key());
        assert_eq!(a.label(), b.label(), "label intentionally coarser");
    }

    /// Sweep job keys and recorded trace headers carry these strings, and
    /// perfbench's `scalar` workload adds the trace's `trace.bytes` into
    /// its exact-output gate: a changed key fails that gate. Fixed facts
    /// of the machine (the 4-byte sub-block, the TIB's fetch queue) stay in
    /// the text although no field sets them.
    #[test]
    fn cache_keys_are_pinned() {
        let cache = CacheConfig::new(64, 16);
        let cases = [
            (FetchConfig::Perfect, "perfect"),
            (
                FetchConfig::conventional(cache),
                "conventional:size=64,line=16,sub=4,prefetch=always-prefetch",
            ),
            (
                FetchConfig::Pipe(PipeFetchConfig::table2(64, 16, 16, 32)),
                "pipe:size=64,line=16,sub=4,iq=16,iqb=32,policy=true-prefetch,partial=false",
            ),
            (
                FetchConfig::Tib(TibConfig::with_budget(64, 8)),
                "tib:entries=8,entry=8,queue=16",
            ),
            (
                FetchConfig::Tib(TibConfig::with_budget(64, 32)),
                "tib:entries=2,entry=32,queue=32",
            ),
            (
                FetchConfig::Buffers(BufferConfig {
                    buffers: 2,
                    cache: Some(cache),
                }),
                "buffers:n=2,cache=64,line=16,sub=4",
            ),
            (
                FetchConfig::Buffers(BufferConfig {
                    buffers: 4,
                    cache: None,
                }),
                "buffers:n=4,cache=none",
            ),
        ];
        for (config, key) in cases {
            assert_eq!(config.cache_key(), key);
        }
    }
}
