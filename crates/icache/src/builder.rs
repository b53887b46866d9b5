//! Unified construction of fetch engines.
//!
//! Historically each engine had its own ad-hoc entry point
//! (`PipeFetch::new` + `PipeFetchConfig::table2`,
//! `ConventionalFetch::with_prefetch`, `TibFetch::new`, ...). This module
//! replaces that fragmentation with two layers:
//!
//! * [`FetchConfig`] — one value describing *any* fetch front-end. It is
//!   the single source of truth the processor, the experiment matrix, and
//!   the CLIs all construct engines from, via
//!   [`FetchConfig::build`].
//! * [`EngineBuilder`] — a fluent builder over a [`FetchKind`] that
//!   resolves defaults (queue sizes default to the line size, sub-blocks
//!   to 4 bytes) and validates before producing a [`FetchConfig`] or a
//!   boxed engine directly.
//!
//! ```
//! use pipe_icache::{EngineBuilder, FetchKind};
//! use pipe_isa::{Assembler, InstrFormat};
//!
//! let program = Assembler::new(InstrFormat::Fixed32)
//!     .assemble("nop\nhalt\n")
//!     .unwrap();
//! let engine = EngineBuilder::new(FetchKind::Pipe)
//!     .cache_bytes(64)
//!     .line_bytes(16)
//!     .build(&program)
//!     .unwrap();
//! assert_eq!(engine.name(), "pipe");
//! ```

use pipe_isa::Program;
use pipe_mem::ConfigError;

use crate::buffers::{BufferConfig, BufferFetch};
use crate::cache::CacheConfig;
use crate::conventional::{ConvPrefetch, ConventionalConfig, ConventionalFetch};
use crate::engine::FetchEngine;
use crate::perfect::PerfectFetch;
use crate::pipe_fetch::{PipeFetch, PipeFetchConfig, PrefetchPolicy};
use crate::tib::{TibConfig, TibFetch};

/// The five fetch front-ends, without their parameters. Use
/// [`EngineBuilder`] to attach geometry and produce a [`FetchConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchKind {
    /// Perfect fetch: one instruction per cycle, no memory traffic.
    Perfect,
    /// Hill's conventional cache (paper §4.1).
    Conventional,
    /// The PIPE cache + IQ + IQB strategy (paper §4.2).
    Pipe,
    /// A cache-less Target Instruction Buffer (paper §2.1).
    Tib,
    /// Rau & Rossman-style prefetch buffers (paper §2.1).
    Buffers,
}

impl FetchKind {
    /// All kinds, in presentation order.
    pub const ALL: [FetchKind; 5] = [
        FetchKind::Perfect,
        FetchKind::Conventional,
        FetchKind::Pipe,
        FetchKind::Tib,
        FetchKind::Buffers,
    ];

    /// Parses a CLI-style name ("pipe", "conventional", "tib", "buffers",
    /// "perfect").
    pub fn parse(s: &str) -> Option<FetchKind> {
        match s {
            "perfect" => Some(FetchKind::Perfect),
            "conventional" => Some(FetchKind::Conventional),
            "pipe" => Some(FetchKind::Pipe),
            "tib" => Some(FetchKind::Tib),
            "buffers" => Some(FetchKind::Buffers),
            _ => None,
        }
    }

    /// The engine's short name ("pipe", "conventional", ...).
    pub fn name(self) -> &'static str {
        match self {
            FetchKind::Perfect => "perfect",
            FetchKind::Conventional => "conventional",
            FetchKind::Pipe => "pipe",
            FetchKind::Tib => "tib",
            FetchKind::Buffers => "buffers",
        }
    }
}

impl std::fmt::Display for FetchKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

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

    /// The engine kind this configuration describes.
    pub fn kind(&self) -> FetchKind {
        match self {
            FetchConfig::Perfect => FetchKind::Perfect,
            FetchConfig::Conventional(_) => FetchKind::Conventional,
            FetchConfig::Pipe(_) => FetchKind::Pipe,
            FetchConfig::Tib(_) => FetchKind::Tib,
            FetchConfig::Buffers(_) => FetchKind::Buffers,
        }
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
    /// it includes sub-block sizes, prefetch policies, and partial-line
    /// flags, so two configs hash equal only if they simulate identically.
    pub fn cache_key(&self) -> String {
        match self {
            FetchConfig::Perfect => "perfect".to_string(),
            FetchConfig::Conventional(c) => format!(
                "conventional:size={},line={},sub={},prefetch={}",
                c.cache.size_bytes, c.cache.line_bytes, c.cache.subblock_bytes, c.prefetch
            ),
            FetchConfig::Pipe(c) => format!(
                "pipe:size={},line={},sub={},iq={},iqb={},policy={},partial={}",
                c.cache.size_bytes,
                c.cache.line_bytes,
                c.cache.subblock_bytes,
                c.iq_bytes,
                c.iqb_bytes,
                c.policy,
                c.partial_lines
            ),
            FetchConfig::Tib(c) => format!(
                "tib:entries={},entry={},queue={}",
                c.entries, c.entry_bytes, c.fetch_queue_bytes
            ),
            FetchConfig::Buffers(c) => match c.cache {
                Some(cache) => format!(
                    "buffers:n={},cache={},line={},sub={}",
                    c.buffers, cache.size_bytes, cache.line_bytes, cache.subblock_bytes
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

/// Fluent construction of any fetch engine from one set of knobs.
///
/// Unset knobs resolve to sensible defaults at
/// [`config`](EngineBuilder::config) time: the cache defaults to 128 bytes
/// of 16-byte lines with 4-byte sub-blocks, PIPE queue sizes default to
/// the line size (the chip's design point), the TIB divides the cache
/// budget into line-sized entries, and the buffer engine gets four
/// buffers and no cache. Irrelevant knobs (e.g. `iq_bytes` for a
/// conventional cache) are ignored, which lets one builder drive a sweep
/// across kinds.
#[derive(Debug, Clone, Copy)]
pub struct EngineBuilder {
    kind: FetchKind,
    cache_bytes: u32,
    line_bytes: u32,
    subblock_bytes: u32,
    iq_bytes: Option<u32>,
    iqb_bytes: Option<u32>,
    policy: PrefetchPolicy,
    prefetch: ConvPrefetch,
    partial_lines: bool,
    buffers: u32,
    /// `Some(0)` means "no cache" for the buffer engine.
    buffer_cache: bool,
}

impl EngineBuilder {
    /// Starts a builder for `kind` with the default geometry.
    pub fn new(kind: FetchKind) -> EngineBuilder {
        EngineBuilder {
            kind,
            cache_bytes: 128,
            line_bytes: 16,
            subblock_bytes: 4,
            iq_bytes: None,
            iqb_bytes: None,
            policy: PrefetchPolicy::TruePrefetch,
            prefetch: ConvPrefetch::Always,
            partial_lines: false,
            buffers: 4,
            buffer_cache: false,
        }
    }

    /// Cache capacity in bytes (TIB: total hardware budget).
    pub fn cache_bytes(mut self, bytes: u32) -> EngineBuilder {
        self.cache_bytes = bytes;
        self
    }

    /// Cache line size in bytes (TIB: entry size).
    pub fn line_bytes(mut self, bytes: u32) -> EngineBuilder {
        self.line_bytes = bytes;
        self
    }

    /// Sub-block (valid-bit granularity) size in bytes.
    pub fn subblock_bytes(mut self, bytes: u32) -> EngineBuilder {
        self.subblock_bytes = bytes;
        self
    }

    /// PIPE instruction-queue capacity in bytes (defaults to the line
    /// size).
    pub fn iq_bytes(mut self, bytes: u32) -> EngineBuilder {
        self.iq_bytes = Some(bytes);
        self
    }

    /// PIPE instruction-queue-buffer capacity in bytes (defaults to the
    /// line size).
    pub fn iqb_bytes(mut self, bytes: u32) -> EngineBuilder {
        self.iqb_bytes = Some(bytes);
        self
    }

    /// PIPE off-chip prefetch gating policy.
    pub fn policy(mut self, policy: PrefetchPolicy) -> EngineBuilder {
        self.policy = policy;
        self
    }

    /// Conventional-cache prefetch strategy.
    pub fn prefetch(mut self, prefetch: ConvPrefetch) -> EngineBuilder {
        self.prefetch = prefetch;
        self
    }

    /// PIPE partial-line (tail-only) off-chip fetches.
    pub fn partial_lines(mut self, enabled: bool) -> EngineBuilder {
        self.partial_lines = enabled;
        self
    }

    /// Number of prefetch buffers for the buffer engine; also controls
    /// whether the buffer engine probes a cache (`with_cache`).
    pub fn buffers(mut self, count: u32) -> EngineBuilder {
        self.buffers = count;
        self
    }

    /// Gives the buffer engine an instruction cache of the configured
    /// geometry (by default it has none).
    pub fn buffer_cache(mut self, enabled: bool) -> EngineBuilder {
        self.buffer_cache = enabled;
        self
    }

    /// Resolves defaults and produces the validated [`FetchConfig`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first invalid parameter.
    pub fn config(&self) -> Result<FetchConfig, ConfigError> {
        let cache = CacheConfig {
            size_bytes: self.cache_bytes,
            line_bytes: self.line_bytes,
            subblock_bytes: self.subblock_bytes,
        };
        let cfg = match self.kind {
            FetchKind::Perfect => FetchConfig::Perfect,
            FetchKind::Conventional => FetchConfig::Conventional(ConventionalConfig {
                cache,
                prefetch: self.prefetch,
            }),
            FetchKind::Pipe => FetchConfig::Pipe(PipeFetchConfig {
                cache,
                iq_bytes: self.iq_bytes.unwrap_or(self.line_bytes),
                iqb_bytes: self.iqb_bytes.unwrap_or(self.line_bytes),
                policy: self.policy,
                partial_lines: self.partial_lines,
            }),
            FetchKind::Tib => {
                FetchConfig::Tib(TibConfig::with_budget(self.cache_bytes, self.line_bytes))
            }
            FetchKind::Buffers => FetchConfig::Buffers(BufferConfig {
                buffers: self.buffers,
                cache: self.buffer_cache.then_some(cache),
            }),
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Builds the engine directly over `program`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first invalid parameter.
    pub fn build(&self, program: &Program) -> Result<Box<dyn FetchEngine>, ConfigError> {
        self.config()?.build(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipe_isa::{Assembler, InstrFormat};

    fn program() -> Program {
        Assembler::new(InstrFormat::Fixed32)
            .assemble("nop\nnop\nhalt\n")
            .unwrap()
    }

    #[test]
    fn builder_constructs_every_kind() {
        let p = program();
        for kind in FetchKind::ALL {
            let engine = EngineBuilder::new(kind)
                .cache_bytes(64)
                .line_bytes(16)
                .build(&p)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            // Engine names elaborate on the kind (e.g. "prefetch-buffers").
            assert!(
                engine.name().contains(kind.name()),
                "{} !~ {}",
                engine.name(),
                kind.name()
            );
        }
    }

    #[test]
    fn pipe_queues_default_to_line_size() {
        let cfg = EngineBuilder::new(FetchKind::Pipe)
            .cache_bytes(128)
            .line_bytes(32)
            .config()
            .unwrap();
        match cfg {
            FetchConfig::Pipe(c) => {
                assert_eq!(c.iq_bytes, 32);
                assert_eq!(c.iqb_bytes, 32);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn invalid_geometry_is_typed() {
        let err = EngineBuilder::new(FetchKind::Conventional)
            .cache_bytes(8)
            .line_bytes(16)
            .config()
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
            EngineBuilder::new(FetchKind::Conventional)
                .cache_bytes(96)
                .config(),
            Err(ConfigError::NotPowerOfTwo {
                field: "size_bytes",
                value: 96
            })
        ));
        // Exceeds: line larger than the cache (asserted exactly in
        // `invalid_geometry_is_typed`).
        assert!(EngineBuilder::new(FetchKind::Pipe)
            .cache_bytes(8)
            .line_bytes(16)
            .config()
            .is_err());
        // NotMultipleOf: a PIPE queue that can't hold whole parcels.
        assert!(matches!(
            EngineBuilder::new(FetchKind::Pipe).iq_bytes(3).config(),
            Err(ConfigError::NotMultipleOf {
                field: "iq_bytes",
                value: 3,
                ..
            })
        ));
        // TooSmall: a buffer engine with zero buffers.
        assert!(matches!(
            EngineBuilder::new(FetchKind::Buffers).buffers(0).config(),
            Err(ConfigError::TooSmall {
                field: "buffers",
                value: 0,
                min: 1
            })
        ));
    }

    #[test]
    fn errors_display_and_implement_std_error() {
        let err = EngineBuilder::new(FetchKind::Conventional)
            .cache_bytes(96)
            .config()
            .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("size_bytes") && text.contains("96"), "{text}");
        let _: &dyn std::error::Error = &err;
    }

    #[test]
    fn kind_parse_round_trips() {
        for kind in FetchKind::ALL {
            assert_eq!(FetchKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(FetchKind::parse("warp"), None);
    }

    #[test]
    fn cache_keys_distinguish_configs() {
        let a = EngineBuilder::new(FetchKind::Pipe).config().unwrap();
        let b = EngineBuilder::new(FetchKind::Pipe)
            .partial_lines(true)
            .config()
            .unwrap();
        assert_ne!(a.cache_key(), b.cache_key());
        assert_eq!(a.label(), b.label(), "label intentionally coarser");
    }
}
