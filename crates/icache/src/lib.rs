//! # pipe-icache
//!
//! On-chip instruction-fetch engines for the PIPE simulation, reproducing
//! the two strategies compared by Farrens & Pleszkun (ISCA 1989):
//!
//! * [`ConventionalFetch`] — a direct-mapped, sub-blocked instruction cache
//!   driven by Hill's *always-prefetch* strategy (§4.1 of the paper): on
//!   every instruction reference, prefetch the next sequential instruction;
//!   memory requests are one instruction at a time and a new one cannot
//!   begin until the previous finishes.
//! * [`PipeFetch`] — the PIPE strategy (§4.2): the same cache plus an
//!   **instruction queue** (IQ) and **instruction queue buffer** (IQB)
//!   between the cache and the decoder. The IQ holds instructions
//!   guaranteed to execute; the IQB prefetches the next sequential line and
//!   receives branch-target lines early, so a resolved branch whose target
//!   is on-chip causes no supply interruption.
//!
//! Both engines implement [`FetchEngine`], the interface `pipe-core`'s
//! processor drives once per cycle. Two further engines round out the
//! design space: [`TibFetch`], the cache-less Target Instruction Buffer
//! approach the paper's §2.1 contrasts against (AMD29000-style), and
//! [`BufferFetch`], Rau & Rossman's prefetch buffers. [`PerfectFetch`]
//! (instant supply, no memory traffic) serves functional testing.
//!
//! The engines differ only in what they cache and prefetch. What they
//! share lives once in [`engine`]: the prepare-to-branch redirect, which
//! counts the remaining delay-slot instructions down to the switch to the
//! target, and the off-chip request record, which takes its tag on the
//! first offer, counts its acceptance into [`FetchStats`], and describes
//! and shifts its tag for the loop-iteration skip. Every engine reads
//! instructions through the program's [`Image`](pipe_isa::Image), and the
//! queue-based engines pop whole instructions from a [`ParcelQueue`].
//!
//! The cache ([`InstructionCache`]) stores only tags and sub-block valid
//! bits; instruction bytes always come from the immutable program image.
//!
//! ## Driving an engine directly
//!
//! [`FetchConfig::build`] is the one way to construct an engine: it
//! validates the configuration and returns the engine boxed. Engines are
//! usually driven by `pipe-core`'s processor, but can be exercised
//! standalone against a memory system:
//!
//! ```
//! use pipe_icache::{FetchConfig, PipeFetchConfig};
//! use pipe_isa::{Assembler, InstrFormat};
//! use pipe_mem::{BeatSource, MemConfig, MemorySystem};
//!
//! let program = Assembler::new(InstrFormat::Fixed32)
//!     .assemble("nop\nnop\nhalt\n")
//!     .unwrap();
//! let mut engine = FetchConfig::Pipe(PipeFetchConfig::table2(64, 16, 16, 16))
//!     .build(&program)
//!     .unwrap();
//! let mut mem = MemorySystem::new(MemConfig::default());
//!
//! let mut delivered = 0;
//! while delivered < 3 {
//!     engine.offer_requests(&mut mem);
//!     let out = mem.tick();
//!     if let Some(tag) = out.accepted {
//!         engine.on_accepted(tag);
//!     }
//!     if let Some(beat) = &out.beats {
//!         if matches!(beat.source, BeatSource::IFetch | BeatSource::IPrefetch) {
//!             engine.on_beat(beat);
//!         }
//!     }
//!     engine.advance();
//!     if engine.peek_index().is_some() {
//!         engine.consume();
//!         delivered += 1;
//!     }
//! }
//! assert_eq!(engine.stats().instructions_delivered, 3);
//! ```

pub mod buffers;
pub mod builder;
pub mod cache;
pub mod conventional;
pub mod engine;
pub mod perfect;
pub mod pipe_fetch;
pub mod queue;
pub mod repeat;
pub mod replay;
pub mod stats;
pub mod tib;

pub use buffers::{BufferConfig, BufferFetch};
pub use builder::FetchConfig;
pub use cache::{CacheConfig, InstructionCache};
pub use conventional::{ConvPrefetch, ConventionalConfig, ConventionalFetch};
pub use engine::FetchEngine;
pub use perfect::PerfectFetch;
pub use pipe_fetch::{PipeFetch, PipeFetchConfig, PrefetchPolicy};
pub use pipe_mem::ConfigError;
pub use queue::ParcelQueue;
pub use replay::{ReplayBranch, ReplayError, ReplayHarness, ReplayOp, ReplayStats, ReplayStep};
pub use stats::FetchStats;
pub use tib::{TibConfig, TibFetch};
