//! # pipe-mem
//!
//! The external memory subsystem of the PIPE simulation, reproducing the
//! model in Figure 3 of Farrens & Pleszkun (ISCA 1989):
//!
//! * A large external cache with a **100 % hit rate** and a configurable
//!   access time (1–6 cycles in the paper's sweeps).
//! * Separate **input and output buses** connecting the processor chip to
//!   the external cache. The input (return) bus has a configurable width in
//!   bytes per cycle; responses *stream* over it, so a consumer may use the
//!   first beats of a cache line before the line has fully arrived.
//! * Optional **pipelining**: a pipelined memory accepts a new request every
//!   cycle; a non-pipelined memory services one request at a time.
//! * **Bus arbitration** (paper §5): data and instruction loads and stores
//!   have precedence, followed by floating-point results, with instruction
//!   prefetches last. Whether demand instruction fetches rank above or
//!   below data requests is the [`PriorityPolicy`] parameter; the paper's
//!   presented results give instructions priority.
//! * A **memory-mapped floating-point unit**: the processor has no FP
//!   hardware, so a pair of data stores to the FPU window triggers an
//!   operation whose result returns over the input bus after a constant
//!   latency (4 cycles in the paper).
//!
//! The memory system models *timing* only: instruction bytes are owned by
//! the fetch engines (`pipe-icache`), and data values — the
//! [`DataMemory`] image, the FPU's operand latch and its results — by the
//! timing-free interpreter of `pipe-core`, whose loads and stores drain in
//! program order as the processor's do.
//!
//! ## Usage sketch
//!
//! ```
//! use pipe_mem::{MemConfig, MemorySystem, MemRequest, ReqClass};
//!
//! let mut mem = MemorySystem::new(MemConfig::default());
//! mem.offer(MemRequest::load(ReqClass::DataLoad, 0x1000, 4));
//! let out = mem.tick(); // cycle 0: request accepted
//! assert_eq!(out.accepted, Some(ReqClass::DataLoad));
//! let out = mem.tick(); // cycle 1 (access time 1): data beat arrives
//! assert!(out.beats.unwrap().last);
//! ```
//!
//! Requests and beats carry no tags: memory answers reads in the order it
//! accepted them, so a client routes each beat to its oldest accepted
//! read of that source. Every component keeps its timing state relative
//! (countdowns, not deadlines), so the loop-iteration skip's key is that
//! state written into a [`TimingKey`].

pub mod config;
pub mod data;
pub mod error;
pub mod extcache;
pub mod fpu;
pub mod request;
pub mod stats;
pub mod system;
pub mod timing;

pub use config::{MemConfig, PriorityPolicy};
pub use data::DataMemory;
pub use error::ConfigError;
pub use extcache::{ExternalCache, ExternalCacheConfig};
pub use fpu::{is_fpu_address, FpOp, Fpu, FPU_BASE, FPU_LATENCY};
pub use request::{Beat, BeatSource, MemRequest, ReqClass};
pub use stats::MemStats;
pub use system::{MemorySystem, TickOutput};
pub use timing::{TimingKey, Untimed};
