//! # pipe-trace
//!
//! Instruction-trace capture and replay for the PIPE simulation.
//!
//! The paper's evaluation drives each fetch engine through the full
//! functional core on a single Livermore run. This crate decouples the
//! two: a run is **recorded** once into a compact binary trace, then
//! **replayed** directly through any [`FetchEngine`] — conventional,
//! PIPE IQ/IQB, perfect — without the functional core, the way modern
//! instruction-supply studies are evaluated trace-driven.
//!
//! Three layers:
//!
//! * **Format** ([`TraceWriter`] / [`TraceReader`]) — a versioned `.ptr`
//!   container: varint delta-encoded per-instruction records grouped
//!   into CRC-32-protected blocks, streamed in both directions so a
//!   trace of any length needs constant memory. Corruption surfaces as
//!   a typed [`TraceError`], never a panic.
//! * **Capture** ([`TraceRecorder`]) — a `pipe_core::TraceSink` that
//!   records fetch addresses, non-fetch stall gaps, data-side memory
//!   operations, and branch/PBR resolutions from a live simulation.
//! * **Replay** ([`replay_trace`]) — feeds recorded traces through
//!   `pipe_icache::ReplayHarness`. Replaying a trace under its recorded
//!   engine and memory configuration reproduces the original run's
//!   fetch-stall cycle count bit-identically; replaying under a
//!   different front-end is the subsystem's purpose.
//!
//! No figure, claim check or study reads a trace: every paper result is
//! execution-driven through `Processor::run`. The library is driven from
//! code only — perfbench's `scalar` workload and
//! `examples/trace_replay.rs` record and replay `.ptr` files through it.
//!
//! ```
//! use pipe_core::{Processor, SimConfig};
//! use pipe_trace::{
//!     program_fnv, replay_trace, TraceMeta, TraceReader, TraceRecorder,
//! };
//! use pipe_isa::{Assembler, InstrFormat};
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! let program = Assembler::new(InstrFormat::Fixed32)
//!     .assemble("lim r1, 3\ntop: subi r1, r1, 1\nlbr b0, top\npbr.nez b0, r1, 0\nhalt\n")
//!     .unwrap();
//! let config = SimConfig::default();
//!
//! // Record a run.
//! let meta = TraceMeta {
//!     workload: "example".into(),
//!     program_fnv: program_fnv(&program),
//!     entry_pc: program.entry(),
//!     fetch_key: config.fetch.cache_key(),
//!     mem_key: "default".into(),
//! };
//! let rec = Rc::new(RefCell::new(TraceRecorder::new(Vec::new(), &meta).unwrap()));
//! let mut proc = Processor::new(&program, &config).unwrap().with_trace(Rc::clone(&rec));
//! proc.run().unwrap();
//! let (bytes, _) = rec.borrow_mut().finish(proc.stats().cycles).unwrap();
//!
//! // Replay it through the same front-end: bit-identical fetch stalls.
//! let outcome = replay_trace(
//!     TraceReader::new(&bytes[..]).unwrap(),
//!     &program,
//!     &config.fetch,
//!     &config.mem,
//! )
//! .unwrap();
//! assert!(outcome.matches_recording());
//! assert_eq!(outcome.stats.ifetch_stalls, proc.stats().stalls.ifetch);
//! ```
//!
//! [`FetchEngine`]: pipe_icache::FetchEngine

pub mod crc32;
pub mod format;
pub mod reader;
pub mod recorder;
pub mod replay;
pub mod varint;
pub mod writer;

pub use format::{
    fnv1a64, program_fnv, Fnv64, TraceError, TraceMeta, TraceSummary, FORMAT_VERSION, MAGIC,
};
pub use reader::TraceReader;
pub use recorder::TraceRecorder;
pub use replay::{file_fnv, replay_trace, ReplayOutcome, ReplayTraceError};
pub use writer::TraceWriter;
