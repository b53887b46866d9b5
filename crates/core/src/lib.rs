//! # pipe-core
//!
//! A cycle-level simulator of the PIPE single-chip processor (Goodman et
//! al., ISCA 1985; Farrens & Pleszkun, ISCA 1989).
//!
//! The processor models the architectural features the paper's experiments
//! depend on:
//!
//! * **Decoupled memory access through architectural queues.** A load
//!   pushes its address on the Load Address Queue (LAQ); the value later
//!   arrives on the Load Queue (LDQ), whose head is architecturally visible
//!   as register `r7`. Stores push addresses on the Store Address Queue
//!   (SAQ) and data (any instruction writing `r7`) on the Store Data Queue
//!   (SDQ); address/data pairs are sent to memory together. Multiple
//!   requests can be outstanding; issue blocks only when an instruction
//!   *reads* `r7` before the data has returned.
//! * **Prepare-to-branch (PBR)** with 0–7 compiler-specified delay slots
//!   and eight dedicated branch registers.
//! * **A memory-mapped FPU**: a pair of stores starts an operation whose
//!   result returns into the LDQ after a constant latency.
//! * **Pluggable instruction fetch**: the conventional always-prefetch
//!   cache or the PIPE cache + IQ + IQB strategy (see `pipe-icache`),
//!   selected by [`FetchStrategy`].
//!
//! The performance metric, following the paper, is the total number of
//! cycles to execute a program ([`SimStats::cycles`]).
//!
//! ```
//! use pipe_core::{run_program, SimConfig};
//! use pipe_isa::{Assembler, InstrFormat};
//!
//! let program = Assembler::new(InstrFormat::Fixed32)
//!     .assemble("lim r1, 5\nlbr b0, top\ntop: subi r1, r1, 1\npbr.nez b0, r1, 0\nhalt\n")
//!     .unwrap();
//! let stats = run_program(&program, &SimConfig::default()).unwrap();
//! assert_eq!(stats.instructions_issued, 3 + 5 * 2); // prologue + 5 iterations
//! ```

pub mod config;
pub mod course;
pub mod interp;
pub mod processor;
pub mod queues;
pub mod regfile;
pub mod stats;
pub mod trace;

pub use config::{FetchStrategy, SimConfig, QUEUE_ENTRIES};
pub use course::{Course, Cursor};
pub use interp::{interpret, InterpError, InterpResult, Interpreter, Step};
pub use processor::{run_course, run_decoded, run_program, Processor, SimError};
pub use queues::{AddressQueue, LoadQueue};
pub use regfile::{BranchRegFile, RegFile};
pub use stats::{SimStats, StallBreakdown};
pub use trace::{
    DataOp, IssueTrace, NoTrace, Region, RegionProfiler, Repeat, StallReason, TextTrace,
    TraceEvent, TraceSink, VecTrace,
};
