//! # pipe-repro
//!
//! Facade crate for the reproduction of Farrens & Pleszkun, *Improving
//! Performance of Small On-Chip Instruction Caches* (ISCA 1989).
//!
//! This crate re-exports the workspace's public API so applications can
//! depend on a single crate:
//!
//! * [`isa`] — the PIPE instruction set, assembler and program builder.
//! * [`mem`] — the external memory subsystem (buses, arbitration, FPU).
//! * [`icache`] — the on-chip instruction fetch engines (conventional
//!   always-prefetch and the PIPE cache + IQ + IQB strategy).
//! * [`core`] — the cycle-level PIPE processor simulator.
//! * [`workloads`] — the 14 Lawrence Livermore kernels and synthetic
//!   workloads.
//! * [`trace`] — record runs as compact binary traces and replay them
//!   through any fetch engine.
//! * [`experiments`] — the harness that regenerates every table and figure
//!   of the paper.
//!
//! ## Quickstart
//!
//! ```
//! use pipe_repro::prelude::*;
//!
//! // Assemble a tiny program, run it on the PIPE fetch strategy.
//! let program = Assembler::new(InstrFormat::Fixed32)
//!     .assemble("lim r1, 5\nlbr b0, top\ntop: subi r1, r1, 1\npbr.nez b0, r1, 0\nhalt\n")
//!     .unwrap();
//! let config = SimConfig::default();
//! let stats = run_program(&program, &config).unwrap();
//! assert!(stats.instructions_issued > 0);
//! ```

pub use pipe_core as core;
pub use pipe_experiments as experiments;
pub use pipe_icache as icache;
pub use pipe_isa as isa;
pub use pipe_mem as mem;
pub use pipe_trace as trace;
pub use pipe_workloads as workloads;

/// Convenient single-import surface for examples and tests.
pub mod prelude {
    pub use pipe_core::{interpret, run_program, FetchStrategy, Processor, SimConfig, SimStats};
    pub use pipe_icache::{CacheConfig, PipeFetchConfig, PrefetchPolicy};
    pub use pipe_isa::{
        AluOp, Assembler, BranchReg, Cond, InstrFormat, Instruction, Program, ProgramBuilder, Reg,
    };
    pub use pipe_mem::{MemConfig, PriorityPolicy};
    pub use pipe_workloads::{livermore_benchmark, LivermoreSuite};
}
