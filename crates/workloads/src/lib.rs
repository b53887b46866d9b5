//! # pipe-workloads
//!
//! Workload generators for the PIPE simulation.
//!
//! The centerpiece is [`LivermoreSuite`]: PIPE-assembly versions of the
//! first 14 Lawrence Livermore kernels, compiled back-to-back into one
//! program, exactly as the paper's benchmark (§5):
//!
//! * each kernel's **inner-loop byte size matches Table I** of the paper
//!   (116, 204, 64, ... bytes under the fixed 32-bit format);
//! * the full run executes **exactly 150,575 instructions**, the paper's
//!   instruction count, via calibrated trip counts;
//! * kernels generate the paper's characteristic memory traffic: streaming
//!   array loads, stores, and floating-point operations performed by
//!   shipping operand pairs to the **off-chip memory-mapped FPU** (a high
//!   data-request rate per inner loop, the property the paper chose the
//!   Livermore loops for);
//! * each loop ends with a prepare-to-branch with compiler-filled delay
//!   slots, and falling through to the next loop guarantees the next
//!   kernel starts cold in the instruction cache.
//!
//! The code generator respects the PIPE load-queue FIFO discipline: every
//! value pushed into the LDQ (by a load or an FPU result) is consumed in
//! allocation order. [`codegen`] contains a symbolic checker that verifies
//! this for every kernel, and the crate's tests run each kernel to
//! completion on the functional simulator.
//!
//! Two small generators serve tests and trace-driven sweeps:
//! [`synthetic::tight_loop`] builds a counted loop program, and
//! [`traces::loop_nest`] builds an instruction-address trace of a loop
//! nest for `pipe-trace`'s address-trace replay.

pub mod calibrate;
pub mod codegen;
pub mod livermore;
pub mod synthetic;
pub mod traces;

pub use calibrate::calibrate_trips;
pub use codegen::{FpKind, Kernel, KernelOp, Src};
pub use livermore::{
    kernel_program, livermore_benchmark, single_kernel_program, LivermoreSuite, LoopInfo,
    PAPER_TOTAL_INSTRUCTIONS, TABLE1_INNER_LOOP_BYTES,
};
