//! # pipe-isa
//!
//! The PIPE instruction set architecture, as used by the reproduction of
//! Farrens & Pleszkun, *Improving Performance of Small On-Chip Instruction
//! Caches* (ISCA 1989).
//!
//! PIPE is a 32-bit register-to-register (load/store) architecture with
//! 16-bit instruction *parcels*: an instruction is either one or two parcels
//! long. The paper's presented simulations use a **fixed 32-bit format**
//! (every instruction occupies two parcels / 4 bytes); the real chip mixes
//! 16- and 32-bit instructions. Both formats are supported here, selected by
//! [`InstrFormat`].
//!
//! Key architectural features modeled by this crate:
//!
//! * Eight visible 32-bit registers `r0..r7`, with a foreground/background
//!   bank exchange instruction ([`Instruction::Xchg`]). `r7` is the *queue
//!   register*: reading it pops the load queue (LDQ), writing it pushes the
//!   store data queue (SDQ). The queue semantics themselves live in
//!   `pipe-core`; this crate only defines the encoding.
//! * Eight *branch registers* `b0..b7` holding branch target addresses,
//!   loaded with [`Instruction::Lbr`] / [`Instruction::LbrReg`].
//! * The *prepare-to-branch* instruction ([`Instruction::Pbr`]) carrying a
//!   condition, a branch register, a tested register and a 3-bit delay-slot
//!   count (0–7). A single bit of the first parcel (bit 15, the *branch
//!   bit*) identifies PBR instructions, which is what lets the PIPE fetch
//!   logic scan the instruction queue for upcoming branches.
//!
//! ## Quick example
//!
//! ```
//! use pipe_isa::{Assembler, InstrFormat};
//!
//! let program = Assembler::new(InstrFormat::Fixed32)
//!     .assemble(
//!         r#"
//!         lim   r1, 10        ; loop counter
//!         lbr   b0, top
//! top:    subi  r1, r1, 1
//!         pbr.nez b0, r1, 0   ; loop while r1 != 0
//!         halt
//!         "#,
//!     )
//!     .expect("assembles");
//! assert!(program.parcels().len() > 0);
//! ```

pub mod asm;
pub mod decode;
pub mod decoded;
pub mod disasm;
pub mod encode;
pub mod format;
pub mod instruction;
pub mod opcode;
pub mod program;
pub mod reg;

pub use asm::{AsmError, Assembler};
pub use decode::{decode, DecodeError};
pub use decoded::DecodedProgram;
pub use disasm::disassemble;
pub use encode::encode;
pub use format::InstrFormat;
pub use instruction::{AluOp, Cond, Instruction, SourceRegs};
pub use opcode::Opcode;
pub use program::{Image, Program, ProgramBuilder};
pub use reg::{BranchReg, Reg};

/// Number of bytes in one instruction parcel.
pub const PARCEL_BYTES: u32 = 2;
