//! The functional model: a timing-free interpreter that computes every
//! value of a PIPE program.
//!
//! The interpreter executes a program with the PIPE's *architectural*
//! semantics — queue-register FIFO discipline, prepare-to-branch delay
//! slots, foreground/background banks, the memory-mapped FPU — with no
//! fetch, bus or memory timing. It is the only model of values in the
//! simulator: registers, branch registers, data memory, queue contents and
//! the FPU's operand latch and results live here and nowhere else.
//!
//! The cycle-level [`Processor`](crate::Processor) only times the program.
//! It reads one [`Step`] per instruction it issues through a
//! [`Cursor`](crate::Cursor), checks that the step's address is the
//! instruction it fetched, and takes from the step the few values its
//! timing depends on: a prepare-to-branch's outcome and target and a
//! store address's FPU role. The steps come from a
//! [`Course`](crate::Course) that an interpreter recorded once for many
//! runs, with what timing does not read erased ([`Step::timed`]), or from
//! an interpreter of the run's own, stepped a few instructions ahead of
//! issue: in a single run, and in a run whose trace sink or external
//! cache observes data addresses and store values.
//!
//! Loads and stores drain in program order, as the processor's decoupled
//! memory interface drains them: a load takes its word once every older
//! store has its data, so it sees exactly the stores before it, whatever
//! the memory timing. Run on its own ([`interpret`]), the interpreter also
//! validates generated workloads and diagnoses a stuck program precisely
//! ([`InterpError`]) where the processor would time out.
//!
//! ```
//! use pipe_core::interpret;
//! use pipe_isa::{Assembler, InstrFormat};
//!
//! let program = Assembler::new(InstrFormat::Fixed32)
//!     .assemble("lim r1, 6\nlim r2, 7\nadd r3, r1, r2\nhalt\n")
//!     .unwrap();
//! let result = interpret(&program, 1_000).unwrap();
//! assert_eq!(result.regs[3], 13);
//! assert_eq!(result.instructions, 4);
//! ```

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use pipe_isa::decode::instr_len;
use pipe_isa::{DecodedProgram, Instruction, Program, Reg, PARCEL_BYTES};
use pipe_mem::{DataMemory, FpOp};

use crate::queues::{Access, AddressQueue, LoadQueue, SlotSource, StoreRole};
use crate::regfile::{BranchRegFile, RegFile};
use crate::trace::DataOp;

/// An error terminating interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// The program counter left the program image.
    PcOutOfRange {
        /// The offending byte address.
        pc: u32,
    },
    /// An undecodable encoding was reached.
    Decode(pipe_isa::DecodeError),
    /// An `r7` read found the load queue empty or its head still waiting:
    /// the program consumes more values than it produces, or reads a load
    /// that waits for store data the program has not yet written.
    QueueUnderflow {
        /// Byte address of the reading instruction.
        pc: u32,
    },
    /// The instruction budget was exhausted before `halt`.
    InstructionLimit {
        /// The budget that was exceeded.
        limit: u64,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::PcOutOfRange { pc } => write!(f, "pc {pc:#x} outside program"),
            InterpError::Decode(e) => write!(f, "decode failed: {e}"),
            InterpError::QueueUnderflow { pc } => {
                write!(f, "r7 read with empty load queue at {pc:#x}")
            }
            InterpError::InstructionLimit { limit } => {
                write!(f, "instruction limit of {limit} exceeded")
            }
        }
    }
}

impl Error for InterpError {}

impl From<pipe_isa::DecodeError> for InterpError {
    fn from(e: pipe_isa::DecodeError) -> InterpError {
        InterpError::Decode(e)
    }
}

/// The final architectural state after interpretation.
#[derive(Debug, Clone)]
pub struct InterpResult {
    /// Instructions executed (including `halt`).
    pub instructions: u64,
    /// Final foreground register values `r0..=r7` (the `r7` slot holds its
    /// last latched value: writes of `r7` go to the store data queue).
    pub regs: [u32; 8],
    /// Final data memory.
    pub memory: DataMemory,
    /// Taken branches.
    pub branches_taken: u64,
    /// Not-taken branches.
    pub branches_not_taken: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed (including FPU-operand stores).
    pub stores: u64,
    /// FPU operations performed.
    pub fpu_ops: u64,
}

/// What one executed instruction did that its timing depends on: the
/// record [`Interpreter::step`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Byte address of the instruction.
    pub addr: u32,
    /// A prepare-to-branch's outcome, `(taken, target byte address)`.
    pub branch: Option<(bool, u32)>,
    /// The data-side operation it queued: a load or store address, or the
    /// value it wrote to `r7`.
    pub data: Option<DataOp>,
}

/// The timing-free interpreter. See the [module docs](self).
#[derive(Debug)]
pub struct Interpreter {
    decoded: Arc<DecodedProgram>,
    pc: u32,
    regs: RegFile,
    bregs: BranchRegFile,
    memory: DataMemory,
    /// LDQ slots: allocated at loads and at FPU-op stores (program order),
    /// exactly like the timed processor's load queue.
    ldq: LoadQueue,
    /// Loads and store addresses not yet drained, oldest first.
    accesses: AddressQueue,
    sdq: VecDeque<u32>,
    /// The FPU's operand-A latch.
    fpu_operand: u32,
    pending_branch: Option<(u32, u32)>,
    halted: bool,
    result: InterpResult,
}

impl Interpreter {
    /// Creates an interpreter over a predecoded program, positioned at its
    /// entry point with its data image loaded.
    pub fn new(decoded: &Arc<DecodedProgram>) -> Interpreter {
        let program = decoded.program();
        Interpreter {
            decoded: Arc::clone(decoded),
            pc: program.entry(),
            regs: RegFile::new(),
            bregs: BranchRegFile::new(),
            memory: DataMemory::from_image(program.data().iter().copied()),
            // The interpreter never stalls: its queue has no bound.
            ldq: LoadQueue::new(usize::MAX),
            accesses: AddressQueue::new(usize::MAX),
            sdq: VecDeque::new(),
            fpu_operand: 0,
            pending_branch: None,
            halted: false,
            result: InterpResult {
                instructions: 0,
                regs: [0; 8],
                memory: DataMemory::new(),
                branches_taken: 0,
                branches_not_taken: 0,
                loads: 0,
                stores: 0,
                fpu_ops: 0,
            },
        }
    }

    /// Reads source register `r`; the `r7` value, popped once per
    /// instruction, is `queue_value`.
    fn read(&self, r: Reg, queue_value: Option<u32>) -> u32 {
        if r.is_queue() {
            queue_value.expect("r7 read without an LDQ pop")
        } else {
            self.regs.read(r)
        }
    }

    /// Writes `value` to `rd`; a write of `r7` pushes the SDQ instead,
    /// which the step reports.
    fn write(&mut self, rd: Reg, value: u32) -> Option<DataOp> {
        if rd.is_queue() {
            self.sdq.push_back(value);
            Some(DataOp::StoreData { value })
        } else {
            self.regs.write(rd, value);
            None
        }
    }

    /// Drains loads and stores in program order: a load takes its word at
    /// once, a store once its data is in the SDQ, writing data memory or
    /// the FPU.
    fn drain(&mut self) {
        while let Some(access) = self.accesses.front() {
            let addr = access.addr();
            match access {
                Access::Load { .. } => self.ldq.fill(SlotSource::Load, self.memory.read(addr)),
                Access::Store { role, .. } => {
                    let Some(value) = self.sdq.pop_front() else {
                        return;
                    };
                    match role {
                        StoreRole::Data => self.memory.write(addr, value),
                        StoreRole::OperandLatch => self.fpu_operand = value,
                        StoreRole::Operation => {
                            let op = FpOp::from_offset(addr - pipe_mem::FPU_BASE)
                                .expect("an operation offset");
                            let result = op.eval_bits(self.fpu_operand, value);
                            self.ldq.fill(SlotSource::Fpu, result);
                        }
                        StoreRole::Unmapped => {}
                    }
                }
            }
            self.accesses.pop();
        }
    }

    /// Executes one instruction and returns its [`Step`], or `None` once
    /// the program has halted. On an error nothing changes, so a caller
    /// may step again later and get the same error.
    ///
    /// # Errors
    ///
    /// See [`InterpError`].
    // Inlined into the loops that record a course and step ahead of
    // issue: called once per instruction, recording Livermore took 1.4
    // times as long as interpreting it (3.6 against 2.55 ms on a 2-vCPU
    // Intel Xeon KVM guest).
    #[inline(always)]
    pub fn step(&mut self) -> Result<Option<Step>, InterpError> {
        if self.halted {
            return Ok(None);
        }
        // The parcel holding the pc, as the fetch engines address it.
        let base = self.decoded.program().base();
        let out_of_range = InterpError::PcOutOfRange { pc: self.pc };
        let Some(parcel) = self.pc.checked_sub(base).map(|off| off / PARCEL_BYTES) else {
            return Err(out_of_range);
        };
        let addr = base + parcel * PARCEL_BYTES;
        let index = parcel as usize;
        let instr = self.decoded.get(index).ok_or(out_of_range)??;
        let mut next_pc =
            addr + instr_len(self.decoded.program().parcels()[index]) as u32 * PARCEL_BYTES;

        // A single r7 value per instruction: multiple r7 source operands
        // read the same popped value (matching the processor).
        let queue_value = if instr.sources().contains(&Reg::QUEUE) {
            match self.ldq.front_ready() {
                Some(_) => Some(self.ldq.pop()),
                None => return Err(InterpError::QueueUnderflow { pc: addr }),
            }
        } else {
            None
        };
        let mut step = Step {
            addr,
            branch: None,
            data: None,
        };
        match instr {
            Instruction::Nop => {}
            Instruction::Halt => self.halted = true,
            Instruction::Xchg => self.regs.exchange(),
            Instruction::Alu { op, rd, rs1, rs2 } => {
                let a = self.read(rs1, queue_value);
                let b = self.read(rs2, queue_value);
                step.data = self.write(rd, op.eval(a, b));
            }
            Instruction::AluImm { op, rd, rs1, imm } => {
                let a = self.read(rs1, queue_value);
                step.data = self.write(rd, op.eval(a, imm as i32 as u32));
            }
            Instruction::Lim { rd, imm } => step.data = self.write(rd, imm as i32 as u32),
            Instruction::Lui { rd, imm } => {
                let low = self.read(rd, queue_value) & 0xFFFF;
                step.data = self.write(rd, (u32::from(imm) << 16) | low);
            }
            Instruction::Load { base, disp } => {
                let addr = self
                    .read(base, queue_value)
                    .wrapping_add(disp as i32 as u32);
                self.ldq.alloc(SlotSource::Load);
                self.accesses.push(Access::load(addr));
                self.result.loads += 1;
                step.data = Some(DataOp::Load { addr });
            }
            Instruction::StoreAddr { base, disp } => {
                let addr = self
                    .read(base, queue_value)
                    .wrapping_add(disp as i32 as u32);
                self.result.stores += 1;
                if StoreRole::of(addr) == StoreRole::Operation {
                    self.ldq.alloc(SlotSource::Fpu);
                    self.result.fpu_ops += 1;
                }
                self.accesses.push(Access::store(addr));
                step.data = Some(DataOp::StoreAddr { addr });
            }
            Instruction::Lbr { br, target_parcel } => {
                self.bregs.write(br, u32::from(target_parcel) * 2)
            }
            Instruction::LbrReg { br, rs1 } => self.bregs.write(br, self.read(rs1, queue_value)),
            Instruction::Pbr {
                cond,
                br,
                rs,
                delay,
            } => {
                let taken = cond.eval(self.read(rs, queue_value));
                let target = self.bregs.read(br);
                if taken {
                    self.result.branches_taken += 1;
                    self.pending_branch = Some((u32::from(delay), target));
                } else {
                    self.result.branches_not_taken += 1;
                }
                step.branch = Some((taken, target));
            }
        }

        self.drain();
        self.result.instructions += 1;

        // Delay-slot countdown: the PBR itself does not count.
        if !instr.is_branch() {
            if let Some((remaining, target)) = &mut self.pending_branch {
                if *remaining == 0 {
                    unreachable!("zero-delay branches redirect before the next instruction");
                }
                *remaining -= 1;
                if *remaining == 0 {
                    next_pc = *target;
                    self.pending_branch = None;
                }
            }
        } else if let Some((0, target)) = self.pending_branch {
            next_pc = target;
            self.pending_branch = None;
        }

        self.pc = next_pc;
        Ok(Some(step))
    }

    /// Runs until `halt` or until `max_instructions` have executed.
    ///
    /// # Errors
    ///
    /// See [`InterpError`].
    pub fn run(mut self, max_instructions: u64) -> Result<InterpResult, InterpError> {
        while !self.halted {
            if self.result.instructions >= max_instructions {
                return Err(InterpError::InstructionLimit {
                    limit: max_instructions,
                });
            }
            self.step()?;
        }
        for i in 0..8 {
            self.result.regs[i as usize] = self.regs.read(Reg::new(i));
        }
        self.result.memory = self.memory;
        Ok(self.result)
    }
}

/// Interprets `program` to completion.
///
/// # Errors
///
/// See [`InterpError`].
pub fn interpret(program: &Program, max_instructions: u64) -> Result<InterpResult, InterpError> {
    Interpreter::new(&Arc::new(DecodedProgram::new(program.clone()))).run(max_instructions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipe_isa::{Assembler, InstrFormat};

    fn asm(src: &str) -> Program {
        Assembler::new(InstrFormat::Fixed32).assemble(src).unwrap()
    }

    #[test]
    fn straight_line() {
        let r = interpret(&asm("lim r1, 6\nlim r2, 7\nadd r3, r1, r2\nhalt\n"), 100).unwrap();
        assert_eq!(r.regs[3], 13);
        assert_eq!(r.instructions, 4);
    }

    #[test]
    fn loop_with_delay_slots() {
        let src = "lim r1, 4\nlim r2, 0\nlbr b0, top\ntop: subi r1, r1, 1\npbr.nez b0, r1, 1\naddi r2, r2, 1\nhalt\n";
        let r = interpret(&asm(src), 1000).unwrap();
        assert_eq!(r.regs[2], 4, "delay slot ran each iteration");
        assert_eq!(r.branches_taken, 3);
        assert_eq!(r.branches_not_taken, 1);
    }

    #[test]
    fn zero_delay_branch() {
        let src = "lim r1, 3\nlbr b0, top\ntop: subi r1, r1, 1\npbr.nez b0, r1, 0\nhalt\n";
        let r = interpret(&asm(src), 1000).unwrap();
        assert_eq!(r.instructions, 2 + 3 * 2 + 1);
    }

    #[test]
    fn memory_and_queues() {
        let src = r#"
            lim r1, 0x100
            lim r2, 9
            sta r1, 0
            or  r7, r2, r2
            ldw r1, 0
            add r3, r7, r7
            halt
        "#;
        let r = interpret(&asm(src), 100).unwrap();
        assert_eq!(r.memory.read(0x100), 9);
        assert_eq!(r.regs[3], 18);
        assert_eq!(r.loads, 1);
        assert_eq!(r.stores, 1);
    }

    #[test]
    fn a_load_sees_an_older_store_whose_data_comes_later() {
        // Loads and stores drain in program order, as the processor's do:
        // the load waits behind the store until `or r7` supplies its data.
        let src =
            "lim r1, 0x100\nlim r2, 5\nsta r1, 0\nldw r1, 0\nor r7, r2, r2\nor r3, r7, r7\nhalt\n";
        assert_eq!(interpret(&asm(src), 100).unwrap().regs[3], 5);
    }

    #[test]
    fn fpu_roundtrip() {
        let src = r#"
            lim r5, -4096
            lui r2, 0x4000
            lui r3, 0x4040
            sta r5, 0
            or  r7, r2, r2
            sta r5, 4
            or  r7, r3, r3
            or  r4, r7, r7
            halt
        "#;
        let r = interpret(&asm(src), 100).unwrap();
        assert_eq!(r.regs[4], 6.0f32.to_bits());
        assert_eq!(r.fpu_ops, 1);
    }

    #[test]
    fn queue_underflow_detected() {
        let e = interpret(&asm("or r1, r7, r7\nhalt\n"), 100).unwrap_err();
        assert!(matches!(e, InterpError::QueueUnderflow { .. }));
    }

    #[test]
    fn instruction_limit() {
        let src = "lbr b0, top\ntop: pbr b0, r0, 1\nnop\nhalt\n";
        let e = interpret(&asm(src), 50).unwrap_err();
        assert!(matches!(e, InterpError::InstructionLimit { limit: 50 }));
    }

    #[test]
    fn pc_out_of_range_detected() {
        // No halt: execution runs off the end of the image.
        let e = interpret(&asm("nop\n"), 100).unwrap_err();
        assert!(matches!(e, InterpError::PcOutOfRange { .. }));
    }
}
