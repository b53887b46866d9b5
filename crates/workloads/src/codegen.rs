//! Kernel intermediate representation and PIPE code generation.
//!
//! A [`Kernel`] is a per-iteration list of [`KernelOp`]s plus loop
//! bookkeeping. Code generation lowers it to PIPE instructions under a
//! fixed register convention:
//!
//! | register | role |
//! |---|---|
//! | `r1` | trip counter |
//! | `r2` | walking array pointer (one per loop, +4 bytes per iteration) |
//! | `r3` | constants base (fixed) |
//! | `r4` | integer scratch for padding work |
//! | `r5` | FPU base (`pipe_mem::FPU_BASE`) |
//! | `r6` | floating-point accumulator (bit pattern) |
//! | `r7` | the queue register |
//!
//! Array streams live at `r2 + stream * 0x1000`; loop constants at
//! `r3 + idx * 4`. Floating-point operations ship operands to the
//! memory-mapped FPU: `sta r5, 0` + data push for operand A, then
//! `sta r5, <op>` + data push for operand B; the result returns into the
//! LDQ.
//!
//! [`Kernel::check_queue_discipline`] symbolically executes one iteration
//! and verifies the LDQ FIFO is consumed in order and balanced, catching
//! kernel-spec bugs before they become simulator deadlocks.

use pipe_isa::{AluOp, BranchReg, Cond, Instruction, Reg};

/// Byte spacing between array streams within a loop's data region.
pub const STREAM_STRIDE: i32 = 0x1000;
/// Offset of the constants area within a loop's data region.
pub const CONST_AREA: i16 = 0x7000;

/// The floating-point operation kinds the kernels use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpKind {
    /// Multiplication (store offset 4).
    Mul,
    /// Addition (store offset 8).
    Add,
    /// Subtraction (store offset 12).
    Sub,
}

impl FpKind {
    /// Byte offset of the operation-trigger address in the FPU window.
    pub fn store_offset(self) -> i16 {
        match self {
            FpKind::Mul => 4,
            FpKind::Add => 8,
            FpKind::Sub => 12,
        }
    }
}

/// Where a floating-point operand comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// The head of the load queue (`r7`): pops one LDQ entry.
    Queue,
    /// The accumulator register `r6`.
    Acc,
}

/// One step of a kernel iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelOp {
    /// Load `stream[i + elem_off]`: pushes one LDQ entry. (1 instruction)
    Load {
        /// Stream index (0..=6).
        stream: u32,
        /// Element offset within the stream, in 4-byte elements.
        elem_off: i16,
    },
    /// Load a loop constant: pushes one LDQ entry. (1 instruction)
    LoadConst {
        /// Constant index.
        idx: u16,
    },
    /// Floating-point operation via the memory-mapped FPU: consumes its
    /// `Queue` operands from the LDQ **in order (a, then result slot, then
    /// b)** and pushes the result into the LDQ. (4 instructions)
    Fp {
        /// Operation kind.
        kind: FpKind,
        /// First operand.
        a: Src,
        /// Second operand.
        b: Src,
    },
    /// Pop the LDQ head into the accumulator `r6`. (1 instruction)
    PopAcc,
    /// Store the LDQ head to `stream[i]`: pops one LDQ entry.
    /// (2 instructions)
    Store {
        /// Stream index.
        stream: u32,
    },
    /// Store the accumulator to `stream[i]`. (2 instructions)
    StoreAcc {
        /// Stream index.
        stream: u32,
    },
    /// Integer scratch work (index arithmetic / padding). (1 instruction)
    Pad,
}

impl KernelOp {
    /// Number of PIPE instructions this op lowers to.
    pub fn cost(&self) -> u32 {
        match self {
            KernelOp::Load { .. } | KernelOp::LoadConst { .. } => 1,
            KernelOp::Fp { .. } => 4,
            KernelOp::PopAcc => 1,
            KernelOp::Store { .. } | KernelOp::StoreAcc { .. } => 2,
            KernelOp::Pad => 1,
        }
    }
}

/// Per-iteration instruction mix of a kernel (see [`Kernel::mix`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelMix {
    /// Data loads issued per iteration (array + constant loads).
    pub loads: u32,
    /// Floating-point operations per iteration.
    pub fp_ops: u32,
    /// Data stores to memory per iteration (excluding FPU operand
    /// shipping).
    pub stores: u32,
    /// Stores shipping FPU operands per iteration (2 per FP op).
    pub fpu_operand_stores: u32,
    /// Queue-move instructions (`r7` reads/writes) per iteration.
    pub queue_moves: u32,
    /// Integer/padding instructions per iteration (excluding loop control).
    pub integer: u32,
}

impl KernelMix {
    /// Total memory requests per iteration (loads + all stores) — the
    /// "data requests per inner loop" the paper's §5 highlights.
    pub fn memory_requests(&self) -> u32 {
        self.loads + self.stores + self.fpu_operand_stores
    }
}

/// A kernel: one loop's per-iteration body plus bookkeeping.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// 1-based kernel number (1..=14 for the Livermore loops).
    pub index: usize,
    /// Human-readable name.
    pub name: &'static str,
    /// The per-iteration operations, excluding loop control.
    pub ops: Vec<KernelOp>,
    /// Target inner-loop size in instructions (Table I bytes / 4).
    pub target_instructions: u32,
}

/// Instructions of fixed loop overhead: pointer increment, counter
/// decrement, and the prepare-to-branch.
pub const LOOP_OVERHEAD: u32 = 3;

impl Kernel {
    /// Instruction cost of the kernel ops alone.
    pub fn ops_cost(&self) -> u32 {
        self.ops.iter().map(KernelOp::cost).sum()
    }

    /// The per-iteration instruction mix, including padding.
    pub fn mix(&self) -> KernelMix {
        let mut m = KernelMix::default();
        for op in &self.ops {
            match op {
                KernelOp::Load { .. } | KernelOp::LoadConst { .. } => m.loads += 1,
                KernelOp::Fp { .. } => {
                    m.fp_ops += 1;
                    m.fpu_operand_stores += 2;
                    m.queue_moves += 2;
                }
                KernelOp::PopAcc => m.queue_moves += 1,
                KernelOp::Store { .. } | KernelOp::StoreAcc { .. } => {
                    m.stores += 1;
                    m.queue_moves += 1;
                }
                KernelOp::Pad => m.integer += 1,
            }
        }
        m.integer += self.padding();
        m
    }

    /// Padding instructions needed to reach the target size.
    ///
    /// # Panics
    ///
    /// Panics if the ops plus overhead exceed the target, or leave fewer
    /// than 3 pads (needed to fill the delay slots).
    pub fn padding(&self) -> u32 {
        let used = self.ops_cost() + LOOP_OVERHEAD;
        assert!(
            used + 3 <= self.target_instructions,
            "kernel {} ({}): {} ops + {} overhead leaves fewer than 3 pads for target {}",
            self.index,
            self.name,
            self.ops_cost(),
            LOOP_OVERHEAD,
            self.target_instructions
        );
        self.target_instructions - used
    }

    /// Verifies the LDQ FIFO discipline over one iteration: no pop from an
    /// empty queue, and the queue drains to empty by the end.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn check_queue_discipline(&self) -> Result<(), String> {
        let mut depth: i64 = 0;
        let mut max_depth: i64 = 0;
        let pop = |depth: &mut i64, what: &str, i: usize| -> Result<(), String> {
            if *depth == 0 {
                return Err(format!(
                    "kernel {} ({}): op {i} pops an empty LDQ ({what})",
                    self.index, self.name
                ));
            }
            *depth -= 1;
            Ok(())
        };
        for (i, op) in self.ops.iter().enumerate() {
            match op {
                KernelOp::Load { .. } | KernelOp::LoadConst { .. } => depth += 1,
                KernelOp::Fp { a, b, .. } => {
                    if *a == Src::Queue {
                        pop(&mut depth, "fp operand a", i)?;
                    }
                    depth += 1; // result slot allocated at the op store
                    if *b == Src::Queue {
                        pop(&mut depth, "fp operand b", i)?;
                    }
                }
                KernelOp::PopAcc => pop(&mut depth, "pop-acc", i)?,
                KernelOp::Store { .. } => pop(&mut depth, "store", i)?,
                KernelOp::StoreAcc { .. } | KernelOp::Pad => {}
            }
            max_depth = max_depth.max(depth);
        }
        if depth != 0 {
            return Err(format!(
                "kernel {} ({}): LDQ not drained at iteration end ({depth} left)",
                self.index, self.name
            ));
        }
        if max_depth > 6 {
            return Err(format!(
                "kernel {} ({}): LDQ depth {max_depth} risks overflowing the 8-entry queue",
                self.index, self.name
            ));
        }
        Ok(())
    }

    /// Lowers the kernel body (one iteration, including loop control and
    /// padding) to instructions. The caller provides the branch register
    /// holding the loop-top address.
    ///
    /// Layout: `[ops..., lead pads..., subi r1, pbr(delay), incr r2,
    /// trailing pads...]` — the pointer increment and trailing pads fill
    /// the delay slots.
    pub fn lower_body(&self, loop_br: BranchReg) -> Vec<Instruction> {
        let r1 = Reg::new(1);
        let r2 = Reg::new(2);
        let r3 = Reg::new(3);
        let r4 = Reg::new(4);
        let r5 = Reg::new(5);
        let r6 = Reg::new(6);
        let r7 = Reg::QUEUE;

        let pads = self.padding();
        // Delay slots: pointer increment + up to 3 trailing pads.
        let delay = (1 + pads.min(3)) as u8;
        let trailing_pads = u32::from(delay) - 1;
        let lead_pads = pads - trailing_pads;

        let pad_instr = Instruction::AluImm {
            op: AluOp::Add,
            rd: r4,
            rs1: r4,
            imm: 1,
        };
        let queue_move = |src: Src| match src {
            // or r7, r7, r7 — move the LDQ head to the SDQ.
            Src::Queue => Instruction::Alu {
                op: AluOp::Or,
                rd: r7,
                rs1: r7,
                rs2: r7,
            },
            // or r7, r6, r6 — push the accumulator onto the SDQ.
            Src::Acc => Instruction::Alu {
                op: AluOp::Or,
                rd: r7,
                rs1: r6,
                rs2: r6,
            },
        };

        let mut out = Vec::with_capacity(self.target_instructions as usize);
        for op in &self.ops {
            match *op {
                KernelOp::Load { stream, elem_off } => {
                    let disp = stream as i32 * STREAM_STRIDE + i32::from(elem_off) * 4;
                    out.push(Instruction::Load {
                        base: r2,
                        disp: i16::try_from(disp).expect("stream displacement fits"),
                    });
                }
                KernelOp::LoadConst { idx } => out.push(Instruction::Load {
                    base: r3,
                    disp: (idx * 4) as i16,
                }),
                KernelOp::Fp { kind, a, b } => {
                    out.push(Instruction::StoreAddr { base: r5, disp: 0 });
                    out.push(queue_move(a));
                    out.push(Instruction::StoreAddr {
                        base: r5,
                        disp: kind.store_offset(),
                    });
                    out.push(queue_move(b));
                }
                KernelOp::PopAcc => out.push(Instruction::Alu {
                    op: AluOp::Or,
                    rd: r6,
                    rs1: r7,
                    rs2: r7,
                }),
                KernelOp::Store { stream } => {
                    let disp = stream as i32 * STREAM_STRIDE;
                    out.push(Instruction::StoreAddr {
                        base: r2,
                        disp: i16::try_from(disp).expect("stream displacement fits"),
                    });
                    out.push(queue_move(Src::Queue));
                }
                KernelOp::StoreAcc { stream } => {
                    let disp = stream as i32 * STREAM_STRIDE;
                    out.push(Instruction::StoreAddr {
                        base: r2,
                        disp: i16::try_from(disp).expect("stream displacement fits"),
                    });
                    out.push(queue_move(Src::Acc));
                }
                KernelOp::Pad => out.push(pad_instr),
            }
        }
        for _ in 0..lead_pads {
            out.push(pad_instr);
        }
        out.push(Instruction::AluImm {
            op: AluOp::Sub,
            rd: r1,
            rs1: r1,
            imm: 1,
        });
        out.push(Instruction::Pbr {
            cond: Cond::Nez,
            br: loop_br,
            rs: r1,
            delay,
        });
        out.push(Instruction::AluImm {
            op: AluOp::Add,
            rd: r2,
            rs1: r2,
            imm: 4,
        });
        for _ in 0..trailing_pads {
            out.push(pad_instr);
        }
        debug_assert_eq!(out.len() as u32, self.target_instructions);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_kernel() -> Kernel {
        Kernel {
            index: 99,
            name: "demo",
            ops: vec![
                KernelOp::Load {
                    stream: 0,
                    elem_off: 0,
                },
                KernelOp::Load {
                    stream: 1,
                    elem_off: 0,
                },
                KernelOp::Fp {
                    kind: FpKind::Mul,
                    a: Src::Queue,
                    b: Src::Queue,
                },
                KernelOp::Store { stream: 2 },
            ],
            target_instructions: 16,
        }
    }

    #[test]
    fn cost_accounting() {
        let k = demo_kernel();
        assert_eq!(k.ops_cost(), 1 + 1 + 4 + 2);
        assert_eq!(k.padding(), 16 - 8 - 3);
    }

    #[test]
    fn mix_accounting() {
        let k = demo_kernel();
        let m = k.mix();
        assert_eq!(m.loads, 2);
        assert_eq!(m.fp_ops, 1);
        assert_eq!(m.stores, 1);
        assert_eq!(m.fpu_operand_stores, 2);
        assert_eq!(m.queue_moves, 3);
        assert_eq!(m.integer, k.padding());
        assert_eq!(m.memory_requests(), 5);
    }

    #[test]
    fn queue_discipline_ok() {
        demo_kernel().check_queue_discipline().unwrap();
    }

    #[test]
    fn queue_discipline_detects_underflow() {
        let k = Kernel {
            ops: vec![KernelOp::PopAcc],
            ..demo_kernel()
        };
        assert!(k.check_queue_discipline().is_err());
    }

    #[test]
    fn queue_discipline_detects_leftover() {
        let k = Kernel {
            ops: vec![KernelOp::Load {
                stream: 0,
                elem_off: 0,
            }],
            ..demo_kernel()
        };
        assert!(k.check_queue_discipline().is_err());
    }

    #[test]
    fn queue_discipline_models_fp_result_slot_order() {
        // Fp(Queue, Queue) on [a, b]: pop a, push result, pop b — pops b,
        // not the freshly pushed result.
        let k = Kernel {
            ops: vec![
                KernelOp::Load {
                    stream: 0,
                    elem_off: 0,
                },
                KernelOp::Fp {
                    kind: FpKind::Add,
                    a: Src::Queue,
                    b: Src::Acc,
                },
                KernelOp::Store { stream: 1 },
            ],
            ..demo_kernel()
        };
        k.check_queue_discipline().unwrap();
    }

    #[test]
    fn lowered_body_matches_target() {
        let k = demo_kernel();
        let body = k.lower_body(BranchReg::new(0));
        assert_eq!(body.len() as u32, k.target_instructions);
        // Exactly one PBR, with the pointer increment in its delay slots.
        let pbrs: Vec<_> = body
            .iter()
            .enumerate()
            .filter(|(_, i)| i.is_branch())
            .collect();
        assert_eq!(pbrs.len(), 1);
        let (pbr_pos, pbr) = pbrs[0];
        if let Instruction::Pbr { delay, .. } = pbr {
            assert_eq!(body.len() - pbr_pos - 1, usize::from(*delay));
        } else {
            unreachable!()
        }
    }

    #[test]
    #[should_panic(expected = "fewer than 3 pads")]
    fn oversized_kernel_panics() {
        let k = Kernel {
            target_instructions: 10,
            ..demo_kernel()
        };
        let _ = k.padding();
    }

    #[test]
    fn fp_offsets() {
        assert_eq!(FpKind::Mul.store_offset(), 4);
        assert_eq!(FpKind::Add.store_offset(), 8);
        assert_eq!(FpKind::Sub.store_offset(), 12);
    }
}
