//! The decoded instruction representation.

use std::fmt;

use crate::format::InstrFormat;
use crate::reg::{BranchReg, Reg};

/// A three-operand ALU operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Two's-complement addition (wrapping).
    Add,
    /// Two's-complement subtraction (wrapping).
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (amount masked to 5 bits).
    Sll,
    /// Logical shift right (amount masked to 5 bits).
    Srl,
    /// Arithmetic shift right (amount masked to 5 bits).
    Sra,
}

impl AluOp {
    /// Evaluates the operation on 32-bit values.
    ///
    /// Shift amounts are masked to the low five bits, matching the barrel
    /// shifter of the PIPE datapath.
    #[inline]
    pub fn eval(self, a: u32, b: u32) -> u32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl(b & 31),
            AluOp::Srl => a.wrapping_shr(b & 31),
            AluOp::Sra => (a as i32).wrapping_shr(b & 31) as u32,
        }
    }

    /// The mnemonic stem (`add`, `sub`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
        }
    }
}

/// The condition tested by a prepare-to-branch instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Cond {
    /// Branch unconditionally.
    Always = 0,
    /// Branch if the tested register is zero.
    Eqz = 1,
    /// Branch if the tested register is non-zero.
    Nez = 2,
    /// Branch if the tested register is strictly positive (signed).
    Gtz = 3,
    /// Branch if the tested register is strictly negative (signed).
    Ltz = 4,
    /// Never branch (useful for testing; still occupies the branch pipeline).
    Never = 5,
}

impl Cond {
    /// All condition codes in field-value order.
    pub const ALL: [Cond; 6] = [
        Cond::Always,
        Cond::Eqz,
        Cond::Nez,
        Cond::Gtz,
        Cond::Ltz,
        Cond::Never,
    ];

    /// Decodes a 3-bit condition field.
    pub fn from_bits(bits: u16) -> Option<Cond> {
        Cond::ALL.get(bits as usize).copied()
    }

    /// The 3-bit field value.
    pub fn bits(self) -> u16 {
        self as u16
    }

    /// Evaluates the condition against a register value.
    #[inline]
    pub fn eval(self, value: u32) -> bool {
        match self {
            Cond::Always => true,
            Cond::Eqz => value == 0,
            Cond::Nez => value != 0,
            Cond::Gtz => (value as i32) > 0,
            Cond::Ltz => (value as i32) < 0,
            Cond::Never => false,
        }
    }

    /// The mnemonic suffix (empty for `Always`).
    pub fn suffix(self) -> &'static str {
        match self {
            Cond::Always => "",
            Cond::Eqz => ".eqz",
            Cond::Nez => ".nez",
            Cond::Gtz => ".gtz",
            Cond::Ltz => ".ltz",
            Cond::Never => ".never",
        }
    }
}

/// A fully decoded PIPE instruction.
///
/// The variants map one-to-one onto the encodings defined in
/// [`crate::encode()`]; see the crate-level docs for the architectural
/// meaning of the load/store/queue instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// No operation.
    Nop,
    /// Stop the processor (drains queues, then halts the simulation).
    Halt,
    /// Exchange foreground and background register banks.
    Xchg,
    /// Three-register ALU operation: `rd = op(rs1, rs2)`.
    Alu {
        /// The operation.
        op: AluOp,
        /// Destination register (writing `r7` pushes the SDQ).
        rd: Reg,
        /// First source (reading `r7` pops the LDQ).
        rs1: Reg,
        /// Second source (reading `r7` pops the LDQ).
        rs2: Reg,
    },
    /// Register-immediate ALU operation: `rd = op(rs1, imm)`.
    AluImm {
        /// The operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Sign-extended 16-bit immediate.
        imm: i16,
    },
    /// Load immediate: `rd = sign_extend(imm)`.
    Lim {
        /// Destination register.
        rd: Reg,
        /// Sign-extended immediate.
        imm: i16,
    },
    /// Load upper immediate: `rd = (imm << 16) | (rd & 0xFFFF)`.
    Lui {
        /// Destination register (low halfword preserved).
        rd: Reg,
        /// Immediate placed in the upper halfword.
        imm: u16,
    },
    /// Data load: push the byte address `rs1 + imm` onto the load address
    /// queue. The loaded value later appears at the head of the load queue,
    /// readable as `r7`.
    Load {
        /// Base address register.
        base: Reg,
        /// Signed byte displacement.
        disp: i16,
    },
    /// Store address: push the byte address `rs1 + imm` onto the store
    /// address queue. It pairs with the next value pushed onto the store
    /// data queue (by an instruction writing `r7`).
    StoreAddr {
        /// Base address register.
        base: Reg,
        /// Signed byte displacement.
        disp: i16,
    },
    /// Load a branch register with an absolute *parcel* address.
    Lbr {
        /// Destination branch register.
        br: BranchReg,
        /// Absolute parcel (16-bit word) address of the target.
        target_parcel: u16,
    },
    /// Load a branch register from a general-purpose register. The register
    /// holds a byte address, which is converted to a parcel address.
    LbrReg {
        /// Destination branch register.
        br: BranchReg,
        /// Source register (byte address of the target).
        rs1: Reg,
    },
    /// Prepare to branch: after `delay` more instructions have executed,
    /// transfer control to the address in `br` if `cond(rs)` holds.
    Pbr {
        /// The tested condition.
        cond: Cond,
        /// Branch register holding the target address.
        br: BranchReg,
        /// Register tested by the condition.
        rs: Reg,
        /// Delay-slot count, `0..=7`.
        delay: u8,
    },
}

impl Instruction {
    /// Returns `true` for prepare-to-branch instructions (the ones whose
    /// first parcel has the branch bit set).
    #[inline]
    pub fn is_branch(&self) -> bool {
        matches!(self, Instruction::Pbr { .. })
    }

    /// Returns `true` if the instruction carries a 16-bit immediate and is
    /// two parcels long even in the mixed format.
    pub fn has_immediate(&self) -> bool {
        matches!(
            self,
            Instruction::AluImm { .. }
                | Instruction::Lim { .. }
                | Instruction::Lui { .. }
                | Instruction::Load { .. }
                | Instruction::StoreAddr { .. }
                | Instruction::Lbr { .. }
        )
    }

    /// The size of this instruction, in parcels, under `format`.
    pub fn size_parcels(&self, format: InstrFormat) -> u32 {
        match format {
            InstrFormat::Fixed32 => 2,
            InstrFormat::Mixed => {
                if self.has_immediate() {
                    2
                } else {
                    1
                }
            }
        }
    }

    /// The size of this instruction, in bytes, under `format`.
    pub fn size_bytes(&self, format: InstrFormat) -> u32 {
        self.size_parcels(format) * crate::PARCEL_BYTES
    }

    /// The registers read by this instruction, in operand order.
    #[inline]
    pub fn sources(&self) -> SourceRegs {
        let (regs, len) = match *self {
            Instruction::Alu { rs1, rs2, .. } => ([rs1, rs2], 2),
            Instruction::AluImm { rs1, .. } => ([rs1, rs1], 1),
            Instruction::Load { base, .. } | Instruction::StoreAddr { base, .. } => {
                ([base, base], 1)
            }
            Instruction::LbrReg { rs1, .. } => ([rs1, rs1], 1),
            Instruction::Pbr { rs, .. } => ([rs, rs], 1),
            // read-modify-write
            Instruction::Lui { rd, .. } => ([rd, rd], 1),
            _ => ([Reg::new(0), Reg::new(0)], 0),
        };
        SourceRegs { regs, len }
    }

    /// The general-purpose register written by this instruction, if any.
    #[inline]
    pub fn destination(&self) -> Option<Reg> {
        match *self {
            Instruction::Alu { rd, .. }
            | Instruction::AluImm { rd, .. }
            | Instruction::Lim { rd, .. }
            | Instruction::Lui { rd, .. } => Some(rd),
            _ => None,
        }
    }
}

/// The source registers of an instruction: at most two, held inline so
/// hazard checks on the per-cycle issue path never touch the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceRegs {
    regs: [Reg; 2],
    len: usize,
}

impl SourceRegs {
    /// The sources as a slice, in operand order.
    pub fn as_slice(&self) -> &[Reg] {
        &self.regs[..self.len]
    }

    /// Whether `reg` appears among the sources. Two compares, not a
    /// slice search: the issue logic asks this of every instruction.
    #[inline]
    pub fn contains(&self, reg: &Reg) -> bool {
        (self.len > 0 && self.regs[0] == *reg) || (self.len > 1 && self.regs[1] == *reg)
    }
}

impl std::ops::Deref for SourceRegs {
    type Target = [Reg];

    fn deref(&self) -> &[Reg] {
        self.as_slice()
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instruction::Nop => write!(f, "nop"),
            Instruction::Halt => write!(f, "halt"),
            Instruction::Xchg => write!(f, "xchg"),
            Instruction::Alu { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Instruction::AluImm { op, rd, rs1, imm } => {
                write!(f, "{}i {rd}, {rs1}, {imm}", op.mnemonic())
            }
            Instruction::Lim { rd, imm } => write!(f, "lim {rd}, {imm}"),
            Instruction::Lui { rd, imm } => write!(f, "lui {rd}, {imm:#x}"),
            Instruction::Load { base, disp } => write!(f, "ldw {base}, {disp}"),
            Instruction::StoreAddr { base, disp } => write!(f, "sta {base}, {disp}"),
            Instruction::Lbr { br, target_parcel } => {
                write!(f, "lbr {br}, {:#x}", u32::from(target_parcel) * 2)
            }
            Instruction::LbrReg { br, rs1 } => write!(f, "lbrr {br}, {rs1}"),
            Instruction::Pbr {
                cond,
                br,
                rs,
                delay,
            } => write!(f, "pbr{} {br}, {rs}, {delay}", cond.suffix()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_eval_basics() {
        assert_eq!(AluOp::Add.eval(2, 3), 5);
        assert_eq!(AluOp::Add.eval(u32::MAX, 1), 0);
        assert_eq!(AluOp::Sub.eval(3, 5), (-2i32) as u32);
        assert_eq!(AluOp::And.eval(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.eval(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.eval(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Sll.eval(1, 4), 16);
        assert_eq!(AluOp::Srl.eval(0x8000_0000, 31), 1);
        assert_eq!(AluOp::Sra.eval(0x8000_0000, 31), u32::MAX);
    }

    #[test]
    fn shift_amount_masked() {
        assert_eq!(AluOp::Sll.eval(1, 32), 1);
        assert_eq!(AluOp::Sll.eval(1, 33), 2);
    }

    #[test]
    fn cond_eval() {
        assert!(Cond::Always.eval(0));
        assert!(Cond::Eqz.eval(0));
        assert!(!Cond::Eqz.eval(1));
        assert!(Cond::Nez.eval(5));
        assert!(!Cond::Nez.eval(0));
        assert!(Cond::Gtz.eval(1));
        assert!(!Cond::Gtz.eval(0));
        assert!(!Cond::Gtz.eval((-1i32) as u32));
        assert!(Cond::Ltz.eval((-1i32) as u32));
        assert!(!Cond::Ltz.eval(0));
        assert!(!Cond::Never.eval(0));
    }

    #[test]
    fn cond_bits_roundtrip() {
        for c in Cond::ALL {
            assert_eq!(Cond::from_bits(c.bits()), Some(c));
        }
        assert_eq!(Cond::from_bits(6), None);
    }

    #[test]
    fn sizes_by_format() {
        let reg_op = Instruction::Alu {
            op: AluOp::Add,
            rd: Reg::new(1),
            rs1: Reg::new(2),
            rs2: Reg::new(3),
        };
        let imm_op = Instruction::AluImm {
            op: AluOp::Add,
            rd: Reg::new(1),
            rs1: Reg::new(2),
            imm: 5,
        };
        assert_eq!(reg_op.size_parcels(InstrFormat::Mixed), 1);
        assert_eq!(reg_op.size_parcels(InstrFormat::Fixed32), 2);
        assert_eq!(imm_op.size_parcels(InstrFormat::Mixed), 2);
        assert_eq!(imm_op.size_parcels(InstrFormat::Fixed32), 2);
        assert_eq!(imm_op.size_bytes(InstrFormat::Fixed32), 4);
    }

    #[test]
    fn branch_detection() {
        let pbr = Instruction::Pbr {
            cond: Cond::Nez,
            br: BranchReg::new(0),
            rs: Reg::new(1),
            delay: 4,
        };
        assert!(pbr.is_branch());
        assert!(!Instruction::Nop.is_branch());
    }

    #[test]
    fn sources_and_destinations() {
        let i = Instruction::Alu {
            op: AluOp::Add,
            rd: Reg::new(1),
            rs1: Reg::new(2),
            rs2: Reg::new(3),
        };
        assert_eq!(i.sources().as_slice(), &[Reg::new(2), Reg::new(3)]);
        assert_eq!(i.destination(), Some(Reg::new(1)));
        assert_eq!(Instruction::Nop.destination(), None);
        let ld = Instruction::Load {
            base: Reg::new(4),
            disp: -8,
        };
        assert_eq!(ld.sources().as_slice(), &[Reg::new(4)]);
        assert_eq!(ld.destination(), None);
    }
}
