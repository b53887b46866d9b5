//! Instruction decoding from 16-bit parcels.

use std::error::Error;
use std::fmt;

use crate::encode::{parcel_has_ext, parcel_is_branch};
use crate::instruction::{AluOp, Cond, Instruction};
use crate::opcode::Opcode;
use crate::reg::{BranchReg, Reg};

/// An error produced while decoding a parcel pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The opcode field does not name a defined opcode.
    UnknownOpcode(u16),
    /// The condition field of a PBR does not name a defined condition.
    UnknownCond(u16),
    /// The first parcel requires an immediate parcel, but none was supplied.
    MissingImmediate,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnknownOpcode(bits) => write!(f, "unknown opcode field {bits:#x}"),
            DecodeError::UnknownCond(bits) => write!(f, "unknown condition field {bits:#x}"),
            DecodeError::MissingImmediate => f.write_str("missing immediate parcel"),
        }
    }
}

impl Error for DecodeError {}

/// Returns how many parcels the instruction starting with `first` occupies.
#[inline]
pub fn instr_len(first: u16) -> usize {
    if parcel_has_ext(first) {
        2
    } else {
        1
    }
}

/// Decodes an instruction from its first parcel and (if the `ext` bit is
/// set) the immediate parcel.
///
/// # Errors
///
/// Returns [`DecodeError::MissingImmediate`] when `first` requires an
/// immediate but `second` is `None`, and [`DecodeError::UnknownOpcode`] /
/// [`DecodeError::UnknownCond`] for encodings outside the defined space.
pub fn decode(first: u16, second: Option<u16>) -> Result<Instruction, DecodeError> {
    let imm = if parcel_has_ext(first) {
        Some(second.ok_or(DecodeError::MissingImmediate)?)
    } else {
        None
    };

    if parcel_is_branch(first) {
        let cond_bits = (first >> 12) & 0b111;
        let cond = Cond::from_bits(cond_bits).ok_or(DecodeError::UnknownCond(cond_bits))?;
        let br = BranchReg::new(((first >> 9) & 0b111) as u8);
        let delay = ((first >> 6) & 0b111) as u8;
        let rs = Reg::new(((first >> 3) & 0b111) as u8);
        return Ok(Instruction::Pbr {
            cond,
            br,
            rs,
            delay,
        });
    }

    let op_bits = (first >> 10) & 0b1_1111;
    let opcode = Opcode::from_bits(op_bits).ok_or(DecodeError::UnknownOpcode(op_bits))?;
    let rd = Reg::new(((first >> 7) & 0b111) as u8);
    let rs1 = Reg::new(((first >> 4) & 0b111) as u8);
    let rs2 = Reg::new(((first >> 1) & 0b111) as u8);
    // `imm` is only meaningful for immediate opcodes; a fixed-32 padding
    // parcel decodes as zero and is ignored below.
    let imm_i16 = imm.unwrap_or(0) as i16;
    let imm_u16 = imm.unwrap_or(0);

    let instr = match opcode {
        Opcode::Nop => Instruction::Nop,
        Opcode::Halt => Instruction::Halt,
        Opcode::Xchg => Instruction::Xchg,
        Opcode::Add => alu(AluOp::Add, rd, rs1, rs2),
        Opcode::Sub => alu(AluOp::Sub, rd, rs1, rs2),
        Opcode::And => alu(AluOp::And, rd, rs1, rs2),
        Opcode::Or => alu(AluOp::Or, rd, rs1, rs2),
        Opcode::Xor => alu(AluOp::Xor, rd, rs1, rs2),
        Opcode::Sll => alu(AluOp::Sll, rd, rs1, rs2),
        Opcode::Srl => alu(AluOp::Srl, rd, rs1, rs2),
        Opcode::Sra => alu(AluOp::Sra, rd, rs1, rs2),
        Opcode::Addi => alu_imm(AluOp::Add, rd, rs1, imm_i16),
        Opcode::Subi => alu_imm(AluOp::Sub, rd, rs1, imm_i16),
        Opcode::Andi => alu_imm(AluOp::And, rd, rs1, imm_i16),
        Opcode::Ori => alu_imm(AluOp::Or, rd, rs1, imm_i16),
        Opcode::Xori => alu_imm(AluOp::Xor, rd, rs1, imm_i16),
        Opcode::Slli => alu_imm(AluOp::Sll, rd, rs1, imm_i16),
        Opcode::Srli => alu_imm(AluOp::Srl, rd, rs1, imm_i16),
        Opcode::Srai => alu_imm(AluOp::Sra, rd, rs1, imm_i16),
        Opcode::Lim => Instruction::Lim { rd, imm: imm_i16 },
        Opcode::Lui => Instruction::Lui { rd, imm: imm_u16 },
        Opcode::Ldw => Instruction::Load {
            base: rs1,
            disp: imm_i16,
        },
        Opcode::Sta => Instruction::StoreAddr {
            base: rs1,
            disp: imm_i16,
        },
        Opcode::Lbr => Instruction::Lbr {
            br: BranchReg::new(rd.number()),
            target_parcel: imm_u16,
        },
        Opcode::LbrReg => Instruction::LbrReg {
            br: BranchReg::new(rd.number()),
            rs1,
        },
    };
    Ok(instr)
}

fn alu(op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) -> Instruction {
    Instruction::Alu { op, rd, rs1, rs2 }
}

fn alu_imm(op: AluOp, rd: Reg, rs1: Reg, imm: i16) -> Instruction {
    Instruction::AluImm { op, rd, rs1, imm }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::format::InstrFormat;

    fn roundtrip(i: Instruction, f: InstrFormat) {
        let e = encode(&i, f);
        let p = e.parcels();
        let decoded = decode(p[0], p.get(1).copied()).expect("decodes");
        assert_eq!(decoded, i, "format {f}");
    }

    #[test]
    fn roundtrip_all_shapes() {
        let cases = [
            Instruction::Nop,
            Instruction::Halt,
            Instruction::Xchg,
            Instruction::Alu {
                op: AluOp::Xor,
                rd: Reg::new(5),
                rs1: Reg::new(6),
                rs2: Reg::new(7),
            },
            Instruction::AluImm {
                op: AluOp::Sra,
                rd: Reg::new(0),
                rs1: Reg::new(1),
                imm: -32768,
            },
            Instruction::Lim {
                rd: Reg::new(2),
                imm: 32767,
            },
            Instruction::Lui {
                rd: Reg::new(3),
                imm: 0xBEEF,
            },
            Instruction::Load {
                base: Reg::new(4),
                disp: -4,
            },
            Instruction::StoreAddr {
                base: Reg::new(5),
                disp: 100,
            },
            Instruction::Lbr {
                br: BranchReg::new(6),
                target_parcel: 0x1234,
            },
            Instruction::LbrReg {
                br: BranchReg::new(7),
                rs1: Reg::new(0),
            },
            Instruction::Pbr {
                cond: Cond::Gtz,
                br: BranchReg::new(1),
                rs: Reg::new(2),
                delay: 7,
            },
        ];
        for i in cases {
            for f in InstrFormat::ALL {
                roundtrip(i, f);
            }
        }
    }

    #[test]
    fn missing_immediate_is_an_error() {
        let e = encode(
            &Instruction::Lim {
                rd: Reg::new(0),
                imm: 1,
            },
            InstrFormat::Mixed,
        );
        assert_eq!(
            decode(e.parcels()[0], None),
            Err(DecodeError::MissingImmediate)
        );
    }

    #[test]
    fn unknown_opcode_is_an_error() {
        // Opcode field 31 is undefined; ext bit clear.
        let bad = 31u16 << 10;
        assert_eq!(decode(bad, None), Err(DecodeError::UnknownOpcode(31)));
    }

    #[test]
    fn unknown_cond_is_an_error() {
        // Branch bit set, cond field 7 undefined.
        let bad = 0x8000 | (7u16 << 12);
        assert_eq!(decode(bad, None), Err(DecodeError::UnknownCond(7)));
    }

    #[test]
    fn instr_len_follows_ext_bit() {
        let one = encode(&Instruction::Nop, InstrFormat::Mixed);
        assert_eq!(instr_len(one.parcels()[0]), 1);
        let two = encode(&Instruction::Nop, InstrFormat::Fixed32);
        assert_eq!(instr_len(two.parcels()[0]), 2);
    }
}
