//! A small text assembler for PIPE programs.
//!
//! The syntax is line-oriented:
//!
//! ```text
//!         lim   r1, 100        ; comments start with ';' or '#'
//!         lbr   b0, loop       ; labels resolve to byte addresses
//! loop:   ldw   r2, 8
//!         or    r7, r7, r7
//!         subi  r1, r1, 1
//!         pbr.nez b0, r1, 2    ; condition suffix, branch reg, tested reg, delay
//!         nop
//!         nop
//!         halt
//! .data 0x1000, 42             ; initial data word
//! ```
//!
//! All instructions listed in [`crate::opcode::Opcode`] are accepted, plus
//! `pbr` with an optional condition suffix (`pbr` alone branches always).
//!
//! Directives: `.data addr, value` (initial data word), `.equ NAME, value`
//! (named constant, usable as any immediate), `.align bytes` (nop padding
//! to a power-of-two boundary).
//!
//! Pseudo-instructions: `mov rd, rs` (or-copy), `li32 rd, imm32`
//! (lim + lui pair), `push rs` (write `r7` — SDQ push), `pop rd` (read
//! `r7` — LDQ pop).

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

use crate::format::InstrFormat;
use crate::instruction::{AluOp, Cond, Instruction};
use crate::program::{BuildError, Program, ProgramBuilder};
use crate::reg::{BranchReg, Reg};

/// An error produced by [`Assembler::assemble`], tagged with its line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    line: usize,
    kind: AsmErrorKind,
}

impl AsmError {
    /// 1-based source line of the error.
    pub fn line(&self) -> usize {
        self.line
    }

    /// The error category.
    pub fn kind(&self) -> &AsmErrorKind {
        &self.kind
    }
}

/// The category of an assembly error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmErrorKind {
    /// Unknown mnemonic.
    UnknownMnemonic(String),
    /// Wrong operand count or malformed operand.
    BadOperands(String),
    /// An immediate failed to parse or was out of range.
    BadImmediate(String),
    /// A register name failed to parse.
    BadRegister(String),
    /// An error from program building (labels).
    Build(BuildError),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            AsmErrorKind::UnknownMnemonic(m) => write!(f, "unknown mnemonic `{m}`"),
            AsmErrorKind::BadOperands(s) => write!(f, "bad operands: {s}"),
            AsmErrorKind::BadImmediate(s) => write!(f, "bad immediate `{s}`"),
            AsmErrorKind::BadRegister(s) => write!(f, "bad register `{s}`"),
            AsmErrorKind::Build(e) => write!(f, "{e}"),
        }
    }
}

impl Error for AsmError {}

/// Assembles PIPE assembly text into a [`Program`].
#[derive(Debug, Clone)]
pub struct Assembler {
    format: InstrFormat,
    base: u32,
}

impl Assembler {
    /// Creates an assembler targeting `format`, with code based at 0.
    pub fn new(format: InstrFormat) -> Assembler {
        Assembler { format, base: 0 }
    }

    /// Sets the code base address (parcel-aligned).
    pub fn base(mut self, base: u32) -> Assembler {
        self.base = base;
        self
    }

    /// Assembles `source` into a program.
    ///
    /// # Errors
    ///
    /// Returns an [`AsmError`] identifying the offending source line for
    /// syntax problems, or wrapping a [`BuildError`] for label and
    /// alignment problems (reported at the `lbr` or `.align` line that
    /// caused them).
    pub fn assemble(&self, source: &str) -> Result<Program, AsmError> {
        let mut builder = ProgramBuilder::with_base(self.format, self.base);
        let mut syms = Symbols::default();
        let mut last_line = 1;
        for (idx, raw) in source.lines().enumerate() {
            last_line = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            parse_line(line, last_line, &mut builder, &mut syms)?;
        }
        builder.build().map_err(|e| {
            let line = match &e {
                BuildError::UndefinedLabel(label) | BuildError::LabelOutOfRange { label, .. } => {
                    syms.refs.get(label).copied()
                }
                BuildError::BadAlignment { align } => syms
                    .aligns
                    .iter()
                    .find(|&&(a, _)| a == *align)
                    .map(|&(_, line)| line),
                // Caught line by line in `parse_line`.
                BuildError::DuplicateLabel(_) => None,
            };
            err(line.unwrap_or(last_line), AsmErrorKind::Build(e))
        })
    }
}

/// Names seen while assembling: `.equ` constants, plus the source lines
/// that label and alignment errors found at build time are reported at.
#[derive(Debug, Default)]
struct Symbols {
    equs: HashMap<String, i64>,
    labels: HashSet<String>,
    /// First line whose `lbr` names each label.
    refs: HashMap<String, usize>,
    /// Each `.align` value with its line, in source order.
    aligns: Vec<(u32, usize)>,
}

fn strip_comment(line: &str) -> &str {
    match line.find([';', '#']) {
        Some(pos) => &line[..pos],
        None => line,
    }
}

fn err(line: usize, kind: AsmErrorKind) -> AsmError {
    AsmError { line, kind }
}

fn parse_line(
    line: &str,
    no: usize,
    b: &mut ProgramBuilder,
    syms: &mut Symbols,
) -> Result<(), AsmError> {
    let mut rest = line;
    // Leading labels (there may be several on one line).
    while let Some(colon) = rest.find(':') {
        let (label, after) = rest.split_at(colon);
        let label = label.trim();
        if label.is_empty() || !is_ident(label) {
            break;
        }
        if !syms.labels.insert(label.to_string()) {
            return Err(err(
                no,
                AsmErrorKind::Build(BuildError::DuplicateLabel(label.to_string())),
            ));
        }
        b.label(label);
        rest = after[1..].trim_start();
    }
    if rest.is_empty() {
        return Ok(());
    }
    let (mnemonic, operands) = match rest.find(char::is_whitespace) {
        Some(pos) => (&rest[..pos], rest[pos..].trim()),
        None => (rest, ""),
    };
    let ops: Vec<&str> = if operands.is_empty() {
        Vec::new()
    } else {
        operands.split(',').map(str::trim).collect()
    };
    parse_instr(mnemonic, &ops, no, b, syms)
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_reg(s: &str, no: usize) -> Result<Reg, AsmError> {
    s.strip_prefix(['r', 'R'])
        .and_then(|n| n.parse::<u8>().ok())
        .and_then(Reg::try_new)
        .ok_or_else(|| err(no, AsmErrorKind::BadRegister(s.to_string())))
}

fn parse_breg(s: &str, no: usize) -> Result<BranchReg, AsmError> {
    s.strip_prefix(['b', 'B'])
        .and_then(|n| n.parse::<u8>().ok())
        .and_then(BranchReg::try_new)
        .ok_or_else(|| err(no, AsmErrorKind::BadRegister(s.to_string())))
}

fn parse_int(s: &str, no: usize, equs: &HashMap<String, i64>) -> Result<i64, AsmError> {
    if let Some(&v) = equs.get(s) {
        return Ok(v);
    }
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let value = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
    } else {
        body.parse::<i64>()
    }
    .map_err(|_| err(no, AsmErrorKind::BadImmediate(s.to_string())))?;
    Ok(if neg { -value } else { value })
}

fn parse_i16(s: &str, no: usize, equs: &HashMap<String, i64>) -> Result<i16, AsmError> {
    let v = parse_int(s, no, equs)?;
    // Accept both signed and unsigned 16-bit spellings (e.g. 0xFFFF).
    if (-(1 << 15)..(1 << 16)).contains(&v) {
        Ok(v as u16 as i16)
    } else {
        Err(err(no, AsmErrorKind::BadImmediate(s.to_string())))
    }
}

fn parse_u16(s: &str, no: usize, equs: &HashMap<String, i64>) -> Result<u16, AsmError> {
    let v = parse_int(s, no, equs)?;
    u16::try_from(v).map_err(|_| err(no, AsmErrorKind::BadImmediate(s.to_string())))
}

fn want(ops: &[&str], n: usize, no: usize) -> Result<(), AsmError> {
    if ops.len() == n {
        Ok(())
    } else {
        Err(err(
            no,
            AsmErrorKind::BadOperands(format!("expected {n} operands, got {}", ops.len())),
        ))
    }
}

fn alu_op(stem: &str) -> Option<AluOp> {
    Some(match stem {
        "add" => AluOp::Add,
        "sub" => AluOp::Sub,
        "and" => AluOp::And,
        "or" => AluOp::Or,
        "xor" => AluOp::Xor,
        "sll" => AluOp::Sll,
        "srl" => AluOp::Srl,
        "sra" => AluOp::Sra,
        _ => return None,
    })
}

fn parse_instr(
    mnemonic: &str,
    ops: &[&str],
    no: usize,
    b: &mut ProgramBuilder,
    syms: &mut Symbols,
) -> Result<(), AsmError> {
    let m = mnemonic.to_ascii_lowercase();
    let equs = &syms.equs;

    // pbr and its condition suffixes.
    if let Some(rest) = m.strip_prefix("pbr") {
        let cond = match rest {
            "" => Cond::Always,
            ".eqz" => Cond::Eqz,
            ".nez" => Cond::Nez,
            ".gtz" => Cond::Gtz,
            ".ltz" => Cond::Ltz,
            ".never" => Cond::Never,
            _ => return Err(err(no, AsmErrorKind::UnknownMnemonic(mnemonic.into()))),
        };
        want(ops, 3, no)?;
        let br = parse_breg(ops[0], no)?;
        let rs = parse_reg(ops[1], no)?;
        let delay = parse_int(ops[2], no, equs)?;
        if !(0..8).contains(&delay) {
            return Err(err(no, AsmErrorKind::BadImmediate(ops[2].into())));
        }
        b.push(Instruction::Pbr {
            cond,
            br,
            rs,
            delay: delay as u8,
        });
        return Ok(());
    }

    // `.data addr, value` directive.
    if m == ".data" {
        want(ops, 2, no)?;
        let addr = u32::try_from(parse_int(ops[0], no, equs)?)
            .map_err(|_| err(no, AsmErrorKind::BadImmediate(ops[0].into())))?;
        let value = parse_int(ops[1], no, equs)?;
        if !(i64::from(i32::MIN)..=i64::from(u32::MAX)).contains(&value) {
            return Err(err(no, AsmErrorKind::BadImmediate(ops[1].into())));
        }
        b.data_word(addr, value as u32);
        return Ok(());
    }

    // `.equ NAME, value` — a named constant usable as any immediate.
    if m == ".equ" {
        want(ops, 2, no)?;
        if !is_ident(ops[0]) {
            return Err(err(
                no,
                AsmErrorKind::BadOperands(format!("`{}` is not a valid constant name", ops[0])),
            ));
        }
        let value = parse_int(ops[1], no, equs)?;
        syms.equs.insert(ops[0].to_string(), value);
        return Ok(());
    }

    // `.align bytes` — pad with nops to a power-of-two boundary.
    if m == ".align" {
        want(ops, 1, no)?;
        let align = u32::try_from(parse_int(ops[0], no, equs)?)
            .map_err(|_| err(no, AsmErrorKind::BadImmediate(ops[0].into())))?;
        syms.aligns.push((align, no));
        b.align(align);
        return Ok(());
    }

    // Pseudo-instructions.
    match m.as_str() {
        // `mov rd, rs` → `or rd, rs, rs`
        "mov" => {
            want(ops, 2, no)?;
            let rd = parse_reg(ops[0], no)?;
            let rs = parse_reg(ops[1], no)?;
            b.push(Instruction::Alu {
                op: AluOp::Or,
                rd,
                rs1: rs,
                rs2: rs,
            });
            return Ok(());
        }
        // `li32 rd, imm32` → `lim rd, low16` ; `lui rd, high16`
        "li32" => {
            want(ops, 2, no)?;
            let rd = parse_reg(ops[0], no)?;
            let v = parse_int(ops[1], no, equs)?;
            if !(i64::from(i32::MIN)..=i64::from(u32::MAX)).contains(&v) {
                return Err(err(no, AsmErrorKind::BadImmediate(ops[1].into())));
            }
            let v = v as u32;
            b.push(Instruction::Lim {
                rd,
                imm: (v & 0xFFFF) as u16 as i16,
            });
            b.push(Instruction::Lui {
                rd,
                imm: (v >> 16) as u16,
            });
            return Ok(());
        }
        // `push rs` → `or r7, rs, rs` (SDQ push)
        "push" => {
            want(ops, 1, no)?;
            let rs = parse_reg(ops[0], no)?;
            b.push(Instruction::Alu {
                op: AluOp::Or,
                rd: Reg::QUEUE,
                rs1: rs,
                rs2: rs,
            });
            return Ok(());
        }
        // `pop rd` → `or rd, r7, r7` (LDQ pop)
        "pop" => {
            want(ops, 1, no)?;
            let rd = parse_reg(ops[0], no)?;
            b.push(Instruction::Alu {
                op: AluOp::Or,
                rd,
                rs1: Reg::QUEUE,
                rs2: Reg::QUEUE,
            });
            return Ok(());
        }
        _ => {}
    }

    // Immediate ALU forms (addi, subi, ... but not the register forms).
    if let Some(stem) = m.strip_suffix('i') {
        if let Some(op) = alu_op(stem) {
            want(ops, 3, no)?;
            let rd = parse_reg(ops[0], no)?;
            let rs1 = parse_reg(ops[1], no)?;
            let imm = parse_i16(ops[2], no, equs)?;
            b.push(Instruction::AluImm { op, rd, rs1, imm });
            return Ok(());
        }
    }

    if let Some(op) = alu_op(&m) {
        want(ops, 3, no)?;
        let rd = parse_reg(ops[0], no)?;
        let rs1 = parse_reg(ops[1], no)?;
        let rs2 = parse_reg(ops[2], no)?;
        b.push(Instruction::Alu { op, rd, rs1, rs2 });
        return Ok(());
    }

    match m.as_str() {
        "nop" => {
            want(ops, 0, no)?;
            b.push(Instruction::Nop);
        }
        "halt" => {
            want(ops, 0, no)?;
            b.push(Instruction::Halt);
        }
        "xchg" => {
            want(ops, 0, no)?;
            b.push(Instruction::Xchg);
        }
        "lim" => {
            want(ops, 2, no)?;
            let rd = parse_reg(ops[0], no)?;
            let imm = parse_i16(ops[1], no, equs)?;
            b.push(Instruction::Lim { rd, imm });
        }
        "lui" => {
            want(ops, 2, no)?;
            let rd = parse_reg(ops[0], no)?;
            let imm = parse_u16(ops[1], no, equs)?;
            b.push(Instruction::Lui { rd, imm });
        }
        "ldw" => {
            want(ops, 2, no)?;
            let base = parse_reg(ops[0], no)?;
            let disp = parse_i16(ops[1], no, equs)?;
            b.push(Instruction::Load { base, disp });
        }
        "sta" => {
            want(ops, 2, no)?;
            let base = parse_reg(ops[0], no)?;
            let disp = parse_i16(ops[1], no, equs)?;
            b.push(Instruction::StoreAddr { base, disp });
        }
        "lbr" => {
            want(ops, 2, no)?;
            let br = parse_breg(ops[0], no)?;
            // Numeric operand = absolute byte address; otherwise a label.
            if ops[1].starts_with(|c: char| c.is_ascii_digit() || c == '-') {
                let addr = parse_int(ops[1], no, equs)?;
                let target_parcel = u32::try_from(addr)
                    .ok()
                    .and_then(|a| u16::try_from(a / 2).ok())
                    .ok_or_else(|| err(no, AsmErrorKind::BadImmediate(ops[1].into())))?;
                b.push(Instruction::Lbr { br, target_parcel });
            } else {
                syms.refs.entry(ops[1].to_string()).or_insert(no);
                b.lbr_label(br, ops[1]);
            }
        }
        "lbrr" => {
            want(ops, 2, no)?;
            let br = parse_breg(ops[0], no)?;
            let rs1 = parse_reg(ops[1], no)?;
            b.push(Instruction::LbrReg { br, rs1 });
        }
        _ => return Err(err(no, AsmErrorKind::UnknownMnemonic(mnemonic.into()))),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asm(src: &str) -> Program {
        Assembler::new(InstrFormat::Fixed32)
            .assemble(src)
            .unwrap_or_else(|e| panic!("assembly failed: {e}"))
    }

    #[test]
    fn assembles_every_mnemonic() {
        let p = asm(r#"
            nop
            halt
            xchg
            add  r1, r2, r3
            sub  r1, r2, r3
            and  r1, r2, r3
            or   r7, r7, r7
            xor  r1, r2, r3
            sll  r1, r2, r3
            srl  r1, r2, r3
            sra  r1, r2, r3
            addi r1, r2, -5
            subi r1, r2, 5
            andi r1, r2, 0xff
            ori  r1, r2, 1
            xori r1, r2, 1
            slli r1, r2, 3
            srli r1, r2, 3
            srai r1, r2, 3
            lim  r1, -100
            lui  r1, 0xABCD
            ldw  r2, 16
            sta  r3, -16
            lbr  b0, 0x40
            lbrr b1, r4
            pbr  b0, r0, 0
            pbr.eqz b1, r1, 1
            pbr.nez b2, r2, 2
            pbr.gtz b3, r3, 3
            pbr.ltz b4, r4, 4
            pbr.never b5, r5, 5
        "#);
        assert_eq!(p.static_count(), 31);
    }

    #[test]
    fn labels_and_comments() {
        let p = asm("start: nop ; comment\n  lbr b0, start # another\n");
        assert_eq!(p.symbols()["start"], 0);
    }

    #[test]
    fn multiple_labels_one_line() {
        let p = asm("a: b: nop\n");
        assert_eq!(p.symbols()["a"], 0);
        assert_eq!(p.symbols()["b"], 0);
    }

    #[test]
    fn data_directive() {
        let p = asm(".data 0x1000, 7\nhalt\n");
        assert_eq!(p.data(), &[(0x1000, 7)]);
    }

    #[test]
    fn error_reports_line() {
        let e = Assembler::new(InstrFormat::Fixed32)
            .assemble("nop\nbogus r1\n")
            .unwrap_err();
        assert_eq!(e.line(), 2);
        assert!(matches!(e.kind(), AsmErrorKind::UnknownMnemonic(_)));
    }

    #[test]
    fn bad_register_reported() {
        let e = Assembler::new(InstrFormat::Fixed32)
            .assemble("add r9, r1, r2\n")
            .unwrap_err();
        assert!(matches!(e.kind(), AsmErrorKind::BadRegister(_)));
    }

    #[test]
    fn delay_out_of_range() {
        let e = Assembler::new(InstrFormat::Fixed32)
            .assemble("pbr b0, r0, 8\n")
            .unwrap_err();
        assert!(matches!(e.kind(), AsmErrorKind::BadImmediate(_)));
    }

    #[test]
    fn undefined_label_surfaces_as_build_error() {
        let e = Assembler::new(InstrFormat::Fixed32)
            .assemble("lbr b0, missing\n")
            .unwrap_err();
        assert!(matches!(e.kind(), AsmErrorKind::Build(_)));
    }

    #[test]
    fn equ_constants_substitute() {
        let p = asm(".equ FPU, -4096\n.equ COUNT, 5\nlim r5, FPU\nlim r1, COUNT\nhalt\n");
        let instrs: Vec<_> = p.instructions().map(|(_, i)| i).collect();
        assert_eq!(
            instrs[0],
            Instruction::Lim {
                rd: crate::Reg::new(5),
                imm: -4096
            }
        );
        assert_eq!(
            instrs[1],
            Instruction::Lim {
                rd: crate::Reg::new(1),
                imm: 5
            }
        );
    }

    #[test]
    fn align_pads_with_nops() {
        let p = asm("nop\n.align 16\nhere: halt\n");
        assert_eq!(p.symbols()["here"], 16);
        // Three nops inserted between the first nop and halt.
        assert_eq!(p.static_count(), 5);
    }

    #[test]
    fn pseudo_instructions_expand() {
        let p = asm("mov r1, r2\nli32 r3, 0x12345678\npush r1\npop r4\nhalt\n");
        let instrs: Vec<_> = p.instructions().map(|(_, i)| i).collect();
        assert_eq!(instrs.len(), 6, "li32 expands to two instructions");
        assert_eq!(
            instrs[1],
            Instruction::Lim {
                rd: crate::Reg::new(3),
                imm: 0x5678
            }
        );
        assert_eq!(
            instrs[2],
            Instruction::Lui {
                rd: crate::Reg::new(3),
                imm: 0x1234
            }
        );
        assert!(matches!(instrs[3], Instruction::Alu { rd, .. } if rd.is_queue()));
    }

    #[test]
    fn bad_align_reported() {
        let e = Assembler::new(InstrFormat::Fixed32)
            .assemble("nop\n.align 6\nhalt\n")
            .unwrap_err();
        assert!(matches!(e.kind(), AsmErrorKind::Build(_)));
    }

    #[test]
    fn hex_immediates_accept_u16_range() {
        let p = asm("lim r0, 0xFFFF\n");
        match p.instructions().next().unwrap().1 {
            Instruction::Lim { imm, .. } => assert_eq!(imm, -1),
            other => panic!("unexpected {other}"),
        }
    }
}
