//! Program images and the programmatic builder.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use crate::decode::{decode, instr_len, DecodeError};
use crate::encode::{encode, parcel_has_ext};
use crate::format::InstrFormat;
use crate::instruction::Instruction;
use crate::reg::BranchReg;
use crate::PARCEL_BYTES;

/// A program's parcel image at its base address: immutable and cheaply
/// cloneable (the parcel vector is shared), so fetch engines keep their
/// own handle and read instructions through it by byte address.
#[derive(Debug, Clone)]
pub struct Image {
    parcels: Arc<Vec<u16>>,
    base: u32,
}

impl Image {
    /// Base byte address of the image.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// One past the last code byte address.
    #[inline]
    pub fn end(&self) -> u32 {
        self.base + self.parcels.len() as u32 * PARCEL_BYTES
    }

    /// Returns the parcel holding byte address `addr`, or `None` outside
    /// the image.
    #[inline]
    pub fn parcel_at(&self, addr: u32) -> Option<u16> {
        if addr < self.base {
            return None;
        }
        let idx = ((addr - self.base) / PARCEL_BYTES) as usize;
        self.parcels.get(idx).copied()
    }

    /// The parcels of the instruction at `addr`, `(first, immediate)`, with
    /// the immediate present exactly when the first parcel's ext bit is
    /// set; `None` when either parcel lies outside the image.
    #[inline]
    pub fn instruction_parcels(&self, addr: u32) -> Option<(u16, Option<u16>)> {
        let first = self.parcel_at(addr)?;
        if parcel_has_ext(first) {
            Some((first, Some(self.parcel_at(addr + PARCEL_BYTES)?)))
        } else {
            Some((first, None))
        }
    }

    /// Parcel index of byte address `addr`, which must lie in the image:
    /// the index [`DecodedProgram::get`](crate::DecodedProgram::get) takes.
    #[inline]
    pub fn index_of(&self, addr: u32) -> usize {
        ((addr - self.base) / PARCEL_BYTES) as usize
    }
}

/// An assembled program: a parcel [`Image`] plus symbols and initial
/// data.
///
/// Code addresses are byte addresses; instructions sit at even (parcel)
/// boundaries.
#[derive(Debug, Clone)]
pub struct Program {
    image: Image,
    entry: u32,
    format: InstrFormat,
    symbols: HashMap<String, u32>,
    data: Vec<(u32, u32)>,
}

impl Program {
    /// The raw parcel image.
    pub fn parcels(&self) -> &[u16] {
        &self.image.parcels
    }

    /// Base byte address of the image.
    pub fn base(&self) -> u32 {
        self.image.base
    }

    /// Entry point (byte address).
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// The instruction format the image was laid out with.
    pub fn format(&self) -> InstrFormat {
        self.format
    }

    /// Label → byte-address map.
    pub fn symbols(&self) -> &HashMap<String, u32> {
        &self.symbols
    }

    /// Initial data memory contents as `(byte address, value)` pairs.
    pub fn data(&self) -> &[(u32, u32)] {
        &self.data
    }

    /// Total code size in bytes.
    pub fn code_bytes(&self) -> u32 {
        self.image.parcels.len() as u32 * PARCEL_BYTES
    }

    /// One past the last code byte address.
    pub fn end(&self) -> u32 {
        self.image.end()
    }

    /// Returns the parcel at byte address `addr`, or `None` outside the
    /// image. `addr` must be even.
    pub fn parcel_at(&self, addr: u32) -> Option<u16> {
        debug_assert_eq!(addr % PARCEL_BYTES, 0, "unaligned parcel address");
        self.image.parcel_at(addr)
    }

    /// Decodes the instruction at byte address `addr`.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for addresses outside the image or holding
    /// invalid encodings.
    pub fn instruction_at(&self, addr: u32) -> Result<(Instruction, u32), DecodeError> {
        let (first, second) = self
            .image
            .instruction_parcels(addr)
            .ok_or(DecodeError::MissingImmediate)?;
        let instr = decode(first, second)?;
        Ok((instr, instr_len(first) as u32 * PARCEL_BYTES))
    }

    /// Iterates over `(byte address, instruction)` pairs from `base` to the
    /// end of the image, stopping at the first decode error.
    pub fn instructions(&self) -> InstructionIter<'_> {
        InstructionIter {
            program: self,
            addr: self.base(),
        }
    }

    /// Counts the static instructions in the image.
    pub fn static_count(&self) -> usize {
        self.instructions().count()
    }

    /// A shared handle to the parcel image, for fetch engines.
    pub fn image(&self) -> Image {
        self.image.clone()
    }

    /// Builds a program from raw parts, without assembling: a parcel
    /// image, its base and entry byte addresses, symbols and the initial
    /// data image. Tests use it to attach data to a built program.
    ///
    /// # Panics
    ///
    /// Panics if `base` or `entry` are not parcel-aligned.
    pub fn from_raw(
        parcels: Vec<u16>,
        base: u32,
        entry: u32,
        format: InstrFormat,
        symbols: HashMap<String, u32>,
        data: Vec<(u32, u32)>,
    ) -> Program {
        assert_eq!(base % PARCEL_BYTES, 0, "base must be parcel-aligned");
        assert_eq!(entry % PARCEL_BYTES, 0, "entry must be parcel-aligned");
        Program {
            image: Image {
                parcels: Arc::new(parcels),
                base,
            },
            entry,
            format,
            symbols,
            data,
        }
    }
}

/// Iterator over the instructions of a [`Program`].
#[derive(Debug)]
pub struct InstructionIter<'a> {
    program: &'a Program,
    addr: u32,
}

impl Iterator for InstructionIter<'_> {
    type Item = (u32, Instruction);

    fn next(&mut self) -> Option<Self::Item> {
        if self.addr >= self.program.end() {
            return None;
        }
        match self.program.instruction_at(self.addr) {
            Ok((instr, size)) => {
                let at = self.addr;
                self.addr += size;
                Some((at, instr))
            }
            Err(_) => None,
        }
    }
}

/// An error produced when building a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A branch-register load referenced a label that was never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
    /// A label address does not fit in the 16-bit parcel-address field of
    /// `lbr`.
    LabelOutOfRange {
        /// The offending label.
        label: String,
        /// Its byte address.
        addr: u32,
    },
    /// An `.align` value was not a power of two, or the required padding
    /// is not a whole number of `nop`s under the chosen format.
    BadAlignment {
        /// The requested alignment.
        align: u32,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            BuildError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            BuildError::LabelOutOfRange { label, addr } => {
                write!(f, "label `{label}` at {addr:#x} out of lbr range")
            }
            BuildError::BadAlignment { align } => {
                write!(f, "invalid alignment {align}")
            }
        }
    }
}

impl Error for BuildError {}

#[derive(Debug, Clone)]
enum Item {
    Instr(Instruction),
    /// `lbr` whose target is a label patched at build time.
    LbrLabel(BranchReg, String),
    /// Pad with `nop`s to the given byte alignment.
    Align(u32),
}

/// Incrementally builds a [`Program`] from instructions and labels.
///
/// ```
/// use pipe_isa::{AluOp, Instruction, InstrFormat, ProgramBuilder, Reg, BranchReg, Cond};
///
/// let mut b = ProgramBuilder::new(InstrFormat::Fixed32);
/// b.push(Instruction::Lim { rd: Reg::new(1), imm: 3 });
/// b.lbr_label(BranchReg::new(0), "top");
/// b.label("top");
/// b.push(Instruction::AluImm { op: AluOp::Sub, rd: Reg::new(1), rs1: Reg::new(1), imm: 1 });
/// b.push(Instruction::Pbr { cond: Cond::Nez, br: BranchReg::new(0), rs: Reg::new(1), delay: 0 });
/// b.push(Instruction::Halt);
/// let program = b.build().unwrap();
/// assert_eq!(program.static_count(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    format: InstrFormat,
    base: u32,
    items: Vec<Item>,
    /// label → item index at which it is defined
    labels: HashMap<String, usize>,
    data: Vec<(u32, u32)>,
    duplicate: Option<String>,
}

impl ProgramBuilder {
    /// Creates a builder laying code out from byte address 0.
    pub fn new(format: InstrFormat) -> ProgramBuilder {
        ProgramBuilder::with_base(format, 0)
    }

    /// Creates a builder laying code out from `base` (must be even).
    ///
    /// # Panics
    ///
    /// Panics if `base` is not parcel-aligned.
    pub fn with_base(format: InstrFormat, base: u32) -> ProgramBuilder {
        assert_eq!(base % PARCEL_BYTES, 0, "base must be parcel-aligned");
        ProgramBuilder {
            format,
            base,
            items: Vec::new(),
            labels: HashMap::new(),
            data: Vec::new(),
            duplicate: None,
        }
    }

    /// The layout format.
    pub fn format(&self) -> InstrFormat {
        self.format
    }

    /// Appends an instruction.
    pub fn push(&mut self, instr: Instruction) -> &mut Self {
        self.items.push(Item::Instr(instr));
        self
    }

    /// Appends several instructions.
    pub fn extend<I: IntoIterator<Item = Instruction>>(&mut self, instrs: I) -> &mut Self {
        for i in instrs {
            self.push(i);
        }
        self
    }

    /// Appends an `lbr` whose target is the byte address of `label`,
    /// resolved at [`build`](Self::build) time.
    pub fn lbr_label(&mut self, br: BranchReg, label: impl Into<String>) -> &mut Self {
        self.items.push(Item::LbrLabel(br, label.into()));
        self
    }

    /// Pads with `nop`s until the current address is a multiple of
    /// `bytes` (which must be a power of two and a multiple of the `nop`
    /// size under the builder's format).
    pub fn align(&mut self, bytes: u32) -> &mut Self {
        self.items.push(Item::Align(bytes));
        self
    }

    /// Defines `label` at the current position.
    pub fn label(&mut self, label: impl Into<String>) -> &mut Self {
        let label = label.into();
        if self
            .labels
            .insert(label.clone(), self.items.len())
            .is_some()
            && self.duplicate.is_none()
        {
            self.duplicate = Some(label);
        }
        self
    }

    /// Sets an initial data word at byte address `addr`.
    pub fn data_word(&mut self, addr: u32, value: u32) -> &mut Self {
        self.data.push((addr, value));
        self
    }

    /// Number of instructions appended so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if no instructions have been appended.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Resolves labels and produces the [`Program`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] for undefined or duplicate labels and for
    /// label addresses outside `lbr`'s 16-bit parcel-address range.
    pub fn build(&self) -> Result<Program, BuildError> {
        if let Some(l) = &self.duplicate {
            return Err(BuildError::DuplicateLabel(l.clone()));
        }

        // Pass 1: compute the byte address of every item. `lbr` has a fixed
        // two-parcel size in both formats, so sizes don't depend on label
        // resolution; alignment padding depends only on the address.
        let nop_bytes = Instruction::Nop.size_bytes(self.format);
        let align_pad = |addr: u32, align: u32| -> Result<u32, BuildError> {
            if align == 0 || !align.is_power_of_two() {
                return Err(BuildError::BadAlignment { align });
            }
            let pad = (align - addr % align) % align;
            if !pad.is_multiple_of(nop_bytes) {
                return Err(BuildError::BadAlignment { align });
            }
            Ok(pad)
        };
        let mut addr = self.base;
        let mut item_addr = Vec::with_capacity(self.items.len() + 1);
        for item in &self.items {
            item_addr.push(addr);
            let size = match item {
                Item::Instr(i) => i.size_bytes(self.format),
                Item::LbrLabel(..) => 2 * PARCEL_BYTES,
                Item::Align(a) => align_pad(addr, *a)?,
            };
            addr += size;
        }
        item_addr.push(addr); // address of "end", for trailing labels

        let mut symbols = HashMap::new();
        for (label, idx) in &self.labels {
            symbols.insert(label.clone(), item_addr[*idx]);
        }

        // Pass 2: encode.
        let mut parcels = Vec::new();
        for (idx, item) in self.items.iter().enumerate() {
            let instr = match item {
                Item::Align(a) => {
                    let pad = align_pad(item_addr[idx], *a)?;
                    for _ in 0..pad / nop_bytes {
                        parcels.extend_from_slice(encode(&Instruction::Nop, self.format).parcels());
                    }
                    continue;
                }
                Item::Instr(i) => *i,
                Item::LbrLabel(br, label) => {
                    let target = *symbols
                        .get(label)
                        .ok_or_else(|| BuildError::UndefinedLabel(label.clone()))?;
                    let parcel_addr = target / PARCEL_BYTES;
                    let target_parcel =
                        u16::try_from(parcel_addr).map_err(|_| BuildError::LabelOutOfRange {
                            label: label.clone(),
                            addr: target,
                        })?;
                    Instruction::Lbr {
                        br: *br,
                        target_parcel,
                    }
                }
            };
            parcels.extend_from_slice(encode(&instr, self.format).parcels());
        }

        Ok(Program {
            image: Image {
                parcels: Arc::new(parcels),
                base: self.base,
            },
            entry: self.base,
            format: self.format,
            symbols,
            data: self.data.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::{AluOp, Cond};
    use crate::reg::Reg;

    fn tiny_loop(format: InstrFormat) -> Program {
        let mut b = ProgramBuilder::new(format);
        b.push(Instruction::Lim {
            rd: Reg::new(1),
            imm: 3,
        });
        b.lbr_label(BranchReg::new(0), "top");
        b.label("top");
        b.push(Instruction::AluImm {
            op: AluOp::Sub,
            rd: Reg::new(1),
            rs1: Reg::new(1),
            imm: 1,
        });
        b.push(Instruction::Pbr {
            cond: Cond::Nez,
            br: BranchReg::new(0),
            rs: Reg::new(1),
            delay: 0,
        });
        b.push(Instruction::Halt);
        b.build().unwrap()
    }

    #[test]
    fn builds_and_iterates() {
        let p = tiny_loop(InstrFormat::Fixed32);
        assert_eq!(p.static_count(), 5);
        assert_eq!(p.code_bytes(), 5 * 4);
        let instrs: Vec<_> = p.instructions().collect();
        assert_eq!(instrs[0].0, 0);
        assert_eq!(instrs[1].0, 4);
        assert!(matches!(instrs[4].1, Instruction::Halt));
    }

    #[test]
    fn mixed_layout_is_denser() {
        let fixed = tiny_loop(InstrFormat::Fixed32);
        let mixed = tiny_loop(InstrFormat::Mixed);
        assert!(mixed.code_bytes() < fixed.code_bytes());
        assert_eq!(mixed.static_count(), fixed.static_count());
    }

    #[test]
    fn label_resolution() {
        let p = tiny_loop(InstrFormat::Fixed32);
        let top = p.symbols()["top"];
        assert_eq!(top, 8); // after lim (4) and lbr (4)
        let (lbr, _) = p.instruction_at(4).unwrap();
        match lbr {
            Instruction::Lbr { target_parcel, .. } => {
                assert_eq!(u32::from(target_parcel) * 2, top)
            }
            other => panic!("expected lbr, got {other}"),
        }
    }

    #[test]
    fn undefined_label_errors() {
        let mut b = ProgramBuilder::new(InstrFormat::Fixed32);
        b.lbr_label(BranchReg::new(0), "nowhere");
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::UndefinedLabel("nowhere".into())
        );
    }

    #[test]
    fn duplicate_label_errors() {
        let mut b = ProgramBuilder::new(InstrFormat::Fixed32);
        b.label("x");
        b.push(Instruction::Nop);
        b.label("x");
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::DuplicateLabel("x".into())
        );
    }

    #[test]
    fn trailing_label_points_at_end() {
        let mut b = ProgramBuilder::new(InstrFormat::Fixed32);
        b.push(Instruction::Nop);
        b.label("end");
        let p = b.build().unwrap();
        assert_eq!(p.symbols()["end"], 4);
    }

    #[test]
    fn parcel_at_bounds() {
        let p = tiny_loop(InstrFormat::Fixed32);
        assert!(p.parcel_at(0).is_some());
        assert!(p.parcel_at(p.end()).is_none());
    }

    #[test]
    fn base_offset_layout() {
        let mut b = ProgramBuilder::with_base(InstrFormat::Fixed32, 0x100);
        b.push(Instruction::Nop);
        b.label("here");
        let p = b.build().unwrap();
        assert_eq!(p.base(), 0x100);
        assert_eq!(p.symbols()["here"], 0x104);
        assert!(p.parcel_at(0x0).is_none());
        assert!(p.parcel_at(0x100).is_some());
    }

    #[test]
    fn data_words_recorded() {
        let mut b = ProgramBuilder::new(InstrFormat::Fixed32);
        b.push(Instruction::Halt);
        b.data_word(0x1000, 42);
        let p = b.build().unwrap();
        assert_eq!(p.data(), &[(0x1000, 42)]);
    }
}
