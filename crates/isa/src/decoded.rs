//! Predecoded program images.
//!
//! The simulator's hot loop used to call [`decode`] on every issue
//! attempt, re-deriving the same [`Instruction`] for the same static
//! parcel address millions of times per run. A [`DecodedProgram`] pays
//! that cost once: it decodes the image at every parcel offset up front,
//! so fetch engines that serve parcels straight from the image can hand
//! the core a parcel *index* and the core looks the instruction up by
//! value.
//!
//! Decoding is performed at **every** parcel offset — not just
//! instruction boundaries — because where instruction boundaries fall
//! depends on the dynamic fetch stream (branch targets can land
//! mid-image under the Mixed format). Slot `i` holds exactly what
//! `decode(parcels[i], parcels.get(i + 1))` would return, including the
//! error, so the lookup is bit-for-bit equivalent to decoding at issue
//! time no matter which addresses the front end actually fetches.

use crate::decode::{decode, DecodeError};
use crate::instruction::Instruction;
use crate::program::Program;

/// A [`Program`] plus a table of the decode result at every parcel
/// offset of its image.
///
/// Construction walks the image once; lookups are a bounds-checked
/// array read. The table is immutable and safely shareable across
/// threads (wrap it in an `Arc` to share one predecode across a sweep).
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    program: Program,
    slots: Box<[Result<Instruction, DecodeError>]>,
}

impl DecodedProgram {
    /// Predecodes `program`, computing `decode(parcels[i], parcels[i+1])`
    /// for every parcel offset `i`.
    pub fn new(program: Program) -> DecodedProgram {
        let parcels = program.parcels();
        let slots = (0..parcels.len())
            .map(|i| decode(parcels[i], parcels.get(i + 1).copied()))
            .collect();
        DecodedProgram { program, slots }
    }

    /// The underlying program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The decode result at parcel index `index` (the offset of the
    /// instruction's first parcel from the image base, in parcels), or
    /// `None` outside the image.
    #[inline]
    pub fn get(&self, index: usize) -> Option<Result<Instruction, DecodeError>> {
        self.slots.get(index).copied()
    }

    /// Number of predecoded slots (one per parcel of the image).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` for an empty image.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::InstrFormat;
    use crate::program::ProgramBuilder;
    use crate::reg::Reg;

    fn sample(format: InstrFormat) -> Program {
        let mut b = ProgramBuilder::new(format);
        b.push(Instruction::Lim {
            rd: Reg::new(1),
            imm: 3,
        });
        b.push(Instruction::Lui {
            rd: Reg::new(2),
            imm: 7,
        });
        b.push(Instruction::Halt);
        b.build().unwrap()
    }

    #[test]
    fn every_slot_matches_issue_time_decode() {
        for format in [InstrFormat::Fixed32, InstrFormat::Mixed] {
            let program = sample(format);
            let decoded = DecodedProgram::new(program.clone());
            let parcels = program.parcels();
            assert_eq!(decoded.len(), parcels.len());
            for i in 0..parcels.len() {
                let expect = decode(parcels[i], parcels.get(i + 1).copied());
                assert_eq!(decoded.get(i), Some(expect), "slot {i} ({format:?})");
            }
            assert_eq!(decoded.get(parcels.len()), None);
        }
    }

    #[test]
    fn empty_program_is_empty() {
        let b = ProgramBuilder::new(InstrFormat::Fixed32);
        let decoded = DecodedProgram::new(b.build().unwrap());
        assert!(decoded.is_empty());
        assert_eq!(decoded.get(0), None);
    }
}
