//! Instruction format selection.

use std::fmt;

/// The instruction format used when laying out a program in memory.
///
/// The real PIPE chip mixes one-parcel (16-bit) and two-parcel (32-bit)
/// instructions. For the results presented in the paper a fixed 32-bit
/// format was simulated instead, "to make comparisons to other machines
/// that only have one instruction format more realistic" (§6). This
/// reproduction defaults to [`InstrFormat::Fixed32`] for the same reason and
/// keeps [`InstrFormat::Mixed`] as an ablation (paper parameter 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InstrFormat {
    /// Every instruction occupies two parcels (4 bytes). Instructions
    /// without an immediate are padded with a zero second parcel.
    #[default]
    Fixed32,
    /// Instructions occupy one parcel, or two when they carry a 16-bit
    /// immediate — the PIPE chip's native layout.
    Mixed,
}

impl InstrFormat {
    /// Both formats, for parameter sweeps.
    pub const ALL: [InstrFormat; 2] = [InstrFormat::Fixed32, InstrFormat::Mixed];
}

impl fmt::Display for InstrFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstrFormat::Fixed32 => f.write_str("fixed-32"),
            InstrFormat::Mixed => f.write_str("mixed-16/32"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fixed32() {
        assert_eq!(InstrFormat::default(), InstrFormat::Fixed32);
    }

    #[test]
    fn display() {
        assert_eq!(InstrFormat::Fixed32.to_string(), "fixed-32");
        assert_eq!(InstrFormat::Mixed.to_string(), "mixed-16/32");
    }
}
