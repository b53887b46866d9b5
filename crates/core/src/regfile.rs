//! Register files: banked general-purpose registers and branch registers.

use pipe_isa::{BranchReg, Reg};

/// The sixteen 32-bit data registers: a foreground bank of eight (the only
/// visible one) and a background bank, swapped by `xchg`. This banking was
/// added to PIPE "to improve the speed of subroutine calling" (§3.1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegFile {
    banks: [[u32; 8]; 2],
    active: usize,
}

impl RegFile {
    /// Creates a register file with all registers zero.
    pub fn new() -> RegFile {
        RegFile::default()
    }

    /// Reads a foreground register. `r7` reads are intercepted by the
    /// processor (LDQ head) before reaching here; reading `r7` from the
    /// file yields its last latched value.
    pub fn read(&self, r: Reg) -> u32 {
        self.banks[self.active][r.number() as usize]
    }

    /// Writes a foreground register.
    pub fn write(&mut self, r: Reg, value: u32) {
        self.banks[self.active][r.number() as usize] = value;
    }

    /// Swaps foreground and background banks.
    pub fn exchange(&mut self) {
        self.active ^= 1;
    }

    /// Which bank is foreground (0 or 1), for inspection.
    pub fn active_bank(&self) -> usize {
        self.active
    }
}

/// The eight branch registers holding branch-target byte addresses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BranchRegFile {
    regs: [u32; 8],
}

impl BranchRegFile {
    /// Creates a branch register file with all targets zero.
    pub fn new() -> BranchRegFile {
        BranchRegFile::default()
    }

    /// Reads a branch register (byte address).
    pub fn read(&self, b: BranchReg) -> u32 {
        self.regs[b.number() as usize]
    }

    /// Writes a branch register (byte address).
    pub fn write(&mut self, b: BranchReg, target: u32) {
        self.regs[b.number() as usize] = target;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banks_are_independent() {
        let mut rf = RegFile::new();
        rf.write(Reg::new(1), 10);
        rf.exchange();
        assert_eq!(rf.read(Reg::new(1)), 0);
        rf.write(Reg::new(1), 20);
        rf.exchange();
        assert_eq!(rf.read(Reg::new(1)), 10);
        rf.exchange();
        assert_eq!(rf.read(Reg::new(1)), 20);
    }

    #[test]
    fn active_bank_toggles() {
        let mut rf = RegFile::new();
        assert_eq!(rf.active_bank(), 0);
        rf.exchange();
        assert_eq!(rf.active_bank(), 1);
    }

    #[test]
    fn branch_registers_hold_targets() {
        let mut bf = BranchRegFile::new();
        bf.write(BranchReg::new(3), 0x40);
        assert_eq!(bf.read(BranchReg::new(3)), 0x40);
        assert_eq!(bf.read(BranchReg::new(0)), 0);
    }
}
