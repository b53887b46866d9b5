//! The data memory image behind the external cache.
//!
//! The paper assumes the external cache hits 100 % of the time, so the
//! simulator needs only a flat value store, which the timing-free
//! interpreter of `pipe-core` owns. Values are 32-bit words at
//! 4-byte-aligned byte addresses; unwritten locations read as zero.

use std::collections::HashMap;

/// Words per page: memory is allocated a kilobyte at a time.
const PAGE_WORDS: usize = 256;

/// Sparse 32-bit word memory, addressed by byte address. Words live in
/// pages allocated on first write, so the dense arrays of a workload cost
/// four bytes a word.
#[derive(Debug, Clone, Default)]
pub struct DataMemory {
    pages: HashMap<u32, Box<[u32; PAGE_WORDS]>>,
}

impl DataMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> DataMemory {
        DataMemory::default()
    }

    /// Creates a memory pre-loaded from `(byte address, value)` pairs.
    pub fn from_image<I: IntoIterator<Item = (u32, u32)>>(image: I) -> DataMemory {
        let mut mem = DataMemory::new();
        mem.extend(image);
        mem
    }

    /// The page number and word index of the word containing `addr`.
    fn locate(addr: u32) -> (u32, usize) {
        let word = addr / 4;
        (word / PAGE_WORDS as u32, word as usize % PAGE_WORDS)
    }

    /// Reads the 32-bit word containing `addr` (aligned down).
    #[inline]
    pub fn read(&self, addr: u32) -> u32 {
        let (page, i) = Self::locate(addr);
        self.pages.get(&page).map_or(0, |p| p[i])
    }

    /// Writes the 32-bit word containing `addr` (aligned down).
    pub fn write(&mut self, addr: u32, value: u32) {
        let (page, i) = Self::locate(addr);
        self.pages
            .entry(page)
            .or_insert_with(|| Box::new([0; PAGE_WORDS]))[i] = value;
    }
}

impl FromIterator<(u32, u32)> for DataMemory {
    fn from_iter<I: IntoIterator<Item = (u32, u32)>>(iter: I) -> DataMemory {
        DataMemory::from_image(iter)
    }
}

impl Extend<(u32, u32)> for DataMemory {
    fn extend<I: IntoIterator<Item = (u32, u32)>>(&mut self, iter: I) {
        for (addr, value) in iter {
            self.write(addr, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_default() {
        let m = DataMemory::new();
        assert_eq!(m.read(0x1234), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = DataMemory::new();
        m.write(0x100, 42);
        assert_eq!(m.read(0x100), 42);
        assert_eq!(m.read(0x104), 0);
    }

    #[test]
    fn unaligned_access_hits_containing_word() {
        let mut m = DataMemory::new();
        m.write(0x100, 7);
        assert_eq!(m.read(0x102), 7);
        m.write(0x103, 9);
        assert_eq!(m.read(0x100), 9);
    }

    #[test]
    fn from_image_and_extend() {
        let mut m: DataMemory = vec![(0, 1), (4, 2)].into_iter().collect();
        m.extend(vec![(8, 3)]);
        assert_eq!(m.read(4), 2);
        assert_eq!(m.read(8), 3);
        assert_eq!(m.read(12), 0);
    }
}
