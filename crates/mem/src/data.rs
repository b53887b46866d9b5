//! The data memory image behind the external cache.
//!
//! The paper assumes the external cache hits 100 % of the time, so the
//! simulator needs only a flat value store. Values are 32-bit words at
//! 4-byte-aligned byte addresses; unwritten locations read as zero.

use std::collections::HashMap;

/// Words per page: memory is allocated a kilobyte at a time.
const PAGE_WORDS: usize = 256;

/// One page of words, with a bit per word that has been written.
#[derive(Debug, Clone)]
struct Page {
    words: [u32; PAGE_WORDS],
    written: [u64; PAGE_WORDS / 64],
}

/// Sparse 32-bit word memory, addressed by byte address. Words live in
/// pages allocated on first write, so the dense arrays of a workload cost
/// four bytes a word.
#[derive(Debug, Clone, Default)]
pub struct DataMemory {
    pages: HashMap<u32, Box<Page>>,
}

impl DataMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> DataMemory {
        DataMemory::default()
    }

    /// Creates a memory pre-loaded from `(byte address, value)` pairs.
    pub fn from_image<I: IntoIterator<Item = (u32, u32)>>(image: I) -> DataMemory {
        let mut mem = DataMemory::new();
        for (addr, value) in image {
            mem.write(addr, value);
        }
        mem
    }

    /// The page number and word index of the word containing `addr`.
    fn locate(addr: u32) -> (u32, usize) {
        let word = addr / 4;
        (word / PAGE_WORDS as u32, word as usize % PAGE_WORDS)
    }

    /// Reads the 32-bit word containing `addr` (aligned down).
    pub fn read(&self, addr: u32) -> u32 {
        let (page, i) = Self::locate(addr);
        self.pages.get(&page).map_or(0, |p| p.words[i])
    }

    /// Writes the 32-bit word containing `addr` (aligned down), returning
    /// the word it replaced, or `None` if the word was never written.
    pub fn write(&mut self, addr: u32, value: u32) -> Option<u32> {
        let (page, i) = Self::locate(addr);
        let p = self.pages.entry(page).or_insert_with(|| {
            Box::new(Page {
                words: [0; PAGE_WORDS],
                written: [0; PAGE_WORDS / 64],
            })
        });
        let bit = 1u64 << (i % 64);
        let previous = (p.written[i / 64] & bit != 0).then_some(p.words[i]);
        p.written[i / 64] |= bit;
        p.words[i] = value;
        previous
    }

    /// Undoes a [`write`](Self::write) of the word containing `addr`, given
    /// the `previous` word that write returned.
    pub fn restore(&mut self, addr: u32, previous: Option<u32>) {
        let (page, i) = Self::locate(addr);
        let p = self
            .pages
            .get_mut(&page)
            .expect("restore of a written word");
        let bit = 1u64 << (i % 64);
        match previous {
            Some(value) => p.words[i] = value,
            None => {
                p.words[i] = 0;
                p.written[i / 64] &= !bit;
            }
        }
    }

    /// Number of distinct words written (and not restored away).
    pub fn len(&self) -> usize {
        self.pages
            .values()
            .flat_map(|p| p.written)
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Returns `true` if nothing was ever written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over the written `(aligned byte address, value)` pairs in
    /// unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.pages.iter().flat_map(|(&page, p)| {
            (0..PAGE_WORDS)
                .filter(|&i| p.written[i / 64] & (1 << (i % 64)) != 0)
                .map(move |i| ((page * PAGE_WORDS as u32 + i as u32) * 4, p.words[i]))
        })
    }
}

impl PartialEq for DataMemory {
    /// Two memories are equal when every address reads the same value —
    /// explicit zeros count as unwritten.
    fn eq(&self, other: &DataMemory) -> bool {
        self.iter().all(|(a, v)| other.read(a) == v) && other.iter().all(|(a, v)| self.read(a) == v)
    }
}

impl Eq for DataMemory {}

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
        assert!(m.is_empty());
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = DataMemory::new();
        m.write(0x100, 42);
        assert_eq!(m.read(0x100), 42);
        assert_eq!(m.len(), 1);
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
    fn restore_undoes_writes() {
        let mut m = DataMemory::new();
        m.write(0x100, 1);
        let first = m.write(0x100, 2);
        let fresh = m.write(0x200, 3);
        m.restore(0x200, fresh);
        m.restore(0x100, first);
        assert_eq!(m, DataMemory::from_image([(0x100, 1)]));
        assert_eq!(m.len(), 1, "a never-written word is forgotten again");
    }

    #[test]
    fn from_image_and_extend() {
        let mut m: DataMemory = vec![(0, 1), (4, 2)].into_iter().collect();
        m.extend(vec![(8, 3)]);
        assert_eq!(m.read(4), 2);
        assert_eq!(m.read(8), 3);
        assert_eq!(m.len(), 3);
    }
}
