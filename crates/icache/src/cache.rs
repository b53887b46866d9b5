//! The direct-mapped, sub-blocked on-chip instruction cache.
//!
//! Following Hill's model (paper §4.1), a cache line is composed of
//! sub-blocks, each with its own valid bit, so single-instruction fetches
//! and streamed line fills can validate a line piecemeal. The cache stores
//! *metadata only* — instruction bytes are always read from the program
//! image by the fetch engines.

use std::fmt;

use pipe_mem::error::{require_at_least, require_at_most, require_power_of_two};
use pipe_mem::ConfigError;

/// Sub-block (valid-bit granularity) size in bytes: one fixed-format
/// instruction, as in Hill's model.
pub const SUBBLOCK_BYTES: u32 = 4;

/// Geometry of an [`InstructionCache`]. Its lines are divided into
/// [`SUBBLOCK_BYTES`]-byte sub-blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes (the paper sweeps 16–512).
    pub size_bytes: u32,
    /// Line (tag granularity) size in bytes.
    pub line_bytes: u32,
}

impl CacheConfig {
    /// A cache of `size_bytes` in lines of `line_bytes`.
    pub fn new(size_bytes: u32, line_bytes: u32) -> CacheConfig {
        CacheConfig {
            size_bytes,
            line_bytes,
        }
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if either field is zero or not a power
    /// of two, if the line exceeds the size, or if the line is shorter
    /// than a sub-block.
    pub fn validate(&self) -> Result<(), ConfigError> {
        require_power_of_two("size_bytes", self.size_bytes)?;
        require_power_of_two("line_bytes", self.line_bytes)?;
        require_at_most("line_bytes", self.line_bytes, "size_bytes", self.size_bytes)?;
        require_at_least(
            "line_bytes",
            u64::from(self.line_bytes),
            u64::from(SUBBLOCK_BYTES),
        )
    }

    /// Number of lines.
    pub fn num_lines(&self) -> u32 {
        self.size_bytes / self.line_bytes
    }

    /// Sub-blocks per line.
    pub fn subblocks_per_line(&self) -> u32 {
        self.line_bytes / SUBBLOCK_BYTES
    }

    /// Byte address of the start of the line containing `addr`.
    pub fn line_base(&self, addr: u32) -> u32 {
        addr & !(self.line_bytes - 1)
    }

    /// Direct-mapped index of the line containing `addr`.
    pub fn line_index(&self, addr: u32) -> u32 {
        (addr / self.line_bytes) % self.num_lines()
    }

    /// Tag of the line containing `addr`.
    pub fn tag_of(&self, addr: u32) -> u32 {
        addr / self.size_bytes
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}B direct-mapped, {}B lines, {}B sub-blocks",
            self.size_bytes, self.line_bytes, SUBBLOCK_BYTES
        )
    }
}

#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct Line {
    tag: u32,
    tag_valid: bool,
    /// Per-sub-block valid bits (lines have at most 32/4 = 8 sub-blocks at
    /// the paper's parameters, but u64 leaves headroom).
    sub_valid: u64,
}

/// A direct-mapped instruction cache with per-sub-block valid bits. Its
/// tags and valid bits are part of its engine's timing state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InstructionCache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    // Geometry as shifts/masks. Every field of a validated `CacheConfig`
    // is a power of two, and these probes sit on the simulator's
    // per-cycle path — a hardware `div` per lookup is measurable there.
    line_shift: u32,
    index_mask: u32,
    size_shift: u32,
}

impl InstructionCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CacheConfig::validate`].
    pub fn new(cfg: CacheConfig) -> InstructionCache {
        if let Err(e) = cfg.validate() {
            panic!("invalid CacheConfig: {e}");
        }
        InstructionCache {
            cfg,
            lines: vec![Line::default(); cfg.num_lines() as usize],
            line_shift: cfg.line_bytes.trailing_zeros(),
            index_mask: cfg.num_lines() - 1,
            size_shift: cfg.size_bytes.trailing_zeros(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Sub-block mask covering byte range `[addr, addr + bytes)` within the
    /// line containing `addr`. The range must not cross a line boundary.
    fn mask_for(&self, addr: u32, bytes: u32) -> u64 {
        debug_assert!(bytes > 0);
        let base = self.cfg.line_base(addr);
        debug_assert!(
            addr + bytes <= base + self.cfg.line_bytes,
            "range {addr:#x}+{bytes} crosses line boundary"
        );
        let first = (addr - base) / SUBBLOCK_BYTES;
        let last = (addr + bytes - 1 - base) / SUBBLOCK_BYTES;
        let count = last - first + 1;
        (((1u64 << count) - 1) << first) & Self::full_mask(self.cfg.subblocks_per_line())
    }

    fn full_mask(n: u32) -> u64 {
        if n >= 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    /// Checks whether every sub-block covering `[addr, addr + bytes)` is
    /// present. The range may span lines; each is checked.
    pub fn contains(&self, addr: u32, bytes: u32) -> bool {
        by_line(self.cfg.line_bytes, addr, bytes).all(|(a, n)| self.line_contains(a, n))
    }

    fn line_contains(&self, addr: u32, bytes: u32) -> bool {
        let line = &self.lines[((addr >> self.line_shift) & self.index_mask) as usize];
        if !line.tag_valid || line.tag != addr >> self.size_shift {
            return false;
        }
        let mask = self.mask_for(addr, bytes);
        line.sub_valid & mask == mask
    }

    /// Fills the sub-blocks covering `[addr, addr + bytes)`. If the line
    /// currently holds a different tag, the old contents are invalidated
    /// first. Ranges may span multiple lines; each affected line is filled.
    pub fn fill(&mut self, addr: u32, bytes: u32) {
        for (a, n) in by_line(self.cfg.line_bytes, addr, bytes) {
            self.fill_within_line(a, n);
        }
    }

    fn fill_within_line(&mut self, addr: u32, bytes: u32) {
        let tag = addr >> self.size_shift;
        let idx = ((addr >> self.line_shift) & self.index_mask) as usize;
        let mask = self.mask_for(addr, bytes);
        let line = &mut self.lines[idx];
        if !line.tag_valid || line.tag != tag {
            line.tag = tag;
            line.tag_valid = true;
            line.sub_valid = 0;
        }
        line.sub_valid |= mask;
    }

    /// Number of currently valid sub-blocks, for occupancy checks.
    pub fn valid_subblocks(&self) -> u32 {
        self.lines
            .iter()
            .filter(|l| l.tag_valid)
            .map(|l| l.sub_valid.count_ones())
            .sum()
    }
}

/// Splits `[addr, addr + bytes)` at the boundaries of `line_bytes` lines
/// into `(start, length)` pieces.
fn by_line(line_bytes: u32, addr: u32, bytes: u32) -> impl Iterator<Item = (u32, u32)> {
    let end = addr + bytes;
    let mut a = addr;
    std::iter::from_fn(move || {
        let start = a;
        a = end.min((start | (line_bytes - 1)) + 1);
        (start < end).then_some((start, a - start))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(size: u32, line: u32) -> InstructionCache {
        InstructionCache::new(CacheConfig::new(size, line))
    }

    #[test]
    fn empty_cache_misses() {
        let c = cache(128, 16);
        assert!(!c.contains(0, 4));
        assert_eq!(c.valid_subblocks(), 0);
    }

    #[test]
    fn fill_then_hit() {
        let mut c = cache(128, 16);
        c.fill(0x20, 4);
        assert!(c.contains(0x20, 4));
        assert!(!c.contains(0x24, 4), "other sub-block still invalid");
    }

    #[test]
    fn full_line_fill() {
        let mut c = cache(128, 16);
        c.fill(0x40, 16);
        for off in (0..16).step_by(4) {
            assert!(c.contains(0x40 + off, 4));
        }
        assert_eq!(c.valid_subblocks(), 4);
    }

    #[test]
    fn conflicting_tag_evicts() {
        let mut c = cache(64, 16); // 4 lines; 0x0 and 0x40 conflict
        c.fill(0x0, 16);
        assert!(c.contains(0x0, 4));
        c.fill(0x40, 4);
        assert!(!c.contains(0x0, 4), "old line evicted");
        assert!(c.contains(0x40, 4));
        assert!(!c.contains(0x44, 4), "only the filled sub-block is valid");
    }

    #[test]
    fn partial_fill_accumulates() {
        let mut c = cache(64, 16);
        c.fill(0x10, 4);
        c.fill(0x14, 4);
        assert!(c.contains(0x10, 8));
        assert!(!c.contains(0x10, 16));
        c.fill(0x18, 8);
        assert!(c.contains(0x10, 16));
    }

    #[test]
    fn fill_spanning_lines() {
        let mut c = cache(128, 16);
        c.fill(0x08, 16); // covers 0x08..0x18 across two lines
        assert!(c.contains(0x08, 8));
        assert!(c.contains(0x10, 8));
        assert!(!c.contains(0x00, 4));
        assert!(!c.contains(0x18, 4));
    }

    #[test]
    fn a_probe_spanning_lines_checks_each() {
        // A 4-byte instruction at 0x0e straddles the lines at 0x00 and
        // 0x10 (a Fixed32 program at a base of 2 mod 4).
        let mut c = cache(64, 16);
        assert_eq!(
            by_line(16, 0x0e, 4).collect::<Vec<_>>(),
            [(0x0e, 2), (0x10, 2)]
        );
        c.fill(0x0c, 4);
        assert!(!c.contains(0x0e, 4), "second line missing");
        c.fill(0x10, 4);
        assert!(c.contains(0x0e, 4));
        c.fill(0x4c, 4); // evicts the first line
        assert!(!c.contains(0x0e, 4), "first line evicted");
    }

    #[test]
    fn two_byte_granularity_probe() {
        // Mixed-format fetches can be 2 bytes at odd parcel addresses.
        let mut c = cache(64, 16);
        c.fill(0x10, 4);
        assert!(c.contains(0x12, 2));
        assert!(!c.contains(0x14, 2));
    }

    #[test]
    fn geometry_helpers() {
        let g = CacheConfig::new(128, 16);
        assert_eq!(g.num_lines(), 8);
        assert_eq!(g.subblocks_per_line(), 4);
        assert_eq!(g.line_base(0x27), 0x20);
        assert_eq!(g.line_index(0x20), 2);
        assert_eq!(g.line_index(0xA0), 2); // wraps
        assert_ne!(g.tag_of(0x20), g.tag_of(0xA0));
    }

    #[test]
    fn validation() {
        assert!(CacheConfig::new(128, 16).validate().is_ok());
        assert!(CacheConfig::new(0, 16).validate().is_err());
        assert!(CacheConfig::new(96, 16).validate().is_err()); // not pow2
        assert!(CacheConfig::new(8, 16).validate().is_err()); // size < line
        assert_eq!(
            CacheConfig::new(64, 2).validate(),
            Err(ConfigError::TooSmall {
                field: "line_bytes",
                value: 2,
                min: 4
            })
        ); // line < sub-block
    }

    #[test]
    #[should_panic(expected = "invalid CacheConfig")]
    fn bad_geometry_panics() {
        let _ = cache(100, 16);
    }
}
