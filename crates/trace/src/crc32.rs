//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), table-driven, eight
//! bytes per step ("slicing-by-8").
//!
//! Hand-rolled because the workspace deliberately has no registry
//! dependencies; matches the ubiquitous zlib/`cksum -o 3` definition so
//! trace files can be checked externally.

/// `TABLES[0]` is the bytewise table: the CRC of each byte value.
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// one step folds eight bytes in with eight independent lookups.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let byte = |word: u32, shift: u32| ((word >> shift) & 0xFF) as usize;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 8)]
            ^ t[5][byte(lo, 16)]
            ^ t[4][byte(lo, 24)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 8)]
            ^ t[1][byte(hi, 16)]
            ^ t[0][byte(hi, 24)];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][byte(crc ^ u32::from(b), 0)];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: one table lookup per byte.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }

    #[test]
    fn slicing_matches_bytewise_at_every_length_and_alignment() {
        // SplitMix64, so every buffer is reproducible.
        let mut state = 0x0c3c_3200_u64;
        let mut next_byte = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        };
        let lengths = (0..=64).chain([127, 1000, 4099, 32 * 1024 + 5]);
        for len in lengths {
            let buf: Vec<u8> = (0..len + 8).map(|_| next_byte()).collect();
            for align in 0..8 {
                let data = &buf[align..align + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "length {len}, alignment {align}"
                );
            }
        }
    }
}
