//! CRC32 (IEEE 802.3 polynomial), table-driven, from scratch.
//!
//! Every log page and data-file footer in the workspace carries a CRC32 so
//! torn writes and corruption are detected during recovery. The checksum
//! runs slicing-by-8: eight table lookups fold eight input bytes per step,
//! instead of one lookup per byte.

/// Slicing-by-8 tables for the reflected polynomial 0xEDB88320.
/// `TABLES[0][b]` is the classic one-byte table; `TABLES[k][b]` is the CRC
/// register after byte `b` followed by `k` zero bytes.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// Compute the CRC32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop: the reference the sliced version must match.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard CRC32 test vectors.
        for crc in [crc32, crc32_bytewise] {
            assert_eq!(crc(b""), 0x0000_0000);
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"some payload bytes".to_vec();
        let orig = crc32(&data);
        data[5] ^= 0x10;
        assert_ne!(crc32(&data), orig);
    }

    proptest! {
        /// Every length (so every remainder after the 8-byte steps) and
        /// every start offset (so every alignment of the slice).
        #[test]
        fn sliced_matches_bytewise(
            bytes in prop::collection::vec(any::<u8>(), 0..300),
            start in 0usize..16,
        ) {
            let data = &bytes[start.min(bytes.len())..];
            prop_assert_eq!(crc32(data), crc32_bytewise(data));
        }
    }
}
