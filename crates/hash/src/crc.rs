//! CRC-32 (IEEE 802.3) — the integrity checksum shared by the wire
//! format and the durable snapshot container.
//!
//! Lives in the hash crate so both the network layer
//! (`setstream-distributed::wire`) and the persistence layer
//! (`setstream-engine::durable`) can stamp and verify payloads without
//! depending on each other. Every byte a site ships or checkpoints passes
//! through here at least once on each side of the link, so it is a
//! slicing-by-8 implementation: eight 256-entry tables, built at compile
//! time, fold eight input bytes per step instead of one bit. The values
//! are those of the textbook bitwise loop (kept in the tests as the
//! oracle).
//!
//! analyze: allow(indexing) — every lookup is a byte (masked to 0..=255) into a 256-entry table, or a table number below 8

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xedb8_8320;

/// `TABLES[0][b]` is the CRC of the single byte `b`; `TABLES[k][b]` is
/// the CRC contribution of `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut b = 0;
    while b < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            k += 1;
        }
        b += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xffff_ffffu32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        if let &[b0, b1, b2, b3, b4, b5, b6, b7] = word {
            let lo = crc ^ u32::from_le_bytes([b0, b1, b2, b3]);
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][b4 as usize]
                ^ t[2][b5 as usize]
                ^ t[1][b6 as usize]
                ^ t[0][b7 as usize];
        }
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The table-free bitwise definition: the oracle the tables must match.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard test vector: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = b"epoch 7 delta frame";
        let base = crc32(data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.to_vec();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip byte {i} bit {bit}");
            }
        }
    }

    proptest! {
        #[test]
        fn tables_match_the_bitwise_loop_at_any_length_and_offset(
            data in proptest::collection::vec(any::<u8>(), 0..600),
            offset in 0usize..16,
        ) {
            // Slicing at an offset exercises every alignment of the
            // 8-byte main loop against the byte-wise tail.
            let slice = data.get(offset.min(data.len())..).unwrap_or(&[]);
            prop_assert_eq!(crc32(slice), crc32_bitwise(slice));
        }
    }
}
