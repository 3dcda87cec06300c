//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial) over byte slices.
//!
//! The spill file's self-verifying extent headers, the batch summaries
//! and the superblock slots need a checksum that is cheap,
//! well-understood, and dependency-free. This is the reflected
//! table-driven CRC-32 in its slice-by-16 form: sixteen 256-entry tables
//! built at compile time (16 KiB), sixteen input bytes folded per step by
//! sixteen independent lookups, and the classic one-lookup-per-byte loop
//! for the last ≤ 15 bytes of a region. The polynomial, the init value
//! and the xor-out are what is already on disk and do not change.

/// The reflected IEEE polynomial (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xEDB8_8320;

/// Input bytes folded per step of [`Crc32::update`].
const STRIDE: usize = 16;

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][b]` is the CRC
/// state after byte `b` followed by `k` zero bytes, which is what lets
/// one step combine sixteen bytes that are `k = 15..=0` positions from
/// the end of the stride.
static TABLES: [[u32; 256]; STRIDE] = build_tables();

const fn build_tables() -> [[u32; 256]; STRIDE] {
    let mut tables = [[0u32; 256]; STRIDE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < STRIDE {
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

/// One input byte into the running (pre-xor-out) state.
#[inline(always)]
fn step_byte(crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize]
}

/// The four table lookups for little-endian word `w`, whose lowest byte
/// sits `hi` positions from the end of the stride.
#[inline(always)]
fn fold_word(w: u32, hi: usize) -> u32 {
    TABLES[hi][(w & 0xFF) as usize]
        ^ TABLES[hi - 1][((w >> 8) & 0xFF) as usize]
        ^ TABLES[hi - 2][((w >> 16) & 0xFF) as usize]
        ^ TABLES[hi - 3][(w >> 24) as usize]
}

/// CRC-32 of `data` (full message; init `0xFFFF_FFFF`, final xor-out).
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

/// Incremental CRC-32 over a message supplied in pieces.
///
/// The spill extent header checksums discontiguous regions (the header
/// prefix and then the payload, with the CRC field itself sitting between
/// them on disk), so the one-shot [`crc32`] is not enough: feed each region
/// with [`Crc32::update`] and read the digest with [`Crc32::finish`].
/// Feeding the same bytes in any split produces the same value as one
/// contiguous [`crc32`] call — the state between calls is the plain
/// 32-bit register, so a region may end anywhere inside a stride.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Start a fresh digest (init `0xFFFF_FFFF`).
    pub fn new() -> Self {
        Crc32 { state: !0u32 }
    }

    /// Absorb the next region of the message.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        let mut strides = data.chunks_exact(STRIDE);
        for s in &mut strides {
            let word = |i: usize| u32::from_le_bytes([s[i], s[i + 1], s[i + 2], s[i + 3]]);
            crc = fold_word(word(0) ^ crc, 15)
                ^ fold_word(word(4), 11)
                ^ fold_word(word(8), 7)
                ^ fold_word(word(12), 3);
        }
        for &b in strides.remainder() {
            crc = step_byte(crc, b);
        }
        self.state = crc;
    }

    /// Final digest (applies the final xor-out; the hasher may keep
    /// absorbing afterwards — `finish` does not consume it).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The kernel this file shipped before the 16-byte stride: one table
    /// lookup plus one shift per input byte. Every value the strided
    /// kernel produces is checked against it.
    fn crc32_reference(state: u32, data: &[u8]) -> u32 {
        let mut crc = state;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc
    }

    /// Deterministic filler with no 16-byte period.
    fn filler(n: usize) -> Vec<u8> {
        (0..n as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    }

    /// Values printed by the byte-at-a-time build (the commit before the
    /// stride), so the comparison does not rest on this file's own tables.
    #[test]
    fn golden_values_from_the_bytewise_build() {
        let big = filler(4097);
        assert_eq!(crc32(&big), 0xA3CD_D652);
        assert_eq!(crc32(&big[3..1503]), 0x18F7_89CB);
    }

    #[test]
    fn incremental_matches_one_shot_for_every_split() {
        let base: Vec<u8> = (0..129u32).map(|i| (i * 131 % 251) as u8).collect();
        let want = crc32(&base);
        for split in 0..=base.len() {
            let mut h = Crc32::new();
            h.update(&base[..split]);
            h.update(&base[split..]);
            assert_eq!(h.finish(), want, "split at {split}");
        }
        // Three-way split with an empty middle piece.
        let mut h = Crc32::new();
        h.update(&base[..40]);
        h.update(&[]);
        h.update(&base[40..]);
        assert_eq!(h.finish(), want);
    }

    #[test]
    fn any_single_bit_flip_changes_the_crc() {
        let base: Vec<u8> = (0..257u32).map(|i| (i * 31 % 251) as u8).collect();
        let want = crc32(&base);
        let mut flipped = base.clone();
        for byte in 0..base.len() {
            for bit in 0..8 {
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), want, "flip at {byte}:{bit} undetected");
                flipped[byte] ^= 1 << bit;
            }
        }
        assert_eq!(flipped, base);
    }

    /// Every length a spilled extent can have (and some), at every
    /// alignment of the slice within its buffer. The reference state is
    /// carried from one length to the next, so the sweep is linear in it.
    #[test]
    fn matches_the_reference_at_every_length_and_start_offset() {
        const MAX_LEN: usize = 4200;
        let buf = filler(MAX_LEN + STRIDE);
        for start in 0..STRIDE {
            let mut want = !0u32;
            for len in 0..=MAX_LEN {
                assert_eq!(
                    crc32(&buf[start..start + len]),
                    !want,
                    "start {start}, len {len}"
                );
                want = crc32_reference(want, &buf[start + len..start + len + 1]);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matches_the_reference_on_arbitrary_bytes(
            data in proptest::collection::vec(any::<u8>(), 0..4200usize),
            start in 0..STRIDE,
        ) {
            let data = &data[start.min(data.len())..];
            prop_assert_eq!(crc32(data), !crc32_reference(!0, data));
        }

        /// The extent header feeds 20 + n bytes in two calls, so a region
        /// must be able to end — and the next to begin — mid-stride.
        #[test]
        fn every_two_and_three_way_split_matches_the_reference(
            data in proptest::collection::vec(any::<u8>(), 0..100usize),
        ) {
            let want = !crc32_reference(!0, &data);
            for a in 0..=data.len() {
                for b in a..=data.len() {
                    let mut h = Crc32::new();
                    h.update(&data[..a]);
                    h.update(&data[a..b]);
                    h.update(&data[b..]);
                    prop_assert_eq!(h.finish(), want, "splits at {} and {}", a, b);
                }
            }
        }
    }
}
