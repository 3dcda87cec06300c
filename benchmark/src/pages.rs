//! The page pool: 4 KiB pages of the five content classes the paper's
//! applications span, generated once in set-up so no timed round
//! synthesises a page, plus the `(key, version)` stamp every stored page
//! carries so a GET can be checked without a full compare.

use crate::rng::{mix64, SplitMix64};

pub const PAGE: usize = 4096;

/// Pages per class in the pool. 256 variants × 5 classes = 5 MiB: more
/// content than any cache level holds, little enough to generate in
/// milliseconds.
pub const VARIANTS: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Zero but for a sparse sprinkle of small words.
    NearZero,
    /// Small non-negative integers in 8-byte slots.
    NarrowInt,
    /// 8-byte words clustered within a byte of one base (pointers).
    BaseDelta,
    /// Space-separated dictionary words: byte-regular, word-irregular.
    Text,
    /// Random bytes; fails the 4:3 keep-compressed threshold.
    Noise,
}

/// The classes with their share of keys in twentieths:
/// 15 % / 25 % / 25 % / 20 % / 15 %.
pub const CLASS_MIX: [(Class, u64); 5] = [
    (Class::NearZero, 3),
    (Class::NarrowInt, 5),
    (Class::BaseDelta, 5),
    (Class::Text, 4),
    (Class::Noise, 3),
];

/// Index into [`CLASS_MIX`] of the class `key` always holds. A key keeps
/// its class across versions (a heap page stays a heap page); keys are a
/// seed-independent scramble of popularity rank, so `key % 20` gives the
/// mix exactly and spreads it over hot and cold keys alike.
#[inline]
pub fn class_index(key: u64) -> usize {
    match key % 20 {
        0..=2 => 0,
        3..=7 => 1,
        8..=12 => 2,
        13..=16 => 3,
        _ => 4,
    }
}

#[rustfmt::skip]
const VOCABULARY: [&str; 32] = [
    "page", "cache", "memory", "compress", "disk", "fault", "the", "of", "and", "to", "in", "is",
    "that", "for", "system", "sprite", "kernel", "buffer", "write", "read", "clean", "dirty",
    "threshold", "ratio", "backing", "store", "swap", "frame", "segment", "virtual", "physical",
    "bandwidth",
];

fn fill(class: Class, rng: &mut SplitMix64, page: &mut [u8]) {
    match class {
        Class::NearZero => {
            page.fill(0);
            for w in page.chunks_exact_mut(8).step_by(64) {
                w.copy_from_slice(&(1 + rng.next_u64() % 1000).to_le_bytes());
            }
        }
        // 16-bit counters. Values that straddle BDI's one-byte limit (say
        // 0..251) make its width test an unpredictable branch, which costs
        // 3 µs a page and puts this class in a latency cluster of its own
        // that begins exactly at the median PUT of `store_put_codec`.
        Class::NarrowInt => {
            for w in page.chunks_exact_mut(8) {
                w.copy_from_slice(&(256 + rng.next_u64() % 30_000).to_le_bytes());
            }
        }
        Class::BaseDelta => {
            let base = 0x7F00_0000_0000u64 | (rng.next_u64() & 0xFFFF_F000);
            for w in page.chunks_exact_mut(8) {
                w.copy_from_slice(&(base + rng.next_u64() % 100).to_le_bytes());
            }
        }
        Class::Text => {
            let mut at = 0;
            while at < page.len() {
                let word = VOCABULARY[(rng.next_u64() % VOCABULARY.len() as u64) as usize];
                for &b in word.as_bytes().iter().chain(b" ") {
                    if at < page.len() {
                        page[at] = b;
                        at += 1;
                    }
                }
            }
        }
        Class::Noise => {
            for w in page.chunks_exact_mut(8) {
                w.copy_from_slice(&rng.next_u64().to_le_bytes());
            }
        }
    }
}

/// The pre-generated pages, `VARIANTS` per class, in one allocation.
pub struct Pool {
    bytes: Vec<u8>,
}

impl Pool {
    pub fn generate(seed: u64) -> Pool {
        let mut rng = SplitMix64::new(seed ^ 0x706F_6F6C);
        let mut bytes = vec![0u8; CLASS_MIX.len() * VARIANTS * PAGE];
        for (i, page) in bytes.chunks_exact_mut(PAGE).enumerate() {
            fill(CLASS_MIX[i / VARIANTS].0, &mut rng, page);
        }
        Pool { bytes }
    }

    /// Which pool page holds the content of `key` at `version`.
    #[inline]
    pub fn index(key: u64, version: u32) -> usize {
        let variant = mix64(key ^ ((version as u64) << 32)) % VARIANTS as u64;
        class_index(key) * VARIANTS + variant as usize
    }

    #[inline]
    pub fn page_mut(&mut self, index: usize) -> &mut [u8] {
        &mut self.bytes[index * PAGE..(index + 1) * PAGE]
    }

    /// The pool page for `(key, version)`, stamped in place: the bytes a
    /// PUT stores and a later GET must return.
    #[inline]
    pub fn stamped(&mut self, key: u64, version: u32) -> &[u8] {
        let page = self.page_mut(Pool::index(key, version));
        stamp(page, key, version);
        page
    }

    /// The pool in the proportions keys hold it: every page of a class
    /// once per twentieth of the key space the class has, so a plain mean
    /// over this list is a mean over the workload's pages.
    pub fn in_key_proportion(&self) -> Vec<&[u8]> {
        self.bytes
            .chunks_exact(PAGE)
            .enumerate()
            .flat_map(|(i, p)| std::iter::repeat_n(p, CLASS_MIX[i / VARIANTS].1 as usize))
            .collect()
    }
}

/// Words 1..=12 carry the stamp, four bits each, as small offsets from
/// word 0. An offset below 16 keeps every class in its class: BDI's
/// delta from the first word stays within a byte, narrow integers stay
/// narrow, text stays printable, so stamping moves no page across a
/// codec or threshold decision.
const STAMP_WORDS: usize = 12;

/// Keys fit 16 bits of the stamp; versions take the other 32.
pub const MAX_KEYS: usize = 1 << 16;

#[inline]
fn word(page: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(page[i * 8..i * 8 + 8].try_into().expect("8-byte word"))
}

#[inline]
pub fn stamp(page: &mut [u8], key: u64, version: u32) {
    debug_assert!(key < MAX_KEYS as u64);
    let packed = key | (version as u64) << 16;
    let base = word(page, 0);
    for i in 0..STAMP_WORDS {
        let nibble = (packed >> (4 * i)) & 0xF;
        page[(i + 1) * 8..(i + 2) * 8].copy_from_slice(&base.wrapping_add(nibble).to_le_bytes());
    }
}

/// The `(key, version)` a page was stamped with, or `None` if the stamp
/// words do not decode (the page is not one this benchmark stored).
#[inline]
pub fn read_stamp(page: &[u8]) -> Option<(u64, u32)> {
    let base = word(page, 0);
    let mut packed = 0u64;
    for i in 0..STAMP_WORDS {
        let nibble = word(page, i + 1).wrapping_sub(base);
        if nibble > 0xF {
            return None;
        }
        packed |= nibble << (4 * i);
    }
    Some((packed & 0xFFFF, (packed >> 16) as u32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_compress::{probe_bdi, CodecId, CodecPolicy, CodecSet, ThresholdPolicy};

    #[test]
    fn stamp_round_trips_on_every_class() {
        let mut pool = Pool::generate(3);
        for (key, version) in [(0u64, 1u32), (65535, u32::MAX), (12345, 70_000), (19, 2)] {
            for class in 0..CLASS_MIX.len() {
                let page = pool.page_mut(class * VARIANTS + 17);
                let before = page[13 * 8..].to_vec();
                stamp(page, key, version);
                assert_eq!(read_stamp(page), Some((key, version)));
                assert_eq!(page[13 * 8..], before[..], "stamp stays in its words");
            }
        }
    }

    #[test]
    fn a_damaged_stamp_is_not_read_as_another() {
        let mut pool = Pool::generate(3);
        let page = pool.page_mut(2 * VARIANTS);
        stamp(page, 77, 5);
        page[8 + 4] ^= 0x10;
        assert_eq!(read_stamp(page), None);
        stamp(page, 77, 5);
        page[8] ^= 1;
        assert_ne!(read_stamp(page), Some((77, 5)));
    }

    #[test]
    fn class_mix_is_exact_over_a_key_space() {
        let mut counts = [0u64; 5];
        for key in 0..16384u64 {
            counts[class_index(key)] += 1;
        }
        for (i, (_, twentieths)) in CLASS_MIX.iter().enumerate() {
            let share = counts[i] as f64 / 16384.0;
            assert!(
                (share - *twentieths as f64 / 20.0).abs() < 0.001,
                "{i}: {share}"
            );
        }
    }

    /// Stamped pages must still route the way their class is meant to:
    /// the three word-regular classes to BDI, text to LZRW1, noise to a
    /// threshold reject.
    #[test]
    fn stamped_pages_keep_their_codec_routing() {
        let mut pool = Pool::generate(9);
        let threshold = ThresholdPolicy::default();
        let mut codecs = CodecSet::new();
        let mut out = Vec::new();
        for (class, &(kind, _)) in CLASS_MIX.iter().enumerate() {
            for variant in [0, 100, VARIANTS - 1] {
                let page = pool.page_mut(class * VARIANTS + variant);
                stamp(page, 40_000 + variant as u64, 0xDEAD_BEEF);
                let probe = probe_bdi(page, threshold.max_compressed_len(PAGE));
                let sel =
                    codecs.compress_with_policy(CodecPolicy::Adaptive, threshold, page, &mut out);
                match kind {
                    Class::NearZero | Class::NarrowInt | Class::BaseDelta => {
                        assert!(probe);
                        assert_eq!(sel.codec, CodecId::Bdi);
                        assert!(!sel.fell_back);
                    }
                    Class::Text => {
                        assert!(!probe);
                        assert_eq!(sel.codec, CodecId::Lzrw1);
                        assert!(sel.admitted);
                    }
                    Class::Noise => assert!(!sel.admitted),
                }
            }
        }
    }

    #[test]
    fn same_seed_same_pool() {
        let a = Pool::generate(11);
        let b = Pool::generate(11);
        let c = Pool::generate(12);
        assert!(a.bytes == b.bytes);
        assert!(a.bytes != c.bytes);
    }
}
