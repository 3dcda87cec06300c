//! LZRW1 — Ross Williams's "extremely fast Ziv-Lempel" coder (DCC 1991),
//! reimplemented from the published algorithm description.
//!
//! LZRW1 is a byte-oriented LZ77 variant tuned for speed over ratio:
//!
//! - a single-probe hash table maps the next three input bytes to the most
//!   recent position where that trigram was seen;
//! - matches are 3..=18 bytes at offsets 1..=4095;
//! - items are emitted in groups of 16 behind a 16-bit control word
//!   (bit set ⇒ copy item, clear ⇒ literal);
//! - a copy item is two bytes: the high nibble of the first byte holds the
//!   top 4 offset bits, the low nibble holds `length - 3`; the second byte
//!   holds the low 8 offset bits;
//! - if the "compressed" output would be no smaller than the input, the
//!   block is emitted stored (the original uses a flag word; we use a
//!   method byte shared by all codecs in this crate).
//!
//! The hash table size is configurable. Williams used 4096 entries; the
//! paper's Sprite kernel used a 16 KB table (§4.4: "This hash table can be
//! relatively large (e.g., on the order of 1 Mbyte), which improves
//! compression at the cost of memory, or be relatively small. In the system
//! measured for this paper, the hash table is 16 Kbytes."). Modeling entries
//! as 4-byte pointers, 16 KB ⇒ 4096 entries, which is the default here.

use crate::{load_raw_into, store_raw, Compressor, CostProfile, DecompressError, METHOD_STORED};

/// Method byte identifying an LZRW1-encoded block.
const METHOD_LZRW1: u8 = 1;

/// Minimum match length.
const MIN_MATCH: usize = 3;
/// Maximum match length (`MIN_MATCH + 15`, one nibble of length).
const MAX_MATCH: usize = 18;
/// A back-reference reaches `1..2^12` bytes back (12 bits of offset).
const OFFSET_BITS: u32 = 12;
/// Items per control word.
const GROUP: usize = 16;
/// Where the encoder's marker bit, shifted right once per item from bit
/// 31, arrives when a group has all its items.
const GROUP_FULL: u32 = 1 << (31 - GROUP);

/// Largest block one call may compress: a slot must keep at least one
/// generation bit above the position.
const MAX_BLOCK: usize = 1 << 31;

/// Williams's hash multiplier. It and every trigram key fit in 16 bits,
/// which is what lets the hash pass run in 16-bit lanes.
const HASH_MUL: u16 = 40543;
/// Largest table whose slot index lies wholly in the low 16 bits of the
/// hash product (bits 4..16): one 16-bit multiply per position.
const LOW_PRODUCT_ENTRIES: usize = 1 << 12;
/// Largest table a 16-bit slot index can address.
const MAX_ENTRIES: usize = 1 << 16;

/// The LZRW1 codec. Holds its hash table across calls, mirroring the
/// kernel's one static buffer.
///
/// # Examples
///
/// ```
/// use cc_compress::{Compressor, Lzrw1};
///
/// let mut lz = Lzrw1::new();
/// let page = b"hello hello hello hello hello hello".to_vec();
/// let mut packed = Vec::new();
/// let n = lz.compress(&page, &mut packed);
/// assert!(n < page.len());
/// let mut out = Vec::new();
/// lz.decompress(&packed, &mut out, page.len()).unwrap();
/// assert_eq!(out, page);
/// ```
#[derive(Debug, Clone)]
pub struct Lzrw1 {
    /// Hash table: for each trigram hash, the packed
    /// `(generation << pos_bits) | position` of its most recent
    /// occurrence. Stamping entries with the current generation makes
    /// stale slots self-invalidating, so the table is not cleared between
    /// blocks — that memset used to cost more than compressing a page.
    /// Four bytes a slot keep the default table at 16 KiB, half of a
    /// 32 KiB L1D, where 8-byte slots filled it.
    /// Its length is always a power of two, at most [`MAX_ENTRIES`].
    table: Vec<u32>,
    /// The block's slot indices, one per position that starts a trigram,
    /// written by [`hash_block`] before the parse reads them. Grows to the
    /// longest block seen and is never cleared: every call overwrites the
    /// prefix it reads.
    hashes: Vec<u16>,
    /// Current compression generation (bumped per block).
    generation: u32,
    /// Width of the position field the table's slots were written with:
    /// the bits that hold any position of the last block.
    pos_bits: u32,
}

impl Default for Lzrw1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Lzrw1 {
    /// Default table: 4096 entries = 16 KB of 4-byte pointers, the size
    /// measured in the paper.
    pub fn new() -> Self {
        Self::with_entries(4096)
    }

    /// Construct with a table of `bytes / 4` entries (rounded down to a
    /// power of two, minimum 256 entries).
    ///
    /// # Panics
    ///
    /// Panics if that leaves more than 65 536 entries (256 KiB and up):
    /// slot indices are 16-bit (see [`Lzrw1::with_entries`]).
    pub fn with_table_bytes(bytes: usize) -> Self {
        let entries = (bytes / 4).max(256);
        let entries = 1usize << (usize::BITS - 1 - entries.leading_zeros());
        Self::with_entries(entries)
    }

    /// Construct with an explicit number of hash-table entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two, is less than 256, or is
    /// more than 65 536: the encoder hashes a block into 16-bit slot
    /// indices before it parses it.
    pub fn with_entries(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two() && entries >= 256,
            "hash table entries must be a power of two >= 256"
        );
        assert!(
            entries <= MAX_ENTRIES,
            "hash table entries must be at most {MAX_ENTRIES}: slot indices are 16-bit"
        );
        Lzrw1 {
            // Generation 0 marks never-written slots; the first block
            // runs as generation 1.
            table: vec![0; entries],
            hashes: Vec::new(),
            generation: 0,
            pos_bits: 0,
        }
    }

    /// The modeled memory footprint of the hash table in bytes
    /// (4 bytes per entry, as on the 32-bit DECstation).
    pub fn table_bytes(&self) -> usize {
        self.table.len() * 4
    }

    /// Open a block of `n` bytes: bump the generation instead of clearing
    /// the table, so entries stamped by an older block read as empty and
    /// compressed pages stay independently decompressible without a table
    /// memset per 4 KB block. The table is cleared for real only when the
    /// generation field wraps (every 2^20 blocks at 4 KB) or when `n`
    /// needs a different position width than the slots were written with.
    /// Returns the generation in slot position.
    fn open_block(&mut self, n: usize) -> u32 {
        assert!(n <= MAX_BLOCK, "block too large for packed table entries");
        let pos_bits = usize::BITS - n.saturating_sub(1).leading_zeros();
        let mut generation = self.generation as u64 + 1;
        if pos_bits != self.pos_bits || generation >> (32 - pos_bits) != 0 {
            self.table.fill(0);
            self.pos_bits = pos_bits;
            generation = 1;
        }
        self.generation = generation as u32;
        self.generation << pos_bits
    }

    /// Compress `src` into `dst` unless the result would exceed `limit`
    /// bytes: `None` exactly when [`Compressor::compress`] would return
    /// more than `limit`, and the very same bytes otherwise. The encoder
    /// gives up at the first group boundary past `limit`, so a caller that
    /// discards anything larger (the keep-compressed threshold) does not
    /// pay for the rest of an incompressible page. On `None` the contents
    /// of `dst` are unspecified.
    ///
    /// # Panics
    ///
    /// Panics if `src` is longer than 2 GiB.
    pub fn compress_bounded(
        &mut self,
        src: &[u8],
        dst: &mut Vec<u8>,
        limit: usize,
    ) -> Option<usize> {
        let n = src.len();
        // Sizing `dst` to the all-literal worst case once lets the emit
        // loop write by index; only growth is zeroed.
        dst.resize(working_len(n), 0);
        // Output longer than the input is replaced by a stored block, so
        // the LZ pass is bounded by `n` whatever the caller allows.
        match self.encode(src, dst, limit.min(n)) {
            Some(len) => {
                dst.truncate(len);
                Some(len)
            }
            // Expansion: fall back to a stored block (original LZRW1 sets
            // a copy flag and memcpys).
            None => (n < limit).then(|| store_raw(src, dst)),
        }
    }

    /// The LZRW1 pass proper, into a worst-case-sized `out`: the encoded
    /// length, or `None` as soon as it is known to exceed `cap`.
    fn encode(&mut self, src: &[u8], out: &mut [u8], cap: usize) -> Option<usize> {
        let n = src.len();
        let tag = self.open_block(n);
        let pos_mask = (1u32 << self.pos_bits) - 1;
        // Every slot index first, so the parse below loads each one
        // instead of hashing on the chain an item waits on.
        let starts = n.saturating_sub(MIN_MATCH - 1);
        if self.hashes.len() < starts {
            self.hashes.resize(starts, 0);
        }
        let mask = (self.table.len() - 1) as u16;
        hash_block(src, &mut self.hashes[..starts], mask);
        let hashes = &self.hashes[..starts];
        let table = &mut self.table[..];

        out[0] = METHOD_LZRW1;
        let (mut i, mut o) = (0usize, 1usize);
        while i < n {
            if o > cap {
                return None;
            }
            // A group: control word, then up to 16 items. The flags shift
            // in at the top of `ctrl` above a marker bit, which reaches
            // `GROUP_FULL` after the sixteenth.
            let ctrl_at = o;
            o += 2;
            let mut ctrl = 1u32 << 31;
            while ctrl & GROUP_FULL == 0 && i < n {
                ctrl >>= 1;
                if n - i >= MIN_MATCH {
                    let h = hashes[i] as usize;
                    let here = trigram(src, i);
                    // The slot against this block's tag: position in the
                    // low bits, and above them zero unless the slot is
                    // stale (another generation, or never written).
                    let slot = table[h] ^ tag;
                    table[h] = tag | i as u32;
                    let cand = (slot & pos_mask) as usize;
                    // A live slot lies below `i`, so its four bytes are in
                    // bounds. A stale one may point anywhere below
                    // `2^pos_bits`; out of bounds it reads as 0, which is
                    // as good as anything since it is a miss already.
                    // (With one page size this branch never fails; a
                    // clamp in its place would be a conditional move on
                    // the path every position waits on.)
                    let there = src
                        .get(cand..cand + 4)
                        .map_or(0, |b| u32::from_le_bytes(b.try_into().expect("4 bytes")));
                    // Three reasons the slot is no match — stale, further
                    // back than an offset reaches, a different trigram —
                    // OR-ed as integers into one test: on incompressible
                    // input "is this slot from this block?" is a coin
                    // flip, and as a branch of its own it mispredicts
                    // every other byte.
                    let miss = (slot & !pos_mask) as usize
                        | i.wrapping_sub(cand) >> OFFSET_BITS
                        | ((here ^ there) << 8) as usize;
                    if miss == 0 {
                        let len = extend_match(src, cand, i, MAX_MATCH.min(n - i));
                        let offset = i - cand;
                        ctrl |= 1 << 31;
                        let item = [
                            (((offset >> 8) as u8) << 4) | ((len - MIN_MATCH) as u8),
                            offset as u8,
                        ];
                        out[o..o + 2].copy_from_slice(&item);
                        o += 2;
                        i += len;
                        continue;
                    }
                }
                out[o] = src[i];
                o += 1;
                i += 1;
            }
            // Drop the marker and what lies below it: the first item's
            // flag lands on bit 0 however many items the group got.
            let ctrl = (ctrl >> (ctrl.trailing_zeros() + 1)) as u16;
            out[ctrl_at..ctrl_at + 2].copy_from_slice(&ctrl.to_le_bytes());
        }
        (o <= cap).then_some(o)
    }

    /// Decode `src` into exactly `out.len()` bytes — the block's recorded
    /// original length — straight into the caller's buffer. Malformed
    /// input is an error, never a panic; on error the contents of `out`
    /// are unspecified.
    pub fn decode_into(src: &[u8], out: &mut [u8]) -> Result<(), DecompressError> {
        let (&method, body) = src.split_first().ok_or(DecompressError::Truncated)?;
        match method {
            METHOD_STORED => return load_raw_into(body, out),
            METHOD_LZRW1 => {}
            other => return Err(DecompressError::BadMethod(other)),
        }
        let n = out.len();
        let (mut pos, mut at) = (0usize, 0usize);
        while at < n {
            let Some(ctrl) = body.get(pos..pos + 2) else {
                return Err(DecompressError::Truncated);
            };
            let ctrl = u16::from_le_bytes([ctrl[0], ctrl[1]]);
            pos += 2;
            let mut bit = 0;
            while bit < GROUP && at < n {
                if ctrl & (1 << bit) != 0 {
                    let Some(item) = body.get(pos..pos + 2) else {
                        return Err(DecompressError::Truncated);
                    };
                    let (b0, b1) = (item[0] as usize, item[1] as usize);
                    pos += 2;
                    let offset = ((b0 & 0xF0) << 4) | b1;
                    let len = (b0 & 0x0F) + MIN_MATCH;
                    if offset == 0 || offset > at {
                        return Err(DecompressError::BadOffset { offset, at });
                    }
                    if at + len > n {
                        return Err(DecompressError::OutputOverrun);
                    }
                    let from = at - offset;
                    if offset >= len {
                        // Disjoint source and destination. Away from the
                        // end of the page, copy the maximum match length
                        // whatever `len` is: a fixed-size move instead of
                        // a `memmove` call, and the surplus lands on
                        // bytes the next items overwrite.
                        if at + MAX_MATCH <= n {
                            out.copy_within(from..from + MAX_MATCH, at);
                        } else {
                            out.copy_within(from..from + len, at);
                        }
                    } else if offset == 1 {
                        // RLE-like run of one byte: a fill, not a loop.
                        let b = out[from];
                        out[at..at + len].fill(b);
                    } else {
                        // Genuinely overlapping short copy (len <= 18):
                        // byte-at-a-time is both correct and cheap here.
                        for k in at..at + len {
                            out[k] = out[k - offset];
                        }
                    }
                    at += len;
                    bit += 1;
                } else {
                    // Batch the whole run of literal items implied by the
                    // consecutive clear control bits into one copy.
                    let run = ((ctrl >> bit).trailing_zeros() as usize)
                        .min(GROUP - bit)
                        .min(n - at);
                    debug_assert!(run >= 1);
                    let Some(literals) = body.get(pos..pos + run) else {
                        return Err(DecompressError::Truncated);
                    };
                    out[at..at + run].copy_from_slice(literals);
                    pos += run;
                    at += run;
                    bit += run;
                }
            }
        }
        if pos != body.len() {
            return Err(DecompressError::TrailingGarbage);
        }
        Ok(())
    }
}

/// The three bytes at `src[at..at + 3]` in the low 24 bits, as one load
/// wherever a fourth byte exists; the top byte is whatever follows and is
/// ignored by every user. Only the last trigram of a block takes the
/// byte-wise arm.
#[inline]
fn trigram(src: &[u8], at: usize) -> u32 {
    match src.get(at..at + 4) {
        Some(four) => u32::from_le_bytes(four.try_into().expect("4 bytes")),
        None => src[at] as u32 | (src[at + 1] as u32) << 8 | (src[at + 2] as u32) << 16,
    }
}

/// Bytes the encoder writes into `dst` for an `n`-byte block before it
/// truncates: the all-literal worst case, 1 method byte + `n` literals +
/// 2 control bytes per 16 items. More than the `n + 1` it may return, so
/// a caller that reserves for the output alone reallocates here.
pub(crate) fn working_len(n: usize) -> usize {
    1 + n + 2 * n.div_ceil(GROUP)
}

/// Williams's trigram hash of every position of `src` that starts a
/// trigram, masked to a table of `mask + 1` entries, into `hashes`
/// (`src.len() - 2` of them). For bytes `b0 b1 b2` the key is
/// `b0 << 8 ^ b1 << 4 ^ b2` and the slot `(40543 · key) >> 4 & mask`.
///
/// Key and multiplier both fit in 16 bits, and so does the whole pass:
/// written over three shifted byte slices in 16-bit lanes it vectorises
/// on baseline x86-64, eight positions per multiply. A table of up to
/// 4 096 entries takes its index from bits 4..16 of the product, the low
/// half alone (`pmullw`); a wider one also needs bits 16..20, the high
/// half (`pmulhuw`). Widening any lane to 32 bits costs more than the
/// parse saves.
fn hash_block(src: &[u8], hashes: &mut [u16], mask: u16) {
    let Some(starts) = src.len().checked_sub(MIN_MATCH - 1) else {
        return;
    };
    let keys = src[..starts]
        .iter()
        .zip(&src[1..])
        .zip(&src[2..])
        .map(|((&b0, &b1), &b2)| ((b0 as u16) << 8) ^ ((b1 as u16) << 4) ^ b2 as u16);
    if usize::from(mask) < LOW_PRODUCT_ENTRIES {
        for (h, key) in hashes.iter_mut().zip(keys) {
            *h = (key.wrapping_mul(HASH_MUL) >> 4) & mask;
        }
    } else {
        for (h, key) in hashes.iter_mut().zip(keys) {
            let high = ((key as u32 * HASH_MUL as u32) >> 16) as u16;
            *h = ((key.wrapping_mul(HASH_MUL) >> 4) | (high << 12)) & mask;
        }
    }
}

/// Extend a verified `MIN_MATCH`-byte match at `src[cand]` / `src[i]` up
/// to `limit` bytes, comparing a word at a time where possible.
#[inline]
fn extend_match(src: &[u8], cand: usize, i: usize, limit: usize) -> usize {
    let mut len = MIN_MATCH;
    while len + 8 <= limit {
        let a = u64::from_le_bytes(src[cand + len..cand + len + 8].try_into().unwrap());
        let b = u64::from_le_bytes(src[i + len..i + len + 8].try_into().unwrap());
        let diff = a ^ b;
        if diff != 0 {
            return len + (diff.trailing_zeros() >> 3) as usize;
        }
        len += 8;
    }
    while len < limit && src[cand + len] == src[i + len] {
        len += 1;
    }
    len
}

impl Compressor for Lzrw1 {
    fn name(&self) -> &'static str {
        "lzrw1"
    }

    fn compress(&mut self, src: &[u8], dst: &mut Vec<u8>) -> usize {
        self.compress_bounded(src, dst, usize::MAX)
            .expect("a stored block fits any limit")
    }

    fn decompress(
        &mut self,
        src: &[u8],
        dst: &mut Vec<u8>,
        expected_len: usize,
    ) -> Result<(), DecompressError> {
        // Only growth is zeroed: a reused page-sized buffer costs nothing.
        dst.resize(expected_len, 0);
        Lzrw1::decode_into(src, dst)
    }

    fn cost_profile(&self) -> CostProfile {
        CostProfile {
            compress_scale: 1.0,
            decompress_scale: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::class_page;
    use cc_util::SplitMix64;

    fn roundtrip(lz: &mut Lzrw1, input: &[u8]) -> usize {
        let mut packed = Vec::new();
        let n = lz.compress(input, &mut packed);
        let mut out = Vec::new();
        lz.decompress(&packed, &mut out, input.len())
            .expect("decompress");
        assert_eq!(out, input);
        n
    }

    #[test]
    fn empty_input() {
        let mut lz = Lzrw1::new();
        assert_eq!(roundtrip(&mut lz, &[]), 1);
    }

    #[test]
    fn zero_page_compresses_extremely_well() {
        let mut lz = Lzrw1::new();
        let n = roundtrip(&mut lz, &[0u8; 4096]);
        // 4096 zeros: 1 literal + 228 copies of <=18 bytes + 15 control
        // words = 488 bytes, ~12% of the page.
        assert!(n <= 492, "zero page compressed to {n}");
    }

    #[test]
    fn text_compresses_better_than_half() {
        let mut lz = Lzrw1::new();
        let text = b"compression cache compression cache on-line compression ".repeat(70);
        let n = roundtrip(&mut lz, &text);
        assert!(n * 2 < text.len(), "{n} vs {}", text.len());
    }

    #[test]
    fn random_page_stores_raw() {
        let mut lz = Lzrw1::new();
        let mut rng = SplitMix64::new(1);
        let page: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
        let mut packed = Vec::new();
        let n = lz.compress(&page, &mut packed);
        assert_eq!(n, 4097, "random page should fall back to stored");
        assert_eq!(packed[0], METHOD_STORED);
    }

    #[test]
    fn run_uses_overlapping_copies() {
        let mut lz = Lzrw1::new();
        // "aaaa..." forces offset-1 overlapping copies.
        let n = roundtrip(&mut lz, &[b'a'; 100]);
        assert!(n < 20, "run of 100 compressed to {n}");
    }

    #[test]
    fn offsets_beyond_window_are_not_used() {
        // Two identical 64-byte blocks separated by > 4095 incompressible
        // bytes: the second block cannot reference the first, but the codec
        // must still roundtrip.
        let mut lz = Lzrw1::new();
        let mut rng = SplitMix64::new(2);
        let block: Vec<u8> = (0..64).map(|i| (i * 7) as u8).collect();
        let mut input = block.clone();
        input.extend((0..5000).map(|_| rng.next_u64() as u8));
        input.extend_from_slice(&block);
        roundtrip(&mut lz, &input);
    }

    #[test]
    fn max_match_length_boundary() {
        let mut lz = Lzrw1::new();
        // A run exactly MAX_MATCH + MIN_MATCH long exercises the length cap.
        for len in [
            MIN_MATCH,
            MAX_MATCH - 1,
            MAX_MATCH,
            MAX_MATCH + 1,
            2 * MAX_MATCH,
            2 * MAX_MATCH + 1,
        ] {
            let input: Vec<u8> = std::iter::repeat_n(b'z', len + 1).collect();
            roundtrip(&mut lz, &input);
        }
    }

    #[test]
    fn all_table_sizes_roundtrip() {
        let text = b"the boy stood on the burning deck ".repeat(200);
        for entries in [256, 1024, 4096, 65536] {
            let mut lz = Lzrw1::with_entries(entries);
            roundtrip(&mut lz, &text);
        }
    }

    #[test]
    fn bigger_table_never_much_worse() {
        // A larger hash table means fewer trigram collisions, which should
        // not systematically hurt ratio on text.
        let text: Vec<u8> = {
            let mut rng = SplitMix64::new(7);
            let words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];
            let mut t = Vec::new();
            while t.len() < 16384 {
                t.extend_from_slice(words[rng.gen_index(words.len())].as_bytes());
                t.push(b' ');
            }
            t
        };
        let mut small = Lzrw1::with_entries(256);
        let mut large = Lzrw1::with_entries(65536);
        let mut a = Vec::new();
        let mut b = Vec::new();
        let ns = small.compress(&text, &mut a);
        let nl = large.compress(&text, &mut b);
        assert!(
            nl as f64 <= ns as f64 * 1.05,
            "large table ratio {nl} much worse than small {ns}"
        );
    }

    #[test]
    #[should_panic(expected = "at most 65536")]
    fn tables_wider_than_a_16_bit_index_are_refused() {
        Lzrw1::with_entries(131_072);
    }

    /// Williams's hash as published: a 32-bit product, shifted and masked.
    fn williams(b0: u8, b1: u8, b2: u8, mask: usize) -> u16 {
        let k = ((((b0 as u32) << 4) ^ (b1 as u32)) << 4) ^ (b2 as u32);
        ((40543u32.wrapping_mul(k) >> 4) as usize & mask) as u16
    }

    #[test]
    fn hash_pass_is_williams_hash_under_both_bodies() {
        // Every position 3j starts a trigram `b0 0 b2`, whose key is
        // `b0 << 8 | b2`: all 65 536 keys occur.
        let src: Vec<u8> = (0..=255u8)
            .flat_map(|b0| (0..=255u8).flat_map(move |b2| [b0, 0, b2]))
            .collect();
        for entries in [256, 4096, 8192, 65_536] {
            let mask = entries - 1;
            let mut hashes = vec![0; src.len() - 2];
            hash_block(&src, &mut hashes, mask as u16);
            for (i, (&h, t)) in hashes.iter().zip(src.windows(3)).enumerate() {
                assert_eq!(
                    h,
                    williams(t[0], t[1], t[2], mask),
                    "{entries} entries, at {i}"
                );
            }
        }
    }

    #[test]
    fn with_table_bytes_rounds_to_power_of_two() {
        assert_eq!(Lzrw1::with_table_bytes(16 * 1024).table_bytes(), 16 * 1024);
        assert_eq!(Lzrw1::with_table_bytes(5000).table_bytes(), 4096);
        assert_eq!(Lzrw1::with_table_bytes(1).table_bytes(), 1024);
    }

    /// Compress `input` on `lz` and on a fresh encoder: same bytes.
    fn assert_like_fresh(lz: &mut Lzrw1, input: &[u8]) {
        let (mut shared, mut fresh) = (Vec::new(), Vec::new());
        lz.compress(input, &mut shared);
        Lzrw1::with_entries(lz.table.len()).compress(input, &mut fresh);
        assert!(shared == fresh, "{} bytes: table state leaked", input.len());
        assert!(shared.len() < input.len(), "input must exercise the table");
    }

    #[test]
    fn generation_wrap_clears_the_table() {
        let mut lz = Lzrw1::new();
        let pages: Vec<Vec<u8>> = (0..6).map(|s| class_page(3, s, 4096)).collect();
        assert_like_fresh(&mut lz, &pages[0]);
        // 12 position bits leave 20 of generation: jump to its last value
        // but two instead of compressing a million pages.
        assert_eq!(lz.pos_bits, 12);
        lz.generation = (1 << 20) - 3;
        for page in &pages {
            assert_like_fresh(&mut lz, page);
        }
        assert_eq!(lz.generation, 4, "two blocks before the wrap, four after");
        // Slots written at the top generation must not read as live under
        // the restarted count: same page, same slots, across the wrap.
        lz.generation = (1 << 20) - 2;
        assert_like_fresh(&mut lz, &pages[0]);
        assert_like_fresh(&mut lz, &pages[0]);
        assert_eq!(lz.generation, 1);
    }

    #[test]
    fn block_sizes_alternate_on_one_encoder() {
        // 4 KiB and 512 KiB split a slot differently (12 and 19 position
        // bits); a slot written under one split must never be read under
        // the other.
        let mut lz = Lzrw1::new();
        let small = class_page(3, 7, 4096);
        let big = class_page(3, 8, 512 * 1024);
        for _ in 0..3 {
            assert_like_fresh(&mut lz, &small);
            assert_eq!(lz.pos_bits, 12);
            assert_like_fresh(&mut lz, &big);
            assert_eq!(lz.pos_bits, 19);
        }
        // Lengths either side of a power of two, and the degenerate ones.
        for n in [4097, 4096, 4095, 3, 2, 1, 0, 4096] {
            let (mut shared, mut fresh) = (Vec::new(), Vec::new());
            lz.compress(&big[..n], &mut shared);
            Lzrw1::new().compress(&big[..n], &mut fresh);
            assert_eq!(shared, fresh, "{n} bytes");
        }
    }

    #[test]
    fn truncated_inputs_error() {
        let mut lz = Lzrw1::new();
        let text = b"abcabcabcabcabcabc".to_vec();
        let mut packed = Vec::new();
        lz.compress(&text, &mut packed);
        for cut in 0..packed.len() {
            let mut out = Vec::new();
            let r = lz.decompress(&packed[..cut], &mut out, text.len());
            assert!(r.is_err(), "accepted truncation at {cut}");
        }
    }

    #[test]
    fn bad_offset_detected() {
        // Hand-craft: method byte, control word with bit0 set (copy), copy
        // item referencing offset 5 at output position 0.
        let packed = [METHOD_LZRW1, 0x01, 0x00, 0x00, 0x05];
        let mut out = Vec::new();
        let err = Lzrw1::new().decompress(&packed, &mut out, 10).unwrap_err();
        assert!(matches!(err, DecompressError::BadOffset { .. }), "{err:?}");
    }

    #[test]
    fn deterministic_output() {
        let mut a = Lzrw1::new();
        let mut b = Lzrw1::new();
        let text = b"determinism matters for simulation ".repeat(50);
        let mut pa = Vec::new();
        let mut pb = Vec::new();
        a.compress(&text, &mut pa);
        // Interleave an unrelated compression to confirm the table reset.
        let mut scratch = Vec::new();
        b.compress(&[1, 2, 3, 4, 5, 6, 7, 8], &mut scratch);
        b.compress(&text, &mut pb);
        assert_eq!(pa, pb);
    }
}
