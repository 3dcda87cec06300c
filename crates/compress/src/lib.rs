//! On-line page compressors for the compression cache.
//!
//! The paper compresses 4 KB VM pages with Ross Williams's **LZRW1**
//! (Data Compression Conference, 1991), chosen because it is fast enough to
//! run on every page-out and decompresses about twice as fast as it
//! compresses. This crate provides:
//!
//! - [`lzrw1::Lzrw1`] — a from-scratch LZRW1 implementation with a
//!   configurable hash table (the paper's kernel used a 16 KB table, §4.4);
//! - [`lzss::Lzss`] — a slower, better-compressing LZ comparator standing in
//!   for the "especially effective (but slower) off-line algorithms" of
//!   §2.2 (Taunton; Atkinson et al.);
//! - [`rle::Rle`] — a trivially fast run-length codec, useful for
//!   zero-dominated pages and as a lower bound on compression effort;
//! - [`null::Null`] — the identity codec, the "no compression" baseline;
//! - [`bdi::Bdi`] — a single-pass base+delta-immediate word-pattern codec
//!   (Pekhimenko's BDI / CPack family): zeros, repeated words, narrow
//!   values, and base+delta over 8-byte words, no hash table;
//! - [`samefilled::SameFilled`] — zswap-style same-filled pages (one
//!   repeated word) as a first-class codec.
//!
//! The [`codec`] module layers identity and selection on top: a stable
//! [`CodecId`] per codec (persisted in store entries and spill extent
//! headers so decode always uses the codec that sealed the bytes), a
//! [`CodecPolicy`] (`lzrw1-only` / `adaptive`), the sampled [`classify`]
//! that routes a page to BDI, LZRW1 or straight to the stored block
//! ([`Route`]; its BDI half is [`probe_bdi`]), and [`CodecSet`] — the
//! per-thread bundle the store's put path selects from.
//!
//! Every codec implements [`Compressor`] and obeys the same contract:
//! `compress` never produces more than [`Compressor::max_compressed_len`]
//! bytes (falling back to a stored block when data expands), and
//! `decompress` validates untrusted input, returning [`DecompressError`]
//! rather than panicking.
//!
//! The [`threshold`] module implements the paper's 4:3 keep-compressed
//! policy (§5.2): pages that compress to more than 3/4 of their original
//! size are not worth keeping in compressed form.

#![warn(missing_docs)]

pub mod bdi;
pub mod codec;
pub mod lzrw1;
pub mod lzss;
pub mod null;
#[cfg(test)]
mod reference;
pub mod rle;
pub mod samefilled;
pub mod threshold;

pub use bdi::Bdi;
pub use codec::{
    classify, codec_for, decode_into, probe_bdi, Codec, CodecId, CodecPolicy, CodecSet, Route,
    Selection,
};
pub use lzrw1::Lzrw1;
pub use lzss::Lzss;
pub use null::Null;
pub use rle::Rle;
pub use samefilled::{expand_same_filled, same_filled_pattern, SameFilled};
pub use threshold::{CompressDecision, ThresholdPolicy};

use std::fmt;

/// Error returned when decompressing malformed or truncated input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompressError {
    /// The input ended before the expected output was produced.
    Truncated,
    /// A back-reference pointed before the start of the output.
    BadOffset {
        /// The offending offset.
        offset: usize,
        /// Output position at which it was found.
        at: usize,
    },
    /// The method byte does not name a known encoding.
    BadMethod(u8),
    /// Input bytes remained after the expected output was produced.
    TrailingGarbage,
    /// Producing the next item would exceed the expected output length.
    OutputOverrun,
}

impl fmt::Display for DecompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompressError::Truncated => write!(f, "compressed input truncated"),
            DecompressError::BadOffset { offset, at } => {
                write!(f, "back-reference offset {offset} invalid at output {at}")
            }
            DecompressError::BadMethod(m) => write!(f, "unknown method byte {m:#x}"),
            DecompressError::TrailingGarbage => write!(f, "trailing bytes after output complete"),
            DecompressError::OutputOverrun => write!(f, "item would overrun expected output"),
        }
    }
}

impl std::error::Error for DecompressError {}

/// Relative cost of running a codec, normalized so that LZRW1 is 1.0.
///
/// The simulator charges `page_bytes / (machine compress bandwidth *
/// compress_scale)` of virtual time per compression; larger scales are
/// faster. This keeps one machine parameter (the LZRW1 bandwidth measured
/// on the target CPU) while letting alternative codecs plug in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostProfile {
    /// Compression speed relative to LZRW1 (1.0 = same).
    pub compress_scale: f64,
    /// Decompression speed relative to LZRW1 *decompression* (1.0 = same).
    pub decompress_scale: f64,
}

/// A page compressor.
///
/// Codecs are `&mut self` because fast LZ coders keep scratch state (the
/// LZRW1 hash table) between calls; reusing it avoids a per-page allocation,
/// exactly as the Sprite kernel kept one static table (§4.4).
pub trait Compressor {
    /// Short stable name for reports ("lzrw1", "rle", ...).
    fn name(&self) -> &'static str;

    /// Worst-case compressed size for `n` input bytes.
    ///
    /// All codecs here store incompressible data raw behind a 1-byte method
    /// tag, so this is `n + 1` unless a codec documents otherwise.
    fn max_compressed_len(&self, n: usize) -> usize {
        n + 1
    }

    /// Compress `src`, replacing the contents of `dst`.
    ///
    /// Returns the compressed length (`dst.len()`); guaranteed to be at most
    /// [`Compressor::max_compressed_len`]`(src.len())`.
    fn compress(&mut self, src: &[u8], dst: &mut Vec<u8>) -> usize;

    /// Decompress `src` into `dst` (replacing its contents), where the
    /// caller knows the original length `expected_len` — the compression
    /// cache always records it in the page header.
    fn decompress(
        &mut self,
        src: &[u8],
        dst: &mut Vec<u8>,
        expected_len: usize,
    ) -> Result<(), DecompressError>;

    /// Relative speed of this codec (see [`CostProfile`]).
    fn cost_profile(&self) -> CostProfile;
}

/// Convenience: compress and report the fraction `compressed / original`
/// (lower is better; 0.25 is the paper's "4:1").
pub fn compression_fraction<C: Compressor + ?Sized>(c: &mut C, src: &[u8]) -> f64 {
    if src.is_empty() {
        return 1.0;
    }
    let mut buf = Vec::new();
    let n = c.compress(src, &mut buf);
    n as f64 / src.len() as f64
}

/// Method tag for a stored (uncompressed) block. Shared by all codecs so
/// that a stored block can be recovered by any of them.
pub(crate) const METHOD_STORED: u8 = 0;

/// Encode `src` as a stored block into `dst`.
pub(crate) fn store_raw(src: &[u8], dst: &mut Vec<u8>) -> usize {
    dst.clear();
    dst.reserve(src.len() + 1);
    dst.push(METHOD_STORED);
    dst.extend_from_slice(src);
    dst.len()
}

/// A stored block's body must be exactly the expected length.
fn check_raw_len(body: &[u8], expected_len: usize) -> Result<(), DecompressError> {
    if body.len() < expected_len {
        return Err(DecompressError::Truncated);
    }
    if body.len() > expected_len {
        return Err(DecompressError::TrailingGarbage);
    }
    Ok(())
}

/// Decode a stored block (after the method byte has been checked).
pub(crate) fn load_raw(
    body: &[u8],
    dst: &mut Vec<u8>,
    expected_len: usize,
) -> Result<(), DecompressError> {
    check_raw_len(body, expected_len)?;
    dst.clear();
    dst.extend_from_slice(body);
    Ok(())
}

/// Decode a stored block into exactly `out.len()` bytes.
pub(crate) fn load_raw_into(body: &[u8], out: &mut [u8]) -> Result<(), DecompressError> {
    check_raw_len(body, out.len())?;
    out.copy_from_slice(body);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All codecs, boxed, for cross-codec contract tests.
    fn all_codecs() -> Vec<Box<dyn Compressor>> {
        vec![
            Box::new(Lzrw1::new()),
            Box::new(Lzrw1::with_table_bytes(4096)),
            Box::new(Lzss::new()),
            Box::new(Rle::new()),
            Box::new(Null::new()),
            Box::new(Bdi::new()),
            Box::new(SameFilled::new()),
        ]
    }

    fn sample_inputs() -> Vec<Vec<u8>> {
        let mut inputs = vec![
            vec![],
            vec![0u8],
            vec![7u8; 4096],
            (0..=255u8).cycle().take(4096).collect::<Vec<u8>>(),
            b"the quick brown fox jumps over the lazy dog ".repeat(100),
        ];
        // Pseudo-random page: effectively incompressible.
        let mut rng = cc_util::SplitMix64::new(99);
        inputs.push((0..4096).map(|_| rng.next_u64() as u8).collect());
        inputs
    }

    #[test]
    fn roundtrip_all_codecs_all_inputs() {
        for codec in all_codecs().iter_mut() {
            for input in sample_inputs() {
                let mut compressed = Vec::new();
                let n = codec.compress(&input, &mut compressed);
                assert_eq!(n, compressed.len(), "{}", codec.name());
                assert!(
                    n <= codec.max_compressed_len(input.len()),
                    "{} exceeded max_compressed_len on {} bytes",
                    codec.name(),
                    input.len()
                );
                let mut out = Vec::new();
                codec
                    .decompress(&compressed, &mut out, input.len())
                    .unwrap_or_else(|e| panic!("{} failed: {e}", codec.name()));
                assert_eq!(out, input, "{} roundtrip mismatch", codec.name());
            }
        }
    }

    #[test]
    fn wrong_expected_len_is_an_error_not_a_panic() {
        for codec in all_codecs().iter_mut() {
            let input = b"abcabcabcabc".to_vec();
            let mut compressed = Vec::new();
            codec.compress(&input, &mut compressed);
            let mut out = Vec::new();
            // Asking for more output than exists must error.
            assert!(
                codec
                    .decompress(&compressed, &mut out, input.len() + 100)
                    .is_err(),
                "{} accepted over-long expected_len",
                codec.name()
            );
        }
    }

    #[test]
    fn corrupt_method_byte_rejected() {
        for codec in all_codecs().iter_mut() {
            let mut out = Vec::new();
            let err = codec.decompress(&[0xEE, 1, 2, 3], &mut out, 3);
            assert!(err.is_err(), "{}", codec.name());
        }
    }

    #[test]
    fn compression_fraction_bounds() {
        let mut lz = Lzrw1::new();
        let zeros = vec![0u8; 4096];
        let frac = compression_fraction(&mut lz, &zeros);
        assert!(frac < 0.13, "zero page should compress hard, got {frac}");
        let mut rng = cc_util::SplitMix64::new(5);
        let random: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
        let frac = compression_fraction(&mut lz, &random);
        assert!(frac > 0.9, "random page should not compress, got {frac}");
        assert!(frac <= 1.0 + 1.0 / 4096.0);
    }
}
