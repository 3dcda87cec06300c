//! Same-filled pages (zswap-style) as a first-class codec.
//!
//! A "same-filled" page is one 8-byte word repeated end to end — zero
//! pages and memset patterns dominate this class in practice. The store
//! detects them before any compressor runs and keeps only the pattern
//! word; this module owns that detection ([`same_filled_pattern`] /
//! [`expand_same_filled`]) and also wraps it as a [`Compressor`] so the
//! codec registry can name the class with a stable id and decode a
//! serialized pattern wherever one lands (e.g. in a spill extent).
//!
//! Wire format: method tag `METHOD_SAME_FILLED` (4) + the 8 pattern bytes
//! in page order. Non-pattern input falls back to the shared stored block.

use crate::{load_raw, store_raw, Compressor, CostProfile, DecompressError, METHOD_STORED};

/// Method tag for a same-filled block.
pub(crate) const METHOD_SAME_FILLED: u8 = 4;

/// Detect a page that is one 8-byte word repeated end to end (zswap's
/// "same-filled" pages: zero pages and memset patterns). Pages shorter
/// than a word qualify when all their bytes are equal; a tail shorter
/// than a word must match the leading bytes of the pattern.
pub fn same_filled_pattern(page: &[u8]) -> Option<u64> {
    if page.is_empty() {
        return None;
    }
    if page.len() < 8 {
        let b = page[0];
        return page[1..]
            .iter()
            .all(|&x| x == b)
            .then_some(u64::from_ne_bytes([b; 8]));
    }
    let word: [u8; 8] = page[..8].try_into().expect("8-byte prefix");
    let mut chunks = page.chunks_exact(8);
    if !chunks.by_ref().all(|c| c == word) {
        return None;
    }
    let rem = chunks.remainder();
    (*rem == word[..rem.len()]).then_some(u64::from_ne_bytes(word))
}

/// Reconstruct a same-filled page from its pattern word.
pub fn expand_same_filled(out: &mut [u8], pattern: u64) {
    let word = pattern.to_ne_bytes();
    let mut chunks = out.chunks_exact_mut(8);
    for c in chunks.by_ref() {
        c.copy_from_slice(&word);
    }
    let rem = chunks.into_remainder();
    let n = rem.len();
    rem.copy_from_slice(&word[..n]);
}

/// The same-filled class as a codec: 9 bytes for a pattern page, stored
/// fallback otherwise.
#[derive(Debug, Clone, Default)]
pub struct SameFilled;

impl SameFilled {
    /// Create the codec.
    pub fn new() -> Self {
        SameFilled
    }
}

impl Compressor for SameFilled {
    fn name(&self) -> &'static str {
        "same-filled"
    }

    fn compress(&mut self, src: &[u8], dst: &mut Vec<u8>) -> usize {
        // A pattern block is 9 bytes; below that, stored is no worse and
        // keeps the universal `n + 1` worst-case bound.
        match same_filled_pattern(src).filter(|_| src.len() > 8) {
            Some(pattern) => {
                dst.clear();
                dst.push(METHOD_SAME_FILLED);
                // The pattern is semantically 8 repeating bytes; the wire
                // carries them in page order.
                dst.extend_from_slice(&pattern.to_ne_bytes());
                dst.len()
            }
            None => store_raw(src, dst),
        }
    }

    fn decompress(
        &mut self,
        src: &[u8],
        dst: &mut Vec<u8>,
        expected_len: usize,
    ) -> Result<(), DecompressError> {
        let (&method, body) = src.split_first().ok_or(DecompressError::Truncated)?;
        if method == METHOD_STORED {
            return load_raw(body, dst, expected_len);
        }
        if method != METHOD_SAME_FILLED {
            return Err(DecompressError::BadMethod(method));
        }
        if body.len() < 8 {
            return Err(DecompressError::Truncated);
        }
        if body.len() > 8 {
            return Err(DecompressError::TrailingGarbage);
        }
        if expected_len == 0 {
            // An empty page is never same-filled; a pattern block claiming
            // zero length is malformed, not an empty output.
            return Err(DecompressError::OutputOverrun);
        }
        let pattern = u64::from_ne_bytes(body.try_into().expect("8-byte pattern"));
        dst.clear();
        dst.resize(expected_len, 0);
        expand_same_filled(dst, pattern);
        Ok(())
    }

    fn cost_profile(&self) -> CostProfile {
        // Detection is a single compare pass; expansion is a memset.
        CostProfile {
            compress_scale: 12.0,
            decompress_scale: 10.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_matrix() {
        assert_eq!(same_filled_pattern(&[0u8; 4096]), Some(0));
        let word = 0x0102_0304_0506_0708u64.to_ne_bytes();
        let repeated: Vec<u8> = word.iter().copied().cycle().take(4096).collect();
        assert_eq!(
            same_filled_pattern(&repeated),
            Some(u64::from_ne_bytes(word))
        );
        let mut bad_tail = repeated.clone();
        *bad_tail.last_mut().unwrap() ^= 1;
        assert_eq!(same_filled_pattern(&bad_tail), None);
        assert_eq!(same_filled_pattern(&[]), None);
        assert_eq!(
            same_filled_pattern(&[9u8; 5]),
            Some(u64::from_ne_bytes([9; 8]))
        );
    }

    #[test]
    fn codec_roundtrip_pattern_and_fallback() {
        let mut c = SameFilled::new();
        let mut packed = Vec::new();
        let mut out = Vec::new();

        let page = vec![0xABu8; 4096];
        assert_eq!(c.compress(&page, &mut packed), 9);
        c.decompress(&packed, &mut out, page.len()).unwrap();
        assert_eq!(out, page);
        // Ragged lengths expand correctly from the same block.
        c.decompress(&packed, &mut out, 13).unwrap();
        assert_eq!(out, vec![0xABu8; 13]);

        let mixed = b"not a pattern page".to_vec();
        assert_eq!(c.compress(&mixed, &mut packed), mixed.len() + 1);
        c.decompress(&packed, &mut out, mixed.len()).unwrap();
        assert_eq!(out, mixed);
    }

    #[test]
    fn malformed_blocks_error() {
        let mut c = SameFilled::new();
        let mut out = Vec::new();
        assert!(c
            .decompress(&[METHOD_SAME_FILLED, 1, 2], &mut out, 64)
            .is_err());
        assert!(c
            .decompress(
                &[METHOD_SAME_FILLED, 1, 2, 3, 4, 5, 6, 7, 8, 9],
                &mut out,
                64
            )
            .is_err());
        assert!(c
            .decompress(&[METHOD_SAME_FILLED, 1, 2, 3, 4, 5, 6, 7, 8], &mut out, 0)
            .is_err());
        assert!(c.decompress(&[0xEE, 0], &mut out, 1).is_err());
    }
}
