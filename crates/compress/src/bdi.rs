//! Base+delta-immediate (BDI) word-pattern codec.
//!
//! Pekhimenko's BDI observation (and CPack's word classes) is that many
//! real pages are *regular* at word granularity even when they are not
//! byte-repetitive: all-zero pages, one repeated word, narrow values
//! (small integers stored in 8-byte slots), and arrays whose 8-byte words
//! cluster around a common base (pointers into one heap region, ascending
//! indices). Such pages compress in **one pass with no hash table** — the
//! codec reads each word once, subtracts a base, and emits a truncated
//! two's-complement delta — which makes it several times faster than an
//! LZ coder on the pages it fits.
//!
//! Wire format (after the 1-byte method tag `METHOD_BDI`, 5):
//!
//! | scheme | layout |
//! |--------|--------|
//! | `0` zero     | `orig_len: u32 LE` |
//! | `1` repeated | `orig_len: u32 LE`, `word: u64 LE` |
//! | `2` delta    | `width: u8 (1/2/4)`, `base: u64 LE`, `n/8` deltas of `width` bytes (LE, sign-extended on decode), `n%8` raw tail bytes |
//!
//! Schemes 0 and 1 record the original length so a wrong `expected_len`
//! at decode is an error, never a silently different-sized page. Incompressible
//! input falls back to the shared stored block (method `0`), so the worst
//! case is `n + 1` bytes like every other codec here.
//!
//! Both kernels are one subtract, fold and OR per word — data-parallel
//! work that baseline x86-64 (SSE2) runs a word or two at a time, for
//! want of 64-bit vector shifts, compares and sign extensions. So each
//! body is compiled up to three times from the same source: for
//! AVX-512 (`avx512f,avx512bw,avx512vl` with AVX2 and BMI), for AVX2
//! (`avx2,bmi1,bmi2`), and portable. [`Bdi::compress`] and
//! [`Bdi::decode_into`] run the widest build the CPU has, detected once
//! per process ([`kernel`] names it); [`compress_portable`] and
//! [`decode_into_portable`] run the portable one anywhere. The builds
//! write the same bytes and return the same errors, since the source is
//! one. Other targets compile the portable body only.

use crate::{load_raw_into, store_raw, Compressor, CostProfile, DecompressError, METHOD_STORED};

/// Method tag for a BDI-coded block.
pub(crate) const METHOD_BDI: u8 = 5;

const SCHEME_ZERO: u8 = 0;
const SCHEME_REP: u8 = 1;
const SCHEME_DELTA: u8 = 2;

/// Bytes ahead of the deltas in the delta scheme: method, scheme, width,
/// 8-byte base.
const DELTA_HEADER: usize = 2 + 1 + 8;

/// Single-pass base+delta-immediate codec over 8-byte little-endian words.
#[derive(Debug, Clone, Default)]
pub struct Bdi;

impl Bdi {
    /// Create the codec (stateless — no table to allocate).
    pub fn new() -> Self {
        Bdi
    }
}

/// Fold a two's-complement delta onto the non-negative value of the same
/// signed width (`d` itself, or `!d` when negative). The highest set bit
/// of an OR of folds is the highest set bit of the widest one, so a whole
/// page's delta width falls out of one accumulator with no per-word
/// comparison — a width test per word is an unpredictable branch on pages
/// whose values straddle a width class.
#[inline(always)]
pub(crate) fn sign_fold(d: u64) -> u64 {
    d ^ ((d as i64 >> 63) as u64)
}

/// Smallest signed width (1, 2, 4, or 8 bytes) that holds every delta
/// OR-ed into `folds` by [`sign_fold`] exactly. Shared with the
/// codec-selection probe, which predicts delta widths from a sample of
/// words.
#[inline(always)]
pub(crate) fn width_of(folds: u64) -> usize {
    match folds {
        0..=0x7F => 1,
        0x80..=0x7FFF => 2,
        0x8000..=0x7FFF_FFFF => 4,
        _ => 8,
    }
}

/// Encoded size of the delta scheme for `nwords` words at `width` plus a
/// raw `tail`-byte remainder.
#[inline(always)]
pub(crate) fn delta_cost(width: usize, nwords: usize, tail: usize) -> usize {
    DELTA_HEADER + width * nwords + tail
}

#[inline(always)]
pub(crate) fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
}

/// Write each word of `words` minus `base`, truncated to `W` bytes.
#[inline(always)]
fn pack<const W: usize>(words: &[u8], base: u64, deltas: &mut [u8]) {
    for (d, w) in deltas.chunks_exact_mut(W).zip(words.chunks_exact(8)) {
        d.copy_from_slice(&word(w).wrapping_sub(base).to_le_bytes()[..W]);
    }
}

/// Write `base` plus each sign-extended `W`-byte delta as a whole word.
#[inline(always)]
fn unpack<const W: usize>(
    deltas: &[u8],
    base: u64,
    words: &mut [u8],
    sign_extend: impl Fn([u8; W]) -> i64,
) {
    for (w, d) in words.chunks_exact_mut(8).zip(deltas.chunks_exact(W)) {
        let d = sign_extend(d.try_into().expect("W-byte delta"));
        w.copy_from_slice(&base.wrapping_add(d as u64).to_le_bytes());
    }
}

impl Bdi {
    /// Decode `src` into exactly `out.len()` bytes — the page's recorded
    /// original length — writing whole words straight into the caller's
    /// buffer, on the widest build this CPU runs ([`kernel`]). Malformed
    /// input is an error, never a panic; on error the contents of `out`
    /// are unspecified.
    pub fn decode_into(src: &[u8], out: &mut [u8]) -> Result<(), DecompressError> {
        #[cfg(target_arch = "x86_64")]
        if let Some(build) = wide::detected() {
            // SAFETY: `detected()` returns only a build whose every target
            // feature it has found on this CPU.
            return unsafe { build.decode_into(src, out) };
        }
        decode_body(src, out)
    }
}

/// [`Bdi`]'s encoder on the portable body alone, whatever the CPU offers:
/// the baseline the `codec_kernels` bench sets beside the live build.
pub fn compress_portable(src: &[u8], dst: &mut Vec<u8>) -> usize {
    compress_body(src, dst)
}

/// [`Bdi::decode_into`] on the portable body alone, whatever the CPU
/// offers: the baseline the `codec_kernels` bench sets beside the live
/// build.
pub fn decode_into_portable(src: &[u8], out: &mut [u8]) -> Result<(), DecompressError> {
    decode_body(src, out)
}

/// The build of the two kernels [`Bdi`] runs on this CPU: `"avx512"`,
/// `"avx2"` or `"portable"`.
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if let Some(build) = wide::detected() {
        return build.name();
    }
    "portable"
}

/// The decoder, compiled into each build.
#[inline(always)]
fn decode_body(src: &[u8], out: &mut [u8]) -> Result<(), DecompressError> {
    let (&method, body) = src.split_first().ok_or(DecompressError::Truncated)?;
    if method == METHOD_STORED {
        return load_raw_into(body, out);
    }
    if method != METHOD_BDI {
        return Err(DecompressError::BadMethod(method));
    }
    let (&scheme, body) = body.split_first().ok_or(DecompressError::Truncated)?;
    match scheme {
        SCHEME_ZERO | SCHEME_REP => {
            let want = if scheme == SCHEME_ZERO { 4 } else { 12 };
            if body.len() < want {
                return Err(DecompressError::Truncated);
            }
            if body.len() > want {
                return Err(DecompressError::TrailingGarbage);
            }
            let recorded = u32::from_le_bytes(body[0..4].try_into().expect("4-byte len")) as usize;
            if recorded > out.len() {
                return Err(DecompressError::OutputOverrun);
            }
            if recorded < out.len() {
                return Err(DecompressError::Truncated);
            }
            if scheme == SCHEME_ZERO {
                out.fill(0);
            } else {
                let pattern: [u8; 8] = body[4..12].try_into().expect("8-byte word");
                let mut words = out.chunks_exact_mut(8);
                for w in &mut words {
                    w.copy_from_slice(&pattern);
                }
                let tail = words.into_remainder();
                tail.copy_from_slice(&pattern[..tail.len()]);
            }
            Ok(())
        }
        SCHEME_DELTA => {
            let (&width, body) = body.split_first().ok_or(DecompressError::Truncated)?;
            let width = width as usize;
            if !matches!(width, 1 | 2 | 4) {
                return Err(DecompressError::BadMethod(width as u8));
            }
            if body.len() < 8 {
                return Err(DecompressError::Truncated);
            }
            let (base, body) = body.split_at(8);
            let base = word(base);
            let nwords = out.len() / 8;
            let want = width * nwords + out.len() % 8;
            if body.len() < want {
                return Err(DecompressError::Truncated);
            }
            if body.len() > want {
                return Err(DecompressError::TrailingGarbage);
            }
            let (deltas, tail) = body.split_at(width * nwords);
            let (words, out_tail) = out.split_at_mut(nwords * 8);
            match width {
                1 => unpack::<1>(deltas, base, words, |d| i8::from_le_bytes(d) as i64),
                2 => unpack::<2>(deltas, base, words, |d| i16::from_le_bytes(d) as i64),
                _ => unpack::<4>(deltas, base, words, |d| i32::from_le_bytes(d) as i64),
            }
            out_tail.copy_from_slice(tail);
            Ok(())
        }
        other => Err(DecompressError::BadMethod(other)),
    }
}

/// The encoder, compiled into each build.
#[inline(always)]
fn compress_body(src: &[u8], dst: &mut Vec<u8>) -> usize {
    let n = src.len();
    let nwords = n / 8;
    let (words, tail) = src.split_at(nwords * 8);

    // One branch-free pass: classify. All-zero and repeated-word fall
    // out of the same OR-reductions that size the two delta candidates
    // (base = first word, base = 0 for narrow values).
    let base = words.first_chunk::<8>().map_or(0, |w| word(w));
    let (mut any, mut differs, mut vs_base, mut vs_zero) = (0u64, 0u64, 0u64, 0u64);
    for w in words.chunks_exact(8) {
        let w = word(w);
        any |= w;
        differs |= w ^ base;
        vs_base |= sign_fold(w.wrapping_sub(base));
        vs_zero |= sign_fold(w);
    }
    let all_zero = any == 0 && tail.iter().all(|&b| b == 0);
    // Repeated-word also requires the tail to continue the pattern.
    let rep = differs == 0 && nwords > 0 && *tail == base.to_le_bytes()[..tail.len()];
    let (wbase, wzero) = (width_of(vs_base), width_of(vs_zero));

    // Pick the cheapest applicable scheme; stored (n + 1) wins ties.
    let mut best_cost = n + 1;
    let mut best: Option<(u8, usize, u64)> = None; // (scheme, width, base)
    let dwidth = wbase.min(wzero);
    let dbase = if wbase <= wzero { base } else { 0 };
    if dwidth < 8 && nwords > 0 && delta_cost(dwidth, nwords, tail.len()) < best_cost {
        best_cost = delta_cost(dwidth, nwords, tail.len());
        best = Some((SCHEME_DELTA, dwidth, dbase));
    }
    if rep && 2 + 4 + 8 < best_cost {
        best_cost = 2 + 4 + 8;
        best = Some((SCHEME_REP, 0, base));
    }
    if all_zero && 2 + 4 < best_cost {
        best = Some((SCHEME_ZERO, 0, 0));
    }

    let Some((scheme, width, base)) = best else {
        return store_raw(src, dst);
    };
    if scheme != SCHEME_DELTA {
        dst.clear();
        dst.extend_from_slice(&[METHOD_BDI, scheme]);
        dst.extend_from_slice(&(n as u32).to_le_bytes());
        if scheme == SCHEME_REP {
            dst.extend_from_slice(&base.to_le_bytes());
        }
        return dst.len();
    }
    // The size is known before a byte is written, so size the buffer
    // once and fill it by slice. No `clear` first: a reused buffer
    // keeps its length and is not zeroed again.
    dst.resize(delta_cost(width, nwords, tail.len()), 0);
    let (header, body) = dst.split_at_mut(DELTA_HEADER);
    header[..3].copy_from_slice(&[METHOD_BDI, SCHEME_DELTA, width as u8]);
    header[3..].copy_from_slice(&base.to_le_bytes());
    let (deltas, out_tail) = body.split_at_mut(width * nwords);
    match width {
        1 => pack::<1>(words, base, deltas),
        2 => pack::<2>(words, base, deltas),
        _ => pack::<4>(words, base, deltas),
    }
    out_tail.copy_from_slice(tail);
    debug_assert!(dst.len() <= n + 1, "bdi exceeded stored fallback");
    dst.len()
}

/// The wide builds: [`compress_body`] and [`decode_body`] compiled again,
/// with their helpers inlined, for more of the CPU's instructions. The
/// source is the same, so the bytes are too; what changes is that the
/// compiler may use 64-bit vector shifts, compares, sign extensions and
/// truncating stores, which baseline x86-64 (SSE2) lacks.
#[cfg(target_arch = "x86_64")]
mod wide {
    use super::{compress_body, decode_body};
    use crate::DecompressError;
    use std::sync::OnceLock;

    /// A build wider than the portable one.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum Build {
        /// `avx512f,avx512bw,avx512vl,avx2,bmi1,bmi2`.
        Avx512,
        /// `avx2,bmi1,bmi2`.
        Avx2,
    }

    #[cfg(test)]
    thread_local! {
        /// Calls that reached each build on this thread (indexed by
        /// `Build as usize`), so a test can tell which one the dispatch
        /// took; per thread, so tests running beside it do not count.
        pub(super) static CALLS: [std::cell::Cell<usize>; 2] =
            const { [std::cell::Cell::new(0), std::cell::Cell::new(0)] };
    }

    #[cfg(test)]
    fn count(build: Build) {
        CALLS.with(|calls| calls[build as usize].set(calls[build as usize].get() + 1));
    }

    impl Build {
        /// Every wide build, widest first.
        pub(super) const ALL: [Build; 2] = [Build::Avx512, Build::Avx2];

        pub(super) fn name(self) -> &'static str {
            match self {
                Build::Avx512 => "avx512",
                Build::Avx2 => "avx2",
            }
        }

        /// The CPU has every instruction the build is compiled for.
        pub(super) fn supported(self) -> bool {
            let avx2 = is_x86_feature_detected!("avx2")
                && is_x86_feature_detected!("bmi1")
                && is_x86_feature_detected!("bmi2");
            match self {
                Build::Avx512 => {
                    avx2 && is_x86_feature_detected!("avx512f")
                        && is_x86_feature_detected!("avx512bw")
                        && is_x86_feature_detected!("avx512vl")
                }
                Build::Avx2 => avx2,
            }
        }

        /// [`compress_body`] on this build.
        ///
        /// # Safety
        ///
        /// The CPU must support the build ([`Build::supported`]).
        pub(super) unsafe fn compress(self, src: &[u8], dst: &mut Vec<u8>) -> usize {
            // SAFETY: the caller has checked that this CPU runs `self`.
            unsafe {
                match self {
                    Build::Avx512 => compress_avx512(src, dst),
                    Build::Avx2 => compress_avx2(src, dst),
                }
            }
        }

        /// [`decode_body`] on this build.
        ///
        /// # Safety
        ///
        /// The CPU must support the build ([`Build::supported`]).
        pub(super) unsafe fn decode_into(
            self,
            src: &[u8],
            out: &mut [u8],
        ) -> Result<(), DecompressError> {
            // SAFETY: the caller has checked that this CPU runs `self`.
            unsafe {
                match self {
                    Build::Avx512 => decode_avx512(src, out),
                    Build::Avx2 => decode_avx2(src, out),
                }
            }
        }
    }

    /// The widest build this CPU runs, detected once per process; `None`
    /// leaves the portable body.
    pub(super) fn detected() -> Option<Build> {
        static WIDEST: OnceLock<Option<Build>> = OnceLock::new();
        *WIDEST.get_or_init(|| Build::ALL.into_iter().find(|b| b.supported()))
    }

    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx2,bmi1,bmi2")]
    fn compress_avx512(src: &[u8], dst: &mut Vec<u8>) -> usize {
        #[cfg(test)]
        count(Build::Avx512);
        compress_body(src, dst)
    }

    #[target_feature(enable = "avx2,bmi1,bmi2")]
    fn compress_avx2(src: &[u8], dst: &mut Vec<u8>) -> usize {
        #[cfg(test)]
        count(Build::Avx2);
        compress_body(src, dst)
    }

    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx2,bmi1,bmi2")]
    fn decode_avx512(src: &[u8], out: &mut [u8]) -> Result<(), DecompressError> {
        #[cfg(test)]
        count(Build::Avx512);
        decode_body(src, out)
    }

    #[target_feature(enable = "avx2,bmi1,bmi2")]
    fn decode_avx2(src: &[u8], out: &mut [u8]) -> Result<(), DecompressError> {
        #[cfg(test)]
        count(Build::Avx2);
        decode_body(src, out)
    }
}

impl Compressor for Bdi {
    fn name(&self) -> &'static str {
        "bdi"
    }

    fn compress(&mut self, src: &[u8], dst: &mut Vec<u8>) -> usize {
        #[cfg(target_arch = "x86_64")]
        if let Some(build) = wide::detected() {
            // SAFETY: `detected()` returns only a build whose every target
            // feature it has found on this CPU.
            return unsafe { build.compress(src, dst) };
        }
        compress_body(src, dst)
    }

    fn decompress(
        &mut self,
        src: &[u8],
        dst: &mut Vec<u8>,
        expected_len: usize,
    ) -> Result<(), DecompressError> {
        // Only growth is zeroed: a reused page-sized buffer costs nothing.
        dst.resize(expected_len, 0);
        Bdi::decode_into(src, dst)
    }

    fn cost_profile(&self) -> CostProfile {
        // One linear pass, no hash table: several times an LZRW1 pass on
        // pages it fits; decode is a widening copy.
        CostProfile {
            compress_scale: 6.0,
            decompress_scale: 3.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(input: &[u8]) -> usize {
        let mut c = Bdi::new();
        let mut packed = Vec::new();
        let n = c.compress(input, &mut packed);
        assert_eq!(n, packed.len());
        assert!(n <= c.max_compressed_len(input.len()));
        let mut out = Vec::new();
        c.decompress(&packed, &mut out, input.len()).unwrap();
        assert_eq!(out, input);
        n
    }

    #[test]
    fn zero_page_is_six_bytes() {
        assert_eq!(roundtrip(&[0u8; 4096]), 6);
        assert_eq!(roundtrip(&[0u8; 1024]), 6);
        assert_eq!(roundtrip(&[0u8; 9]), 6);
    }

    #[test]
    fn repeated_word_is_fourteen_bytes() {
        let page: Vec<u8> = 0xDEAD_BEEF_0BAD_F00Du64
            .to_le_bytes()
            .iter()
            .copied()
            .cycle()
            .take(4096)
            .collect();
        assert_eq!(roundtrip(&page), 14);
        // Ragged tail continuing the pattern still qualifies.
        assert_eq!(roundtrip(&page[..4093]), 14);
    }

    #[test]
    fn narrow_values_use_base_zero() {
        // u16 counters in u64 slots: delta width 2 off base 0.
        let mut page = vec![0u8; 4096];
        for (i, w) in page.chunks_exact_mut(8).enumerate() {
            w[..2].copy_from_slice(&(i as u16 ^ 0x1234).to_le_bytes());
        }
        let n = roundtrip(&page);
        assert_eq!(n, delta_cost(2, 512, 0));
    }

    #[test]
    fn clustered_pointers_use_first_word_base() {
        // 64-bit "pointers" within ±127 of the first: width 1.
        let base = 0x7FFF_AAAA_BBBB_0000u64;
        let mut page = vec![0u8; 4096];
        for (i, w) in page.chunks_exact_mut(8).enumerate() {
            let v = base.wrapping_add((i as u64 % 120).wrapping_sub(60));
            w.copy_from_slice(&v.to_le_bytes());
        }
        let n = roundtrip(&page);
        assert_eq!(n, delta_cost(1, 512, 0));
    }

    #[test]
    fn random_page_stores_raw() {
        let mut rng = cc_util::SplitMix64::new(7);
        let page: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
        assert_eq!(roundtrip(&page), 4097);
    }

    #[test]
    fn boundary_sizes_roundtrip() {
        for n in [0usize, 1, 5, 7, 8, 9, 15, 16, 17, 4095, 4096, 4097] {
            roundtrip(&vec![0u8; n]);
            roundtrip(&vec![0xA5u8; n]);
            let ramp: Vec<u8> = (0..n).map(|i| (i / 8) as u8).collect();
            roundtrip(&ramp);
        }
    }

    #[test]
    fn wrong_expected_len_is_rejected_for_length_agnostic_schemes() {
        let mut c = Bdi::new();
        let mut packed = Vec::new();
        c.compress(&[0u8; 4096], &mut packed);
        let mut out = Vec::new();
        assert_eq!(
            c.decompress(&packed, &mut out, 4095),
            Err(DecompressError::OutputOverrun)
        );
        assert_eq!(
            c.decompress(&packed, &mut out, 4097),
            Err(DecompressError::Truncated)
        );
    }

    /// The build `kernel()` names is the widest whose every target
    /// feature this CPU reports.
    #[test]
    fn kernel_names_the_widest_build_this_cpu_runs() {
        #[cfg(target_arch = "x86_64")]
        let want = {
            let avx2 = is_x86_feature_detected!("avx2")
                && is_x86_feature_detected!("bmi1")
                && is_x86_feature_detected!("bmi2");
            let avx512 = is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw")
                && is_x86_feature_detected!("avx512vl");
            match (avx2, avx512) {
                (true, true) => "avx512",
                (true, false) => "avx2",
                _ => "portable",
            }
        };
        #[cfg(not(target_arch = "x86_64"))]
        let want = "portable";
        assert_eq!(kernel(), want);
    }

    /// A green suite must not mean that only the portable body ran: the
    /// live entry points reach the widest build the CPU has.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_dispatch_takes_the_widest_detected_build() {
        let Some(widest) = wide::detected() else {
            return;
        };
        let calls = || wide::CALLS.with(|c| c.iter().map(std::cell::Cell::get).collect::<Vec<_>>());
        let mut want = calls();
        let page = vec![3u8; 4096];
        let mut sealed = Vec::new();
        Bdi.compress(&page, &mut sealed);
        want[widest as usize] += 1;
        assert_eq!(calls(), want, "encode on {}", widest.name());
        let mut out = vec![0u8; 4096];
        Bdi::decode_into(&sealed, &mut out).unwrap();
        want[widest as usize] += 1;
        assert_eq!(calls(), want, "decode on {}", widest.name());
        assert_eq!(out, page);
    }

    /// The reference corpus's pages (five classes), arbitrary bytes, and
    /// words whose deltas sit on either side of each width edge.
    fn corpus_page(source: usize, len: usize) -> Vec<u8> {
        const EDGES: [i64; 12] = [
            0x7F,
            -0x80,
            0x80,
            -0x81,
            0x7FFF,
            -0x8000,
            0x8000,
            -0x8001,
            0x7FFF_FFFF,
            -0x8000_0000,
            0x8000_0000,
            -0x8000_0001,
        ];
        let seed = 0xBD1 ^ ((len as u64) << 8) ^ source as u64;
        if source < crate::reference::CLASSES {
            return crate::reference::class_page(source, seed, len);
        }
        let mut rng = cc_util::SplitMix64::new(seed);
        let mut page: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        if source == crate::reference::CLASSES {
            return page;
        }
        // One word at the edge, the others well inside it, off base 0 or
        // off a random first word.
        let base = if len.is_multiple_of(2) {
            0
        } else {
            rng.next_u64()
        };
        let edge = EDGES[len / 2 % EDGES.len()];
        let nwords = len / 8;
        let at = 1 + rng.next_u64() as usize % nwords.saturating_sub(1).max(1);
        for (i, w) in page.chunks_exact_mut(8).enumerate() {
            let d = match i {
                0 => 0,
                i if i == at => edge,
                _ => (rng.next_u64() % 64) as i64 - 32,
            };
            w.copy_from_slice(&base.wrapping_add(d as u64).to_le_bytes());
        }
        page
    }

    /// Every wide build this CPU runs, against the portable body: for
    /// each corpus source at every length 0..=4097, the same encoded
    /// bytes, and the same decode outcome, error for error, on the valid
    /// block, on truncations and on damaged bytes. Lengths up to 80 get
    /// every truncation and every byte damaged three ways; lengths around
    /// a page every truncation and the first and last 16 bytes damaged
    /// (a flip in between only changes one delta); the rest the cuts
    /// through the header and the last byte. Builds the CPU lacks are
    /// skipped, and named.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_wide_build_matches_the_portable_body() {
        type Outcome = Result<Vec<u8>, DecompressError>;
        let (builds, skipped): (Vec<_>, Vec<_>) =
            wide::Build::ALL.into_iter().partition(|b| b.supported());
        eprintln!("BDI builds checked: {builds:?}; skipped (CPU lacks them): {skipped:?}");
        let decode = |build: Option<wide::Build>, block: &[u8], len: usize| -> Outcome {
            let mut out = vec![0xC5u8; len];
            match build {
                // SAFETY: only builds this CPU supports are in `builds`.
                Some(b) => unsafe { b.decode_into(block, &mut out) },
                None => decode_into_portable(block, &mut out),
            }
            .map(|()| out)
        };
        let mut got = Vec::new();
        for len in 0..=4097 {
            let (short, page_sized) = (len <= 80, len >= 4095);
            for source in 0..crate::reference::CLASSES + 2 {
                let page = corpus_page(source, len);
                let mut want = vec![0xEE; 5];
                compress_portable(&page, &mut want);
                assert_eq!(decode(None, &want, len).as_ref(), Ok(&page));
                let case = |build: wide::Build| format!("{build:?}: source {source}, {len} bytes");
                let same_outcome = |block: &[u8], what: (&str, usize, u8)| {
                    let expected = decode(None, block, len);
                    for &build in &builds {
                        let got = decode(Some(build), block, len);
                        assert_eq!(got, expected, "{}, {what:?}", case(build));
                    }
                };
                for &build in &builds {
                    // SAFETY: only builds this CPU supports are in `builds`.
                    let n = unsafe { build.compress(&page, &mut got) };
                    assert_eq!(n, got.len(), "{}", case(build));
                    assert_eq!(got, want, "{}", case(build));
                }
                same_outcome(&want, ("valid block", 0, 0));
                let header_cuts = want.len().min(DELTA_HEADER + 2);
                let cuts = if short || page_sized {
                    want.len()
                } else {
                    header_cuts
                };
                for cut in (0..cuts).chain([want.len() - 1]) {
                    same_outcome(&want[..cut], ("cut at", cut, 0));
                }
                let mut damaged = want.clone();
                let ends =
                    |&at: &usize| short || (page_sized && (at < 16 || at + 16 >= want.len()));
                for at in (0..damaged.len()).filter(ends) {
                    for flip in [0x01, 0x80, 0xFF] {
                        damaged[at] ^= flip;
                        same_outcome(&damaged, ("byte at ^ flip", at, flip));
                        damaged[at] ^= flip;
                    }
                }
            }
        }
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        let mut c = Bdi::new();
        let mut out = Vec::new();
        assert!(c.decompress(&[], &mut out, 0).is_err());
        assert!(c.decompress(&[METHOD_BDI], &mut out, 8).is_err());
        // Bad scheme byte.
        assert!(c.decompress(&[METHOD_BDI, 9, 0, 0], &mut out, 8).is_err());
        // Delta with bad width.
        assert!(c
            .decompress(
                &[METHOD_BDI, SCHEME_DELTA, 3, 0, 0, 0, 0, 0, 0, 0, 0],
                &mut out,
                8
            )
            .is_err());
        // Truncated delta body.
        let mut packed = Vec::new();
        let mut page = vec![0u8; 64];
        page[0] = 1;
        c.compress(&page, &mut packed);
        for cut in 0..packed.len() {
            assert!(
                c.decompress(&packed[..cut], &mut out, page.len()).is_err(),
                "cut at {cut} accepted"
            );
        }
    }
}
