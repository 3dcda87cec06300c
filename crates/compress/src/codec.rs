//! The codec layer: stable codec ids, the [`Codec`] trait, per-page
//! adaptive selection, and the [`CodecSet`] used by the store's hot path.
//!
//! The store records *which* codec sealed each page — in the in-memory
//! entry and in the spill extent header — so decode always dispatches on
//! the recorded [`CodecId`], never on guesswork. Selection between codecs
//! is a policy ([`CodecPolicy`]): LZRW1-only (the paper's configuration)
//! or adaptive, which classifies the page into a [`Route`] with two cheap
//! sampled tests ([`classify`]): BDI when the word-pattern probe
//! ([`probe_bdi`]) predicts a win, with a fallback to LZRW1 when BDI
//! would miss the keep-compressed threshold; the stored block, with no
//! codec pass, when sampled trigrams show no local redundancy; LZRW1
//! otherwise.

use crate::bdi::{self, Bdi};
use crate::lzrw1::{self, Lzrw1};
use crate::lzss::Lzss;
use crate::null::Null;
use crate::rle::Rle;
use crate::samefilled::SameFilled;
use crate::threshold::{CompressDecision, ThresholdPolicy};
use crate::{load_raw_into, store_raw, Compressor, DecompressError};

/// Stable on-the-wire codec identifier, recorded per entry and per spill
/// extent. Values match each codec's leading method byte, so the id and
/// the first byte of a sealed block always agree.
///
/// **Never renumber these** — spilled extents outlive the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CodecId {
    /// Stored block (threshold reject / incompressible).
    Raw = 0,
    /// LZRW1 (the paper's codec).
    Lzrw1 = 1,
    /// Run-length encoding.
    Rle = 2,
    /// LZSS comparator.
    Lzss = 3,
    /// Same-filled pattern word.
    SameFilled = 4,
    /// Base+delta-immediate word-pattern codec.
    Bdi = 5,
}

impl CodecId {
    /// Decode an id byte read from an entry or extent header.
    pub fn from_u8(b: u8) -> Option<CodecId> {
        match b {
            0 => Some(CodecId::Raw),
            1 => Some(CodecId::Lzrw1),
            2 => Some(CodecId::Rle),
            3 => Some(CodecId::Lzss),
            4 => Some(CodecId::SameFilled),
            5 => Some(CodecId::Bdi),
            _ => None,
        }
    }

    /// The wire byte.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CodecId::Raw => "raw",
            CodecId::Lzrw1 => "lzrw1",
            CodecId::Rle => "rle",
            CodecId::Lzss => "lzss",
            CodecId::SameFilled => "same-filled",
            CodecId::Bdi => "bdi",
        }
    }
}

/// A [`Compressor`] with a stable identity the store can persist.
pub trait Codec: Compressor {
    /// The stable id recorded wherever this codec's output is stored.
    fn id(&self) -> CodecId;
}

impl Codec for Null {
    fn id(&self) -> CodecId {
        CodecId::Raw
    }
}
impl Codec for Lzrw1 {
    fn id(&self) -> CodecId {
        CodecId::Lzrw1
    }
}
impl Codec for Rle {
    fn id(&self) -> CodecId {
        CodecId::Rle
    }
}
impl Codec for Lzss {
    fn id(&self) -> CodecId {
        CodecId::Lzss
    }
}
impl Codec for SameFilled {
    fn id(&self) -> CodecId {
        CodecId::SameFilled
    }
}
impl Codec for Bdi {
    fn id(&self) -> CodecId {
        CodecId::Bdi
    }
}

/// Construct the codec registered under `id` (fresh state; prefer a
/// long-lived [`CodecSet`] on hot paths).
pub fn codec_for(id: CodecId) -> Box<dyn Codec> {
    match id {
        CodecId::Raw => Box::new(Null::new()),
        CodecId::Lzrw1 => Box::new(Lzrw1::new()),
        CodecId::Rle => Box::new(Rle::new()),
        CodecId::Lzss => Box::new(Lzss::new()),
        CodecId::SameFilled => Box::new(SameFilled::new()),
        CodecId::Bdi => Box::new(Bdi::new()),
    }
}

/// Which codec(s) the store's put path may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CodecPolicy {
    /// Always LZRW1 (the paper's configuration; pre-codec-layer behavior).
    Lzrw1Only,
    /// Probe each page; BDI when the word-pattern classifier predicts it
    /// beats the admit bound, LZRW1 otherwise (with fallback if the
    /// prediction misses).
    #[default]
    Adaptive,
}

impl CodecPolicy {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CodecPolicy::Lzrw1Only => "lzrw1-only",
            CodecPolicy::Adaptive => "adaptive",
        }
    }

    /// Every policy, for sweeps and tests.
    pub fn all() -> [CodecPolicy; 2] {
        [CodecPolicy::Lzrw1Only, CodecPolicy::Adaptive]
    }
}

/// Number of 8-byte words the probe samples (eight 64-byte cache lines'
/// worth, spread evenly across the page).
const PROBE_WORDS: usize = 64;

/// Cheap classifier: would BDI's delta scheme fit `page` under
/// `admit_bound` bytes? Samples `PROBE_WORDS` (64) evenly spaced words
/// (~1.5% of a 4 KB page) instead of scanning all of them, so a "no" costs
/// almost nothing on pages LZRW1 will handle anyway. The prediction is
/// optimistic — unsampled words can widen the delta — which is why
/// adaptive selection re-checks the real compressed size and falls back.
pub fn probe_bdi(page: &[u8], admit_bound: usize) -> bool {
    let nwords = page.len() / 8;
    if nwords == 0 {
        return false;
    }
    let base = bdi::word(&page[..8]);
    let (mut vs_base, mut vs_zero) = (0u64, 0u64);
    let mut fold = |w: u64| {
        vs_base |= bdi::sign_fold(w.wrapping_sub(base));
        vs_zero |= bdi::sign_fold(w);
    };
    // Sample `s` is word `s * nwords / samples`. When the samples split
    // the page evenly, as on every page size a power of two from 512 B,
    // that is the first word of each of 64 equal chunks: no divide and no
    // bounds test per sample, which were two thirds of the probe.
    if nwords.is_multiple_of(PROBE_WORDS) {
        for chunk in page.chunks_exact(nwords / PROBE_WORDS * 8) {
            fold(bdi::word(&chunk[..8]));
        }
    } else {
        let samples = PROBE_WORDS.min(nwords);
        for s in 0..samples {
            let at = s * nwords / samples * 8;
            fold(bdi::word(&page[at..at + 8]));
        }
    }
    let width = bdi::width_of(vs_base).min(bdi::width_of(vs_zero));
    if width == 8 {
        return false;
    }
    // Predicted delta-scheme size (zero/repeated pages predict smaller
    // still; the delta bound covers them).
    bdi::delta_cost(width, nwords, page.len() % 8) <= admit_bound
}

/// Where adaptive selection sends a page ([`classify`]), and the hint a
/// caller that remembers a page's route hands back to
/// [`CodecSet::compress_with_hint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    /// BDI, falling back to LZRW1 when its real output misses the admit
    /// bound.
    Bdi,
    /// LZRW1.
    Lz,
    /// The stored block a threshold reject leaves, with no codec pass —
    /// except on the 1 page in [`AUDIT_PERIOD`] the audit picks, which
    /// runs the bounded LZRW1 pass all the same and keeps its output if
    /// the threshold admits it.
    Raw,
}

/// Windows the reject test samples, one centred in each eighth of the
/// page: away from its first bytes, where headers live.
const WINDOWS: usize = 8;
/// Bytes a window covers: eight 8-byte loads six bytes apart, each giving
/// the six trigrams that start in its first six bytes.
const WINDOW_BYTES: usize = LOADS_PER_WINDOW * TRIGRAMS_PER_LOAD + 2;
const LOADS_PER_WINDOW: usize = 8;
const TRIGRAMS_PER_LOAD: usize = 6;
/// Trigrams the reject test samples per page.
const SAMPLED_TRIGRAMS: usize = WINDOWS * LOADS_PER_WINDOW * TRIGRAMS_PER_LOAD;
/// Shortest page [`classify`] predicts a reject for: eight 64-byte
/// eighths, each holding its whole window.
pub const MIN_PREDICTED_LEN: usize = WINDOWS * 64;
/// Slots of the reject test's trigram table: 2 KiB on the stack, indexed
/// by a key's top bits.
const TRIGRAM_SLOTS: usize = 512;
const SLOT_SHIFT: u32 = 32 - TRIGRAM_SLOTS.trailing_zeros();
/// A slot no trigram has written: every key's low byte is zero.
const EMPTY_SLOT: u32 = u32::MAX;
/// One predicted reject in this many is audited: it runs the LZRW1 pass
/// it was predicted not to need ([`Route::Raw`]).
pub const AUDIT_PERIOD: u64 = 1 << AUDIT_BITS;
const AUDIT_BITS: u32 = 6;

/// Start of reject-test window `w` in a page of `n >= MIN_PREDICTED_LEN`
/// bytes.
#[inline]
fn window_start(n: usize, w: usize) -> usize {
    let eighth = n / WINDOWS;
    w * eighth + (eighth - WINDOW_BYTES) / 2
}

/// Sampled repeats below which a page of `n` bytes is predicted to miss
/// `admit_bound`. A page the threshold admits saves `1 - admit/n` of its
/// bytes, and LZRW1 saves bytes only where a trigram repeats. Sampling
/// sees only the repeats whose earlier copy is also sampled, so the
/// cut-off asks for an eighth of the repeats a page saving that share
/// through local matches would show, plus two: one exact repeat in 384
/// noise trigrams is chance, not redundancy. 4:3 on 4 KiB asks for 14;
/// `any_shrink` for 2.
#[inline]
fn reject_cutoff(n: usize, admit_bound: usize) -> u32 {
    2 + (SAMPLED_TRIGRAMS * n.saturating_sub(admit_bound) / (8 * n)) as u32
}

/// The trigram key's multiplier, an odd constant shifted past the byte a
/// 32-bit read holds beyond the trigram: `x * TRIGRAM_MUL` is
/// `(t * odd mod 2^24) << 8` for the trigram `t` in the low three bytes
/// of `x`, one-to-one in `t` and blind to the fourth byte. It is the
/// exact key and, in its top bits, the table index, with no mask.
const TRIGRAM_MUL: u32 = 0x9E37_79B1 << 8;

/// The reject test: does `page` show too little local redundancy for
/// LZRW1 to fit it under `admit_bound`? Counts exact trigram repeats
/// across eight sampled 50-byte windows (384 trigrams, ~10 % of a 4 KiB
/// page) — LZRW1's own match signal, seen locally. Trigrams are read six
/// at a time out of one 8-byte load, and remembered in a 512-slot table
/// that keeps the last key per index, so a repeat is exact, never a hash
/// collision: noise reads 0–1 repeats. Stops sampling as soon as the page
/// reaches the cut-off.
fn predicts_reject(page: &[u8], admit_bound: usize) -> bool {
    let n = page.len();
    if n < MIN_PREDICTED_LEN {
        return false;
    }
    let cutoff = reject_cutoff(n, admit_bound);
    let mut table = [EMPTY_SLOT; TRIGRAM_SLOTS];
    let mut repeats = 0u32;
    for w in 0..WINDOWS {
        let window = &page[window_start(n, w)..][..WINDOW_BYTES];
        for load in 0..LOADS_PER_WINDOW {
            let at = load * TRIGRAMS_PER_LOAD;
            let word = u64::from_le_bytes(window[at..at + 8].try_into().expect("8 bytes"));
            for k in 0..TRIGRAMS_PER_LOAD {
                let key = ((word >> (8 * k)) as u32).wrapping_mul(TRIGRAM_MUL);
                let slot = &mut table[(key >> SLOT_SHIFT) as usize];
                repeats += (*slot == key) as u32;
                *slot = key;
            }
        }
        if repeats >= cutoff {
            return false;
        }
    }
    true
}

/// Whether a [`Route::Raw`] page is audited: 1 page in [`AUDIT_PERIOD`],
/// by a hash of the first word of each sampled window, so the choice is
/// a pure function of the bytes. Pages too short to sample are never
/// audited (they are never predicted either).
fn audited(page: &[u8]) -> bool {
    let n = page.len();
    if n < MIN_PREDICTED_LEN {
        return false;
    }
    let mut h = 0x243F_6A88_85A3_08D3u64;
    for w in 0..WINDOWS {
        let at = window_start(n, w);
        let word = u64::from_le_bytes(page[at..at + 8].try_into().expect("8 bytes"));
        h = (h ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    h >> (64 - AUDIT_BITS) == 0
}

/// The adaptive policy's route for `page` under `admit_bound`
/// (`threshold.max_compressed_len(page.len())`), a pure function of the
/// two. [`probe_bdi`] runs first, exactly as on its own, so a BDI page
/// pays nothing more; only the pages it turns away take the reject test,
/// and those it finds without local redundancy route [`Route::Raw`]. A
/// page under [`MIN_PREDICTED_LEN`] bytes is never routed `Raw`.
///
/// The test cannot see redundancy that exists only as long-range
/// repetition (a random block repeated at a distance no two windows
/// span); the audit ([`Route::Raw`]) counts how often that costs a page
/// its compression.
pub fn classify(page: &[u8], admit_bound: usize) -> Route {
    if probe_bdi(page, admit_bound) {
        Route::Bdi
    } else if predicts_reject(page, admit_bound) {
        Route::Raw
    } else {
        Route::Lz
    }
}

/// What [`CodecSet::compress_with_policy`] chose and produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    /// Codec that sealed the bytes now in `dst` ([`CodecId::Raw`] when the
    /// threshold rejected compression).
    pub codec: CodecId,
    /// `dst.len()` — the sealed size including the method byte.
    pub len: usize,
    /// Whether the threshold admitted the compressed form. When `false`,
    /// `dst` holds a stored block and `codec` is [`CodecId::Raw`].
    pub admitted: bool,
    /// Adaptive only: the probe predicted BDI but its real output missed
    /// the admit bound, so LZRW1 ran as well.
    pub fell_back: bool,
}

impl Selection {
    /// The route these bytes took: [`Route::Raw`] when the threshold
    /// rejected them, else the route of the codec that sealed them.
    /// Handed back to [`CodecSet::compress_with_hint`] for the same bytes,
    /// it seals them the same way without classifying them again.
    pub fn route(&self) -> Route {
        match (self.admitted, self.codec) {
            (false, _) => Route::Raw,
            (true, CodecId::Bdi) => Route::Bdi,
            (true, _) => Route::Lz,
        }
    }
}

/// The codecs a put path selects among, owned per thread (LZRW1 carries
/// its hash table; reusing it avoids a per-page allocation).
#[derive(Debug)]
pub struct CodecSet {
    lzrw1: Lzrw1,
    bdi: Bdi,
}

impl Default for CodecSet {
    fn default() -> Self {
        CodecSet::new()
    }
}

impl CodecSet {
    /// Create the set with default codec parameters.
    pub fn new() -> Self {
        CodecSet {
            lzrw1: Lzrw1::new(),
            bdi: Bdi::new(),
        }
    }

    /// Worst-case sealed size any codec reachable under `policy` may
    /// produce for `n` input bytes. Scratch buffers must be sized to
    /// *this*, not to one codec's bound.
    pub fn max_compressed_len(&self, policy: CodecPolicy, n: usize) -> usize {
        let lz = self.lzrw1.max_compressed_len(n);
        let bdi = self.bdi.max_compressed_len(n);
        // A threshold reject rewrites dst as a stored block (n + 1).
        let stored = n + 1;
        match policy {
            CodecPolicy::Lzrw1Only => lz.max(stored),
            CodecPolicy::Adaptive => lz.max(bdi).max(stored),
        }
    }

    /// Compress `page` into `dst` under `policy`, then apply `threshold`.
    ///
    /// On [`CompressDecision::Reject`] the contents of `dst` are replaced
    /// with a stored block and the selection reports [`CodecId::Raw`], so
    /// `dst` is always sealed by exactly the codec named in the result.
    pub fn compress_with_policy(
        &mut self,
        policy: CodecPolicy,
        threshold: ThresholdPolicy,
        page: &[u8],
        dst: &mut Vec<u8>,
    ) -> Selection {
        self.compress_with_hint(policy, threshold, page, dst, None)
    }

    /// Like [`CodecSet::compress_with_policy`], but accepting a known
    /// [`Route`] for this exact page content.
    ///
    /// A caller that already classified the page, or remembers the route
    /// a put of it took ([`Selection::route`]), passes `Some(route)` so
    /// adaptive selection does not classify it again; `None` runs
    /// [`classify`] here. Under [`CodecPolicy::Lzrw1Only`] only a
    /// [`Route::Raw`] hint counts: every other page goes to LZRW1. The
    /// hint must come from unchanged bytes under the same threshold. A
    /// stale `Bdi` or `Lz` hint costs at most a codec pass, never
    /// correctness, because the real compressed size is re-checked; a
    /// stale `Raw` hint stores bytes that would have compressed.
    pub fn compress_with_hint(
        &mut self,
        policy: CodecPolicy,
        threshold: ThresholdPolicy,
        page: &[u8],
        dst: &mut Vec<u8>,
        hint: Option<Route>,
    ) -> Selection {
        let n = page.len();
        // Reserve up front what any codec writes, so none reallocates
        // mid-compress: the output bound for *this* policy's codec set,
        // or LZRW1's all-literal working size, which it fills before it
        // truncates to at most that bound (both policies can reach LZRW1).
        // The length is left alone — the codecs size `dst` themselves and
        // a reused buffer is not zeroed again.
        let bound = self.max_compressed_len(policy, n);
        dst.reserve(bound.max(lzrw1::working_len(n)).saturating_sub(dst.len()));

        // LZRW1 stops at the admit bound: past it the threshold below
        // rejects the page whatever the final size, so the rest of the
        // pass is the paper's "wasted effort" (§5.2) and the decision is
        // the same without it.
        let admit = threshold.max_compressed_len(n);
        let route = match (policy, hint) {
            (_, Some(Route::Raw)) => Route::Raw,
            (CodecPolicy::Lzrw1Only, _) => Route::Lz,
            (CodecPolicy::Adaptive, hint) => hint.unwrap_or_else(|| classify(page, admit)),
        };
        // A predicted reject skips the codecs, and with them the wasted
        // effort of §5.2 — unless the audit picks it.
        if route == Route::Raw && !audited(page) {
            return Self::seal_rejected(page, dst);
        }
        let bdi = (route == Route::Bdi).then(|| self.bdi.compress(page, dst));
        let (codec, fell_back, sealed) = match bdi {
            Some(len) if len <= admit => (CodecId::Bdi, false, Some(len)),
            // No BDI attempt, or the sampled probe was too optimistic and
            // the LZ pass it was meant to avoid is paid after all.
            tried => (
                CodecId::Lzrw1,
                tried.is_some(),
                self.lzrw1.compress_bounded(page, dst, admit),
            ),
        };
        assert!(
            sealed.is_none_or(|len| len <= bound),
            "{} produced {sealed:?} bytes for {n} input, over its {bound} bound",
            codec.name(),
        );
        match sealed.filter(|&len| threshold.evaluate(n, len) == CompressDecision::Keep) {
            Some(len) => Selection {
                codec,
                len,
                admitted: true,
                fell_back,
            },
            None => Selection {
                fell_back,
                ..Self::seal_rejected(page, dst)
            },
        }
    }

    /// Seal `page` as the stored block a threshold reject leaves in `dst`
    /// — the reject arm of [`CodecSet::compress_with_hint`], and all of
    /// its unaudited [`Route::Raw`] arm: no probe, no codec pass. The
    /// selection equals what `compress_with_hint` returns for a page the
    /// threshold rejects, with `fell_back` unset (which codecs ran to
    /// reach the verdict is not part of it).
    pub fn seal_rejected(page: &[u8], dst: &mut Vec<u8>) -> Selection {
        Selection {
            codec: CodecId::Raw,
            len: store_raw(page, dst),
            admitted: false,
            fell_back: false,
        }
    }
}

/// Decode a block sealed by `codec` (as recorded in the entry or the
/// extent header) straight into the caller's page: `out.len()` is the
/// expected length, and the codecs a store seals with (raw, LZRW1, BDI)
/// write it with no intermediate buffer. The method byte inside `src`
/// must agree with the recorded id — a mismatch is a
/// [`DecompressError`], never a decode under the wrong codec. Decoding
/// needs no codec state, hence no [`CodecSet`]. On error the contents of
/// `out` are unspecified.
pub fn decode_into(codec: CodecId, src: &[u8], out: &mut [u8]) -> Result<(), DecompressError> {
    check_method(codec, src)?;
    match codec {
        CodecId::Raw => load_raw_into(&src[1..], out),
        CodecId::Lzrw1 => Lzrw1::decode_into(src, out),
        CodecId::Bdi => Bdi::decode_into(src, out),
        CodecId::Rle | CodecId::Lzss | CodecId::SameFilled => {
            let mut page = Vec::new();
            codec_for(codec).decompress(src, &mut page, out.len())?;
            out.copy_from_slice(&page);
            Ok(())
        }
    }
}

/// A stored block is decodable by any codec; any other method byte must
/// match the recorded codec id exactly.
fn check_method(codec: CodecId, src: &[u8]) -> Result<(), DecompressError> {
    match src.first() {
        None => Err(DecompressError::Truncated),
        Some(&m) if m != 0 && m != codec.as_u8() => Err(DecompressError::BadMethod(m)),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn narrow_page(n: usize) -> Vec<u8> {
        let mut page = vec![0u8; n];
        for (i, w) in page.chunks_exact_mut(8).enumerate() {
            w[..2].copy_from_slice(&(i as u16).to_le_bytes());
        }
        page
    }

    fn text_page(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i / 13 % 64) as u8 + b' ').collect()
    }

    fn noise_page(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = cc_util::SplitMix64::new(seed);
        (0..n).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn codec_id_round_trips_and_matches_method_bytes() {
        for id in [
            CodecId::Raw,
            CodecId::Lzrw1,
            CodecId::Rle,
            CodecId::Lzss,
            CodecId::SameFilled,
            CodecId::Bdi,
        ] {
            assert_eq!(CodecId::from_u8(id.as_u8()), Some(id));
            let mut codec = codec_for(id);
            // A compressible input that each codec actually claims: its
            // output's method byte equals the id (or 0 for stored).
            let input = vec![7u8; 256];
            let mut packed = Vec::new();
            codec.compress(&input, &mut packed);
            assert!(
                packed[0] == id.as_u8() || packed[0] == 0,
                "{}: method byte {} vs id {}",
                id.name(),
                packed[0],
                id.as_u8()
            );
            // Every id decodes through the set, into a Vec or a slice.
            let mut out = vec![0u8; input.len()];
            decode_into(id, &packed, &mut out).unwrap();
            assert_eq!(out, input, "{}", id.name());
        }
        assert_eq!(CodecId::from_u8(6), None);
        assert_eq!(CodecId::from_u8(0xEE), None);
    }

    #[test]
    fn probe_classifies_obvious_pages() {
        let t = ThresholdPolicy::default();
        let admit = t.max_compressed_len(4096);
        assert!(probe_bdi(&vec![0u8; 4096], admit));
        assert!(probe_bdi(&narrow_page(4096), admit));
        assert!(!probe_bdi(&noise_page(4096, 3), admit));
        assert!(!probe_bdi(&[], admit));
        // Text pages are byte-regular but word-irregular: LZRW1 territory.
        assert!(!probe_bdi(&text_page(4096), admit));
    }

    /// The probe as it read its samples before it stopped dividing: word
    /// `s * nwords / samples` for each sample `s`.
    fn probe_by_division(page: &[u8], admit_bound: usize) -> bool {
        let nwords = page.len() / 8;
        if nwords == 0 {
            return false;
        }
        let word_at = |i: usize| bdi::word(&page[i * 8..i * 8 + 8]);
        let (base, samples) = (word_at(0), PROBE_WORDS.min(nwords));
        let (mut vs_base, mut vs_zero) = (0u64, 0u64);
        for s in 0..samples {
            let w = word_at(s * nwords / samples);
            vs_base |= bdi::sign_fold(w.wrapping_sub(base));
            vs_zero |= bdi::sign_fold(w);
        }
        let width = bdi::width_of(vs_base).min(bdi::width_of(vs_zero));
        width != 8 && bdi::delta_cost(width, nwords, page.len() % 8) <= admit_bound
    }

    /// Narrow pages with one wide word planted: the verdict turns on
    /// exactly which words are sampled, at every length up to 4 200 and
    /// at a few large ones.
    #[test]
    fn probe_samples_the_same_words_at_every_length() {
        let mut rng = cc_util::SplitMix64::new(41);
        let lens = (0..=4200).chain([8192, 8200, 65536, 65544]);
        for n in lens {
            let mut page = narrow_page(n);
            if n >= 8 {
                let at = rng.gen_index(n / 8) * 8;
                page[at..at + 8].copy_from_slice(&rng.next_u64().to_le_bytes());
            }
            for admit in [n, n * 3 / 4, n / 3] {
                assert_eq!(
                    probe_bdi(&page, admit),
                    probe_by_division(&page, admit),
                    "{n} bytes"
                );
            }
        }
    }

    const WORDS: [&str; 16] = [
        "page",
        "cache",
        "memory",
        "compress",
        "disk",
        "fault",
        "the",
        "of",
        "and",
        "system",
        "kernel",
        "buffer",
        "write",
        "threshold",
        "swap",
        "segment",
    ];

    /// Space-separated words: byte-regular, word-irregular, repeats at
    /// any distance.
    fn words_page(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = cc_util::SplitMix64::new(seed);
        let mut page = Vec::with_capacity(n + 16);
        while page.len() < n {
            page.extend_from_slice(WORDS[rng.gen_index(WORDS.len())].as_bytes());
            page.push(b' ');
        }
        page.truncate(n);
        page
    }

    /// A 4 KiB page of 64-byte lines: noise in the first `noise_pct` %
    /// of every line, `filler`'s bytes in the rest.
    fn noisy_lines(mut filler: Vec<u8>, noise_pct: usize, seed: u64) -> Vec<u8> {
        let mut rng = cc_util::SplitMix64::new(seed);
        for line in filler.chunks_exact_mut(64) {
            line[..64 * noise_pct / 100].fill_with(|| rng.next_u64() as u8);
        }
        filler
    }

    /// The families the reject test is held to, at `noise_pct` % noise:
    /// zero-filled lines, text-filled lines, and records whose fields
    /// after the noise are the same in every line (interleave).
    fn families(noise_pct: usize, seed: u64) -> [(&'static str, Vec<u8>); 3] {
        let record = noise_page(64, seed ^ 0xFEED);
        let interleave = record.iter().copied().cycle().take(4096).collect();
        [
            ("zero", noisy_lines(vec![0; 4096], noise_pct, seed)),
            ("text", noisy_lines(words_page(4096, seed), noise_pct, seed)),
            ("interleave", noisy_lines(interleave, noise_pct, seed)),
        ]
    }

    fn thresholds() -> [ThresholdPolicy; 5] {
        [
            ThresholdPolicy::default(),
            ThresholdPolicy::new(3, 2),
            ThresholdPolicy::new(2, 1),
            ThresholdPolicy::new(10, 9),
            ThresholdPolicy::any_shrink(),
        ]
    }

    /// The reject test's contract: under every threshold, no page LZRW1
    /// fits under the admit bound is routed `Raw`, whatever share of
    /// each line is noise; every pure-noise page is.
    #[test]
    fn reject_prediction_never_costs_an_admitted_page() {
        let mut lz = Lzrw1::new();
        let mut out = Vec::new();
        let mut admitted = 0;
        for t in thresholds() {
            let admit = t.max_compressed_len(4096);
            for noise_pct in (40..=100).step_by(4) {
                for seed in 0..6 {
                    for (family, page) in families(noise_pct, seed * 131 + noise_pct as u64) {
                        if lz.compress_bounded(&page, &mut out, admit).is_some() {
                            admitted += 1;
                            assert_ne!(
                                classify(&page, admit),
                                Route::Raw,
                                "{t:?}: {family}-filled, {noise_pct} % noise, seed {seed}"
                            );
                        }
                    }
                }
            }
            for seed in 0..256 {
                let page = noise_page(4096, seed);
                assert_eq!(classify(&page, admit), Route::Raw, "{t:?}: noise {seed}");
            }
        }
        assert!(admitted > 300, "only {admitted} admitted pages tested");
    }

    /// The blind spot: a random block repeated further apart than any
    /// two sampled windows sit shows no local redundancy, yet LZRW1
    /// matches it across the page. Such a page is routed `Raw` and stored
    /// raw, except when the audit picks it — then LZRW1 seals it, the
    /// misprediction a store counts.
    #[test]
    fn long_range_repetition_is_the_blind_spot_the_audit_samples() {
        let t = ThresholdPolicy::default();
        let admit = t.max_compressed_len(4096);
        let (mut set, mut lz) = (CodecSet::new(), Lzrw1::new());
        let (mut dst, mut raw) = (Vec::new(), Vec::new());
        let mut audited = 0;
        for seed in 0..1024 {
            let block = noise_page(1600, seed);
            let page: Vec<u8> = block.iter().copied().cycle().take(4096).collect();
            assert!(lz.compress_bounded(&page, &mut dst, admit).is_some());
            assert_eq!(classify(&page, admit), Route::Raw, "seed {seed}");
            let sel = set.compress_with_policy(CodecPolicy::Adaptive, t, &page, &mut dst);
            if sel.admitted {
                assert_eq!((sel.codec, sel.route()), (CodecId::Lzrw1, Route::Lz));
                audited += 1;
            } else {
                assert_eq!(sel, CodecSet::seal_rejected(&page, &mut raw));
                assert_eq!(dst, raw);
            }
        }
        // 1 in 64 by a hash of the content: 16 expected.
        assert!((6..=32).contains(&audited), "{audited} of 1024 audited");
    }

    #[test]
    fn adaptive_picks_bdi_on_patterns_and_lzrw1_on_text() {
        let mut set = CodecSet::new();
        let t = ThresholdPolicy::default();
        let mut dst = Vec::new();

        let sel = set.compress_with_policy(CodecPolicy::Adaptive, t, &narrow_page(4096), &mut dst);
        assert_eq!(sel.codec, CodecId::Bdi);
        assert!(sel.admitted && !sel.fell_back);

        let sel = set.compress_with_policy(CodecPolicy::Adaptive, t, &text_page(4096), &mut dst);
        assert_eq!(sel.codec, CodecId::Lzrw1);
        assert!(sel.admitted && !sel.fell_back);

        let sel =
            set.compress_with_policy(CodecPolicy::Adaptive, t, &noise_page(4096, 9), &mut dst);
        assert_eq!(sel.codec, CodecId::Raw);
        assert!(!sel.admitted);
        assert_eq!(sel.len, 4097);
    }

    #[test]
    fn cached_probe_hint_matches_inline_probe() {
        let mut set = CodecSet::new();
        let t = ThresholdPolicy::default();
        for page in [
            vec![0u8; 4096],
            narrow_page(4096),
            text_page(4096),
            noise_page(4096, 23),
        ] {
            let hint = classify(&page, t.max_compressed_len(page.len()));
            let mut inline = Vec::new();
            let baseline = set.compress_with_policy(CodecPolicy::Adaptive, t, &page, &mut inline);
            let mut hinted = Vec::new();
            let sel =
                set.compress_with_hint(CodecPolicy::Adaptive, t, &page, &mut hinted, Some(hint));
            assert_eq!(sel, baseline);
            assert_eq!(hinted, inline);
        }
        // A stale "LZ" hint must still seal correctly — it only forfeits
        // the BDI attempt, never integrity.
        let page = narrow_page(4096);
        let mut dst = Vec::new();
        let sel =
            set.compress_with_hint(CodecPolicy::Adaptive, t, &page, &mut dst, Some(Route::Lz));
        assert_ne!(sel.codec, CodecId::Bdi);
        let mut out = vec![0u8; page.len()];
        decode_into(sel.codec, &dst, &mut out).unwrap();
        assert_eq!(out, page);
    }

    /// The up-front reservation covers what LZRW1 writes before it
    /// truncates, not only what it may return: a fresh buffer is allocated
    /// once, at that size, and not grown mid-compress — whether the page
    /// is admitted or rejected afterwards.
    #[test]
    fn lzrw1_routed_compress_allocates_once() {
        let mut set = CodecSet::new();
        let t = ThresholdPolicy::default();
        for policy in CodecPolicy::all() {
            for page in [text_page(4096), noise_page(4096, 31), text_page(100)] {
                let mut dst = Vec::new();
                set.compress_with_hint(policy, t, &page, &mut dst, Some(Route::Lz));
                let once = Vec::<u8>::with_capacity(lzrw1::working_len(page.len()));
                assert_eq!(
                    dst.capacity(),
                    once.capacity(),
                    "{} bytes under {}",
                    page.len(),
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn seal_rejected_is_the_reject_arm_under_every_policy() {
        let mut set = CodecSet::new();
        let t = ThresholdPolicy::default();
        let page = noise_page(4096, 29);
        for policy in CodecPolicy::all() {
            let mut full = Vec::new();
            let sel = set.compress_with_policy(policy, t, &page, &mut full);
            assert!(!sel.admitted, "noise admitted under {}", policy.name());
            // A reused, longer buffer: the stored block replaces it.
            let mut short = vec![0xEEu8; 6000];
            assert_eq!(CodecSet::seal_rejected(&page, &mut short), sel);
            assert_eq!(short, full);
            assert_eq!((sel.codec, sel.len), (CodecId::Raw, page.len() + 1));
        }
    }

    #[test]
    fn probe_miss_falls_back_to_lzrw1() {
        // First 64 sampled words are zero, but the words between samples
        // are wide: the probe predicts BDI, the real pass misses the
        // bound, and adaptive must fall back — with text filler so LZRW1
        // still admits the page.
        let mut page = text_page(4096);
        let mut rng = cc_util::SplitMix64::new(11);
        for (i, w) in page.chunks_exact_mut(8).enumerate() {
            if i % 8 == 0 {
                w.copy_from_slice(&0u64.to_le_bytes());
            } else if i % 8 == 1 {
                w.copy_from_slice(&rng.next_u64().to_le_bytes());
            }
        }
        let t = ThresholdPolicy::default();
        assert!(probe_bdi(&page, t.max_compressed_len(page.len())));
        let mut set = CodecSet::new();
        let mut dst = Vec::new();
        let sel = set.compress_with_policy(CodecPolicy::Adaptive, t, &page, &mut dst);
        assert!(sel.fell_back, "expected a probe misprediction");
        assert_ne!(sel.codec, CodecId::Bdi);
    }

    #[test]
    fn sealed_bytes_always_decode_with_recorded_codec() {
        let mut set = CodecSet::new();
        let t = ThresholdPolicy::default();
        for policy in CodecPolicy::all() {
            for page in [
                vec![0u8; 4096],
                narrow_page(4096),
                text_page(4096),
                noise_page(4096, 17),
                vec![],
                vec![3u8; 7],
            ] {
                let mut dst = Vec::new();
                let sel = set.compress_with_policy(policy, t, &page, &mut dst);
                assert_eq!(sel.len, dst.len());
                let mut out = vec![0xEE; page.len()];
                decode_into(sel.codec, &dst, &mut out)
                    .unwrap_or_else(|e| panic!("{:?}/{}: {e}", policy, sel.codec.name()));
                assert_eq!(out, page);
            }
        }
    }

    #[test]
    fn mismatched_codec_id_is_rejected_not_misdecoded() {
        let mut set = CodecSet::new();
        let mut dst = Vec::new();
        // Adaptive routes the narrow page to BDI (see
        // `adaptive_picks_bdi_on_patterns_and_lzrw1_on_text`).
        let sel = set.compress_with_policy(
            CodecPolicy::Adaptive,
            ThresholdPolicy::default(),
            &narrow_page(4096),
            &mut dst,
        );
        assert_eq!(sel.codec, CodecId::Bdi);
        for wrong in [
            CodecId::Lzrw1,
            CodecId::Rle,
            CodecId::SameFilled,
            CodecId::Raw,
        ] {
            assert!(
                decode_into(wrong, &dst, &mut [0u8; 4096]).is_err(),
                "{} decoded bdi bytes into a slice",
                wrong.name()
            );
        }
    }

    #[test]
    fn policy_names_are_distinct_and_adaptive_is_default() {
        let [a, b] = CodecPolicy::all();
        assert_ne!(a.name(), b.name());
        assert_eq!(CodecPolicy::default(), CodecPolicy::Adaptive);
    }
}
