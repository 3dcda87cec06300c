//! The codec layer: stable codec ids, the [`Codec`] trait, per-page
//! adaptive selection, and the [`CodecSet`] used by the store's hot path.
//!
//! The store records *which* codec sealed each page — in the in-memory
//! entry and in the spill extent header — so decode always dispatches on
//! the recorded [`CodecId`], never on guesswork. Selection between codecs
//! is a policy ([`CodecPolicy`]): LZRW1-only (the paper's configuration)
//! or adaptive, which classifies the page with a cheap sampled probe
//! ([`probe_bdi`]), runs the BDI word-pattern codec when it predicts a
//! win, and falls back to LZRW1 when BDI would miss the keep-compressed
//! threshold.

use crate::bdi::{self, Bdi};
use crate::lzrw1::Lzrw1;
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
/// `admit_bound` bytes? Samples [`PROBE_WORDS`] evenly spaced words
/// (~1.5% of a 4 KB page) instead of scanning all of them, so a "no" costs
/// almost nothing on pages LZRW1 will handle anyway. The prediction is
/// optimistic — unsampled words can widen the delta — which is why
/// adaptive selection re-checks the real compressed size and falls back.
pub fn probe_bdi(page: &[u8], admit_bound: usize) -> bool {
    let nwords = page.len() / 8;
    if nwords == 0 {
        return false;
    }
    let word_at = |i: usize| bdi::word(&page[i * 8..i * 8 + 8]);
    let base = word_at(0);
    let samples = PROBE_WORDS.min(nwords);
    let (mut vs_base, mut vs_zero) = (0u64, 0u64);
    for s in 0..samples {
        let w = word_at(s * nwords / samples);
        vs_base |= bdi::sign_fold(w.wrapping_sub(base));
        vs_zero |= bdi::sign_fold(w);
    }
    let width = bdi::width_of(vs_base).min(bdi::width_of(vs_zero));
    if width == 8 {
        return false;
    }
    // Predicted delta-scheme size (zero/repeated pages predict smaller
    // still; the delta bound covers them).
    bdi::delta_cost(width, nwords, page.len() % 8) <= admit_bound
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

    /// Like [`CodecSet::compress_with_policy`], but accepting a cached
    /// [`probe_bdi`] verdict for this exact page content.
    ///
    /// A caller that already probed the page — e.g. a tiering layer that
    /// used the probe as its placement hint and recorded it per entry —
    /// passes `Some(verdict)` so adaptive selection skips the second
    /// probe; `None` probes here as usual. The hint must come from
    /// `probe_bdi(page, threshold.max_compressed_len(page.len()))` on
    /// unchanged bytes: a stale hint only costs the fallback pass the
    /// probe exists to avoid, never correctness, because the real
    /// compressed size is re-checked either way.
    pub fn compress_with_hint(
        &mut self,
        policy: CodecPolicy,
        threshold: ThresholdPolicy,
        page: &[u8],
        dst: &mut Vec<u8>,
        probe_hint: Option<bool>,
    ) -> Selection {
        let n = page.len();
        // Per-codec scratch sizing: reserve the worst case for *this*
        // policy's codec set up front so no codec ever reallocates
        // mid-compress or overruns a smaller codec's assumption. The
        // length is left alone — the codecs size `dst` themselves and a
        // reused buffer is not zeroed again.
        let bound = self.max_compressed_len(policy, n);
        dst.reserve(bound.saturating_sub(dst.len()));

        // LZRW1 stops at the admit bound: past it the threshold below
        // rejects the page whatever the final size, so the rest of the
        // pass is the paper's "wasted effort" (§5.2) and the decision is
        // the same without it.
        let admit = threshold.max_compressed_len(n);
        let try_bdi = match policy {
            CodecPolicy::Lzrw1Only => false,
            CodecPolicy::Adaptive => probe_hint.unwrap_or_else(|| probe_bdi(page, admit)),
        };
        let (codec, fell_back, sealed) = match try_bdi.then(|| self.bdi.compress(page, dst)) {
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
    /// — the reject arm of [`CodecSet::compress_with_hint`] and nothing
    /// else: no probe, no codec pass.
    ///
    /// For a caller that remembers, per entry, that the threshold already
    /// rejected these exact bytes under the same policy and threshold:
    /// the verdict is a pure function of the three, so the selection
    /// equals what `compress_with_hint` would return (with `fell_back`
    /// unset — which codecs ran to reach the verdict is not remembered).
    pub fn seal_rejected(page: &[u8], dst: &mut Vec<u8>) -> Selection {
        Selection {
            codec: CodecId::Raw,
            len: store_raw(page, dst),
            admitted: false,
            fell_back: false,
        }
    }

    /// Decode a block sealed by `codec` (as recorded in the entry or the
    /// extent header). The method byte inside `src` must agree with the
    /// recorded id — a mismatch is a [`DecompressError`], never a decode
    /// under the wrong codec.
    pub fn decompress(
        &mut self,
        codec: CodecId,
        src: &[u8],
        dst: &mut Vec<u8>,
        expected_len: usize,
    ) -> Result<(), DecompressError> {
        check_method(codec, src)?;
        match codec {
            CodecId::Raw => Null::new().decompress(src, dst, expected_len),
            CodecId::Lzrw1 => self.lzrw1.decompress(src, dst, expected_len),
            CodecId::Rle => Rle::new().decompress(src, dst, expected_len),
            CodecId::Lzss => Lzss::new().decompress(src, dst, expected_len),
            CodecId::SameFilled => SameFilled::new().decompress(src, dst, expected_len),
            CodecId::Bdi => self.bdi.decompress(src, dst, expected_len),
        }
    }
}

/// Like [`CodecSet::decompress`], but straight into the caller's page:
/// `out.len()` is the expected length, and the codecs a store seals with
/// (raw, LZRW1, BDI) write it with no intermediate buffer. Decoding needs
/// no codec state, hence no [`CodecSet`]. On error the contents of `out`
/// are unspecified.
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
            let hint = probe_bdi(&page, t.max_compressed_len(page.len()));
            let mut inline = Vec::new();
            let baseline = set.compress_with_policy(CodecPolicy::Adaptive, t, &page, &mut inline);
            let mut hinted = Vec::new();
            let sel =
                set.compress_with_hint(CodecPolicy::Adaptive, t, &page, &mut hinted, Some(hint));
            assert_eq!(sel, baseline);
            assert_eq!(hinted, inline);
        }
        // A stale "not BDI" hint must still seal correctly — it only
        // forfeits the BDI attempt, never integrity.
        let page = narrow_page(4096);
        let mut dst = Vec::new();
        let sel = set.compress_with_hint(CodecPolicy::Adaptive, t, &page, &mut dst, Some(false));
        assert_ne!(sel.codec, CodecId::Bdi);
        let mut out = Vec::new();
        set.decompress(sel.codec, &dst, &mut out, page.len())
            .unwrap();
        assert_eq!(out, page);
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
                let mut out = Vec::new();
                set.decompress(sel.codec, &dst, &mut out, page.len())
                    .unwrap_or_else(|e| panic!("{:?}/{}: {e}", policy, sel.codec.name()));
                assert_eq!(out, page);
                out.fill(0xEE);
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
        let mut out = Vec::new();
        for wrong in [
            CodecId::Lzrw1,
            CodecId::Rle,
            CodecId::SameFilled,
            CodecId::Raw,
        ] {
            assert!(
                set.decompress(wrong, &dst, &mut out, 4096).is_err(),
                "{} decoded bdi bytes",
                wrong.name()
            );
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
