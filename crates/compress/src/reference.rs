//! The BDI and LZRW1 encoders and decoders exactly as they stood before
//! the kernels in [`crate::bdi`] and [`crate::lzrw1`] were rewritten for
//! speed, kept as the reference the new ones are pinned against: codec
//! ids 1 and 5 are an on-disk format (spilled extents outlive the process,
//! `results/*.txt` depend on every sealed size), so a faster kernel must
//! reproduce these bytes, not merely round-trip. The bodies are verbatim;
//! only the type names changed. Do not "tidy" this file — a change here
//! moves the reference itself, which the golden vectors at the bottom
//! exist to catch.

use crate::{load_raw, store_raw, DecompressError, METHOD_STORED};

const METHOD_BDI: u8 = 5;
const SCHEME_ZERO: u8 = 0;
const SCHEME_REP: u8 = 1;
const SCHEME_DELTA: u8 = 2;

/// Smallest signed width (1, 2, 4, or 8 bytes) that holds `v` exactly.
#[inline]
pub(crate) fn sig_width(v: i64) -> usize {
    if v >= i8::MIN as i64 && v <= i8::MAX as i64 {
        1
    } else if v >= i16::MIN as i64 && v <= i16::MAX as i64 {
        2
    } else if v >= i32::MIN as i64 && v <= i32::MAX as i64 {
        4
    } else {
        8
    }
}

/// Encoded size of the delta scheme for `nwords` words at `width` plus a
/// raw `tail`-byte remainder: method + scheme + width byte + 8-byte base.
#[inline]
fn delta_cost(width: usize, nwords: usize, tail: usize) -> usize {
    2 + 1 + 8 + width * nwords + tail
}

#[inline]
fn word_at(src: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(src[i * 8..i * 8 + 8].try_into().expect("8-byte word"))
}

/// The reference BDI codec.
pub(crate) struct RefBdi;

impl RefBdi {
    pub(crate) fn compress(&mut self, src: &[u8], dst: &mut Vec<u8>) -> usize {
        let n = src.len();
        let nwords = n / 8;
        let tail = &src[nwords * 8..];

        // One pass: classify. All-zero and repeated-word fall out of the
        // same scan that sizes the two delta candidates (base = first
        // word, base = 0 for narrow values).
        let mut all_zero = tail.iter().all(|&b| b == 0);
        let (mut rep, mut wbase, mut wzero) = (true, 1usize, 1usize);
        let base = if nwords > 0 { word_at(src, 0) } else { 0 };
        for i in 0..nwords {
            let w = word_at(src, i);
            all_zero &= w == 0;
            rep &= w == base;
            wbase = wbase.max(sig_width(w.wrapping_sub(base) as i64));
            wzero = wzero.max(sig_width(w as i64));
        }
        // Repeated-word also requires the tail to continue the pattern.
        rep = rep && nwords > 0 && *tail == base.to_le_bytes()[..tail.len()];

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
        dst.clear();
        dst.push(METHOD_BDI);
        dst.push(scheme);
        match scheme {
            SCHEME_ZERO => dst.extend_from_slice(&(n as u32).to_le_bytes()),
            SCHEME_REP => {
                dst.extend_from_slice(&(n as u32).to_le_bytes());
                dst.extend_from_slice(&base.to_le_bytes());
            }
            _ => {
                dst.push(width as u8);
                dst.extend_from_slice(&base.to_le_bytes());
                for i in 0..nwords {
                    let d = word_at(src, i).wrapping_sub(base) as i64;
                    dst.extend_from_slice(&d.to_le_bytes()[..width]);
                }
                dst.extend_from_slice(tail);
            }
        }
        debug_assert!(dst.len() <= n + 1, "bdi exceeded stored fallback");
        dst.len()
    }

    pub(crate) fn decompress(
        &mut self,
        src: &[u8],
        dst: &mut Vec<u8>,
        expected_len: usize,
    ) -> Result<(), DecompressError> {
        let (&method, body) = src.split_first().ok_or(DecompressError::Truncated)?;
        if method == METHOD_STORED {
            return load_raw(body, dst, expected_len);
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
                let recorded =
                    u32::from_le_bytes(body[0..4].try_into().expect("4-byte len")) as usize;
                if recorded > expected_len {
                    return Err(DecompressError::OutputOverrun);
                }
                if recorded < expected_len {
                    return Err(DecompressError::Truncated);
                }
                dst.clear();
                if scheme == SCHEME_ZERO {
                    dst.resize(expected_len, 0);
                } else {
                    let word = body[4..12].try_into().expect("8-byte word");
                    let word = u64::from_le_bytes(word).to_le_bytes();
                    dst.reserve(expected_len);
                    while dst.len() + 8 <= expected_len {
                        dst.extend_from_slice(&word);
                    }
                    dst.extend_from_slice(&word[..expected_len - dst.len()]);
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
                let base = u64::from_le_bytes(body[..8].try_into().expect("8-byte base"));
                let body = &body[8..];
                let nwords = expected_len / 8;
                let tail = expected_len % 8;
                let want = width * nwords + tail;
                if body.len() < want {
                    return Err(DecompressError::Truncated);
                }
                if body.len() > want {
                    return Err(DecompressError::TrailingGarbage);
                }
                dst.clear();
                dst.reserve(expected_len);
                for i in 0..nwords {
                    let raw = &body[i * width..(i + 1) * width];
                    // Sign-extend the truncated two's-complement delta.
                    let mut d = [if raw[width - 1] & 0x80 != 0 { 0xFF } else { 0 }; 8];
                    d[..width].copy_from_slice(raw);
                    let w = base.wrapping_add(i64::from_le_bytes(d) as u64);
                    dst.extend_from_slice(&w.to_le_bytes());
                }
                dst.extend_from_slice(&body[width * nwords..]);
                Ok(())
            }
            other => Err(DecompressError::BadMethod(other)),
        }
    }
}

const METHOD_LZRW1: u8 = 1;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 18;
const MAX_OFFSET: usize = 4095;
const GROUP: usize = 16;

/// The reference LZRW1 codec: 8-byte `(generation << 32) | position`
/// slots, one branch per candidate condition.
pub(crate) struct RefLzrw1 {
    table: Vec<u64>,
    mask: usize,
    generation: u32,
}

impl RefLzrw1 {
    pub(crate) fn with_entries(entries: usize) -> Self {
        RefLzrw1 {
            table: vec![0; entries],
            mask: entries - 1,
            generation: 0,
        }
    }

    /// Williams's multiplicative trigram hash.
    #[inline]
    fn hash(&self, b0: u8, b1: u8, b2: u8) -> usize {
        let k = ((((b0 as u32) << 4) ^ (b1 as u32)) << 4) ^ (b2 as u32);
        ((40543u32.wrapping_mul(k)) >> 4) as usize & self.mask
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

impl RefLzrw1 {
    pub(crate) fn compress(&mut self, src: &[u8], dst: &mut Vec<u8>) -> usize {
        dst.clear();
        if src.is_empty() {
            dst.push(METHOD_STORED);
            return dst.len();
        }
        // Bump the block generation instead of clearing the table:
        // entries stamped with an older generation are treated as empty,
        // so compressed pages stay independently decompressible without
        // paying a table memset per 4 KB block.
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // u32 wraparound (once per 4G blocks): flush for real.
            self.table.iter_mut().for_each(|e| *e = 0);
            self.generation = 1;
        }
        let gen_tag = (self.generation as u64) << 32;

        let n = src.len();
        debug_assert!(n < (1 << 32), "block too large for packed table entries");
        // Worst case is all-literal output: 1 method byte + n literals +
        // 2 control bytes per 16 items. Reserving it up front keeps the
        // emit loop free of reallocation.
        dst.reserve(n + n / 8 + 4);
        dst.push(METHOD_LZRW1);
        let mut i = 0usize;
        // Position of the current group's control word within dst.
        let mut ctrl_pos = dst.len();
        dst.extend_from_slice(&[0, 0]);
        let mut ctrl: u16 = 0;
        let mut items_in_group = 0usize;

        while i < n {
            if items_in_group == GROUP {
                dst[ctrl_pos] = (ctrl & 0xFF) as u8;
                dst[ctrl_pos + 1] = (ctrl >> 8) as u8;
                ctrl_pos = dst.len();
                dst.extend_from_slice(&[0, 0]);
                ctrl = 0;
                items_in_group = 0;
            }

            let mut emitted_copy = false;
            if n - i >= MIN_MATCH {
                let h = self.hash(src[i], src[i + 1], src[i + 2]);
                let slot = self.table[h];
                self.table[h] = gen_tag | i as u64;
                // A slot from an older block reads as a generation
                // mismatch; a slot from this block always holds a
                // position strictly below `i`.
                if slot >> 32 == self.generation as u64 {
                    let cand = (slot & 0xFFFF_FFFF) as usize;
                    let offset = i - cand;
                    // Check and extend the match.
                    if offset <= MAX_OFFSET
                        && src[cand] == src[i]
                        && src[cand + 1] == src[i + 1]
                        && src[cand + 2] == src[i + 2]
                    {
                        let limit = MAX_MATCH.min(n - i);
                        let len = extend_match(src, cand, i, limit);
                        ctrl |= 1 << items_in_group;
                        dst.push((((offset >> 8) as u8) << 4) | ((len - MIN_MATCH) as u8));
                        dst.push((offset & 0xFF) as u8);
                        i += len;
                        emitted_copy = true;
                    }
                }
            }
            if !emitted_copy {
                dst.push(src[i]);
                i += 1;
            }
            items_in_group += 1;
        }
        // Flush the final (possibly partial) control word.
        dst[ctrl_pos] = (ctrl & 0xFF) as u8;
        dst[ctrl_pos + 1] = (ctrl >> 8) as u8;

        if dst.len() > src.len() {
            // Expansion: fall back to a stored block (original LZRW1 sets a
            // copy flag and memcpys).
            return store_raw(src, dst);
        }
        dst.len()
    }

    pub(crate) fn decompress(
        &mut self,
        src: &[u8],
        dst: &mut Vec<u8>,
        expected_len: usize,
    ) -> Result<(), DecompressError> {
        let (&method, body) = src.split_first().ok_or(DecompressError::Truncated)?;
        match method {
            METHOD_STORED => return load_raw(body, dst, expected_len),
            METHOD_LZRW1 => {}
            other => return Err(DecompressError::BadMethod(other)),
        }
        dst.clear();
        dst.reserve(expected_len);
        let mut pos = 0usize;
        while dst.len() < expected_len {
            if pos + 2 > body.len() {
                return Err(DecompressError::Truncated);
            }
            let ctrl = u16::from_le_bytes([body[pos], body[pos + 1]]);
            pos += 2;
            let mut bit = 0;
            while bit < GROUP && dst.len() < expected_len {
                if ctrl & (1 << bit) != 0 {
                    if pos + 2 > body.len() {
                        return Err(DecompressError::Truncated);
                    }
                    let b0 = body[pos] as usize;
                    let b1 = body[pos + 1] as usize;
                    pos += 2;
                    let offset = ((b0 & 0xF0) << 4) | b1;
                    let len = (b0 & 0x0F) + MIN_MATCH;
                    let at = dst.len();
                    if offset == 0 || offset > at {
                        return Err(DecompressError::BadOffset { offset, at });
                    }
                    if at + len > expected_len {
                        return Err(DecompressError::OutputOverrun);
                    }
                    if offset >= len {
                        // Disjoint source and destination: one memcpy.
                        dst.extend_from_within(at - offset..at - offset + len);
                    } else if offset == 1 {
                        // RLE-like run of one byte: a fill, not a loop.
                        let b = dst[at - 1];
                        dst.resize(at + len, b);
                    } else {
                        // Genuinely overlapping short copy (len <= 18):
                        // byte-at-a-time is both correct and cheap here.
                        for k in 0..len {
                            let b = dst[at - offset + k];
                            dst.push(b);
                        }
                    }
                    bit += 1;
                } else {
                    // Batch the whole run of literal items implied by the
                    // consecutive clear control bits into one copy.
                    let run = ((ctrl >> bit).trailing_zeros() as usize)
                        .min(GROUP - bit)
                        .min(expected_len - dst.len());
                    debug_assert!(run >= 1);
                    if pos + run > body.len() {
                        return Err(DecompressError::Truncated);
                    }
                    dst.extend_from_slice(&body[pos..pos + run]);
                    pos += run;
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

/// The five page classes of `benchmark/src/pages.rs`, re-created here
/// (the benchmark package is not a dependency) at any length.
pub(crate) const CLASSES: usize = 5;

#[rustfmt::skip]
const VOCABULARY: [&str; 32] = [
    "page", "cache", "memory", "compress", "disk", "fault", "the", "of", "and", "to", "in", "is",
    "that", "for", "system", "sprite", "kernel", "buffer", "write", "read", "clean", "dirty",
    "threshold", "ratio", "backing", "store", "swap", "frame", "segment", "virtual", "physical",
    "bandwidth",
];

/// A `len`-byte page of `class`: 0 near-zero, 1 16-bit counters, 2
/// base+delta, 3 text, 4 noise.
pub(crate) fn class_page(class: usize, seed: u64, len: usize) -> Vec<u8> {
    let mut rng = cc_util::SplitMix64::new(seed);
    let mut page = vec![0u8; len];
    match class {
        0 => {
            for w in page.chunks_exact_mut(8).step_by(64) {
                w.copy_from_slice(&(1 + rng.next_u64() % 1000).to_le_bytes());
            }
        }
        1 => {
            for w in page.chunks_exact_mut(8) {
                w.copy_from_slice(&(256 + rng.next_u64() % 30_000).to_le_bytes());
            }
        }
        2 => {
            let base = 0x7F00_0000_0000u64 | (rng.next_u64() & 0xFFFF_F000);
            for w in page.chunks_exact_mut(8) {
                w.copy_from_slice(&(base + rng.next_u64() % 100).to_le_bytes());
            }
        }
        3 => {
            let mut at = 0;
            while at < len {
                let word = VOCABULARY[(rng.next_u64() % VOCABULARY.len() as u64) as usize];
                for &b in word.as_bytes().iter().chain(b" ") {
                    if at < len {
                        page[at] = b;
                        at += 1;
                    }
                }
            }
        }
        _ => page.fill_with(|| rng.next_u64() as u8),
    }
    page
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bdi, Compressor, Lzrw1};
    use proptest::prelude::*;

    /// A page of one of the five classes, or arbitrary bytes, 0..=4097
    /// bytes long.
    fn page() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            5 => (0usize..CLASSES, any::<u64>(), 0usize..4098)
                .prop_map(|(class, seed, len)| class_page(class, seed, len)),
            1 => proptest::collection::vec(any::<u8>(), 0..4098),
        ]
    }

    /// The same, short enough to damage at every byte.
    fn small_page() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            5 => (0usize..CLASSES, any::<u64>(), 0usize..400)
                .prop_map(|(class, seed, len)| class_page(class, seed, len)),
            1 => proptest::collection::vec(any::<u8>(), 0..400),
        ]
    }

    type Decoder = fn(&[u8], &mut [u8]) -> Result<(), DecompressError>;

    /// Run a slice decoder on the middle of a buffer and check it left
    /// the guard bytes either side alone.
    fn decode_guarded(
        decode: Decoder,
        sealed: &[u8],
        len: usize,
    ) -> Result<Vec<u8>, DecompressError> {
        const GUARD: usize = 32;
        let mut buf = vec![0xC5u8; GUARD + len + GUARD];
        let result = decode(sealed, &mut buf[GUARD..GUARD + len]);
        assert!(
            buf[..GUARD]
                .iter()
                .chain(&buf[GUARD + len..])
                .all(|&b| b == 0xC5),
            "decoder wrote outside its output"
        );
        result.map(|()| buf[GUARD..GUARD + len].to_vec())
    }

    fn ref_decode_bdi(sealed: &[u8], len: usize) -> Result<Vec<u8>, DecompressError> {
        let mut out = Vec::new();
        RefBdi.decompress(sealed, &mut out, len).map(|()| out)
    }

    fn ref_decode_lz(sealed: &[u8], len: usize) -> Result<Vec<u8>, DecompressError> {
        let mut out = Vec::new();
        RefLzrw1::with_entries(256)
            .decompress(sealed, &mut out, len)
            .map(|()| out)
    }

    /// `sealed` cut short at every length, with every byte damaged in
    /// turn, and decoded to a wrong length: the slice decoder agrees with
    /// the reference on every outcome, and a truncation or a wrong length
    /// is always an error.
    fn check_damage(
        decode: Decoder,
        reference: fn(&[u8], usize) -> Result<Vec<u8>, DecompressError>,
        sealed: &[u8],
        len: usize,
    ) {
        for cut in 0..sealed.len() {
            let got = decode_guarded(decode, &sealed[..cut], len);
            assert!(got.is_err(), "accepted truncation at {cut}");
            assert_eq!(got, reference(&sealed[..cut], len), "cut at {cut}");
        }
        let mut damaged = sealed.to_vec();
        for at in 0..sealed.len() {
            for flip in [0x01, 0x80, 0xFF] {
                damaged[at] ^= flip;
                let got = decode_guarded(decode, &damaged, len);
                assert_eq!(got, reference(&damaged, len), "byte {at} ^ {flip:#x}");
                damaged[at] ^= flip;
            }
        }
        for wrong in [len.wrapping_sub(1), len + 1, len + 8, len / 2] {
            if wrong == len || wrong == usize::MAX {
                continue;
            }
            let got = decode_guarded(decode, sealed, wrong);
            assert!(got.is_err(), "decoded {len} bytes as {wrong}");
            assert_eq!(got, reference(sealed, wrong), "wrong length {wrong}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Two blocks through one encoder of each kind, so table state
        /// carried from the first is covered too.
        #[test]
        fn encoders_reproduce_the_reference_bytes(first in page(), second in page()) {
            for entries in [256usize, 4096, 16_384, 65_536] {
                let (mut new, mut old) = (Lzrw1::with_entries(entries), RefLzrw1::with_entries(entries));
                for input in [&first, &second] {
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    let n = new.compress(input, &mut got);
                    prop_assert_eq!(n, got.len());
                    old.compress(input, &mut want);
                    prop_assert_eq!(&got, &want, "lzrw1/{} on {} bytes", entries, input.len());
                }
            }
            // One output buffer reused across blocks: the delta emitter
            // keeps its length instead of clearing it.
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for input in [&first, &second] {
                let n = Bdi.compress(input, &mut got);
                prop_assert_eq!(n, got.len());
                RefBdi.compress(input, &mut want);
                prop_assert_eq!(&got, &want, "bdi on {} bytes", input.len());
            }
        }

        #[test]
        fn bounded_encode_is_the_unbounded_one_cut_at_the_limit(
            input in page(),
            limit in 0usize..4200,
            near in 0usize..3,
        ) {
            let mut lz = Lzrw1::new();
            let mut want = Vec::new();
            let full = lz.compress(&input, &mut want);
            // An arbitrary limit, and the three around the real length.
            for limit in [limit, (full + near).saturating_sub(1)] {
                let mut got = vec![0xEE; 7];
                match lz.compress_bounded(&input, &mut got, limit) {
                    None => prop_assert!(full > limit, "gave up at {} on a {}-byte result", limit, full),
                    Some(n) => {
                        prop_assert!(full <= limit, "kept {} bytes over limit {}", full, limit);
                        prop_assert_eq!(n, full);
                        prop_assert_eq!(&got, &want);
                    }
                }
            }
        }

        #[test]
        fn decoders_reproduce_the_reference_on_valid_blocks(input in page()) {
            let (mut sealed, mut vec_out) = (Vec::new(), vec![0xEE; 9]);
            RefLzrw1::with_entries(4096).compress(&input, &mut sealed);
            prop_assert_eq!(decode_guarded(Lzrw1::decode_into, &sealed, input.len()).as_ref(), Ok(&input));
            Lzrw1::new().decompress(&sealed, &mut vec_out, input.len()).unwrap();
            prop_assert_eq!(&vec_out, &input);

            RefBdi.compress(&input, &mut sealed);
            prop_assert_eq!(decode_guarded(Bdi::decode_into, &sealed, input.len()).as_ref(), Ok(&input));
            Bdi.decompress(&sealed, &mut vec_out, input.len()).unwrap();
            prop_assert_eq!(&vec_out, &input);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn slice_decoders_reject_damage_like_the_reference(input in small_page()) {
            let mut sealed = Vec::new();
            RefLzrw1::with_entries(4096).compress(&input, &mut sealed);
            check_damage(Lzrw1::decode_into, ref_decode_lz, &sealed, input.len());
            RefBdi.compress(&input, &mut sealed);
            check_damage(Bdi::decode_into, ref_decode_bdi, &sealed, input.len());
        }
    }

    /// Every truncation and single-byte corruption of one whole page per
    /// class.
    #[test]
    fn slice_decoders_reject_damage_to_whole_pages() {
        for class in 0..CLASSES {
            let page = class_page(class, 0xC0DE + class as u64, 4096);
            let mut sealed = Vec::new();
            RefLzrw1::with_entries(4096).compress(&page, &mut sealed);
            check_damage(Lzrw1::decode_into, ref_decode_lz, &sealed, page.len());
            RefBdi.compress(&page, &mut sealed);
            check_damage(Bdi::decode_into, ref_decode_bdi, &sealed, page.len());
        }
    }

    /// Every page class under both hash-pass bodies (tables up to 4 096
    /// entries and wider), at the lengths where the pass has no trigram,
    /// one, a page's worth, and more than the buffer held before: the
    /// unbounded encode is the reference's bytes, and the one bounded at
    /// the 4:3 admit bound is the same bytes or gives up exactly when
    /// they miss it.
    #[test]
    fn every_class_table_width_and_length_reproduces_the_reference_bytes() {
        let threshold = crate::ThresholdPolicy::default();
        for entries in [256usize, 4096, 16_384, 65_536] {
            let (mut new, mut old) = (
                Lzrw1::with_entries(entries),
                RefLzrw1::with_entries(entries),
            );
            for class in 0..CLASSES {
                for len in [0usize, 1, 2, 3, 4095, 4096, 4097, 8192] {
                    let page = class_page(class, 0x5EED ^ len as u64, len);
                    let case = format!("class {class}, {entries} entries, {len} bytes");
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    old.compress(&page, &mut want);
                    assert_eq!(new.compress(&page, &mut got), want.len(), "{case}");
                    assert_eq!(got, want, "{case}");
                    let admit = threshold.max_compressed_len(len);
                    let bounded = new.compress_bounded(&page, &mut got, admit);
                    if want.len() <= admit {
                        assert_eq!(bounded, Some(want.len()), "{case}, bounded");
                        assert_eq!(got, want, "{case}, bounded");
                    } else {
                        assert_eq!(bounded, None, "{case}, bounded");
                    }
                }
            }
        }
    }

    /// A block above 64 KiB needs 17 position bits, leaving the slot 15
    /// of generation: text with noise stripes so copies, literals and the
    /// 4095-byte window edge all occur.
    #[test]
    fn a_block_above_64k_reproduces_the_reference_bytes() {
        let mut block = class_page(3, 41, 70_001);
        let noise = class_page(4, 42, 9_000);
        block[20_000..29_000].copy_from_slice(&noise);
        let (mut new, mut old) = (Lzrw1::new(), RefLzrw1::with_entries(4096));
        let (mut got, mut want) = (Vec::new(), Vec::new());
        new.compress(&block, &mut got);
        old.compress(&block, &mut want);
        assert_eq!(got, want);
        assert!(got.len() < block.len() / 2);
        assert_eq!(
            decode_guarded(Lzrw1::decode_into, &got, block.len()),
            Ok(block.clone())
        );
        let bound = got.len();
        assert_eq!(new.compress_bounded(&block, &mut got, bound), Some(bound));
        assert_eq!(got, want);
        assert_eq!(new.compress_bounded(&block, &mut got, bound - 1), None);

        Bdi.compress(&block, &mut got);
        RefBdi.compress(&block, &mut want);
        assert_eq!(got, want);
    }

    /// `width_of` over OR-ed sign folds is exactly the widest
    /// `sig_width`, at every class boundary on both sides of zero.
    #[test]
    fn folded_width_is_the_widest_sig_width() {
        use crate::bdi::{sign_fold, width_of};
        let mut edges = vec![0i64, -1, i64::MIN, i64::MAX];
        for bits in [7u32, 15, 31] {
            let edge = 1i64 << bits;
            edges.extend([edge - 1, edge, -edge, -edge - 1]);
        }
        for &a in &edges {
            assert_eq!(width_of(sign_fold(a as u64)), sig_width(a), "{a}");
            for &b in &edges {
                assert_eq!(
                    width_of(sign_fold(a as u64) | sign_fold(b as u64)),
                    sig_width(a).max(sig_width(b)),
                    "{a} | {b}"
                );
            }
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The sealed bytes of two fixed pages, written down: the tests above
    /// hold the new kernels to the reference, these hold the reference.
    #[test]
    fn golden_vectors_pin_the_reference_itself() {
        let mut sealed = Vec::new();
        RefLzrw1::with_entries(4096).compress(&class_page(3, 1993, 4096), &mut sealed);
        assert_eq!(sealed[0], 1);
        assert_eq!(hex(&sealed), GOLDEN_TEXT_LZRW1.concat());
        RefBdi.compress(&class_page(2, 1993, 4096), &mut sealed);
        assert_eq!(sealed[0], 5);
        assert_eq!(hex(&sealed), GOLDEN_BASE_DELTA_BDI.concat());
    }

    #[rustfmt::skip]
    const GOLDEN_TEXT_LZRW1: &[&str] = &[
        "010000636c65616e20746f207068797369636100806c206672616d65206469736b206f660103030e020b0428",
        "68617420666f72020402180023737973740000656d20726174696f2062756666657220018104146973207265",
        "6164022f6b65726e656c05270082616e6477696474682000237669727475007a011606837370726974652062",
        "0625037e64002879207000006167652073776170206d656d6f727920c0cb636163686520045f009003890306",
        "74001a746800b5004b7700033a032e043b770268046f03657468726573686f6c640100007f636b696e672069",
        "6e206661756c7420cf0f032e0306031204ee6261032a031b07b70494140d106573746f72fb8709d800fd7001",
        "cf037b020b032301af043e031c126d636f6d70009ebfff1055126c0230031f061a060964122d044416070247",
        "0363020b062f03bb0090f881696e201590031406230609127d070e65676d656e742332dfff01690874054a01",
        "cf050c7304301342236e17751025031913a8052d261b0609ffff0780232d0610018303fd14d81790036d031d",
        "21c6006d065014a505a6001b1321ffff3220033914ee059426da043b05071ce4004a069c135201a207f20572",
        "03f120c0ffff04b7113412e2010906420a0d2578038a32b813dc22f30167330624ee02d10383ffff05c412cb",
        "022e0244041d135204ef07aa236b133f024c1317016805c504bc115dffff04750335045914fb041b03ac0306",
        "10260135014c03320295056120f53293011fffff20a1032a30d604a3111502300309052e1635149a249916f3",
        "2369007a20f7030cffff038c0456016603171346041712291540171d13171250022203c6014427801306ffff",
        "01a513ed0591410302c0023a008e125e07280256033d038b07c3508c02351581ffbf020d04580779160a147a",
        "03ad006907c005d2050803c0063914d91281736424fff714570744070a042f22c00067034d03c20725107a06",
        "4365545e137102f110e9ffff0003114203f5139d054510fe1345026406a8005404e4045b061a1415041e0392",
        "ffff2360123405f804ba031a030601f53098064a156c011800dd02ad01a713560116ffff010e044903a5040d",
        "03bd02b216c335c504b0130117bb029d100804b82115071dffff0350043a022a142b34690038018b01040735",
        "00cb00b6022e141406da0215228affff2282059b17b3017f133b02c500480003023104a034250324055f72a1",
        "0421122effff008300031415010a52341340033b07731341026f002a03241325007b031d0281ffff047a1658",
        "06d5052445170429133c040d02ef032901e30104074902bf11440653ffff15190ae1039504d503a803642930",
        "02690437031e179920bc03fd268c14c70399ffff030612a3124502f623a2025607490c9f050f14820333103d",
        "02410405151d06f6ffff039d2041053e2466170493ea0240032d00c00425130b0316113912be001f0482ffff",
        "06441168060d02d5070e638502ef034f23db1a3c146d131a06bb0416023b0650ffff016b047f04201308123b",
        "035b157707b8042a065a176300cd023a1047015a1028ffff0336034a0828a17d4113154703cc0037123927e7",
        "2489040702bc053329400078ffff0734049f2335048708070540017f05dc3043050b046b03b8141b03bf029b",
        "11b8ffff076b0291160814e7539207251606006600e2031f12d705742209020504433328ffff131504840750",
        "05f9034913e6005b03b202580339020b0071053000880745033dffff046f003e110e104602d1261e144a05a7",
        "073e1744607102b90068042e160f03869f792210058303760748134e6520136101a16f201667028c01980536",
        "65fdff001c65d67c007224f6130304cc142f02fd035706cf1356132814e7211802a2ffff279c070a028a05fd",
        "04de2356025e0471048504070c73048e01c6040b153b02deffff076c051703cc044d057c153f031d014d0367",
        "02ba10bd13210490137704e0168dffff160533e0032512ba030b03ece3b41088043f17aa026b070f01840233",
        "071311ccffff05c603650674051703b603ae138d0623015100781190033d0482150312720334ffff0773051d",
        "042c05670048146d014f036f010a02b11344024f103a162001be01240100137a",
    ];
    #[rustfmt::skip]
    const GOLDEN_BASE_DELTA_BDI: &[&str] = &[
        "0502012560b8e5007f00000005fadf0af613fb2b102c373a05fa303d22ea3c27de36e220353ef2f30c1b2115",
        "f00f12123e3df71f0be039f502f3e9032504e92528ecf70116eb05f0ec0e3ae71b0330f72f0f1fde0a1f2b32",
        "12302f3537effc3b22212a1124210af22502ffebf9db21ec1704dbfc0a3914f4f0eb3119223e3edde426feee",
        "28f0e42919e4241b2b22fcfb02dce9ed100edc161d15091408de1a271ffb0e271aef3ef6e8e7250e1d1ff913",
        "0d231a11e22029e3f8e30639ecee382d0725e701303c0cf43de33be2f9e11de01be8df331b1deaf117e12cf4",
        "26f02010f0fc361cfaf7fd38e5262720162df330dbe3eff2fe17ef1c0d35fedd183efc160bee020518fa3d1f",
        "1f17f212253e123911e92a23de2f013de0010d19eced0539e8f2f0393be4331a3c39f136131d07020207f232",
        "2a293622f039e61114fc051422f8261113f133fd341eea2521df3ee119063e17fdf0ecea2af20e0bde06f72b",
        "e7f1e31bdb2e36fb1904ffe3e0e909f6ee2e12f0dc1b11eceb0ee4dc06e8eb34dde238e53835f0fb04ef23f1",
        "e824163bef0c2c1614f530fdeb27f11af8170ff73c08de1d1bde1f220f1fdf2d1e262ff70125f9151ffde60c",
        "0f35ecfd2c010013043d06f7f6e91626fe1ce2f3093234e12622ee23f11ae6fff617ed2422011210fff20705",
        "3d321aebeddb04ea2b011020f2eff0010019e20bf3f12315f73b010fe60b080d31fef7f0e5e2e5",
    ];
}
