//! Property-based tests over all codecs.
//!
//! The compression cache stakes data integrity on these codecs: a page that
//! fails to roundtrip is silent memory corruption in the simulated system.
//! So we hammer the roundtrip and the decoder's robustness with generated
//! inputs, including structured ones that look like real page contents.

use cc_compress::codec::MIN_PREDICTED_LEN;
use cc_compress::{
    classify, decode_into, Bdi, CodecId, CodecPolicy, CodecSet, Compressor, Lzrw1, Lzss, Null, Rle,
    Route, SameFilled, Selection, ThresholdPolicy,
};
use proptest::prelude::*;

fn codecs() -> Vec<Box<dyn Compressor>> {
    vec![
        Box::new(Lzrw1::new()),
        Box::new(Lzrw1::with_entries(256)),
        Box::new(Lzss::new()),
        Box::new(Rle::new()),
        Box::new(Null::new()),
        Box::new(Bdi::new()),
        Box::new(SameFilled::new()),
    ]
}

/// Inputs biased toward page-like structure: runs, repeated words, and raw
/// noise, in arbitrary concatenation.
fn page_like() -> impl Strategy<Value = Vec<u8>> {
    let chunk = prop_oneof![
        // A run of one byte.
        (any::<u8>(), 1usize..200).prop_map(|(b, n)| vec![b; n]),
        // A small repeated "word".
        (proptest::collection::vec(any::<u8>(), 1..8), 1usize..40).prop_map(|(w, n)| w
            .iter()
            .cycle()
            .take(w.len() * n)
            .cloned()
            .collect()),
        // Raw noise.
        proptest::collection::vec(any::<u8>(), 0..256),
    ];
    proptest::collection::vec(chunk, 0..12).prop_map(|chunks| chunks.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn roundtrip_arbitrary_bytes(input in proptest::collection::vec(any::<u8>(), 0..6000)) {
        for codec in codecs().iter_mut() {
            let mut packed = Vec::new();
            let n = codec.compress(&input, &mut packed);
            prop_assert!(n <= codec.max_compressed_len(input.len()));
            let mut out = Vec::new();
            codec.decompress(&packed, &mut out, input.len()).unwrap();
            prop_assert_eq!(&out, &input, "codec {}", codec.name());
        }
    }

    #[test]
    fn roundtrip_page_like(input in page_like()) {
        for codec in codecs().iter_mut() {
            let mut packed = Vec::new();
            codec.compress(&input, &mut packed);
            let mut out = Vec::new();
            codec.decompress(&packed, &mut out, input.len()).unwrap();
            prop_assert_eq!(&out, &input, "codec {}", codec.name());
        }
    }

    #[test]
    fn decoder_never_panics_on_garbage(
        garbage in proptest::collection::vec(any::<u8>(), 0..512),
        expected in 0usize..5000,
    ) {
        for codec in codecs().iter_mut() {
            let mut out = Vec::new();
            // Any result is fine; panicking or producing the wrong length is not.
            if codec.decompress(&garbage, &mut out, expected).is_ok() {
                prop_assert_eq!(out.len(), expected, "codec {}", codec.name());
            }
        }
    }

    #[test]
    fn decoder_never_panics_on_bitflipped_valid_input(
        input in page_like(),
        flip_byte in 0usize..4096,
        flip_bit in 0u8..8,
    ) {
        for codec in codecs().iter_mut() {
            let mut packed = Vec::new();
            codec.compress(&input, &mut packed);
            if packed.is_empty() {
                continue;
            }
            let idx = flip_byte % packed.len();
            packed[idx] ^= 1 << flip_bit;
            let mut out = Vec::new();
            // Corruption may or may not be detected (no checksums, as in
            // the original), but must never panic or overrun.
            if codec.decompress(&packed, &mut out, input.len()).is_ok() {
                prop_assert_eq!(out.len(), input.len());
            }
        }
    }

    #[test]
    fn compressed_output_is_deterministic(input in page_like()) {
        for codec in codecs().iter_mut() {
            let mut a = Vec::new();
            let mut b = Vec::new();
            codec.compress(&input, &mut a);
            codec.compress(&input, &mut b);
            prop_assert_eq!(&a, &b, "codec {}", codec.name());
        }
    }
}

/// Inputs engineered to stress the LZRW1 fast copy paths added for the
/// sharded-store work: overlapping matches (offset < match length), runs
/// that straddle the 4 KB page boundary, and incompressible noise that
/// must fall back to a stored block.
fn adversarial_lzrw1() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // Short-period runs: decode as overlapping copies with
        // offset 1..=17, below the 18-byte max match length.
        (any::<u8>(), 1usize..18, 19usize..600).prop_map(|(b, period, total)| {
            (0..total)
                .map(|i| b.wrapping_add((i % period) as u8))
                .collect()
        }),
        // A literal region, then a run crossing the 4 KB boundary, then a
        // back-reference to material from before the boundary.
        (any::<u8>(), 1usize..64).prop_map(|(b, tail)| {
            let mut v: Vec<u8> = (0..4096 - 32).map(|i| (i % 253) as u8).collect();
            v.extend(std::iter::repeat_n(b, 64)); // run across the boundary
            v.extend((0..tail).map(|i| (i % 253) as u8)); // match pre-boundary bytes
            v
        }),
        // Alternating compressible/incompressible stripes: every group
        // mixes copy items with maximal literal runs.
        (1u64..u64::MAX, 8usize..40).prop_map(|(seed, stripe)| {
            let mut rng = cc_util::SplitMix64::new(seed);
            let mut v = Vec::with_capacity(4096);
            while v.len() < 4096 {
                v.extend(std::iter::repeat_n(0xAB, stripe));
                v.extend((0..stripe).map(|_| rng.next_u64() as u8));
            }
            v.truncate(4096);
            v
        }),
        // Pure noise pages: must take the stored-block fallback and still
        // roundtrip byte-exactly.
        (1u64..u64::MAX).prop_map(|seed| {
            let mut rng = cc_util::SplitMix64::new(seed);
            (0..4096).map(|_| rng.next_u64() as u8).collect()
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn lzrw1_adversarial_roundtrip(input in adversarial_lzrw1()) {
        for entries in [256usize, 4096] {
            let mut lz = cc_compress::Lzrw1::with_entries(entries);
            let mut packed = Vec::new();
            let n = lz.compress(&input, &mut packed);
            prop_assert!(n <= input.len() + 1);
            let mut out = Vec::new();
            lz.decompress(&packed, &mut out, input.len()).unwrap();
            prop_assert_eq!(&out, &input, "table entries {}", entries);
        }
    }

    /// Back-to-back blocks through one codec instance: the generation
    /// trick that replaced the per-block table clear must never let one
    /// block's matches leak into the next.
    #[test]
    fn lzrw1_no_state_leak_across_blocks(
        first in adversarial_lzrw1(),
        second in adversarial_lzrw1(),
    ) {
        let mut shared = cc_compress::Lzrw1::new();
        let mut scratch = Vec::new();
        shared.compress(&first, &mut scratch);
        let mut via_shared = Vec::new();
        shared.compress(&second, &mut via_shared);
        // A fresh codec must produce the identical encoding.
        let mut fresh = cc_compress::Lzrw1::new();
        let mut via_fresh = Vec::new();
        fresh.compress(&second, &mut via_fresh);
        prop_assert_eq!(&via_shared, &via_fresh);
        let mut out = Vec::new();
        shared.decompress(&via_shared, &mut out, second.len()).unwrap();
        prop_assert_eq!(&out, &second);
    }
}

/// Inputs engineered against BDI's word classifier: pages that sit exactly
/// on scheme boundaries (all-zero with one disturbed word, repeated words
/// with a ragged tail, deltas that straddle a width class, sign flips
/// around the base) plus plain noise that must take the stored fallback.
fn adversarial_bdi() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // All-zero except (maybe) one word — flips zero-scheme vs delta.
        (0usize..512, any::<bool>(), any::<u64>(), 1usize..4097).prop_map(
            |(pos, disturb, val, len)| {
                let mut v = vec![0u8; len];
                if disturb {
                    let nwords = len / 8;
                    if nwords > 0 {
                        let i = pos % nwords;
                        v[i * 8..i * 8 + 8].copy_from_slice(&val.to_le_bytes());
                    }
                }
                v
            }
        ),
        // One repeated word, arbitrary tail bytes — rep scheme only when
        // the tail matches the pattern's prefix.
        (
            any::<u64>(),
            1usize..512,
            proptest::collection::vec(any::<u8>(), 0..8)
        )
            .prop_map(|(w, n, tail)| {
                let mut v = Vec::with_capacity(n * 8 + tail.len());
                for _ in 0..n {
                    v.extend_from_slice(&w.to_le_bytes());
                }
                v.extend_from_slice(&tail);
                v
            }),
        // Base + deltas drawn to straddle width classes: some fit i8, a
        // few spill into i16/i32, signs on both sides of the base.
        (any::<u64>(), 1u64..1 << 32, 1usize..512, any::<u64>()).prop_map(
            |(base, spread, n, seed)| {
                let mut rng = cc_util::SplitMix64::new(seed | 1);
                let mut v = Vec::with_capacity(n * 8);
                for _ in 0..n {
                    let d = (rng.next_u64() % (2 * spread)) as i64 - spread as i64;
                    v.extend_from_slice(&base.wrapping_add(d as u64).to_le_bytes());
                }
                v
            }
        ),
        // Narrow absolute values around zero (the zero-base arm).
        (1usize..512, any::<u64>()).prop_map(|(n, seed)| {
            let mut rng = cc_util::SplitMix64::new(seed | 1);
            let mut v = Vec::with_capacity(n * 8);
            for _ in 0..n {
                let d = (rng.next_u64() % 512) as i64 - 256;
                v.extend_from_slice(&(d as u64).to_le_bytes());
            }
            v
        }),
        // Unaligned lengths of noise: stored-fallback territory.
        proptest::collection::vec(any::<u8>(), 0..4100),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bdi_adversarial_roundtrip(input in adversarial_bdi()) {
        let mut bdi = Bdi::new();
        let mut packed = Vec::new();
        let n = bdi.compress(&input, &mut packed);
        prop_assert!(n <= bdi.max_compressed_len(input.len()));
        let mut out = Vec::new();
        bdi.decompress(&packed, &mut out, input.len()).unwrap();
        prop_assert_eq!(&out, &input);
    }

    #[test]
    fn bdi_decoder_survives_corruption(
        input in adversarial_bdi(),
        flip_byte in 0usize..4200,
        flip_bit in 0u8..8,
        expected_skew in 0usize..128,
    ) {
        let mut bdi = Bdi::new();
        let mut packed = Vec::new();
        bdi.compress(&input, &mut packed);
        if packed.is_empty() {
            return Ok(());
        }
        let idx = flip_byte % packed.len();
        packed[idx] ^= 1 << flip_bit;
        let expected = (input.len() + expected_skew).saturating_sub(64);
        let mut out = Vec::new();
        // Detection is the extent CRC's job; the decoder's contract here
        // is only: no panic, no wrong-length success.
        if bdi.decompress(&packed, &mut out, expected).is_ok() {
            prop_assert_eq!(out.len(), expected);
        }
    }

    /// The adaptive-selection contract (whatever the probe decides): the
    /// sealed bytes decode back byte-for-byte under the codec the
    /// selection names, the sealed size never exceeds the policy-wide
    /// scratch bound, and an admitted page never exceeds the threshold's
    /// admit bound.
    #[test]
    fn selection_roundtrips_and_respects_bounds(
        input in adversarial_bdi(),
        num in 2u32..8,
    ) {
        let threshold = ThresholdPolicy::new(num, num - 1);
        let mut set = CodecSet::new();
        for policy in CodecPolicy::all() {
            let mut packed = Vec::new();
            let sel = set.compress_with_policy(policy, threshold, &input, &mut packed);
            prop_assert_eq!(sel.len, packed.len());
            prop_assert!(sel.len <= set.max_compressed_len(policy, input.len()));
            if sel.admitted {
                prop_assert!(
                    sel.len <= threshold.max_compressed_len(input.len()),
                    "admitted {} bytes over the {} admit bound under {:?}",
                    sel.len,
                    threshold.max_compressed_len(input.len()),
                    policy
                );
            }
            let mut out = vec![0u8; input.len()];
            decode_into(sel.codec, &packed, &mut out).unwrap();
            prop_assert_eq!(&out, &input, "policy {:?} codec {}", policy, sel.codec.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The route contract over arbitrary bytes, page-like inputs and
    /// BDI's edge cases, at every length up to 8 KiB: the classifier's
    /// route handed back as the hint seals exactly what classifying
    /// inside does; the route a selection took reproduces it, fallback
    /// aside; a `Raw` route is the stored block unless the audit admits
    /// the page through LZRW1; and a page under 512 bytes is never
    /// predicted a reject.
    #[test]
    fn given_and_derived_routes_seal_alike(
        input in prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..8193),
            page_like(),
            adversarial_bdi(),
        ],
        num in 2u32..12,
        any_shrink in any::<bool>(),
    ) {
        let threshold = if any_shrink {
            ThresholdPolicy::any_shrink()
        } else {
            ThresholdPolicy::new(num, num - 1)
        };
        let admit = threshold.max_compressed_len(input.len());
        let route = classify(&input, admit);
        if input.len() < MIN_PREDICTED_LEN {
            prop_assert_ne!(route, Route::Raw);
        }
        let mut set = CodecSet::new();
        let mut seal = |hint| {
            let mut dst = vec![0xEE; 64];
            let sel = set.compress_with_hint(CodecPolicy::Adaptive, threshold, &input, &mut dst, hint);
            (sel, dst)
        };
        let (derived, derived_bytes) = seal(None);
        prop_assert_eq!(seal(Some(route)), (derived, derived_bytes.clone()));
        let remembered = Selection { fell_back: false, ..derived };
        prop_assert_eq!(seal(Some(derived.route())), (remembered, derived_bytes));
        let (raw, raw_bytes) = seal(Some(Route::Raw));
        if raw.admitted {
            prop_assert_eq!(raw.codec, CodecId::Lzrw1);
        } else {
            let mut stored = Vec::new();
            prop_assert_eq!(raw, CodecSet::seal_rejected(&input, &mut stored));
            prop_assert_eq!(raw_bytes, stored);
        }
    }
}
