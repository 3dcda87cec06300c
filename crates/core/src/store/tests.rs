use std::sync::Arc;
use std::time::{Duration, Instant};

use super::extent::{encode_extent, verify_extent, EXTENT_HEADER};
use super::shard::{Entry, Residence, Set, Shard};
use super::*;
use crate::tier::TierPolicy;
use cc_compress::{same_filled_pattern, CodecId, CodecPolicy, Route};
use cc_telemetry::trace::Tracer;
use cc_util::slab::CHUNK;

/// A slot of a shard's arena.
type Slot = cc_util::slab::Slot<Entry>;

#[path = "../../tests/support/temp_path.rs"]
mod temp_path;
use temp_path::TempPath;

fn page(tag: u8) -> Vec<u8> {
    let mut p = vec![0u8; 4096];
    for (i, b) in p.iter_mut().enumerate() {
        *b = tag.wrapping_add((i / 97) as u8);
    }
    p
}

/// Bytes of a hex string (the golden on-disk records).
pub(crate) fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn extent_header_roundtrip_and_tamper_detection() {
    let payload: Vec<u8> = (0..777u32).map(|i| (i * 13 % 251) as u8).collect();
    let codec = CodecId::Lzrw1.as_u8();
    let mut ext = Vec::new();
    encode_extent(&mut ext, 42, codec, &payload);
    assert_eq!(ext.len(), EXTENT_HEADER + payload.len());
    assert_eq!(verify_extent(&ext, 42, codec), Some(&payload[..]));
    // Wrong generation: a stale or misdirected read.
    assert!(verify_extent(&ext, 43, codec).is_none());
    // Wrong codec: the entry and the extent disagree about how the
    // payload was sealed — never decode.
    assert!(verify_extent(&ext, 42, CodecId::Bdi.as_u8()).is_none());
    // Truncated extent (torn write).
    assert!(verify_extent(&ext[..ext.len() - 1], 42, codec).is_none());
    assert!(verify_extent(&ext[..EXTENT_HEADER - 1], 42, codec).is_none());
    // Any single bit flip — header (including the codec byte and its
    // padding) or payload — is caught.
    let mut tampered = ext.clone();
    for byte in 0..ext.len() {
        for bit in 0..8 {
            tampered[byte] ^= 1 << bit;
            assert!(
                verify_extent(&tampered, 42, codec).is_none(),
                "flip at {byte}:{bit} undetected"
            );
            tampered[byte] ^= 1 << bit;
        }
    }
    assert_eq!(tampered, ext);
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

    /// `verify_extent` is total: any bytes under any generation and
    /// codec give `None` or the input's own tail, so it never panics and
    /// never allocates. With `sealed` the bytes past the header are
    /// sealed as a valid extent of that generation and codec, so the
    /// field and CRC checks are reached and the payload comes back.
    #[test]
    fn verify_extent_accepts_any_bytes(
        bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200),
        gen in proptest::prelude::any::<u64>(),
        codec in proptest::prelude::any::<u8>(),
        sealed in proptest::prelude::any::<bool>(),
    ) {
        let mut ext = bytes;
        if sealed && ext.len() >= EXTENT_HEADER {
            let payload = ext.split_off(EXTENT_HEADER);
            ext.clear();
            encode_extent(&mut ext, gen, codec, &payload);
            proptest::prop_assert_eq!(verify_extent(&ext, gen, codec), Some(&payload[..]));
            proptest::prop_assert_eq!(verify_extent(&ext, gen ^ 1, codec), None);
        }
        if let Some(p) = verify_extent(&ext, gen, codec) {
            proptest::prop_assert_eq!(p.as_ptr(), ext[EXTENT_HEADER..].as_ptr());
            proptest::prop_assert_eq!(p.len(), ext.len() - EXTENT_HEADER);
        }
    }
}

/// An extent written by the build before the CRC kernel took 16
/// bytes a step (payload `(i * 37 + 11) % 251`, 45 bytes): it must
/// still verify, and encoding must reproduce it byte for byte —
/// nothing already on a spill file changes meaning.
#[test]
fn golden_extent_from_the_bytewise_crc_build() {
    const GOLDEN: &str = "02e05ecc2d000000efcdab8967452301050000002a2ef99b\
        0b30557a9fc4e913385d82a7ccf11b40658aafd4f923486d92b7dc062b50759abfe40e33587da2c7ec163b6085";
    let golden = unhex(GOLDEN);
    let payload: Vec<u8> = (0..45u32).map(|i| ((i * 37 + 11) % 251) as u8).collect();
    let (gen, codec) = (0x0123_4567_89AB_CDEF, CodecId::Bdi.as_u8());
    assert_eq!(verify_extent(&golden, gen, codec), Some(&payload[..]));
    let mut ext = Vec::new();
    encode_extent(&mut ext, gen, codec, &payload);
    assert_eq!(ext, golden);
}

/// Regression (format versioning): a first-format extent — 20-byte header
/// without a codec id, CRC over the payload only, magic `..E001` —
/// must be rejected outright, not misdecoded with a guessed codec.
#[test]
fn old_format_extent_is_rejected_as_corrupt() {
    let payload: Vec<u8> = (0..777u32).map(|i| (i * 13 % 251) as u8).collect();
    let gen = 42u64;
    let mut v1 = Vec::new();
    v1.extend_from_slice(&0xCC5E_E001u32.to_le_bytes());
    v1.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    v1.extend_from_slice(&gen.to_le_bytes());
    v1.extend_from_slice(&cc_util::crc32(&payload).to_le_bytes());
    v1.extend_from_slice(&payload);
    for codec in 0..=u8::MAX {
        assert!(
            verify_extent(&v1, gen, codec).is_none(),
            "v1 extent accepted under codec {codec}"
        );
    }
}

/// A page of 8-byte words clustered near one base — the BDI sweet
/// spot (pointer-array-like data that LZRW1 handles poorly).
fn bdi_page(tag: u8) -> Vec<u8> {
    let base = 0x7f00_dead_0000u64 + ((tag as u64) << 16);
    let mut p = Vec::with_capacity(4096);
    for i in 0..512u64 {
        p.extend_from_slice(&(base + (i * 37 + tag as u64 * 11) % 120).to_le_bytes());
    }
    p
}

#[test]
fn adaptive_policy_routes_bdi_pages_and_falls_back() {
    let store = CompressedStore::new(StoreConfig::in_memory(1 << 20));
    assert_eq!(store.core.cfg.codec_policy, CodecPolicy::Adaptive);
    let mut out = vec![0u8; 4096];
    // Word-patterned pages go through BDI...
    for k in 0..16u64 {
        store.put(k, &bdi_page(k as u8)).unwrap();
    }
    // ...while byte-ramp pages (not BDI-able) take LZRW1.
    for k in 16..32u64 {
        store.put(k, &page(k as u8)).unwrap();
    }
    store.flush().unwrap();
    let s = store.stats();
    assert_eq!(s.puts_bdi, 16, "{s:?}");
    assert_eq!(s.puts_lzrw1, 16, "{s:?}");
    // BDI packs 512 clustered words into ~523 bytes.
    assert!(s.bdi_out_bytes < s.bdi_in_bytes / 4, "{s:?}");
    for k in 0..16u64 {
        assert!(store.get(k, &mut out).unwrap());
        assert_eq!(out, bdi_page(k as u8), "key {k}");
    }
    for k in 16..32u64 {
        assert!(store.get(k, &mut out).unwrap());
        assert_eq!(out, page(k as u8), "key {k}");
    }
}

#[test]
fn codec_policy_pins_the_codec() {
    let mut out = vec![0u8; 4096];
    // lzrw1-only never runs BDI, even on its best-case input.
    let store = CompressedStore::new(
        StoreConfig::in_memory(1 << 20).with_codec_policy(CodecPolicy::Lzrw1Only),
    );
    for k in 0..8u64 {
        store.put(k, &bdi_page(k as u8)).unwrap();
    }
    store.flush().unwrap();
    let s = store.stats();
    assert_eq!(s.puts_bdi, 0, "{s:?}");
    assert!(s.puts_lzrw1 + s.stored_raw == 8, "{s:?}");
    for k in 0..8u64 {
        assert!(store.get(k, &mut out).unwrap());
        assert_eq!(out, bdi_page(k as u8), "key {k}");
    }
    // Adaptive routes the same pages to BDI, and the byte-ramp page
    // (not BDI-able) to LZRW1.
    let store = CompressedStore::new(
        StoreConfig::in_memory(1 << 20).with_codec_policy(CodecPolicy::Adaptive),
    );
    for k in 0..8u64 {
        store.put(k, &bdi_page(k as u8)).unwrap();
    }
    store.put(99, &page(7)).unwrap();
    store.flush().unwrap();
    let s = store.stats();
    assert_eq!(s.puts_lzrw1, 1, "{s:?}");
    assert_eq!(s.puts_bdi, 8, "{s:?}");
    for k in 0..8u64 {
        assert!(store.get(k, &mut out).unwrap());
        assert_eq!(out, bdi_page(k as u8), "key {k}");
    }
    assert!(store.get(99, &mut out).unwrap());
    assert_eq!(out, page(7));
}

#[test]
fn codec_id_survives_spill_and_gc() {
    let path = TempPath::new("codecid");
    {
        // Tiny budget + tiny batches + aggressive GC: BDI-sealed
        // extents are spilled, relocated by compaction, and must still
        // decode with the codec recorded at seal time.
        let store = CompressedStore::new(
            StoreConfig::with_spill(4 * 1024, &*path)
                .with_spill_batch_bytes(2 * 1024)
                .with_gc_dead_ratio(0.3),
        );
        const KEYS: u64 = 24;
        let mut last_round = 0u64;
        for round in 0..200u64 {
            for k in 0..KEYS {
                // Mix codecs so relocated batches carry both ids.
                if k % 2 == 0 {
                    store.put(k, &bdi_page((k + round) as u8)).unwrap();
                } else {
                    store.put(k, &page((k + round) as u8)).unwrap();
                }
            }
            last_round = round;
            if round >= 39 {
                store.flush().unwrap();
                if store.stats().gc_runs > 0 {
                    break;
                }
            }
        }
        let s = store.stats();
        assert!(s.gc_runs > 0, "churn never triggered GC: {s:?}");
        assert!(s.puts_bdi > 0 && s.puts_lzrw1 > 0, "{s:?}");
        let mut out = vec![0u8; 4096];
        let mut disk_hits = 0;
        for k in 0..KEYS {
            let tier = store.get_tier(k, &mut out).unwrap();
            assert!(tier.is_some(), "key {k} lost");
            let want = if k % 2 == 0 {
                bdi_page((k + last_round) as u8)
            } else {
                page((k + last_round) as u8)
            };
            assert_eq!(out, want, "key {k} corrupted");
            if tier == Some(HitTier::Spill) {
                disk_hits += 1;
            }
        }
        assert!(disk_hits > 0, "nothing read back from disk: {s:?}");
        assert_eq!(store.stats().corrupt_detected, 0);
    }
}

#[test]
fn put_get_roundtrip() {
    let store = CompressedStore::new(StoreConfig::in_memory(1 << 20));
    for k in 0..32u64 {
        store.put(k, &page(k as u8)).unwrap();
    }
    let mut out = vec![0u8; 4096];
    for k in 0..32u64 {
        assert!(store.get(k, &mut out).unwrap());
        assert_eq!(out, page(k as u8), "key {k}");
    }
    assert!(!store.get(999, &mut out).unwrap());
    store.flush().unwrap();
    let s = store.stats();
    assert_eq!(s.compressed, 32);
    assert_eq!(s.misses, 1);
    assert!(s.resident_bytes > 0 && s.resident_bytes < 32 * 4096);
}

#[test]
fn replace_and_remove() {
    let store = CompressedStore::new(StoreConfig::in_memory(1 << 20));
    store.put(1, &page(1)).unwrap();
    store.put(1, &page(2)).unwrap();
    let mut out = vec![0u8; 4096];
    store.get(1, &mut out).unwrap();
    assert_eq!(out, page(2));
    assert!(store.remove(1));
    assert!(!store.remove(1));
    assert!(store.is_empty());
    assert_eq!(store.stats().resident_bytes, 0);
}

#[test]
fn raw_pages_counted_and_returned() {
    let store = CompressedStore::new(StoreConfig::in_memory(1 << 20));
    let mut rng = cc_util::SplitMix64::new(5);
    let noise: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
    store.put(7, &noise).unwrap();
    assert_eq!(store.stats().stored_raw, 1);
    let mut out = vec![0u8; 4096];
    assert!(store.get(7, &mut out).unwrap());
    assert_eq!(out, noise);
}

#[test]
fn out_of_memory_without_spill() {
    let store = CompressedStore::new(StoreConfig::in_memory(2048));
    let mut rng = cc_util::SplitMix64::new(9);
    let noise: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
    let err = store.put(1, &noise).unwrap_err();
    assert!(matches!(err, StoreError::OutOfMemory));
}

#[test]
fn page_size_is_enforced() {
    let store = CompressedStore::new(StoreConfig::in_memory(1 << 20));
    store.put(1, &page(1)).unwrap();
    let err = store.put(2, &vec![0u8; 2048]).unwrap_err();
    assert!(matches!(err, StoreError::BadPageSize { .. }));
}

#[test]
fn shard_count_resolves_to_power_of_two() {
    for (requested, expect) in [(1, 1), (2, 2), (3, 4), (8, 8), (9, 16)] {
        let store = CompressedStore::new(StoreConfig::in_memory(1 << 20).with_shards(requested));
        assert_eq!(store.shard_count(), expect, "requested {requested}");
    }
    let auto = CompressedStore::new(StoreConfig::in_memory(1 << 20));
    assert!(auto.shard_count().is_power_of_two());
}

/// The shard and the map bucket are drawn from different bits of one
/// mix: at 64 shards, one shard's keys still start their map probes at
/// every residue modulo 64, not only at the shard's own.
#[test]
fn a_shards_keys_spread_over_every_map_residue() {
    use std::hash::BuildHasher;
    let store = CompressedStore::new(StoreConfig::in_memory(1 << 20).with_shards(64));
    let hasher = std::hash::BuildHasherDefault::<super::shard::KeyHasher>::default();
    let mut residues = [0u32; 64];
    for key in (0..1u64 << 18).filter(|&k| store.core.shard_index(k) == 5) {
        residues[(hasher.hash_one(key) % 64) as usize] += 1;
    }
    let total: u32 = residues.iter().sum();
    assert!(total > 3000, "shard 5 drew {total} of 262 144 keys");
    assert!(
        residues.iter().all(|&n| n > 0),
        "map residues of shard 5's keys: {residues:?}"
    );
}

#[test]
fn single_shard_still_works() {
    let store = CompressedStore::new(StoreConfig::in_memory(1 << 20).with_shards(1));
    for k in 0..64u64 {
        store.put(k, &page(k as u8)).unwrap();
    }
    let mut out = vec![0u8; 4096];
    for k in 0..64u64 {
        assert!(store.get(k, &mut out).unwrap());
        assert_eq!(out, page(k as u8));
    }
}

#[test]
fn same_filled_detection() {
    // Repeated word, any alignment of content.
    assert_eq!(same_filled_pattern(&[0u8; 4096]), Some(0));
    let word = [1u8, 2, 3, 4, 5, 6, 7, 8];
    let repeated: Vec<u8> = word.iter().copied().cycle().take(4096).collect();
    assert_eq!(
        same_filled_pattern(&repeated),
        Some(u64::from_ne_bytes(word))
    );
    // Length not a multiple of the word: tail must match the prefix.
    let odd: Vec<u8> = word.iter().copied().cycle().take(4093).collect();
    assert_eq!(same_filled_pattern(&odd), Some(u64::from_ne_bytes(word)));
    let mut bad_tail = odd.clone();
    *bad_tail.last_mut().unwrap() ^= 1;
    assert_eq!(same_filled_pattern(&bad_tail), None);
    // One byte off anywhere defeats the pattern.
    let mut near = repeated.clone();
    near[2048] ^= 0x80;
    assert_eq!(same_filled_pattern(&near), None);
    // Shorter than a word: all-equal qualifies.
    assert_eq!(
        same_filled_pattern(&[9u8; 5]),
        Some(u64::from_ne_bytes([9; 8]))
    );
    assert_eq!(same_filled_pattern(&[9, 9, 8, 9, 9]), None);
    assert_eq!(same_filled_pattern(&[]), None);
}

#[test]
fn same_filled_pages_bypass_compressor_and_budget() {
    let store = CompressedStore::new(StoreConfig::in_memory(1 << 20));
    store.put(1, &vec![0u8; 4096]).unwrap();
    store.put(2, &vec![0xABu8; 4096]).unwrap();
    let word: Vec<u8> = [1u8, 2, 3, 4, 5, 6, 7, 8]
        .iter()
        .copied()
        .cycle()
        .take(4096)
        .collect();
    store.put(3, &word).unwrap();
    let s = store.stats();
    assert_eq!(s.same_filled, 3);
    assert_eq!(s.compressed, 0);
    assert_eq!(s.resident_bytes, 0, "same-filled pages cost no budget");
    let mut out = vec![0u8; 4096];
    assert_eq!(
        store.get_tier(1, &mut out).unwrap(),
        Some(HitTier::SameFilled)
    );
    assert_eq!(out, vec![0u8; 4096]);
    assert!(store.get(2, &mut out).unwrap());
    assert_eq!(out, vec![0xABu8; 4096]);
    assert!(store.get(3, &mut out).unwrap());
    assert_eq!(out, word);
    // Replacing a same-filled page with a normal one and back works.
    store.put(1, &page(5)).unwrap();
    assert!(store.get(1, &mut out).unwrap());
    assert_eq!(out, page(5));
    store.put(1, &vec![7u8; 4096]).unwrap();
    assert_eq!(
        store.get_tier(1, &mut out).unwrap(),
        Some(HitTier::SameFilled)
    );
    assert_eq!(out, vec![7u8; 4096]);
}

#[test]
fn same_filled_odd_page_size_roundtrip() {
    // 1021 is not a multiple of 8: the pattern tail is partial.
    let store = CompressedStore::new(StoreConfig::in_memory(1 << 20));
    let word = [0xDEu8, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4];
    let pg: Vec<u8> = word.iter().copied().cycle().take(1021).collect();
    store.put(1, &pg).unwrap();
    assert_eq!(store.stats().same_filled, 1);
    let mut out = vec![0u8; 1021];
    assert_eq!(
        store.get_tier(1, &mut out).unwrap(),
        Some(HitTier::SameFilled)
    );
    assert_eq!(out, pg);
    // A near-pattern of the same size takes the compressor path.
    let mut near = pg.clone();
    near[500] ^= 1;
    store.put(2, &near).unwrap();
    let s = store.stats();
    assert_eq!(s.same_filled, 1);
    assert_eq!(s.compressed + s.stored_raw, 1);
    assert!(store.get(2, &mut out).unwrap());
    assert_eq!(out, near);
}

#[test]
fn spills_to_file_and_reads_back() {
    let path = TempPath::new("test");
    {
        // Budget fits only a handful of compressed pages.
        let store = CompressedStore::new(StoreConfig::with_spill(8 * 1024, &*path));
        for k in 0..64u64 {
            store.put(k, &page(k as u8)).unwrap();
        }
        store.flush().unwrap();
        let s = store.stats();
        assert!(s.spilled > 0, "must have spilled: {s:?}");
        assert!(s.resident_bytes <= 8 * 1024);
        assert!(s.spill_batches > 0, "spills imply batches: {s:?}");
        assert!(s.bytes_on_spill > 0);
        let mut out = vec![0u8; 4096];
        for k in 0..64u64 {
            assert!(store.get(k, &mut out).unwrap(), "key {k} lost");
            assert_eq!(out, page(k as u8), "key {k} corrupted");
        }
        assert!(store.stats().hits_spill > 0);
    }
}

/// A page of one-byte deltas from a base, which BDI seals to ~520
/// bytes.
fn delta_page(k: u64) -> Vec<u8> {
    (0..512u64)
        .flat_map(|i| ((k << 40) + i % 100).to_le_bytes())
        .collect()
}

#[test]
fn spill_batches_coalesce_entries() {
    // Every spill batch write is held until half the in-flight limit
    // (4 KiB of 8) is in flight. A batch stops once it holds 2 KiB, so
    // the held one carries at most ~2.1 KiB of payload and three or
    // more jobs wait behind it, which the next batch must take
    // together. So every batch but the first and the last carries ≥ 3,
    // whatever the threads' timing; a writer that sends one entry per
    // batch reads 1. The puts run on a thread of their own, so one that
    // waits on the held writer cannot keep this thread from releasing
    // it.
    let gate = Arc::new(Gate::new(Arc::new(MemMedium::new())));
    let cfg = StoreConfig::with_spill(32 * 1024, "/unused").with_spill_batch_bytes(2048);
    let half = cfg.spill_inflight_limit() as u64 / 2;
    let store = Arc::new(CompressedStore::with_medium(cfg, Arc::clone(&gate) as _));
    gate.arm();
    let putter = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            for k in 0..320u64 {
                store.put(k, &delta_page(k)).unwrap();
            }
        })
    };
    while !putter.is_finished() {
        if gate.held() && store.stats().spill_inflight_bytes >= half {
            gate.arm();
            gate.release();
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    gate.open();
    putter.join().unwrap();
    store.flush().unwrap();
    let s = store.stats();
    assert!(s.spilled >= 200, "expected heavy spilling: {s:?}");
    let per_batch = s.spilled as f64 / s.spill_batches.max(1) as f64;
    assert!(
        per_batch >= 2.0,
        "writer failed to coalesce: {} spills in {} batches",
        s.spilled,
        s.spill_batches
    );
    let mut out = vec![0u8; 4096];
    for k in 0..320u64 {
        assert!(store.get(k, &mut out).unwrap(), "key {k} lost");
        assert_eq!(out, delta_page(k), "key {k} corrupted");
    }
    store.check_invariants().unwrap();
}

/// An in-flight gauge wrapped below zero is the checker's to report: a
/// put that must spill finds the writer full and waits, rather than
/// overflowing the gauge's sum and panicking.
#[test]
fn a_wrapped_inflight_gauge_fails_the_checker_not_a_put() {
    let store = Arc::new(CompressedStore::with_medium(
        StoreConfig::with_spill(16 * 1024, "/unused"),
        Arc::new(MemMedium::new()),
    ));
    for k in 0..64u64 {
        store.put(k, &delta_page(k)).unwrap();
    }
    store.flush().unwrap();
    store.check_invariants().unwrap();
    // 9 bytes below zero, so adding any payload overflows.
    store
        .core
        .spill_inflight
        .store(usize::MAX - 8, Ordering::Relaxed);
    let putter = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || store.put(1000, &delta_page(1000)))
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while store.stats().put_backpressure_waits == 0 && !putter.is_finished() {
        assert!(Instant::now() < deadline, "the put never waited");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(!putter.is_finished(), "the put ended: {:?}", putter.join());
    let err = store.check_invariants().unwrap_err();
    assert!(err.contains("spill_inflight_bytes"), "{err}");
    // Mend the gauge, and wake the put as the writer would.
    store.core.spill_inflight.store(0, Ordering::Relaxed);
    {
        let _inbox = store.core.inbox();
        store.core.wake.notify_all();
    }
    putter.join().unwrap().unwrap();
    store.flush().unwrap();
    store.check_invariants().unwrap();
}

#[test]
fn flush_makes_partial_batch_readable() {
    let path = TempPath::new("midbatch");
    {
        // A batch target far larger than the data guarantees the
        // entries sit in a partially-filled batch; flush() must still
        // make them durable and readable.
        let store = CompressedStore::new(
            StoreConfig::with_spill(4 * 1024, &*path).with_spill_batch_bytes(1 << 20),
        );
        for k in 0..8u64 {
            store.put(k, &page(k as u8)).unwrap();
        }
        store.flush().unwrap();
        let s = store.stats();
        assert!(s.spilled > 0, "must have spilled: {s:?}");
        // After flush, nothing is mid-air: every spilled entry must be
        // servable from the file.
        let mut out = vec![0u8; 4096];
        let mut disk_hits = 0;
        for k in 0..8u64 {
            let tier = store.get_tier(k, &mut out).unwrap();
            assert!(tier.is_some(), "key {k} lost");
            assert_eq!(out, page(k as u8), "key {k} corrupted");
            if tier == Some(HitTier::Spill) {
                disk_hits += 1;
            }
        }
        assert!(disk_hits > 0, "flush left no entries on disk: {s:?}");
    }
}

#[test]
fn remove_and_replace_account_dead_bytes() {
    let path = TempPath::new("dead");
    {
        // GC disabled so the gauge is observable without compaction.
        let store =
            CompressedStore::new(StoreConfig::with_spill(4 * 1024, &*path).with_gc_dead_ratio(1e9));
        for k in 0..32u64 {
            store.put(k, &page(k as u8)).unwrap();
        }
        store.flush().unwrap();
        // So far only the batch summaries are dead (the checker counts
        // the live bytes exactly).
        store.check_invariants().unwrap();
        let summaries = store.stats().spill_dead_bytes;
        // Removing spilled entries strands their extents.
        for k in 0..8u64 {
            assert!(store.remove(k));
        }
        let after_remove = store.stats().spill_dead_bytes;
        assert!(
            after_remove > summaries,
            "removes must strand dead bytes: {summaries} -> {after_remove}"
        );
        // Replacing spilled entries strands their old extents too.
        for k in 8..16u64 {
            store.put(k, &page(100 + k as u8)).unwrap();
        }
        store.flush().unwrap();
        let after_replace = store.stats().spill_dead_bytes;
        assert!(
            after_replace > after_remove,
            "replaces must strand dead bytes: {after_remove} -> {after_replace}"
        );
    }
}

#[test]
fn gc_compacts_dead_space_and_preserves_data() {
    let path = TempPath::new("gc");
    {
        // Tiny batches + aggressive ratio so compaction triggers
        // repeatedly under replace churn.
        let store = CompressedStore::new(
            StoreConfig::with_spill(4 * 1024, &*path)
                .with_spill_batch_bytes(2 * 1024)
                .with_gc_dead_ratio(0.3),
        );
        const KEYS: u64 = 24;
        let mut total_spilled_bytes = 0u64;
        let mut last_round = 0u64;
        // 40 rounds of whole-keyspace replacement normally trigger
        // several GC passes, but on a loaded host the writer can lag:
        // queued spill jobs are superseded before they commit, so no
        // dead bytes strand and the trigger never fires. Flushing
        // between extra rounds forces the writer to catch up, making
        // the next round's replaces strand real extents — bounded so
        // a genuinely broken trigger still fails.
        for round in 0..200u64 {
            for k in 0..KEYS {
                store.put(k, &page((k + round) as u8)).unwrap();
                total_spilled_bytes += 1024; // rough lower bound per put
            }
            last_round = round;
            if round >= 39 {
                store.flush().unwrap();
                if store.stats().gc_runs > 0 {
                    break;
                }
            }
        }
        let s = store.stats();
        assert!(s.gc_runs > 0, "churn never triggered GC: {s:?}");
        // The file must stay near the live working set, far below the
        // total bytes ever written through it.
        assert!(
            s.bytes_on_spill < total_spilled_bytes / 4,
            "file not compacted: {} bytes on spill, ~{} written",
            s.bytes_on_spill,
            total_spilled_bytes
        );
        // Every key survives compaction with its latest contents.
        let mut out = vec![0u8; 4096];
        for k in 0..KEYS {
            assert!(store.get(k, &mut out).unwrap(), "key {k} lost");
            assert_eq!(out, page((k + last_round) as u8), "key {k} corrupted");
        }
        // The file never grows past the segments the table knows, and
        // cleaned segments are reused rather than appended after.
        let fs_len = std::fs::metadata(&*path).unwrap().len();
        let high_water = store.core.segments().high_water();
        assert!(
            fs_len <= high_water && high_water < total_spilled_bytes / 4,
            "fs={fs_len} segments end at {high_water}, ~{total_spilled_bytes} written"
        );
    }
}

/// Exact dead bytes under churn: two threads remove and re-put spilled
/// keys while the cleaner runs, and once nothing is in flight
/// `bytes_on_spill − spill_dead_bytes` is the live extents to the byte —
/// per segment too (`check_invariants` checks both). A remove racing a
/// cleaning step is counted once, in the segment its entry named.
#[test]
fn dead_bytes_stay_exact_while_removes_race_the_cleaner() {
    let path = TempPath::new("exactdead");
    {
        let store = Arc::new(CompressedStore::new(
            StoreConfig::with_spill(4 * 1024, &*path)
                .with_spill_batch_bytes(1)
                .with_gc_dead_ratio(0.2),
        ));
        const KEYS: u64 = 64;
        for k in 0..KEYS {
            store.put(k, &page(k as u8)).unwrap();
        }
        store.flush().unwrap();
        let handles: Vec<_> = (0..2u64)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for round in 0..30u64 {
                        for k in (t..KEYS).step_by(2) {
                            if (k + round) % 3 == 0 {
                                store.remove(k);
                            }
                            store.put(k, &page((k + round) as u8)).unwrap();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        store.flush().unwrap();
        store.check_invariants().unwrap();
        let s = store.stats();
        assert!(s.gc_runs > 0, "the cleaner never ran: {s:?}");
        let live: u64 = store
            .core
            .shards
            .iter()
            .flat_map(|sh| {
                let sh = sh.0.lock().unwrap();
                sh.iter()
                    .filter_map(|e| match e.residence {
                        Residence::Spilled { len, .. } => Some(len as u64),
                        _ => None,
                    })
                    .collect::<Vec<_>>()
            })
            .sum();
        assert!(live > 0, "nothing stayed on the file: {s:?}");
        // Quiescent: `flush` returned, and only the cleaner may still run
        // — it keeps the identity at every step.
        let s = store.stats();
        assert_eq!(s.bytes_on_spill - s.spill_dead_bytes, live, "{s:?}");
        let mut out = vec![0u8; 4096];
        for k in 0..KEYS {
            assert!(store.get(k, &mut out).unwrap(), "key {k} lost");
            assert_eq!(out, page((k + 29) as u8), "key {k} corrupted");
        }
    }
}

/// A page larger than a segment still spills: one-byte batches make the
/// segments the 16 KiB floor, so each 40 KiB noise page takes a run of
/// three. Replacing the pages kills whole runs, which the cleaner frees
/// without copying and later runs reuse, so the file stays near the
/// eight live runs.
#[test]
fn pages_larger_than_a_segment_spill_in_runs() {
    let path = TempPath::new("runs");
    {
        let store = CompressedStore::new(
            StoreConfig::with_spill(48 * 1024, &*path)
                .with_spill_batch_bytes(1)
                .with_gc_dead_ratio(0.3),
        );
        assert_eq!(store.spill_segment_bytes(), Some(16 * 1024));
        let big = |k: u64, v: u64| -> Vec<u8> {
            let mut rng = cc_util::SplitMix64::new(k * 1000 + v);
            (0..40 * 1024).map(|_| rng.next_u64() as u8).collect()
        };
        for v in 0..6u64 {
            for k in 0..8u64 {
                store.put(k, &big(k, v)).unwrap();
            }
            store.flush().unwrap();
            store.check_invariants().unwrap();
        }
        let s = store.stats();
        assert!(s.gc_runs > 0, "dead runs were never freed: {s:?}");
        let high_water = store.core.segments().high_water();
        assert!(
            high_water <= crate::persist::SUPERBLOCK_RESERVED + 2 * 8 * 48 * 1024,
            "runs were not reused: segments end at {high_water} ({s:?})"
        );
        let mut out = vec![0u8; 40 * 1024];
        for k in 0..8u64 {
            assert!(store.get(k, &mut out).unwrap(), "key {k} lost");
            assert_eq!(out, big(k, 5), "key {k} corrupted");
        }
    }
}

#[test]
fn telemetry_snapshot_covers_tiers_and_events() {
    use cc_telemetry::LATENCY_SAMPLE_PERIOD;
    let path = TempPath::new("tel");
    {
        let tracer = Arc::new(Tracer::builder().sample_every(1).sink_memory().build());
        let store = CompressedStore::new(
            StoreConfig::with_spill(8 * 1024, &*path)
                .with_spill_batch_bytes(2 * 1024)
                .with_tracer(Arc::clone(&tracer)),
        );
        // Traced requests are always timed: every one of these is in
        // its histogram, so the counts are exact.
        for k in 0..64u64 {
            store
                .put_traced(k, &page(k as u8), tracer.sample())
                .unwrap();
        }
        store
            .put_traced(100, &vec![0u8; 4096], tracer.sample())
            .unwrap();
        store.flush().unwrap();
        let mut out = vec![0u8; 4096];
        assert!(store.get_traced(100, &mut out, tracer.sample()).unwrap());
        let snap = store.telemetry_snapshot();
        let put = snap.op("put").unwrap();
        assert_eq!(put.count, 65);
        assert_ne!(put.max_trace, 0, "{put:?}");
        assert_eq!(snap.op("get_same_filled").unwrap().count, 1);
        assert_eq!(snap.op("compress_lzrw1").unwrap().count, 64);

        // Untraced requests are sampled, by a hash of their stamp.
        const ROUNDS: u64 = 8;
        for round in 1..=ROUNDS {
            for k in 0..64u64 {
                store.put(k, &page((k + round) as u8)).unwrap();
            }
        }
        store.flush().unwrap();
        for _ in 0..ROUNDS {
            for k in 0..64u64 {
                assert!(store.get(k, &mut out).unwrap());
            }
        }
        assert_eq!(
            store.get_tier(100, &mut out).unwrap(),
            Some(HitTier::SameFilled)
        );
        assert!(!store.get(999, &mut out).unwrap());

        // Counters and gauges are never sampled.
        let snap = store.telemetry_snapshot();
        let (puts, gets) = (64 * ROUNDS, 64 * ROUNDS + 1);
        assert_eq!(snap.counter("compressed"), Some(64 + puts));
        assert_eq!(snap.counter("same_filled"), Some(1));
        assert_eq!(snap.counter("misses"), Some(1));
        let hits = ["hits_hot", "hits_memory", "hits_spill"].map(|c| snap.counter(c).unwrap());
        assert_eq!(hits.iter().sum::<u64>(), gets + 1, "{hits:?}");
        assert!(snap.counter("spill_batches").unwrap() > 0);
        assert!(snap.counter("spilled").unwrap() > 0);
        assert!(snap.gauges.iter().any(|(n, _)| *n == "bytes_on_spill"));
        assert!(snap
            .gauges
            .iter()
            .any(|(n, _)| *n == "spill_inflight_bytes"));
        assert!(snap.counter("put_backpressure_waits").is_some());
        assert!(snap
            .gauges
            .contains(&("latency_sample_period", LATENCY_SAMPLE_PERIOD)));

        // Every foreground histogram has samples, never more than
        // there were operations, in order.
        let sampled_puts = snap.op("put").unwrap().count - 65;
        assert!(
            (puts / (2 * LATENCY_SAMPLE_PERIOD)..=2 * puts / LATENCY_SAMPLE_PERIOD)
                .contains(&sampled_puts),
            "{sampled_puts} of {puts} untraced puts timed"
        );
        let sampled_same_filled = snap.op("get_same_filled").unwrap().count - 1;
        assert!(sampled_same_filled <= 1);
        for (op, at_most) in [
            ("put", 65 + puts),
            ("compress_lzrw1", 64 + puts),
            ("get_memory", hits[1]),
            ("get_spill", hits[2]),
            ("spill_read", hits[2]),
            ("spill_verify", hits[2]),
            ("decompress_lzrw1", hits[1] + hits[2]),
        ] {
            let h = snap.op(op).unwrap();
            assert!(0 < h.count && h.count <= at_most, "{op}: {h:?}");
            assert!(h.p50 <= h.p99 && h.p99 <= h.max, "{op}: {h:?}");
        }
        // The checksum pass is a sub-step of the read it follows, on
        // the same timing decision, named in every rendering.
        assert!(snap.op("spill_verify").unwrap().count <= snap.op("spill_read").unwrap().count);
        let prom = snap.to_prometheus("cc_store");
        let help = prom
            .lines()
            .find(|l| l.starts_with("# HELP cc_store_spill_verify_latency_ns "))
            .expect("spill_verify family");
        assert!(help.contains("sampled 1 in"), "{help}");
        assert!(snap.render_text().contains("spill_verify"));
        // The writer thread times every batch.
        assert_eq!(
            snap.op("spill_write").unwrap().count,
            snap.counter("spill_batches").unwrap()
        );
        // Stats and telemetry are the same counters, not two books.
        let s = store.stats();
        assert_eq!(s.compressed, 64 + puts);
        assert_eq!(s.hits_spill, snap.counter("hits_spill").unwrap());
    }
}

#[test]
fn telemetry_disabled_keeps_stats_exact() {
    let store = CompressedStore::new(StoreConfig::in_memory(1 << 20).with_telemetry(false));
    for k in 0..16u64 {
        store.put(k, &page(k as u8)).unwrap();
    }
    let mut out = vec![0u8; 4096];
    for k in 0..16u64 {
        assert!(store.get(k, &mut out).unwrap());
    }
    store.flush().unwrap();
    let s = store.stats();
    assert_eq!(s.compressed, 16);
    assert_eq!(s.hits_memory, 16);
    let snap = store.telemetry_snapshot();
    assert_eq!(snap.op("put").unwrap().count, 0, "sampling must be off");
    assert_eq!(snap.counter("compressed"), Some(16), "counters stay live");
}

/// The timing contract of one op, crossed: telemetry {on, off} ×
/// {traced, untraced} on put, warm get and cold get. A traced op records
/// its whole span tree — `store_put` over `compress`, `store_get` over
/// `spill_read` when cold — with telemetry on or off, and is timed iff
/// telemetry is on; an untraced op records no span and is timed at the
/// hashed rate, never with telemetry off.
#[test]
fn traced_ops_span_whatever_telemetry_and_untraced_ops_sample() {
    use super::stats::top;
    use cc_telemetry::trace::{orphan_spans, sop, TraceCtx};
    use cc_telemetry::LATENCY_SAMPLE_PERIOD;
    const KEYS: u64 = 256;
    for telemetry in [true, false] {
        for traced in [true, false] {
            let arm = format!("telemetry {telemetry}, traced {traced}");
            let path = TempPath::new("timing-contract");
            let tracer = Arc::new(Tracer::builder().sample_every(1).build());
            // Flat policy: every put seals inline and no get promotes.
            let store = CompressedStore::new(
                StoreConfig::with_spill(16 * 1024, &*path)
                    .with_tier_policy(TierPolicy::COMPRESS_ALL)
                    .with_telemetry(telemetry)
                    .with_tracer(Arc::clone(&tracer)),
            );
            let ctx = || {
                if traced {
                    tracer.sample()
                } else {
                    TraceCtx::NONE
                }
            };
            for k in 0..KEYS {
                store.put_traced(k, &page(k as u8), ctx()).unwrap();
            }
            store.flush().unwrap();
            let mut out = vec![0u8; 4096];
            let (mut warm, mut cold) = (0, 0);
            for k in 0..KEYS {
                match store.peek_tier(k) {
                    Some(HitTier::Memory) => warm += 1,
                    Some(HitTier::Spill) => cold += 1,
                    tier => panic!("{arm}: key {k} in {tier:?}"),
                }
                assert!(store.get_traced(k, &mut out, ctx()).unwrap());
                assert_eq!(out, page(k as u8), "{arm}: key {k}");
            }
            assert!(warm > 0 && cold > 0, "{arm}: {warm} warm, {cold} cold gets");

            let spans: Vec<_> = tracer
                .spans()
                .into_iter()
                .filter(|s| s.trace_id != 0)
                .collect();
            assert!(!tracer.wrapped(), "{arm}");
            let count = |op| spans.iter().filter(|s| s.op == op).count() as u64;
            let want = |n: u64| if traced { n } else { 0 };
            assert_eq!(count(sop::STORE_PUT), want(KEYS), "{arm}");
            assert_eq!(count(sop::COMPRESS), want(KEYS), "{arm}");
            assert_eq!(count(sop::STORE_GET), want(KEYS), "{arm}");
            assert_eq!(count(sop::SPILL_READ), want(cold), "{arm}");
            assert_eq!(orphan_spans(&spans), 0, "{arm}");
            for s in &spans {
                let parent = spans.iter().find(|p| p.span_id == s.parent);
                let want_parent = match s.op {
                    sop::COMPRESS | sop::SPILL_WRITE => Some(sop::STORE_PUT),
                    sop::SPILL_READ => Some(sop::STORE_GET),
                    _ => None,
                };
                assert_eq!(parent.map(|p| p.op), want_parent, "{arm}: {s:?}");
            }

            let snap = store.telemetry_snapshot();
            let samples = |op| snap.op(op).unwrap().count;
            let gets = samples("get_memory") + samples("get_spill");
            let foreground = top::NAMES
                .iter()
                .enumerate()
                .filter(|(i, _)| !top::BACKGROUND.contains(i))
                .map(|(_, &op)| samples(op))
                .sum::<u64>();
            match (telemetry, traced) {
                (false, _) => assert_eq!(foreground, 0, "{arm}"),
                (true, true) => {
                    assert_eq!(samples("put"), KEYS, "{arm}");
                    assert_eq!(samples("get_memory"), warm, "{arm}");
                    assert_eq!(samples("get_spill"), cold, "{arm}");
                    assert_eq!(samples("spill_read"), cold, "{arm}");
                }
                (true, false) => {
                    let rate =
                        KEYS / (2 * LATENCY_SAMPLE_PERIOD)..=2 * KEYS / LATENCY_SAMPLE_PERIOD;
                    assert!(rate.contains(&samples("put")), "{arm}: {}", samples("put"));
                    assert!(rate.contains(&gets), "{arm}: {gets} gets timed");
                }
            }
            store.shutdown();
        }
    }
}

/// The exported schema, in order: STATS, Prometheus and the text table
/// render these names as they stand, so a rename or a reorder must show
/// here.
#[test]
fn telemetry_schema_names_are_pinned() {
    let snap = CompressedStore::new(StoreConfig::in_memory(1 << 20)).telemetry_snapshot();
    let names = |v: &[(&str, u64)]| v.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(" ");
    assert_eq!(
        names(&snap.counters),
        "compressed stored_raw same_filled hits_memory hits_spill misses spilled \
         spill_batches gc_runs gc_bytes_relocated spill_fallback_resident shed_pages \
         corrupt_detected io_retries degraded_entered degraded_recovered medium_probes \
         puts_lzrw1 puts_bdi codec_fallbacks lzrw1_in_bytes lzrw1_out_bytes bdi_in_bytes \
         bdi_out_bytes hits_hot puts_hot promotions promotions_rejected demoted_hot \
         demoted_warm demoter_passes extents_recovered summary_records_replayed \
         torn_tail_discarded stale_generation_dropped recovery_extents_verified \
         clean_recoveries put_backpressure_waits invariant_violations reject_predicted reject_mispredicted \
         seals_deferred"
    );
    let ops: Vec<&str> = snap.ops.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        ops.join(" "),
        "put get_memory get_same_filled get_spill spill_write spill_read gc_pause \
         compress_lzrw1 compress_bdi decompress_lzrw1 decompress_bdi get_hot promote \
         demote_pause recovery_duration spill_verify"
    );
    assert_eq!(
        snap.sampled_ops.join(" "),
        "put get_memory get_same_filled get_spill spill_read compress_lzrw1 compress_bdi \
         decompress_lzrw1 decompress_bdi get_hot promote spill_verify"
    );
    assert_eq!(
        names(&snap.gauges),
        "uptime_seconds latency_sample_period resident_bytes hot_resident_bytes \
         warm_resident_bytes bytes_on_spill spill_dead_bytes spill_inflight_bytes degraded"
    );
}

#[test]
fn shutdown_then_reads_still_work() {
    let path = TempPath::new("shut");
    {
        let store = CompressedStore::new(StoreConfig::with_spill(8 * 1024, &*path));
        for k in 0..32u64 {
            store.put(k, &page(k as u8)).unwrap();
        }
        store.shutdown();
        let mut out = vec![0u8; 4096];
        for k in 0..32u64 {
            assert!(store.get(k, &mut out).unwrap(), "key {k} lost");
            assert_eq!(out, page(k as u8));
        }
    }
}

#[test]
fn concurrent_threads_round_trip() {
    let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(64 << 20)));
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let store = Arc::clone(&store);
        handles.push(std::thread::spawn(move || {
            let base = t * 10_000;
            let mut out = vec![0u8; 4096];
            for i in 0..500u64 {
                let key = base + i;
                store.put(key, &page((key % 251) as u8)).unwrap();
                // Read back a key written earlier by this thread.
                let probe = base + i / 2;
                assert!(store.get(probe, &mut out).unwrap());
                assert_eq!(out, page((probe % 251) as u8));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(store.len(), 8 * 500);
    store.check_invariants().unwrap();
}

#[test]
fn concurrent_with_spill_pressure() {
    let path = TempPath::new("mt");
    {
        let store = Arc::new(CompressedStore::new(StoreConfig::with_spill(
            16 * 1024,
            &*path,
        )));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                let base = t * 1000;
                let mut out = vec![0u8; 4096];
                for i in 0..200u64 {
                    store
                        .put(base + i, &page(((base + i) % 251) as u8))
                        .unwrap();
                    if i % 3 == 0 {
                        let probe = base + i / 2;
                        assert!(store.get(probe, &mut out).unwrap(), "{probe}");
                        assert_eq!(out, page((probe % 251) as u8));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        store.flush().unwrap();
        store.check_invariants().unwrap();
        let mut out = vec![0u8; 4096];
        for t in 0..4u64 {
            for i in 0..200u64 {
                let key = t * 1000 + i;
                assert!(store.get(key, &mut out).unwrap(), "key {key} lost");
                assert_eq!(out, page((key % 251) as u8), "key {key} corrupted");
            }
        }
        store.check_invariants().unwrap();
    }
}

#[test]
fn page_size_exposed_after_first_put() {
    let store = CompressedStore::new(StoreConfig::in_memory(1 << 20));
    assert_eq!(store.page_size(), None);
    store.put(1, &page(1)).unwrap();
    assert_eq!(store.page_size(), Some(4096));
}

#[test]
fn put_after_shutdown_fails_instead_of_panicking() {
    let path = TempPath::new("shutdown-put");
    {
        // Budget of ~1 compressed page: puts beyond the first must
        // go through the (stopped) spill writer.
        let store = CompressedStore::new(StoreConfig::with_spill(4 * 1024, &*path));
        for k in 0..16u64 {
            store.put(k, &page(k as u8)).unwrap();
        }
        store.shutdown();
        // Reads keep working after shutdown.
        let mut out = vec![0u8; 4096];
        assert!(store.get(3, &mut out).unwrap());
        assert_eq!(out, page(3));
        // A put that needs the writer reports ShuttingDown.
        let mut err = None;
        for k in 100..164u64 {
            if let Err(e) = store.put(k, &page(k as u8)) {
                err = Some(e);
                break;
            }
        }
        assert!(
            matches!(err, Some(StoreError::ShuttingDown)),
            "expected ShuttingDown, got {err:?}"
        );
    }
}

/// An incompressible page (uniform noise) — the tier policies send
/// these hot because compressing them buys nothing.
fn noise_page(seed: u64) -> Vec<u8> {
    let mut rng = cc_util::SplitMix64::new(seed.wrapping_mul(2) + 1);
    (0..4096).map(|_| rng.next_u64() as u8).collect()
}

/// A budget smaller than one sealed page: no put can be resident, so
/// every one takes the put path's straight-to-spill hand-off. Each
/// entry is journaled once its batch is published (the checker holds
/// every spilled key to that), so a remove leaves a tombstone, and a
/// reopen serves exactly the keys that were not removed.
#[test]
fn straight_to_spill_puts_are_journaled() {
    let path = TempPath::new("direct-spill");
    {
        let cfg = StoreConfig::with_spill(2048, &*path);
        let store = CompressedStore::new(cfg.clone());
        for k in 0..16u64 {
            store.put(k, &noise_page(k)).unwrap();
        }
        store.check_invariants().unwrap();
        store.flush().unwrap();
        store.check_invariants().unwrap();
        let s = store.stats();
        assert_eq!((s.spilled, s.resident_bytes), (16, 0), "{s:?}");
        let mut out = vec![0u8; 4096];
        for k in 0..16u64 {
            assert_eq!(store.get_tier(k, &mut out).unwrap(), Some(HitTier::Spill));
            assert_eq!(out, noise_page(k), "key {k}");
        }
        for k in (0..16u64).step_by(2) {
            assert!(store.remove(k));
        }
        store.flush().unwrap();
        drop(store);
        let store = CompressedStore::open_existing(cfg).unwrap();
        for k in 0..16u64 {
            assert_eq!(store.get(k, &mut out).unwrap(), k % 2 == 1, "key {k}");
            if k % 2 == 1 {
                assert_eq!(out, noise_page(k), "key {k}");
            }
        }
        store.check_invariants().unwrap();
    }
}

#[test]
fn incompressible_puts_land_hot_and_hit_without_decode() {
    let store = CompressedStore::new(StoreConfig::in_memory(1 << 20));
    let mut out = vec![0u8; 4096];
    for k in 0..8u64 {
        store.put(k, &noise_page(k)).unwrap();
    }
    let s = store.stats();
    // The put still counts the reject it predicted (threshold counters
    // are tier-independent); the raw bytes are what got kept.
    assert_eq!(s.puts_hot, 8, "{s:?}");
    assert_eq!((s.stored_raw, s.reject_predicted), (8, 8), "{s:?}");
    assert_eq!(s.hot_bytes, 8 * 4096, "{s:?}");
    assert_eq!(s.warm_bytes, 0, "{s:?}");
    assert_eq!(s.hot_bytes + s.warm_bytes, s.resident_bytes, "{s:?}");
    for k in 0..8u64 {
        assert_eq!(store.get_tier(k, &mut out).unwrap(), Some(HitTier::Hot));
        assert_eq!(out, noise_page(k), "key {k}");
    }
    assert_eq!(store.stats().hits_hot, 8);
}

#[test]
fn reaccessed_warm_page_is_promoted_to_hot() {
    let store = CompressedStore::new(StoreConfig::in_memory(1 << 20));
    let mut out = vec![0u8; 4096];
    store.put(1, &page(1)).unwrap();
    // Compressible → warm on put; the first get serves from warm.
    assert_eq!(store.get_tier(1, &mut out).unwrap(), Some(HitTier::Memory));
    assert_eq!(out, page(1));
    // The second recent get crosses the promotion bar (gets >= 2).
    assert_eq!(store.get_tier(1, &mut out).unwrap(), Some(HitTier::Memory));
    let s = store.stats();
    assert_eq!(s.promotions, 1, "{s:?}");
    assert_eq!(s.hot_bytes, 4096, "{s:?}");
    assert_eq!(store.get_tier(1, &mut out).unwrap(), Some(HitTier::Hot));
    assert_eq!(out, page(1));
}

/// A promotion is refused for one reason only: the raw page does not
/// fit the budget. The store holds one warm page and cannot take one
/// more raw page, so the second get inside `promote_window` serves the
/// page warm and counts the refusal.
#[test]
fn a_refused_promotion_is_a_budget_refusal() {
    let store = CompressedStore::new(
        StoreConfig::in_memory(4095).with_demote_interval(Duration::from_secs(3600)),
    );
    let v = bdi_page(1);
    store.put(1, &v).unwrap();
    assert_eq!(store.peek_tier(1), Some(HitTier::Memory));
    let mut out = vec![0u8; 4096];
    assert_eq!(store.get_tier(1, &mut out).unwrap(), Some(HitTier::Memory));
    assert_eq!(store.stats().promotions_rejected, 0);
    assert_eq!(store.get_tier(1, &mut out).unwrap(), Some(HitTier::Memory));
    assert_eq!(out, v);
    let s = store.stats();
    assert_eq!((s.promotions, s.promotions_rejected), (0, 1), "{s:?}");
    assert_eq!(store.peek_tier(1), Some(HitTier::Memory));
    store.check_invariants().unwrap();
}

/// Gets racing on the same warm keys promote each key exactly once: the
/// get that crosses the promotion bar promotes in the hold that served
/// it, so every later get finds the page hot and none is refused.
#[test]
fn each_key_is_promoted_once_under_concurrent_gets() {
    let store = Arc::new(CompressedStore::new(
        StoreConfig::in_memory(16 << 20).with_demote_interval(Duration::from_secs(3600)),
    ));
    for k in 0..64u8 {
        store.put(k as u64, &bdi_page(k)).unwrap();
        assert_eq!(store.peek_tier(k as u64), Some(HitTier::Memory));
    }
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let mut out = vec![0u8; 4096];
                for _ in 0..2 {
                    for k in 0..64u8 {
                        assert!(store.get(k as u64, &mut out).unwrap());
                        assert_eq!(out, bdi_page(k), "key {k}");
                    }
                }
            })
        })
        .collect();
    for r in readers {
        r.join().unwrap();
    }
    let s = store.stats();
    assert_eq!((s.promotions, s.promotions_rejected), (64, 0), "{s:?}");
    assert!((0..64).all(|k| store.peek_tier(k) == Some(HitTier::Hot)));
    store.check_invariants().unwrap();
}

#[test]
fn compress_all_policy_reproduces_flat_store() {
    let path = TempPath::new("tier-flat");
    {
        let store = CompressedStore::new(
            StoreConfig::with_spill(1 << 20, &*path).with_tier_policy(TierPolicy::COMPRESS_ALL),
        );
        let mut out = vec![0u8; 4096];
        for k in 0..8u64 {
            store.put(k, &noise_page(k)).unwrap();
            store.put(100 + k, &page(k as u8)).unwrap();
        }
        for _ in 0..4 {
            for k in 0..8u64 {
                assert!(store.get(k, &mut out).unwrap());
                assert!(store.get(100 + k, &mut out).unwrap());
            }
        }
        let s = store.stats();
        assert_eq!(s.puts_hot, 0, "{s:?}");
        assert_eq!(s.hits_hot, 0, "{s:?}");
        assert_eq!(s.promotions, 0, "{s:?}");
        assert_eq!(s.hot_bytes, 0, "{s:?}");
        assert_eq!(s.warm_bytes, s.resident_bytes, "{s:?}");
        store.shutdown();
    }
}

#[test]
fn paper_threshold_policy_splits_on_admission_only() {
    let store = CompressedStore::new(
        StoreConfig::in_memory(1 << 20).with_tier_policy(TierPolicy::PAPER_THRESHOLD),
    );
    let mut out = vec![0u8; 4096];
    store.put(1, &noise_page(1)).unwrap();
    store.put(2, &page(2)).unwrap();
    assert_eq!(store.get_tier(1, &mut out).unwrap(), Some(HitTier::Hot));
    assert_eq!(store.get_tier(2, &mut out).unwrap(), Some(HitTier::Memory));
    // The 4:3 rule is static: no amount of re-access promotes.
    for _ in 0..8 {
        assert_eq!(store.get_tier(2, &mut out).unwrap(), Some(HitTier::Memory));
    }
    assert_eq!(store.stats().promotions, 0);
    // Placement is decided at put time only: a compressible re-put of
    // the hot key goes through admission again instead of staying hot.
    let puts_hot = store.stats().puts_hot;
    store.put(1, &page(1)).unwrap();
    assert_eq!(store.get_tier(1, &mut out).unwrap(), Some(HitTier::Memory));
    assert_eq!(out, page(1));
    assert_eq!(store.stats().puts_hot, puts_hot);
}

/// The full lifecycle under an aggressive recency policy: a promoted
/// hot page is demoted back to warm by an explicit pass, aged out to
/// the spill file by the next, and climbs back to hot on re-access —
/// byte-identical at every step.
#[test]
fn demote_now_cycles_hot_to_warm_to_cold_and_back() {
    let path = TempPath::new("tier-cycle");
    {
        let policy = TierPolicy {
            hot_idle: 1,
            // One step above hot_idle so a single pass demotes hot →
            // warm without cascading straight on to the spill file.
            warm_idle: 2,
            hot_demote_pressure_pct: 0,
            warm_demote_pressure_pct: 0,
            ..TierPolicy::RECENCY
        };
        let store = CompressedStore::new(
            StoreConfig::with_spill(1 << 20, &*path)
                .with_tier_policy(policy)
                // Only the explicit demote_now() passes below run, so
                // every counter assertion is deterministic.
                .with_demote_interval(Duration::from_secs(3600)),
        );
        let mut out = vec![0u8; 4096];
        store.put(1, &page(1)).unwrap();
        store.get(1, &mut out).unwrap();
        store.get(1, &mut out).unwrap();
        let s = store.stats();
        assert_eq!(s.promotions, 1, "{s:?}");
        assert_eq!(s.hot_bytes, 4096, "{s:?}");

        // Hot → warm: the page is compressible, so demotion reseals
        // it in place (no spill traffic yet).
        let (hot_n, _) = store.demote_now();
        let s = store.stats();
        assert_eq!(hot_n, 1, "{s:?}");
        assert_eq!(s.demoted_hot, 1, "{s:?}");
        assert_eq!(s.hot_bytes, 0, "{s:?}");
        assert!(s.warm_bytes > 0, "{s:?}");
        assert_eq!(s.hot_bytes + s.warm_bytes, s.resident_bytes, "{s:?}");

        // Age is measured on the op clock, so tick it with an
        // unrelated put before the warm → cold pass.
        store.put(99, &page(99)).unwrap();
        let (_, warm_n) = store.demote_now();
        store.flush().unwrap();
        let s = store.stats();
        assert_eq!(warm_n, 1, "{s:?}");
        assert_eq!(s.demoted_warm, 1, "{s:?}");
        assert_eq!(s.hot_bytes, 0, "{s:?}");

        // Cold → hot: the disk hit re-stamps it (its lifetime get
        // count already cleared the bar), so the very next access
        // promotes — and the bytes came through the cycle intact.
        assert_eq!(store.get_tier(1, &mut out).unwrap(), Some(HitTier::Spill));
        assert_eq!(out, page(1));
        assert_eq!(store.get_tier(1, &mut out).unwrap(), Some(HitTier::Hot));
        assert_eq!(out, page(1));
        assert_eq!(store.stats().promotions, 2);
        store.shutdown();
    }
}

/// The arena holds one entry per key, so on a spill-heavy store every
/// byte of it is a byte per key: every residence fits in 24 bytes (a
/// fat pointer and a 4-byte slot in its shard's hot or warm set, or an
/// extent's offset, length and generation), an entry with its key in 48,
/// a vacated arena slot in the same 48, and its index slot in 16.
#[test]
fn an_entry_takes_48_bytes_and_its_index_slot_16() {
    use std::mem::size_of;
    assert_eq!(size_of::<Residence>(), 24);
    assert_eq!(size_of::<Entry>(), 48);
    assert_eq!(size_of::<Slot>(), 48);
    assert_eq!(size_of::<(u64, u32)>(), 16);
}

/// Insert `key`, last touched at `touch`, hot on an empty page (which
/// allocates nothing) and enlisted; its arena index.
fn insert_hot(shard: &mut Shard, key: u64, touch: u32) -> u32 {
    let at = shard.insert(Entry {
        key,
        residence: Residence::SameFilled { pattern: 0 },
        orig_len: 0,
        codec: CodecId::Raw.as_u8(),
        probe: None,
        gets: 0,
        last_touch: touch,
        journaled: false,
    });
    let slot = shard.enlist(Set::Hot, at);
    shard[at].residence = Residence::Hot {
        data: Box::default(),
        slot,
    };
    at
}

/// The arena on its own: a key's index reaches its entry, a removed
/// key's slot is the next one reused (the last vacated first), growth
/// takes whole new chunks and leaves every live entry where it was, and
/// iteration yields each live entry once.
#[test]
fn the_arena_reuses_vacated_slots_and_never_moves_an_entry() {
    let mut shard = Shard::new(0);
    let first = insert_hot(&mut shard, 0, 0);
    let address = std::ptr::from_ref(&shard[first]);
    let n = 3 * CHUNK as u64;
    for key in 1..n {
        assert_eq!(insert_hot(&mut shard, key, key as u32), key as u32);
    }
    assert!(
        std::ptr::eq(&shard[first], address),
        "growth moved an entry"
    );
    assert_eq!(
        (shard.len(), shard.get(7).map(|e| e.key)),
        (n as usize, Some(7))
    );
    shard.check().unwrap();
    for key in [5, 2 * CHUNK as u64 + 9] {
        let Residence::Hot { slot, .. } = shard.remove(key).unwrap().residence else {
            unreachable!("inserted hot")
        };
        shard.delist(Set::Hot, slot);
        assert!(shard.get(key).is_none() && shard.find(key).is_none());
        shard.check().unwrap();
    }
    assert_eq!(insert_hot(&mut shard, n, 0), 2 * CHUNK as u32 + 9);
    assert_eq!(insert_hot(&mut shard, n + 1, 0), 5);
    assert_eq!(insert_hot(&mut shard, n + 2, 0), n as u32, "a fourth chunk");
    shard.check().unwrap();
    let mut keys: Vec<u64> = shard.iter().map(|e| e.key).collect();
    keys.sort_unstable();
    let want: Vec<u64> = (0..n + 3)
        .filter(|&k| k != 5 && k != 2 * CHUNK as u64 + 9)
        .collect();
    assert_eq!(keys, want);
    assert!(std::ptr::eq(&shard[first], address), "reuse moved an entry");
}

/// Victim draws over one shard of 16 Ki hot entries (warm in cache) and
/// one of 1 Mi (cold): ns per victim, each the oldest of 8 sampled
/// entries. A timing, not a gate, on release codegen only:
/// `cargo test --release -p cc-core --lib -- --ignored victim_draws --nocapture`.
#[test]
#[ignore = "a timing: run it by hand on release codegen"]
fn victim_draws_over_16k_and_1m_entries() {
    if cfg!(debug_assertions) {
        eprintln!("victim draws are timed on release codegen only");
        return;
    }
    for n in [1u64 << 14, 1 << 20] {
        let mut shard = Shard::new(n);
        let mut rng = cc_util::SplitMix64::new(n);
        for key in 0..n {
            insert_hot(&mut shard, key, rng.next_u32() >> 1);
        }
        // The best of nine rounds: a shared host only ever adds time.
        const VICTIMS: u32 = 1 << 18;
        let mut sink = 0u64;
        let ns = (0..9)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..VICTIMS {
                    sink ^= shard.victim(Set::Hot, u32::MAX).expect("a full set").0 as u64;
                }
                t0.elapsed().as_nanos() as f64 / VICTIMS as f64
            })
            .fold(f64::INFINITY, f64::min);
        println!(
            "{n} entries: {ns:.1} ns per victim, {:.1} per sampled entry",
            ns / 8.0
        );
        std::hint::black_box(sink);
    }
}

/// A one-shard store that keeps every page warm and spills to memory,
/// with `n` keys put and then read in an order drawn from `seed`: the
/// order, oldest first.
fn touched_warm_store(n: u64, seed: u64) -> (CompressedStore, Vec<u64>) {
    let cfg = StoreConfig::in_memory(16 << 20)
        .with_shards(1)
        .with_tier_policy(TierPolicy::COMPRESS_ALL);
    let store = CompressedStore::with_medium(cfg, Arc::new(MemMedium::new()));
    let mut order: Vec<u64> = (0..n).collect();
    for &k in &order {
        store.put(k, &bdi_page(k as u8)).unwrap();
    }
    cc_util::SplitMix64::new(seed).shuffle(&mut order);
    let mut out = vec![0u8; 4096];
    for &k in &order {
        assert!(store.get(k, &mut out).unwrap());
    }
    (store, order)
}

/// Force one eviction on `store`'s only shard: the position in `warm`
/// (oldest first) of the key it spilled, which leaves `warm`.
fn evict_warm(store: &CompressedStore, warm: &mut Vec<u64>) -> usize {
    let mut shard = store.core.shard(0);
    let progress = store.core.evict_one(&mut shard);
    assert!(matches!(progress, super::core::Progress::Evicted));
    let taken = (warm.iter())
        .position(|k| !matches!(shard.get(*k).unwrap().residence, Residence::Memory { .. }))
        .expect("no warm key was spilled");
    drop(shard);
    warm.remove(taken);
    taken
}

/// A set of eight or fewer is sampled whole, so a small store evicts in
/// exact `last_touch` order, as an LRU list would.
#[test]
fn a_few_warm_pages_are_evicted_in_exact_touch_order() {
    for seed in 0..4 {
        let (store, mut warm) = touched_warm_store(8, seed);
        while !warm.is_empty() {
            assert_eq!(evict_warm(&store, &mut warm), 0, "seed {seed}");
        }
        store.flush().unwrap();
        store.check_invariants().unwrap();
    }
}

/// On a large set a victim is the oldest of eight sampled keys, whose
/// expected age rank is about 1/9 of the set: 256 victims out of 512
/// pages must come, on average, from the oldest quarter.
#[test]
fn sampled_victims_come_from_the_oldest_quarter() {
    let (store, mut warm) = touched_warm_store(512, 7);
    let mut rank = 0.0;
    for _ in 0..256 {
        let len = warm.len() as f64;
        rank += evict_warm(&store, &mut warm) as f64 / len;
    }
    let mean = rank / 256.0;
    assert!(mean < 0.25, "mean age rank {mean:.3}");
    store.flush().unwrap();
    store.check_invariants().unwrap();
}

/// The checker holds every `Hot` and `Memory` slot to its own key and
/// each set to those keys alone.
#[test]
fn the_checker_catches_a_wrong_slot_and_a_stray_key() {
    let (store, _) = touched_warm_store(2, 0);
    let swap_slot = |key: u64| {
        let mut shard = store.core.shard(0);
        let e = shard.get_mut(key).unwrap();
        let Residence::Memory { slot, .. } = &mut e.residence else {
            panic!("key {key} is not warm")
        };
        *slot ^= 1;
    };
    swap_slot(0);
    let err = store.check_invariants().unwrap_err();
    assert!(err.contains("key 0's slot 1 names another"), "{err}");
    swap_slot(0);
    store.check_invariants().unwrap();
    store.core.shard(0).sets[Set::Warm as usize].push(99);
    let err = store.check_invariants().unwrap_err();
    assert!(err.contains("sets hold [0, 3] keys"), "{err}");
    store.core.shard(0).sets[Set::Warm as usize].pop();
    store.check_invariants().unwrap();
}

/// The cleaner works a batch at a time: one step copies the survivors
/// that fit one spill batch (pages here are smaller than a batch), so
/// the writer never stops for more than a batch of copying and its
/// buffer stays two batches long — and every page survives the moves.
#[test]
fn a_cleaning_step_copies_at_most_one_batch() {
    let path = TempPath::new("cleanbatch");
    const BATCH: usize = 8 * 1024;
    {
        let store = CompressedStore::new(
            StoreConfig::with_spill(16 * 1024, &*path)
                .with_spill_batch_bytes(BATCH)
                .with_gc_dead_ratio(0.3)
                .with_tier_policy(TierPolicy::COMPRESS_ALL),
        );
        const KEYS: u64 = 256;
        for round in 0..6u64 {
            for k in 0..KEYS {
                if (k + round) % 3 != 0 {
                    store.put(k, &page((k + round) as u8)).unwrap();
                }
            }
            store.flush().unwrap();
            store.check_invariants().unwrap();
        }
        let s = store.stats();
        assert!(s.gc_runs > 0, "the cleaner never ran: {s:?}");
        assert!(s.gc_bytes_relocated > 0, "nothing was relocated: {s:?}");
        assert!(
            s.gc_bytes_relocated <= s.gc_runs * BATCH as u64,
            "a step copied more than a batch: {s:?}"
        );
        let mut out = vec![0u8; 4096];
        for k in 0..KEYS {
            let last = (0..6u64).rev().find(|r| (k + r) % 3 != 0).unwrap();
            assert!(store.get(k, &mut out).unwrap(), "key {k} lost");
            assert_eq!(out, page((k + last) as u8), "key {k} corrupted");
        }
    }
}

/// `(codec id, sealed payload length)` of `key`'s stored form.
fn sealed_form(store: &CompressedStore, key: u64) -> (u8, usize) {
    store.flush().unwrap();
    let shard = store.core.shard(key);
    let e = shard.get(key).expect("key stored");
    let len = match &e.residence {
        Residence::Memory { data, .. } => data.len(),
        Residence::Spilled { len, .. } => *len as usize - EXTENT_HEADER,
        _ => panic!("key {key} is not sealed"),
    };
    (e.codec, len)
}

/// A re-put that keeps a page hot skips the probe, so the entry
/// records "not probed" and the demoter probes at seal time. The
/// probe is a pure function of the bytes: the sealed form must be
/// exactly what a put that probes up front produces, on every route.
#[test]
fn kept_hot_reput_seals_like_a_probed_put() {
    let path = TempPath::new("tier-reput");
    let path_flat = TempPath::new("tier-reput-flat");
    {
        let policy = TierPolicy {
            hot_idle: 4,
            warm_idle: u64::MAX,
            hot_demote_pressure_pct: 0,
            ..TierPolicy::RECENCY
        };
        let store = CompressedStore::new(
            StoreConfig::with_spill(1 << 20, &*path)
                .with_tier_policy(policy)
                // Only the explicit demote_now() below runs.
                .with_demote_interval(Duration::from_secs(3600)),
        );
        let flat = CompressedStore::new(
            StoreConfig::with_spill(1 << 20, &*path_flat)
                .with_tier_policy(TierPolicy::COMPRESS_ALL),
        );
        let routes = [
            (1u64, bdi_page(1), CodecId::Bdi),
            (2, page(2), CodecId::Lzrw1),
            (3, noise_page(3), CodecId::Raw),
        ];
        let mut out = vec![0u8; 4096];
        for (key, bytes, _) in &routes {
            // Compressible pages are admitted warm and climb to hot on
            // the second get; the 4:3-rejected one is admitted hot.
            store.put(*key, bytes).unwrap();
            store.get(*key, &mut out).unwrap();
            store.get(*key, &mut out).unwrap();
            assert_eq!(store.peek_tier(*key), Some(HitTier::Hot), "key {key}");
            let before = store.stats();
            store.put(*key, bytes).unwrap();
            let after = store.stats();
            assert_eq!(store.peek_tier(*key), Some(HitTier::Hot), "key {key}");
            assert_eq!(after.puts_hot, before.puts_hot + 1, "kept hot in place");
            assert_eq!(
                (after.compressed, after.stored_raw),
                (before.compressed, before.stored_raw),
                "a kept-hot re-put runs no codec"
            );
            assert_eq!(store.core.shard(*key).get(*key).unwrap().probe, None);
        }
        // Age every page past `hot_idle`, then seal them all.
        for k in 100..104u64 {
            store.put(k, &vec![k as u8; 4096]).unwrap();
        }
        let fallbacks = store.stats().codec_fallbacks;
        assert_eq!(store.demote_now().0, 3);
        assert_eq!(store.stats().codec_fallbacks, fallbacks);
        for (key, bytes, codec) in &routes {
            flat.put(*key, bytes).unwrap();
            let sealed = sealed_form(&store, *key);
            assert_eq!(sealed, sealed_form(&flat, *key), "key {key}");
            assert_eq!(sealed.0, codec.as_u8(), "key {key}");
            assert!(store.get(*key, &mut out).unwrap());
            assert_eq!(&out, bytes, "key {key}");
        }
        assert_eq!(flat.stats().codec_fallbacks, 0);
        store.shutdown();
        flat.shutdown();
    }
}
/// A page is hot *because* the threshold rejected its compressed
/// form, and the entry remembers that: demotion seals it as the
/// stored block it already was — same codec id, same length, same
/// bytes on the spill file as a put that compresses up front — and
/// the memory survives promotion. A kept-hot re-put of different
/// bytes forgets it.
#[test]
fn rejected_page_is_sealed_raw_from_the_remembered_verdict() {
    let path = TempPath::new("tier-rejected");
    let path_flat = TempPath::new("tier-rejected-flat");
    {
        let policy = TierPolicy {
            hot_idle: 4,
            warm_idle: u64::MAX,
            hot_demote_pressure_pct: 0,
            ..TierPolicy::RECENCY
        };
        let store = CompressedStore::new(
            StoreConfig::with_spill(1 << 20, &*path)
                .with_tier_policy(policy)
                // Only the explicit demote_now() below runs.
                .with_demote_interval(Duration::from_secs(3600)),
        );
        let flat = CompressedStore::new(
            StoreConfig::with_spill(1 << 20, &*path_flat)
                .with_tier_policy(TierPolicy::COMPRESS_ALL),
        );
        let probe_of = |key: u64| store.core.shard(key).get(key).unwrap().probe;
        let age = |from: u64| {
            for k in from..from + 4 {
                store.put(k, &vec![k as u8; 4096]).unwrap();
            }
        };
        let mut out = vec![0u8; 4096];

        store.put(3, &noise_page(3)).unwrap();
        store.put(4, &noise_page(4)).unwrap();
        for key in [3, 4] {
            assert_eq!(store.peek_tier(key), Some(HitTier::Hot));
            assert_eq!(probe_of(key), Some(Route::Raw));
        }
        // Key 4 is overwritten in place with compressible bytes: the
        // verdict was about the old ones.
        store.put(4, &bdi_page(4)).unwrap();
        assert_eq!(store.peek_tier(4), Some(HitTier::Hot));
        assert_eq!(probe_of(4), None);

        age(100);
        assert_eq!(store.demote_now().0, 2);
        flat.put(3, &noise_page(3)).unwrap();
        flat.put(4, &bdi_page(4)).unwrap();
        let raw = (CodecId::Raw.as_u8(), 4096 + 1);
        assert_eq!(sealed_form(&store, 3), raw);
        assert_eq!(sealed_form(&flat, 3), raw);
        assert_eq!(sealed_form(&store, 4), sealed_form(&flat, 4));
        assert_eq!(sealed_form(&store, 4).0, CodecId::Bdi.as_u8());

        // Back from the spill file intact, promoted with the verdict
        // still attached, and sealed the same way a second time.
        for _ in 0..2 {
            assert_eq!(store.get_tier(3, &mut out).unwrap(), Some(HitTier::Spill));
            assert_eq!(out, noise_page(3));
        }
        assert_eq!(store.peek_tier(3), Some(HitTier::Hot));
        assert_eq!(probe_of(3), Some(Route::Raw));
        age(200);
        assert_eq!(store.demote_now().0, 1);
        assert_eq!(sealed_form(&store, 3), raw);
        assert!(store.get(3, &mut out).unwrap());
        assert_eq!(out, noise_page(3));
        assert!(store.get(4, &mut out).unwrap());
        assert_eq!(out, bdi_page(4));
        store.check_invariants().unwrap();
        store.shutdown();
        flat.shutdown();
    }
}

/// A noise page never reaches a codec: the put counts the reject the
/// classifier predicted and keeps the page hot and raw, and its
/// demotion seals it raw from the remembered route — no codec counter
/// or histogram moves on either path. A repeated random block is the
/// one page the sampled test cannot see; when the audit picks it,
/// LZRW1 seals it and the put counts a misprediction.
#[test]
fn predicted_reject_skips_the_codecs_and_the_audit_counts_a_miss() {
    let path = TempPath::new("tier-predicted");
    {
        let tracer = Arc::new(Tracer::builder().sample_every(1).sink_memory().build());
        let policy = TierPolicy {
            hot_idle: 4,
            warm_idle: u64::MAX,
            hot_demote_pressure_pct: 0,
            ..TierPolicy::RECENCY
        };
        let store = CompressedStore::new(
            StoreConfig::with_spill(1 << 20, &*path)
                .with_tier_policy(policy)
                .with_tracer(Arc::clone(&tracer))
                // Only the explicit demote_now() below runs.
                .with_demote_interval(Duration::from_secs(3600)),
        );
        let codec_work = |s: &StoreStats| {
            let lz = store
                .telemetry_snapshot()
                .op("compress_lzrw1")
                .unwrap()
                .count;
            (
                s.compressed,
                s.puts_lzrw1,
                s.puts_bdi,
                s.codec_fallbacks,
                lz,
            )
        };
        let before = store.stats();
        // Traced, so timed: a codec pass would leave a histogram sample.
        store
            .put_traced(3, &noise_page(3), tracer.sample())
            .unwrap();
        let after = store.stats();
        assert_eq!(after.reject_predicted, before.reject_predicted + 1);
        assert_eq!(after.stored_raw, before.stored_raw + 1);
        assert_eq!(after.reject_mispredicted, 0);
        assert_eq!(codec_work(&after), codec_work(&before));
        assert_eq!(store.peek_tier(3), Some(HitTier::Hot));
        assert_eq!(store.core.shard(3).get(3).unwrap().probe, Some(Route::Raw));

        for k in 100..104u64 {
            store.put(k, &vec![k as u8; 4096]).unwrap();
        }
        let before = store.stats();
        assert_eq!(store.demote_now().0, 1);
        assert_eq!(sealed_form(&store, 3), (CodecId::Raw.as_u8(), 4096 + 1));
        let after = store.stats();
        assert_eq!(codec_work(&after), codec_work(&before));
        assert_eq!(after.reject_predicted, before.reject_predicted);

        // A 1 600-byte random block repeated: LZRW1 matches it across the
        // page, the sampled windows never see it twice.
        let t = cc_compress::ThresholdPolicy::default();
        let admit = t.max_compressed_len(4096);
        let mut set = cc_compress::CodecSet::new();
        let mut dst = Vec::new();
        let audited = (0..4096u64)
            .map(|seed| noise_page(seed)[..1600].repeat(3)[..4096].to_vec())
            .find(|p| {
                cc_compress::classify(p, admit) == Route::Raw
                    && set
                        .compress_with_policy(CodecPolicy::Adaptive, t, p, &mut dst)
                        .admitted
            })
            .expect("the audit picks one page in 64");
        let before = store.stats();
        store.put(4, &audited).unwrap();
        let after = store.stats();
        assert_eq!(after.reject_predicted, before.reject_predicted + 1);
        assert_eq!(after.reject_mispredicted, before.reject_mispredicted + 1);
        assert_eq!(after.puts_lzrw1, before.puts_lzrw1 + 1);
        assert_eq!(store.core.shard(4).get(4).unwrap().probe, Some(Route::Lz));
        let mut out = vec![0u8; 4096];
        assert!(store.get(3, &mut out).unwrap());
        assert_eq!(out, noise_page(3));
        assert!(store.get(4, &mut out).unwrap());
        assert_eq!(out, audited);
        store.check_invariants().unwrap();
        store.shutdown();
    }
}

/// Nobody wakes the demoter but its own interval, and one wake drains
/// the whole aged backlog: after the last put, with no eviction to
/// ride on, every aged hot page still leaves the hot tier — in a
/// number of passes that is small beside the operations issued.
#[test]
fn demoter_drains_aged_backlog_without_a_kick() {
    let path = TempPath::new("tier-drain");
    {
        let policy = TierPolicy {
            hot_idle: 512,
            warm_idle: u64::MAX,
            hot_demote_pressure_pct: 0,
            ..TierPolicy::RECENCY
        };
        let store = CompressedStore::new(
            StoreConfig::with_spill(1 << 20, &*path)
                .with_tier_policy(policy)
                .with_demote_interval(Duration::from_millis(2)),
        );
        let mut out = vec![0u8; 4096];
        let mut ops = 0u64;
        // Same-filled bystanders: reading them ticks the op clock and
        // holds no hot byte.
        for k in 1000..1008u64 {
            store.put(k, &vec![k as u8; 4096]).unwrap();
            ops += 1;
        }
        // 64 pages hot because incompressible, 64 hot because promoted.
        for k in 0..64u64 {
            store.put(k, &noise_page(k)).unwrap();
            store.put(64 + k, &page(k as u8)).unwrap();
            store.get(64 + k, &mut out).unwrap();
            store.get(64 + k, &mut out).unwrap();
            ops += 4;
        }
        let s = store.stats();
        assert_eq!((s.puts_hot, s.promotions), (64, 64), "{s:?}");
        // Age all 128, then go quiet: no put, no get of them.
        for i in 0..16_384u64 {
            assert!(store.get(1000 + i % 8, &mut out).unwrap());
            ops += 1;
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while store.stats().hot_bytes != 0 {
            assert!(
                Instant::now() < deadline,
                "backlog not drained: {:?}",
                store.stats()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let s = store.stats();
        assert_eq!(s.demoted_hot, 128, "{s:?}");
        assert!(s.demoter_passes < ops / 8, "{s:?} after {ops} ops");
        store.flush().unwrap();
        store.check_invariants().unwrap();
        for k in 0..64u64 {
            assert_ne!(store.peek_tier(k), Some(HitTier::Hot));
            assert_eq!(store.peek_tier(64 + k), Some(HitTier::Memory));
            assert!(store.get(k, &mut out).unwrap());
            assert_eq!(out, noise_page(k));
            assert!(store.get(64 + k, &mut out).unwrap());
            assert_eq!(out, page(k as u8));
        }
        store.shutdown();
    }
}

/// Four putters at budget pressure while the demoter, woken every
/// millisecond, takes and drops each shard lock once per victim: the
/// re-lock-per-entry path under contention. Every key must read back
/// as its last put and the bookkeeping must add up.
#[test]
fn putters_at_pressure_race_a_fast_demoter() {
    const PUTTERS: u64 = 4;
    const KEYS_EACH: u64 = 96;
    let path = TempPath::new("tier-race");
    {
        let policy = TierPolicy {
            hot_idle: 64,
            warm_idle: 128,
            hot_demote_pressure_pct: 0,
            warm_demote_pressure_pct: 0,
            ..TierPolicy::RECENCY
        };
        let store = CompressedStore::new(
            StoreConfig::with_spill(256 << 10, &*path)
                .with_tier_policy(policy)
                .with_demote_interval(Duration::from_millis(1)),
        );
        // Version `v` of key `k`: every third key incompressible.
        let page_of = |k: u64, v: u64| {
            if k.is_multiple_of(3) {
                noise_page(k * 1_000_003 + v)
            } else {
                page((k * 7 + v) as u8)
            }
        };
        let stop_at = Instant::now() + Duration::from_secs(1);
        let last: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let putters: Vec<_> = (0..PUTTERS)
                .map(|t| {
                    let (store, page_of) = (&store, &page_of);
                    scope.spawn(move || {
                        let mut versions = vec![0u64; KEYS_EACH as usize];
                        let mut out = vec![0u8; 4096];
                        let mut rng = cc_util::SplitMix64::new(t + 1);
                        while Instant::now() < stop_at {
                            let i = rng.next_u64() % KEYS_EACH;
                            let key = t * KEYS_EACH + i;
                            if rng.next_u64().is_multiple_of(4) && versions[i as usize] > 0 {
                                assert!(store.get(key, &mut out).unwrap(), "key {key}");
                                assert_eq!(out, page_of(key, versions[i as usize]));
                            } else {
                                versions[i as usize] += 1;
                                store.put(key, &page_of(key, versions[i as usize])).unwrap();
                            }
                        }
                        versions
                    })
                })
                .collect();
            putters
                .into_iter()
                .map(|h| h.join().expect("putter panicked"))
                .collect()
        });
        store.flush().unwrap();
        store.check_invariants().unwrap();
        let s = store.stats();
        assert!(s.demoter_passes > 0 && s.spilled > 0, "{s:?}");
        assert!(s.resident_bytes <= 256 << 10, "{s:?}");
        let mut out = vec![0u8; 4096];
        for (t, versions) in last.iter().enumerate() {
            for (i, &v) in versions.iter().enumerate() {
                let key = t as u64 * KEYS_EACH + i as u64;
                assert_eq!(store.get(key, &mut out).unwrap(), v > 0, "key {key}");
                if v > 0 {
                    assert_eq!(out, page_of(key, v), "key {key}");
                }
            }
        }
        store.shutdown();
    }
}

/// A medium that, once armed, holds the next batch write — one past the
/// superblock and longer than a blanked summary head — until released.
struct Gate {
    inner: Arc<dyn SpillMedium>,
    /// `(armed, holding)`.
    state: std::sync::Mutex<(bool, bool)>,
    cv: std::sync::Condvar,
}

impl Gate {
    fn new(inner: Arc<dyn SpillMedium>) -> Gate {
        Gate {
            inner,
            state: std::sync::Mutex::new((false, false)),
            cv: std::sync::Condvar::new(),
        }
    }

    fn arm(&self) {
        self.state.lock().unwrap().0 = true;
    }

    /// Wait up to a few seconds for a write to be held; whether one is.
    fn holding(&self) -> bool {
        let st = self.state.lock().unwrap();
        let (st, _) = (self.cv)
            .wait_timeout_while(st, Duration::from_secs(5), |st| !st.1)
            .unwrap();
        st.1
    }

    /// Whether a write is held now.
    fn held(&self) -> bool {
        self.state.lock().unwrap().1
    }

    fn release(&self) {
        self.state.lock().unwrap().1 = false;
        self.cv.notify_all();
    }

    /// Disarm, and release a write if one is held.
    fn open(&self) {
        *self.state.lock().unwrap() = (false, false);
        self.cv.notify_all();
    }
}

impl SpillMedium for Gate {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        self.inner.read_at(buf, offset)
    }
    fn write_at(&self, data: &[u8], offset: u64) -> std::io::Result<()> {
        let mut st = self.state.lock().unwrap();
        if st.0 && offset >= crate::persist::SUPERBLOCK_RESERVED && data.len() > SUMMARY_HEAD {
            *st = (false, true);
            self.cv.notify_all();
            st = self.cv.wait_while(st, |st| st.1).unwrap();
        }
        drop(st);
        self.inner.write_at(data, offset)
    }
    fn flush(&self) -> std::io::Result<()> {
        self.inner.flush()
    }
    fn set_len(&self, len: u64) -> std::io::Result<()> {
        self.inner.set_len(len)
    }
}

use crate::medium::{MemMedium, RecordingMedium, SpillMedium};
use crate::persist::{read_superblock, SUMMARY_HEAD};

/// What `recorder`'s medium holds after a power loss at byte `cut` of
/// its write stream.
fn image(recorder: &RecordingMedium, cut: u64) -> MemMedium {
    let disk = MemMedium::new();
    recorder.replay(cut, false, &disk).unwrap();
    disk
}

/// `flush` makes a remove durable even when the remove's tombstone is
/// already in a batch being written — here a cleaning step's relocation
/// batch, held mid-write. It returns only after that batch is on the
/// file: the power is cut the moment it returns, and the key stays gone.
#[test]
fn flush_waits_for_a_tombstone_in_a_relocation_batch() {
    let recorder = Arc::new(RecordingMedium::new(MemMedium::new()));
    let gate = Arc::new(Gate::new(Arc::clone(&recorder) as Arc<dyn SpillMedium>));
    let cfg = StoreConfig::with_spill(2048, "/unused")
        .with_spill_batch_bytes(1)
        .with_gc_dead_ratio(0.2);
    let store = Arc::new(CompressedStore::with_medium(
        cfg.clone(),
        Arc::clone(&gate) as _,
    ));
    // Three pages a segment, written in key order; one of each three
    // removed, and the removes made durable.
    const KEYS: u64 = 30;
    for k in 0..KEYS {
        store.put(k, &noise_page(k)).unwrap();
    }
    store.flush().unwrap();
    for k in (1..KEYS).step_by(3) {
        store.remove(k);
    }
    store.flush().unwrap();
    // Hold the next spill batch, remove key 0 meanwhile, and hold the
    // batch after it: the cleaning step that follows takes segment 0,
    // now two-thirds dead, and its relocation batch carries the
    // tombstone.
    gate.arm();
    store.put(1000, &noise_page(1000)).unwrap();
    assert!(gate.holding(), "the spill batch was never written");
    assert!(store.remove(0));
    gate.arm();
    gate.release();
    assert!(gate.holding(), "no relocation batch was written");
    let (tx, rx) = std::sync::mpsc::channel();
    let flusher = {
        let (store, recorder) = (Arc::clone(&store), Arc::clone(&recorder));
        std::thread::spawn(move || {
            let res = store.flush();
            tx.send(res.is_ok().then(|| recorder.position())).unwrap();
        })
    };
    let early = rx.recv_timeout(Duration::from_millis(300)).is_ok();
    gate.release();
    assert!(
        !early,
        "flush returned while the tombstone's batch was held"
    );
    let cut = rx.recv().unwrap().expect("flush failed");
    flusher.join().unwrap();
    drop(store);
    let disk = image(&recorder, cut);
    let store = CompressedStore::open_existing_with_media(cfg, Arc::new(disk)).unwrap();
    let mut out = vec![0u8; 4096];
    assert!(
        !store.get(0, &mut out).unwrap(),
        "a flushed remove came back"
    );
    for k in (2..KEYS).filter(|k| k % 3 != 1) {
        assert!(store.get(k, &mut out).unwrap(), "key {k} lost");
        assert_eq!(out, noise_page(k), "key {k}");
    }
}

/// A key that goes round put → spill → remove leaves a tombstone each
/// round, and the cleaner carries a tombstone while any other segment
/// lists its key — which, for a key re-put every round, is always. Only
/// the newest of a key's tombstones is carried, so the ones the file
/// holds stay bounded instead of growing with the removes.
#[test]
fn carried_tombstones_stay_bounded_under_remove_churn() {
    let disk = MemMedium::new();
    let cfg = StoreConfig::with_spill(2048, "/unused")
        .with_spill_batch_bytes(1)
        .with_gc_dead_ratio(0.2);
    let store = CompressedStore::with_medium(cfg.clone(), Arc::new(disk.share()));
    let mut most = 0;
    for round in 0..300u64 {
        store.put(7, &noise_page(round)).unwrap();
        store.flush().unwrap();
        assert!(store.remove(7));
        let held = store
            .core
            .segments()
            .segs
            .iter()
            .map(|s| s.tombs.len())
            .sum();
        most = most.max(held);
    }
    store.flush().unwrap();
    store.check_invariants().unwrap();
    let s = store.stats();
    assert!(s.gc_runs > 0, "the cleaner never ran: {s:?}");
    assert!(
        most <= 16,
        "{most} tombstones held after 300 removes of one key"
    );
    drop(store);
    let store = CompressedStore::open_existing_with_media(cfg, Arc::new(disk.share())).unwrap();
    assert!(
        !store.get(7, &mut [0u8; 4096]).unwrap(),
        "the removed key came back"
    );
}

/// A medium whose next `fail` superblock writes fail.
struct FailSuperblock {
    inner: Arc<dyn SpillMedium>,
    fail: std::sync::atomic::AtomicU32,
}

impl SpillMedium for FailSuperblock {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        self.inner.read_at(buf, offset)
    }
    fn write_at(&self, data: &[u8], offset: u64) -> std::io::Result<()> {
        use std::sync::atomic::Ordering::SeqCst;
        let superblock = offset < crate::persist::SUPERBLOCK_RESERVED;
        if superblock
            && self
                .fail
                .fetch_update(SeqCst, SeqCst, |n| n.checked_sub(1))
                .is_ok()
        {
            return Err(std::io::Error::other("superblock write failed"));
        }
        self.inner.write_at(data, offset)
    }
    fn flush(&self) -> std::io::Result<()> {
        self.inner.flush()
    }
    fn set_len(&self, len: u64) -> std::io::Result<()> {
        self.inner.set_len(len)
    }
}

/// Batch sequences are leased from the superblock, 1 024 at a time in
/// unit tests. The batch that reaches the lease stamps a new superblock
/// first; when that stamp fails, the batch fails with it (its page goes
/// back to memory) and the next batch stamps again. The file then
/// reopens after a crash with exactly the pages the store had on it, and
/// again after a clean seal without reading an extent.
#[test]
fn crossing_the_sequence_lease_restamps_the_superblock() {
    use std::sync::atomic::Ordering::SeqCst;
    let recorder = Arc::new(RecordingMedium::new(MemMedium::new()));
    let medium = Arc::new(FailSuperblock {
        inner: Arc::clone(&recorder) as _,
        fail: std::sync::atomic::AtomicU32::new(0),
    });
    let cfg = StoreConfig::with_spill(2048, "/unused").with_spill_batch_bytes(1);
    let store = CompressedStore::with_medium(cfg.clone(), Arc::clone(&medium) as _);
    // The writer stamps the file's first superblock as it starts.
    let first = loop {
        match read_superblock(&*recorder) {
            Some(sb) => break sb,
            None => std::thread::yield_now(),
        }
    };
    medium.fail.store(1, SeqCst);
    const KEYS: u64 = 600;
    for k in 0..KEYS {
        store.put(k, &noise_page(k)).unwrap();
    }
    store.flush().unwrap();
    store.check_invariants().unwrap();
    let now = read_superblock(&*recorder).unwrap();
    assert_eq!(medium.fail.load(SeqCst), 0, "no batch reached the lease");
    assert!(
        now.seq_limit > first.seq_limit && now.seq > first.seq,
        "{first:?} → {now:?}"
    );
    assert_eq!((now.salt, now.clean), (first.salt, false));
    let s = store.stats();
    assert!(
        s.spill_fallback_resident >= 1,
        "the failed stamp failed no batch: {s:?}"
    );
    let mut out = vec![0u8; 4096];
    let on_file: Vec<bool> = (0..KEYS)
        .map(|k| store.get_tier(k, &mut out).unwrap() == Some(HitTier::Spill))
        .collect();
    assert!(on_file.iter().filter(|&&f| f).count() > KEYS as usize / 2);
    let disk = image(&recorder, recorder.position());
    drop(store);
    for clean in [false, true] {
        let store =
            CompressedStore::open_existing_with_media(cfg.clone(), Arc::new(disk.share())).unwrap();
        let s = store.stats();
        assert_eq!(s.clean_recoveries, clean as u64, "{s:?}");
        if clean {
            assert_eq!(s.recovery_extents_verified, 0, "{s:?}");
        }
        for k in 0..KEYS {
            let hit = store.get(k, &mut out).unwrap();
            assert_eq!(hit, on_file[k as usize], "key {k}");
            if hit {
                assert_eq!(out, noise_page(k), "key {k}");
            }
        }
        store.check_invariants().unwrap();
    }
}

/// `(extent records, tombstones)` the segment table lists over every
/// segment: what the file's summaries hold, dead records included.
fn listed(store: &CompressedStore) -> (usize, usize) {
    let t = store.core.segments();
    let extents = t.segs.iter().map(|s| s.keys.len()).sum();
    (extents, t.segs.iter().map(|s| s.tombs.len()).sum())
}

/// Overwrite churn on a spill store with the cleaner on: every
/// overwrite of a spilled key leaves a tombstone, and a cleaning carries
/// one only while an older copy of its key is still listed, the newest
/// of a key's only. Segments hold three pages, so 2 000 puts make
/// hundreds of cleanings; the tombstones held stay flat through the
/// second half and never outnumber the extent records on the file.
#[test]
fn held_tombstones_stay_flat_under_overwrite_churn() {
    let cfg = StoreConfig::with_spill(4 * 4096, "/unused")
        .with_tier_policy(TierPolicy::COMPRESS_ALL)
        .with_spill_batch_bytes(1)
        .with_gc_dead_ratio(0.3);
    let store = CompressedStore::with_medium(cfg, Arc::new(MemMedium::new()));
    const KEYS: u64 = 256;
    const ROUNDS: u64 = 40;
    let mut rng = cc_util::SplitMix64::new(7);
    let mut held = Vec::new();
    for round in 0..ROUNDS {
        for _ in 0..50 {
            let k = rng.next_u64() % KEYS;
            store.put(k, &noise_page(round * KEYS + k)).unwrap();
        }
        store.flush().unwrap();
        let (extents, tombs) = listed(&store);
        assert!(
            tombs <= extents,
            "round {round}: {tombs} tombstones held for {extents} extent records"
        );
        held.push(tombs);
    }
    store.check_invariants().unwrap();
    let s = store.stats();
    assert!(s.gc_runs >= 300, "too few cleanings: {s:?}");
    // Flat: the last quarter holds no more, on average, than the one
    // before it. Averages, since each count moves with where the round's
    // last cleaning fell.
    let quarter = held.len() / 4;
    let mean = |q: &[usize]| q.iter().sum::<usize>() as f64 / q.len() as f64;
    let (third, last) = (
        mean(&held[2 * quarter..3 * quarter]),
        mean(&held[3 * quarter..]),
    );
    assert!(
        last <= 1.25 * third,
        "held tombstones drift over the second half: {:?}",
        &held[2 * quarter..]
    );
}

/// Why `Segments::check` does not bound held tombstones by the extent
/// records on the file: the bound holds under overwrite churn (above)
/// but not after removes. Sixty-four spilled keys, all removed: their
/// tombstones sit in a later segment, and once the next batch lets the
/// cleaner free the dead segments that listed the extents, the table
/// holds 64 tombstones against a few records — while every identity
/// the checker does hold still holds. A tombstone is dropped when its
/// own segment is cleaned, so the count does not grow without bound.
#[test]
fn held_tombstones_may_outnumber_listed_extents_after_removes() {
    let cfg = StoreConfig::with_spill(2048, "/unused")
        .with_spill_batch_bytes(1)
        .with_gc_dead_ratio(0.2);
    let store = CompressedStore::with_medium(cfg, Arc::new(MemMedium::new()));
    for k in 0..64u64 {
        store.put(k, &noise_page(k)).unwrap();
    }
    store.flush().unwrap();
    for k in 0..64u64 {
        assert!(store.remove(k));
    }
    let mut seen = Vec::new();
    for k in 64..128u64 {
        store.put(k, &noise_page(k)).unwrap();
        store.flush().unwrap();
        let (extents, tombs) = listed(&store);
        if extents < tombs {
            store.check_invariants().unwrap();
            return;
        }
        seen.push((extents, tombs));
    }
    panic!("tombstones never outnumbered the extent records: {seen:?}");
}

/// A spill store over a recorded in-memory medium, so it can be cut:
/// 128 KiB segments of ~31 pages, cleaned once 30 % dead, one shard.
fn cuttable_store(policy: TierPolicy) -> (CompressedStore, StoreConfig, Arc<RecordingMedium>) {
    let recorder = Arc::new(RecordingMedium::new(MemMedium::new()));
    let cfg = StoreConfig::with_spill(4 * 4096, "/unused")
        .with_tier_policy(policy)
        .with_shards(1)
        .with_spill_batch_bytes(4096)
        .with_gc_dead_ratio(0.3);
    let store = CompressedStore::with_medium(cfg.clone(), Arc::clone(&recorder) as _);
    // Key 0, then 60 keys never touched again: the first segment holds
    // key 0's copy among live pages, so the cleaner leaves it alone.
    for k in 0..=60 {
        store.put(k, &noise_page(k)).unwrap();
    }
    (store, cfg, recorder)
}

/// One version more of each of 64 churn keys, made durable: their old
/// copies die, so the segments that hold them are cleaned.
fn churn(store: &CompressedStore, round: u64) {
    for k in 1000..1064 {
        store.put(k, &noise_page(round << 16 | k)).unwrap();
    }
    store.flush().unwrap();
}

/// The segments holding a tombstone of `key`.
fn holders(store: &CompressedStore, key: u64) -> Vec<usize> {
    let t = store.core.segments();
    (0..t.segs.len())
        .filter(|&i| t.segs[i].tombs.iter().any(|&(k, _)| k == key))
        .collect()
}

/// Whether a segment lists `key`'s extent of generation `gen`.
fn lists(store: &CompressedStore, key: u64, gen: u64) -> bool {
    let t = store.core.segments();
    t.segs.iter().any(|s| s.keys.contains(&(key, gen)))
}

/// The generation `key` is spilled under, if it is spilled.
fn spilled_gen(store: &CompressedStore, key: u64) -> Option<u64> {
    match store.core.shard(key).get(key)?.residence {
        Residence::Spilled { gen, .. } => Some(gen),
        _ => None,
    }
}

/// Cut the power, then reopen the medium; every key in `on_file` comes
/// back exact.
fn cut_and_reopen(
    store: CompressedStore,
    cfg: StoreConfig,
    recorder: &RecordingMedium,
    on_file: &[u64],
) -> CompressedStore {
    let disk = image(recorder, recorder.position());
    drop(store);
    let store = CompressedStore::open_existing_with_media(cfg, Arc::new(disk)).unwrap();
    let mut out = vec![0u8; 4096];
    for &k in on_file {
        assert!(store.get(k, &mut out).unwrap(), "key {k} lost");
        assert_eq!(out, noise_page(k), "key {k}");
    }
    store.check_invariants().unwrap();
    store
}

/// A tombstone whose key has an older, dead copy in a third sealed
/// segment, one the cleaner never takes, is carried by each cleaning of
/// the segment holding it. After two such cleanings, a cut and a
/// reopen, the copy stays dead.
#[test]
fn a_tombstone_outlives_two_cleanings_while_an_older_copy_is_listed() {
    let (store, cfg, recorder) = cuttable_store(TierPolicy::COMPRESS_ALL);
    churn(&store, 0);
    let g1 = spilled_gen(&store, 0).expect("key 0 spilled");
    assert!(store.remove(0));
    store.flush().unwrap();
    let mut homes = holders(&store, 0);
    assert_eq!(homes.len(), 1, "the tombstone is in one segment");
    for round in 1..400 {
        if homes.len() == 3 {
            break;
        }
        churn(&store, round);
        let now = holders(&store, 0);
        assert!(
            !now.is_empty(),
            "round {round}: the tombstone was dropped while key 0's copy is listed"
        );
        if !now.contains(homes.last().unwrap()) {
            homes.push(now[0]);
        }
    }
    assert_eq!(homes.len(), 3, "the tombstone was not carried twice");
    assert!(lists(&store, 0, g1), "key 0's older copy left the file");
    let on_file: Vec<u64> = (1..=60)
        .filter(|&k| store.peek_tier(k) == Some(HitTier::Spill))
        .collect();
    let store = cut_and_reopen(store, cfg, &recorder, &on_file);
    assert!(
        !store.get(0, &mut vec![0u8; 4096]).unwrap(),
        "the removed key came back"
    );
}

/// Promotion kills a spilled extent without a tombstone, so an entry
/// spilled at a newer generation does not make an older tombstone
/// redundant. Key 0 is spilled at g1, removed (tombstone L), re-put and
/// spilled at g2 > L; the tombstone's segment is cleaned while key 0 is
/// spilled at g2; then key 0 is promoted, g2's copies are cleaned off
/// the file, and the power is cut. g1 is never served.
#[test]
fn a_promoted_extent_never_lets_a_removed_generation_back() {
    // Every page starts warm, and every second hit is promoted when the
    // budget has room for it.
    let (store, cfg, recorder) = cuttable_store(TierPolicy {
        rejects_hot: false,
        promote_window: u64::MAX,
        max_promote_pressure_pct: 100,
        hot_idle: u64::MAX,
        warm_idle: u64::MAX,
        ..TierPolicy::RECENCY
    });
    churn(&store, 0);
    let v1 = noise_page(0);
    assert!(spilled_gen(&store, 0).is_some(), "key 0 spilled");
    assert!(store.remove(0));
    let v2 = noise_page(1 << 40);
    store.put(0, &v2).unwrap();
    churn(&store, 1);
    let g2 = spilled_gen(&store, 0).expect("key 0 spilled again");
    let first = holders(&store, 0);
    let mut round = 2;
    while holders(&store, 0).iter().any(|h| first.contains(h)) {
        churn(&store, round);
        round += 1;
        assert!(round < 400, "the tombstone's segment was never cleaned");
    }
    assert_eq!(spilled_gen(&store, 0), Some(g2), "key 0 left g2 early");
    // Room for the promotion: the churn keys' resident pages go.
    for k in 1000..1064 {
        if matches!(store.peek_tier(k), Some(HitTier::Hot | HitTier::Memory)) {
            assert!(store.remove(k));
        }
    }
    let mut out = vec![0u8; 4096];
    for _ in 0..2 {
        assert_eq!(store.get_tier(0, &mut out).unwrap(), Some(HitTier::Spill));
        assert_eq!(out, v2);
    }
    assert_eq!(store.peek_tier(0), Some(HitTier::Hot), "not promoted");
    while lists(&store, 0, g2) {
        churn(&store, round);
        round += 1;
        assert!(round < 800, "g2's copies were never cleaned off the file");
    }
    assert_eq!(store.peek_tier(0), Some(HitTier::Hot));
    let on_file: Vec<u64> = (1..=60)
        .filter(|&k| store.peek_tier(k) == Some(HitTier::Spill))
        .collect();
    let store = cut_and_reopen(store, cfg, &recorder, &on_file);
    let hit = store.get(0, &mut out).unwrap();
    assert!(!(hit && out == v1), "the removed generation came back");
}

/// A store in memory whose background thread never touches a deferred
/// seal on its own: it has parked, its demote interval is an hour, and
/// each case queues fewer jobs than wake it. The cases seal with
/// [`StoreCore::seal_queued`] — the thread's seal step — on the test
/// thread, and publish with `flush`.
fn deferring_store() -> CompressedStore {
    let store = CompressedStore::new(
        StoreConfig::in_memory(1 << 20).with_demote_interval(Duration::from_secs(3600)),
    );
    until_parked(&store);
    store
}

/// Yield until `store`'s background thread has parked after its first
/// steps: with an hour's demote interval it then steps again only when
/// a put, a flush or `close()` wakes it.
fn until_parked(store: &CompressedStore) {
    while !store.core.inbox().parked {
        std::thread::yield_now();
    }
}

/// The same on a store spilling to `medium` at budget: 160 warm BDI
/// pages and room for exactly one raw page, so the first LZRW1 put fills
/// the budget. Nothing spills until a put evicts, so the thread stays
/// parked; then each spill job is a batch of its own. Promotion is
/// allowed at any pressure: a `Sealing` page's costs no budget.
fn at_budget_store(medium: Arc<dyn SpillMedium>) -> CompressedStore {
    let fill = |s: &CompressedStore| {
        for k in 1000..1160u64 {
            s.put(k, &bdi_page(k as u8)).unwrap();
        }
    };
    let sized = deferring_store();
    fill(&sized);
    let budget = sized.stats().resident_bytes as usize + 4096;
    let policy = TierPolicy {
        max_promote_pressure_pct: u8::MAX,
        ..TierPolicy::RECENCY
    };
    let cfg = StoreConfig::in_memory(budget)
        .with_tier_policy(policy)
        .with_demote_interval(Duration::from_secs(3600))
        .with_spill_batch_bytes(1);
    let store = CompressedStore::with_medium(cfg, medium);
    fill(&store);
    until_parked(&store);
    assert!(store.core.pressure_pct() >= 50, "past the demoter's floor");
    assert!(store.core.seal_bound() >= 4, "too few jobs to stay unwoken");
    store
}

fn is_sealing(store: &CompressedStore, key: u64) -> bool {
    let shard = store.core.shard(key);
    matches!(
        shard.get(key).map(|e| &e.residence),
        Some(Residence::Sealing { .. })
    )
}

/// On each deferring store: put `key`'s `v1`, seal it first when
/// `sealed`, then let `act` act on the waiting entry; publish, check,
/// and read back `want`.
fn race_a_deferred_seal(sealed: bool, act: impl Fn(&CompressedStore), want: Option<&[u8]>) {
    for store in [
        deferring_store(),
        at_budget_store(Arc::new(MemMedium::new())),
    ] {
        let v1 = page(1);
        store.put(7, &v1).unwrap();
        assert!(is_sealing(&store, 7), "an LZRW1 put defers at any pressure");
        if sealed {
            store.core.seal_queued();
        }
        act(&store);
        store.check_invariants().unwrap();
        store.flush().unwrap();
        assert!(!is_sealing(&store, 7));
        store.check_invariants().unwrap();
        let mut out = vec![0u8; 4096];
        assert_eq!(store.get(7, &mut out).unwrap(), want.is_some());
        if let Some(want) = want {
            assert_eq!(out, want);
        }
        // A job orphaned while queued is never sealed, and only seals
        // that ran count.
        let s = store.stats();
        let skipped = u64::from(!sealed);
        assert_eq!(s.puts_lzrw1 + skipped, s.seals_deferred, "{s:?}");
    }
}

fn reput(store: &CompressedStore) {
    store.put(7, &page(2)).unwrap();
    assert!(is_sealing(store, 7));
}

fn remove_it(store: &CompressedStore) {
    let before = store.stats().resident_bytes;
    assert!(store.remove(7));
    assert_eq!(before - store.stats().resident_bytes, 4096);
}

fn read_twice(store: &CompressedStore) {
    let mut out = vec![0u8; 4096];
    for _ in 0..2 {
        assert_eq!(store.get_tier(7, &mut out).unwrap(), Some(HitTier::Memory));
        assert_eq!(out, page(1));
    }
    assert_eq!(store.stats().promotions, 1);
    assert_eq!(store.peek_tier(7), Some(HitTier::Hot));
}

/// A re-put while the first put's job is still queued orphans that
/// job: the seal step, on the background thread or in a flush, skips
/// its LZRW1 pass, and the codec counters count the one seal that ran.
#[test]
fn an_orphaned_queued_seal_is_published_unsealed() {
    for by_the_thread in [true, false] {
        let store = deferring_store();
        store.put(7, &page(1)).unwrap();
        store.put(7, &page(2)).unwrap();
        assert!(is_sealing(&store, 7));
        if by_the_thread {
            store.core.seal_queued();
        }
        store.check_invariants().unwrap();
        store.flush().unwrap();
        store.check_invariants().unwrap();
        let s = store.stats();
        assert_eq!((s.seals_deferred, s.puts_lzrw1), (2, 1), "{s:?}");
        assert_eq!(s.lzrw1_in_bytes, 4096, "{s:?}");
        let mut out = vec![0u8; 4096];
        assert!(store.get(7, &mut out).unwrap());
        assert_eq!(out, page(2));
    }
}

#[test]
fn a_reput_orphans_a_queued_seal() {
    race_a_deferred_seal(false, reput, Some(&page(2)));
}

#[test]
fn a_reput_orphans_a_sealed_unpublished_seal() {
    race_a_deferred_seal(true, reput, Some(&page(2)));
}

#[test]
fn a_remove_orphans_a_queued_seal() {
    race_a_deferred_seal(false, remove_it, None);
}

#[test]
fn a_remove_orphans_a_sealed_unpublished_seal() {
    race_a_deferred_seal(true, remove_it, None);
}

#[test]
fn a_promotion_orphans_a_queued_seal() {
    race_a_deferred_seal(false, read_twice, Some(&page(1)));
}

#[test]
fn a_promotion_orphans_a_sealed_unpublished_seal() {
    race_a_deferred_seal(true, read_twice, Some(&page(1)));
}

/// At budget, a deferred put makes room for its raw page, where the
/// inline put would only need room for its sealed bytes: it hands a warm
/// page to the writer, and its own page waits `Sealing`. The writer is
/// held inside the victim's batch, so the background thread cannot seal
/// the page before the test looks.
#[test]
fn a_deferred_put_at_budget_evicts_and_waits_sealing() {
    let gate = Arc::new(Gate::new(Arc::new(MemMedium::new())));
    let store = at_budget_store(Arc::clone(&gate) as _);
    store.put(7, &page(7)).unwrap();
    // Published: the sealed page leaves room for another sealed page,
    // not for a raw one.
    store.flush().unwrap();
    let room = store.core.cfg.memory_budget - store.stats().resident_bytes as usize;
    assert!(
        room < 4096 && room > sealed_form(&store, 7).1,
        "room {room}"
    );
    gate.arm();
    store.put(8, &page(8)).unwrap();
    assert!(gate.holding(), "the victim's batch was never written");
    let s = store.stats();
    assert!(s.spilled >= 1, "no warm page went to the writer: {s:?}");
    assert_eq!(s.seals_deferred, 2, "{s:?}");
    assert!(is_sealing(&store, 8));
    store.check_invariants().unwrap();
    gate.release();
    store.flush().unwrap();
    store.check_invariants().unwrap();
    let mut out = vec![0u8; 4096];
    let fill = (1000..1160u64).map(|k| (k, bdi_page(k as u8)));
    for (k, want) in fill.chain([(7, page(7)), (8, page(8))]) {
        assert!(store.get(k, &mut out).unwrap(), "key {k} lost");
        assert_eq!(out, want, "key {k}");
    }
}

/// Put an LZRW1 page under each of `keys`: it defers exactly when fewer
/// than `bound` seal jobs are outstanding before it, and the checker
/// holds after it. Returns the keys that found the bound full and sealed
/// inline. Only this thread's puts publish jobs (those the background
/// thread has sealed), so the jobs outstanding before a put are the ones
/// it finds, however that thread is scheduled.
fn put_within_the_bound(
    store: &CompressedStore,
    keys: std::ops::Range<u64>,
    bound: usize,
) -> Vec<u64> {
    let mut inline = Vec::new();
    for k in keys {
        let full = store.core.inbox().seals.outstanding == bound;
        let before = store.stats().seals_deferred;
        store.put(k, &page(k as u8)).unwrap();
        assert_eq!(store.stats().seals_deferred == before, full, "put {k}");
        store.check_invariants().unwrap();
        if full {
            inline.push(k);
        }
    }
    inline
}

/// The raw pages waiting for their seals stay within a quarter of the
/// budget: an 8-page spill store holds at most two jobs outstanding, so
/// its third deferral, with the first two unpublished, seals inline —
/// and so does every put that finds two, past the budget too.
#[test]
fn sealing_bytes_stay_within_a_quarter_of_a_tiny_budget() {
    let store = CompressedStore::with_medium(
        StoreConfig::in_memory(8 * 4096).with_demote_interval(Duration::from_secs(3600)),
        Arc::new(MemMedium::new()),
    );
    put_within_the_bound(&store, 0..3, 2);
    assert_eq!(store.core.seal_bound(), 2);
    let inline = put_within_the_bound(&store, 3..80, 2);
    let s = store.stats();
    assert!(s.spilled > 0 && s.seals_deferred > 0, "{s:?}");
    assert!(
        !inline.is_empty(),
        "no put found the bound full past the budget"
    );
    store.flush().unwrap();
    store.check_invariants().unwrap();
    let mut out = vec![0u8; 4096];
    for k in 0..80u64 {
        assert!(store.get(k, &mut out).unwrap(), "key {k} lost");
        assert_eq!(out, page(k as u8), "key {k}");
    }
}

/// A published seal lands where the inline put would have put the page,
/// counted as it would have been, and the put after the seal is the one
/// that publishes it.
#[test]
fn a_deferred_seal_publishes_where_the_inline_put_lands() {
    let store = deferring_store();
    let inline = CompressedStore::new(
        StoreConfig::in_memory(1 << 20).with_tier_policy(TierPolicy::PAPER_THRESHOLD),
    );
    // Three quarters noise: routed to LZRW1, rejected by 4:3, so hot.
    let mut rejected = noise_page(2);
    rejected[3072..].copy_from_slice(&page(2)[3072..]);
    for s in [&store, &inline] {
        s.put(1, &page(1)).unwrap();
        s.put(2, &rejected).unwrap();
    }
    assert!(is_sealing(&store, 1) && is_sealing(&store, 2));
    assert_eq!(store.stats().puts_lzrw1, 0);
    store.core.seal_queued();
    store.put(3, &bdi_page(3)).unwrap();
    inline.put(3, &bdi_page(3)).unwrap();
    let (s, i) = (store.stats(), inline.stats());
    assert_eq!(s.seals_deferred, 2, "{s:?}");
    assert_eq!(i.seals_deferred, 0, "no demoter, no deferral");
    assert_eq!((s.puts_hot, s.stored_raw), (1, 1), "{s:?}");
    assert_eq!(
        (s.puts_lzrw1, s.stored_raw, s.puts_bdi, s.puts_hot),
        (i.puts_lzrw1, i.stored_raw, i.puts_bdi, i.puts_hot),
        "{s:?}"
    );
    assert_eq!(
        (
            s.lzrw1_out_bytes,
            s.resident_bytes,
            s.hot_bytes,
            s.warm_bytes
        ),
        (
            i.lzrw1_out_bytes,
            i.resident_bytes,
            i.hot_bytes,
            i.warm_bytes
        )
    );
    for k in 1..=3 {
        assert_eq!(store.peek_tier(k), inline.peek_tier(k), "key {k}");
    }
    store.check_invariants().unwrap();
}

/// Deferral happens within the `Sealing` bound, never on a store
/// without a demoter, and never after shutdown.
#[test]
fn seals_defer_within_the_sealing_bound_and_before_shutdown() {
    // A quarter of 32 KiB: two jobs outstanding at most.
    let store = CompressedStore::new(
        StoreConfig::in_memory(32 * 1024).with_demote_interval(Duration::from_secs(3600)),
    );
    // Two deferred, then the bound is full: inline.
    let inline = put_within_the_bound(&store, 0..16, 2);
    assert!(inline.first().is_some_and(|&k| k >= 2), "{inline:?}");
    let deferred = store.stats().seals_deferred;
    assert_eq!(deferred, 16 - inline.len() as u64);
    store.check_invariants().unwrap();
    store.shutdown();
    assert!((0..16).all(|k| !is_sealing(&store, k)));
    store.check_invariants().unwrap();
    assert!(store.remove(2));
    store.put(2, &page(2)).unwrap();
    assert_eq!(
        store.stats().seals_deferred,
        deferred,
        "deferred after shutdown"
    );

    let flat = CompressedStore::new(
        StoreConfig::in_memory(1 << 20).with_tier_policy(TierPolicy::COMPRESS_ALL),
    );
    flat.put(0, &page(0)).unwrap();
    assert_eq!(flat.stats().seals_deferred, 0);
    assert_eq!(flat.stats().puts_lzrw1, 1);
}
