use std::sync::Arc;
use std::time::{Duration, Instant};

use super::extent::{encode_extent, verify_extent, EXTENT_HEADER};
use super::shard::{probe_code, Residence, PROBE_REJECTED};
use super::*;
use cc_compress::{same_filled_pattern, CodecId, CodecPolicy};
use cc_telemetry::trace::Tracer;

fn page(tag: u8) -> Vec<u8> {
    let mut p = vec![0u8; 4096];
    for (i, b) in p.iter_mut().enumerate() {
        *b = tag.wrapping_add((i / 97) as u8);
    }
    p
}

fn temp_path(name: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("ccstore-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    (dir.clone(), dir.join("spill.bin"))
}

/// Bytes of a hex string (the golden on-disk records).
pub(crate) fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn cleanup(dir: std::path::PathBuf, path: std::path::PathBuf) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_dir(dir);
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
    let (dir, path) = temp_path("codecid");
    {
        // Tiny budget + tiny batches + aggressive GC: BDI-sealed
        // extents are spilled, relocated by compaction, and must still
        // decode with the codec recorded at seal time.
        let store = CompressedStore::new(
            StoreConfig::with_spill(4 * 1024, &path)
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
    cleanup(dir, path);
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
    let (dir, path) = temp_path("test");
    {
        // Budget fits only a handful of compressed pages.
        let store = CompressedStore::new(StoreConfig::with_spill(8 * 1024, &path));
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
    cleanup(dir, path);
}

#[test]
fn spill_batches_coalesce_entries() {
    let (dir, path) = temp_path("batch");
    {
        // Budget of ~2 compressed pages: nearly every put evicts, and
        // the single-threaded put loop outruns the 200 µs linger, so
        // the writer must pack multiple entries per batch.
        let store = CompressedStore::new(StoreConfig::with_spill(4 * 1024, &path));
        for k in 0..256u64 {
            store.put(k, &page(k as u8)).unwrap();
        }
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
        for k in 0..256u64 {
            assert!(store.get(k, &mut out).unwrap(), "key {k} lost");
            assert_eq!(out, page(k as u8), "key {k} corrupted");
        }
    }
    cleanup(dir, path);
}

#[test]
fn flush_makes_partial_batch_readable() {
    let (dir, path) = temp_path("midbatch");
    {
        // A batch target far larger than the data guarantees the
        // entries sit in a partially-filled batch; flush() must still
        // make them durable and readable.
        let store = CompressedStore::new(
            StoreConfig::with_spill(4 * 1024, &path).with_spill_batch_bytes(1 << 20),
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
    cleanup(dir, path);
}

#[test]
fn remove_and_replace_account_dead_bytes() {
    let (dir, path) = temp_path("dead");
    {
        // GC disabled so the gauge is observable without compaction.
        let store =
            CompressedStore::new(StoreConfig::with_spill(4 * 1024, &path).with_gc_dead_ratio(1e9));
        for k in 0..32u64 {
            store.put(k, &page(k as u8)).unwrap();
        }
        store.flush().unwrap();
        assert_eq!(store.stats().spill_dead_bytes, 0);
        // Removing spilled entries strands their extents.
        for k in 0..8u64 {
            assert!(store.remove(k));
        }
        let after_remove = store.stats().spill_dead_bytes;
        assert!(after_remove > 0, "removes must strand dead bytes");
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
    cleanup(dir, path);
}

#[test]
fn gc_compacts_dead_space_and_preserves_data() {
    let (dir, path) = temp_path("gc");
    {
        // Tiny batches + aggressive ratio so compaction triggers
        // repeatedly under replace churn.
        let store = CompressedStore::new(
            StoreConfig::with_spill(4 * 1024, &path)
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
        // The on-disk file really is the size the gauge reports.
        let fs_len = std::fs::metadata(&path).unwrap().len();
        let s = store.stats();
        assert!(
            fs_len <= s.bytes_on_spill + store.core.cfg.spill_batch_bytes as u64 * 2,
            "fs={fs_len} gauge={}",
            s.bytes_on_spill
        );
    }
    cleanup(dir, path);
}

#[test]
fn telemetry_snapshot_covers_tiers_and_events() {
    use cc_telemetry::LATENCY_SAMPLE_PERIOD;
    let (dir, path) = temp_path("tel");
    {
        let tracer = Arc::new(Tracer::builder().sample_every(1).sink_memory().build());
        let store = CompressedStore::new(
            StoreConfig::with_spill(8 * 1024, &path)
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

        // Counters, events and gauges are never sampled.
        let snap = store.telemetry_snapshot();
        let (puts, gets) = (64 * ROUNDS, 64 * ROUNDS + 1);
        assert_eq!(snap.counter("compressed"), Some(64 + puts));
        assert_eq!(snap.counter("same_filled"), Some(1));
        assert_eq!(snap.counter("misses"), Some(1));
        let hits = ["hits_hot", "hits_memory", "hits_spill"].map(|c| snap.counter(c).unwrap());
        assert_eq!(hits.iter().sum::<u64>(), gets + 1, "{hits:?}");
        assert!(snap.event_count("batch_commit").unwrap() > 0);
        assert!(snap.event_count("evict").unwrap() > 0);
        assert_eq!(snap.event_count("same_filled"), Some(1));
        assert!(!snap.recent.is_empty());
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
        assert!(snap.to_json(0).contains("\"spill_verify\": {"));
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
    cleanup(dir, path);
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
    let s = store.stats();
    assert_eq!(s.compressed, 16);
    assert_eq!(s.hits_memory, 16);
    let snap = store.telemetry_snapshot();
    assert_eq!(snap.op("put").unwrap().count, 0, "sampling must be off");
    assert_eq!(snap.counter("compressed"), Some(16), "counters stay live");
    assert_eq!(snap.event_count("evict"), Some(0));
}

/// The exported schema, in order: STATS, Prometheus and JSON render
/// these names as they stand, so a rename or a reorder must show here.
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
         demoted_warm demoter_passes extents_recovered journal_records_replayed \
         torn_tail_discarded stale_generation_dropped recovery_extents_verified \
         journal_records_written journal_compactions clean_recoveries \
         put_backpressure_waits invariant_violations"
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
        names(&snap.events),
        "batch_commit gc_run evict threshold_reject same_filled degrade recover shed \
         corrupt promote demote recovery"
    );
    assert_eq!(
        names(&snap.gauges),
        "uptime_seconds latency_sample_period resident_bytes hot_resident_bytes \
         warm_resident_bytes bytes_on_spill spill_dead_bytes spill_inflight_bytes degraded"
    );
}

#[test]
fn shutdown_then_reads_still_work() {
    let (dir, path) = temp_path("shut");
    {
        let store = CompressedStore::new(StoreConfig::with_spill(8 * 1024, &path));
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
    cleanup(dir, path);
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
    let (dir, path) = temp_path("mt");
    {
        let store = Arc::new(CompressedStore::new(StoreConfig::with_spill(
            16 * 1024,
            &path,
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
    cleanup(dir, path);
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
    let (dir, path) = temp_path("shutdown-put");
    {
        // Budget of ~1 compressed page: puts beyond the first must
        // go through the (stopped) spill writer.
        let store = CompressedStore::new(StoreConfig::with_spill(4 * 1024, &path));
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
    cleanup(dir, path);
}

/// An incompressible page (uniform noise) — the tier policies send
/// these hot because compressing them buys nothing.
fn noise_page(seed: u64) -> Vec<u8> {
    let mut rng = cc_util::SplitMix64::new(seed.wrapping_mul(2) + 1);
    (0..4096).map(|_| rng.next_u64() as u8).collect()
}

/// A budget smaller than one sealed page: no put can be resident, so
/// every one takes the put path's straight-to-spill hand-off. The store
/// is not persistent, so none of them may be marked journaled.
#[test]
fn straight_to_spill_puts_on_a_scratch_store_are_not_journaled() {
    let (dir, path) = temp_path("direct-spill");
    {
        let store = CompressedStore::new(StoreConfig::with_spill(2048, &path));
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
    }
    cleanup(dir, path);
}

#[test]
fn incompressible_puts_land_hot_and_hit_without_decode() {
    let store = CompressedStore::new(StoreConfig::in_memory(1 << 20));
    let mut out = vec![0u8; 4096];
    for k in 0..8u64 {
        store.put(k, &noise_page(k)).unwrap();
    }
    let s = store.stats();
    // The put still ran the compressor (threshold counters are tier-
    // independent); the raw bytes are what got kept.
    assert_eq!(s.puts_hot, 8, "{s:?}");
    assert_eq!(s.stored_raw, 8, "{s:?}");
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

#[test]
fn compress_all_policy_reproduces_flat_store() {
    let (dir, path) = temp_path("tier-flat");
    {
        let store = CompressedStore::new(
            StoreConfig::with_spill(1 << 20, &path)
                .with_tier_policy(Arc::new(crate::tier::CompressAll)),
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
    cleanup(dir, path);
}

#[test]
fn paper_threshold_policy_splits_on_admission_only() {
    let store = CompressedStore::new(
        StoreConfig::in_memory(1 << 20).with_tier_policy(Arc::new(crate::tier::PaperThreshold)),
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
}

/// The full lifecycle under an aggressive recency policy: a promoted
/// hot page is demoted back to warm by an explicit pass, aged out to
/// the spill file by the next, and climbs back to hot on re-access —
/// byte-identical at every step.
#[test]
fn demote_now_cycles_hot_to_warm_to_cold_and_back() {
    let (dir, path) = temp_path("tier-cycle");
    {
        let policy = crate::tier::RecencyCompressibility {
            hot_idle: 1,
            // One step above hot_idle so a single pass demotes hot →
            // warm without cascading straight on to the spill file.
            warm_idle: 2,
            hot_demote_pressure_pct: 0,
            warm_demote_pressure_pct: 0,
            ..Default::default()
        };
        let store = CompressedStore::new(
            StoreConfig::with_spill(1 << 20, &path)
                .with_tier_policy(Arc::new(policy))
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
    cleanup(dir, path);
}

/// `(codec id, sealed payload length)` of `key`'s stored form.
fn sealed_form(store: &CompressedStore, key: u64) -> (u8, usize) {
    store.flush().unwrap();
    let shard = store.core.shard(key);
    let e = shard.entries.get(&key).expect("key stored");
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
    let (dir, path) = temp_path("tier-reput");
    let (dir_flat, path_flat) = temp_path("tier-reput-flat");
    {
        let policy = crate::tier::RecencyCompressibility {
            hot_idle: 4,
            warm_idle: u64::MAX,
            hot_demote_pressure_pct: 0,
            ..Default::default()
        };
        let store = CompressedStore::new(
            StoreConfig::with_spill(1 << 20, &path)
                .with_tier_policy(Arc::new(policy))
                // Only the explicit demote_now() below runs.
                .with_demote_interval(Duration::from_secs(3600)),
        );
        let flat = CompressedStore::new(
            StoreConfig::with_spill(1 << 20, &path_flat)
                .with_tier_policy(Arc::new(crate::tier::CompressAll)),
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
            assert_eq!(store.core.shard(*key).entries[key].probe, probe_code(None));
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
    cleanup(dir, path);
    cleanup(dir_flat, path_flat);
}
/// A page is hot *because* the threshold rejected its compressed
/// form, and the entry remembers that: demotion seals it as the
/// stored block it already was — same codec id, same length, same
/// bytes on the spill file as a put that compresses up front — and
/// the memory survives promotion. A kept-hot re-put of different
/// bytes forgets it.
#[test]
fn rejected_page_is_sealed_raw_from_the_remembered_verdict() {
    let (dir, path) = temp_path("tier-rejected");
    let (dir_flat, path_flat) = temp_path("tier-rejected-flat");
    {
        let policy = crate::tier::RecencyCompressibility {
            hot_idle: 4,
            warm_idle: u64::MAX,
            hot_demote_pressure_pct: 0,
            ..Default::default()
        };
        let store = CompressedStore::new(
            StoreConfig::with_spill(1 << 20, &path)
                .with_tier_policy(Arc::new(policy))
                // Only the explicit demote_now() below runs.
                .with_demote_interval(Duration::from_secs(3600)),
        );
        let flat = CompressedStore::new(
            StoreConfig::with_spill(1 << 20, &path_flat)
                .with_tier_policy(Arc::new(crate::tier::CompressAll)),
        );
        let probe_of = |key: u64| store.core.shard(key).entries[&key].probe;
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
            assert_eq!(probe_of(key), PROBE_REJECTED);
        }
        // Key 4 is overwritten in place with compressible bytes: the
        // verdict was about the old ones.
        store.put(4, &bdi_page(4)).unwrap();
        assert_eq!(store.peek_tier(4), Some(HitTier::Hot));
        assert_eq!(probe_of(4), probe_code(None));

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
        assert_eq!(probe_of(3), PROBE_REJECTED);
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
    cleanup(dir, path);
    cleanup(dir_flat, path_flat);
}

/// Nobody wakes the demoter but its own interval, and one wake drains
/// the whole aged backlog: after the last put, with no eviction to
/// ride on, every aged hot page still leaves the hot tier — in a
/// number of passes that is small beside the operations issued.
#[test]
fn demoter_drains_aged_backlog_without_a_kick() {
    let (dir, path) = temp_path("tier-drain");
    {
        let policy = crate::tier::RecencyCompressibility {
            hot_idle: 512,
            warm_idle: u64::MAX,
            hot_demote_pressure_pct: 0,
            ..Default::default()
        };
        let store = CompressedStore::new(
            StoreConfig::with_spill(1 << 20, &path)
                .with_tier_policy(Arc::new(policy))
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
    cleanup(dir, path);
}

/// Four putters at budget pressure while the demoter, woken every
/// millisecond, takes and drops each shard lock once per victim: the
/// re-lock-per-entry path under contention. Every key must read back
/// as its last put and the bookkeeping must add up.
#[test]
fn putters_at_pressure_race_a_fast_demoter() {
    const PUTTERS: u64 = 4;
    const KEYS_EACH: u64 = 96;
    let (dir, path) = temp_path("tier-race");
    {
        let policy = crate::tier::RecencyCompressibility {
            hot_idle: 64,
            warm_idle: 128,
            hot_demote_pressure_pct: 0,
            warm_demote_pressure_pct: 0,
            ..Default::default()
        };
        let store = CompressedStore::new(
            StoreConfig::with_spill(256 << 10, &path)
                .with_tier_policy(Arc::new(policy))
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
    cleanup(dir, path);
}
