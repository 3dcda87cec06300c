//! Property tests of the standalone `CompressedStore` against a model.

use cc_compress::CodecPolicy;
use cc_core::store::{CompressedStore, StoreConfig};
use cc_util::SplitMix64;
use proptest::prelude::*;
use std::collections::HashMap;

const PAGE: usize = 1024; // smaller pages keep the cases fast

#[derive(Debug, Clone, Copy)]
enum Fill {
    /// Compressible text-like content.
    Text,
    /// Incompressible noise (exercises the stored-raw path).
    Noise,
    /// A single repeated word (exercises the same-filled fast path).
    Same,
    /// 8-byte words clustered near one base (exercises the BDI codec
    /// under the default adaptive policy).
    Words,
}

#[derive(Debug, Clone)]
enum Op {
    Put { key: u8, seed: u16, fill: Fill },
    Get { key: u8 },
    Remove { key: u8 },
}

fn op() -> impl Strategy<Value = Op> {
    let fill = prop_oneof![
        3 => Just(Fill::Text),
        2 => Just(Fill::Noise),
        1 => Just(Fill::Same),
        2 => Just(Fill::Words),
    ];
    prop_oneof![
        3 => (any::<u8>(), any::<u16>(), fill).prop_map(|(key, seed, fill)| Op::Put {
            key,
            seed,
            fill
        }),
        1 => any::<u8>().prop_map(|key| Op::Get { key }),
        1 => any::<u8>().prop_map(|key| Op::Remove { key }),
    ]
}

fn page_for(seed: u16, fill: Fill) -> Vec<u8> {
    match fill {
        Fill::Noise => {
            let mut rng = SplitMix64::new(seed as u64);
            (0..PAGE).map(|_| rng.next_u64() as u8).collect()
        }
        Fill::Text => {
            let mut p = vec![0u8; PAGE];
            for (i, b) in p.iter_mut().enumerate() {
                *b = ((seed as usize + i / 31) % 251) as u8;
            }
            p
        }
        Fill::Same => {
            let word = (seed as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .to_ne_bytes();
            word.iter().copied().cycle().take(PAGE).collect()
        }
        Fill::Words => {
            let base = 0x5000_0000_0000u64 ^ ((seed as u64) << 24);
            let mut p = Vec::with_capacity(PAGE);
            for i in 0..(PAGE as u64 / 8) {
                p.extend_from_slice(&(base + (i * 7 + seed as u64) % 200).to_le_bytes());
            }
            p
        }
    }
}

fn run_ops(store: &CompressedStore, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut model: HashMap<u8, Vec<u8>> = HashMap::new();
    let mut out = vec![0u8; PAGE];
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Put { key, seed, fill } => {
                let page = page_for(seed, fill);
                store.put(key as u64, &page).unwrap();
                model.insert(key, page);
            }
            Op::Get { key } => {
                let found = store.get(key as u64, &mut out).unwrap();
                match model.get(&key) {
                    Some(expect) => {
                        prop_assert!(found, "op {i}: key {key} lost");
                        prop_assert_eq!(&out, expect, "op {} key {} corrupted", i, key);
                    }
                    None => prop_assert!(!found, "op {i}: phantom key {key}"),
                }
            }
            Op::Remove { key } => {
                let existed = store.remove(key as u64);
                prop_assert_eq!(existed, model.remove(&key).is_some(), "op {}", i);
            }
        }
        // The script is single-threaded, the spill writer and the demoter
        // are not: the checker holds every shard lock, so what it sees is
        // one instant of their work.
        if let Err(e) = store.check_invariants() {
            prop_assert!(false, "after op {i} ({op:?}): {e}");
        }
    }
    // Final verification of every key.
    for (key, expect) in &model {
        let found = store.get(*key as u64, &mut out).unwrap();
        prop_assert!(found, "final: key {key} lost");
        prop_assert_eq!(&out, expect, "final key {} corrupted", key);
    }
    prop_assert_eq!(store.len(), model.len());
    // Quiescent: nothing in flight, nothing left `Spilling`.
    store.flush().unwrap();
    if let Err(e) = store.check_invariants() {
        prop_assert!(false, "after the final flush: {e}");
    }
    prop_assert_eq!(store.stats().spill_inflight_bytes, 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Unbounded in-memory store matches the model exactly.
    #[test]
    fn in_memory_matches_model(ops in proptest::collection::vec(op(), 1..150)) {
        let store = CompressedStore::new(StoreConfig::in_memory(64 << 20));
        run_ops(&store, &ops)?;
    }

    /// A tightly budgeted store with a spill file still matches the model:
    /// every path (memory hit, mid-spill hit, disk hit) returns exact data.
    #[test]
    fn spilling_store_matches_model(ops in proptest::collection::vec(op(), 1..150)) {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "ccstore-prop-{}-{:x}.bin",
            std::process::id(),
            // Distinct file per case: hash the op count and first op debug.
            ops.len() as u64 ^ (std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos() as u64)
        ));
        {
            // Budget of ~4 compressed pages forces constant spilling.
            let store = CompressedStore::new(StoreConfig::with_spill(4 * PAGE, &path));
            run_ops(&store, &ops)?;
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Every codec policy matches the model: whatever lzrw1-only /
    /// adaptive selects per page, gets return exact bytes across memory
    /// and spill tiers.
    #[test]
    fn every_codec_policy_matches_model(
        ops in proptest::collection::vec(op(), 1..100),
        policy_idx in 0..CodecPolicy::all().len(),
    ) {
        let policy = CodecPolicy::all()[policy_idx];
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "ccstore-polprop-{}-{:x}.bin",
            std::process::id(),
            ops.len() as u64 ^ (std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos() as u64)
        ));
        {
            let store = CompressedStore::new(
                StoreConfig::with_spill(4 * PAGE, &path).with_codec_policy(policy),
            );
            run_ops(&store, &ops)?;
        }
        let _ = std::fs::remove_file(&path);
    }

    /// GC compaction round-trip: aggressive dead-ratio + tiny batches make
    /// the writer compact constantly while random put/remove/replace
    /// interleavings churn the file, and the full readback must still
    /// match the model. Same-filled pages ride along so pattern entries
    /// coexist with relocating extents.
    #[test]
    fn gc_churn_matches_model(ops in proptest::collection::vec(op(), 50..250)) {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "ccstore-gcprop-{}-{:x}.bin",
            std::process::id(),
            ops.len() as u64 ^ (std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos() as u64)
        ));
        {
            let store = CompressedStore::new(
                StoreConfig::with_spill(4 * PAGE, &path)
                    .with_spill_batch_bytes(2 * PAGE)
                    .with_gc_dead_ratio(0.2),
            );
            run_ops(&store, &ops)?;
            // The file must not have accreted all dead extents: under a
            // tight budget it is bounded by the live set plus slack for
            // regions whose dead fraction is still below the trigger.
            store.flush().unwrap();
            let s = store.stats();
            let live_upper = (store.len() as u64 + 8) * PAGE as u64;
            prop_assert!(
                s.bytes_on_spill <= live_upper * 6,
                "spill file unbounded: {} bytes for {} live keys ({s:?})",
                s.bytes_on_spill,
                store.len()
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Same-filled detection is exact: a page is stored via the pattern
    /// path iff it is one repeated 8-byte word, and either way it
    /// round-trips. Pages are deliberately *not* word-multiples here
    /// (PAGE-3) and near-patterns flip one byte at a random offset.
    #[test]
    fn same_filled_edge_cases(
        word in any::<u64>(),
        flip in proptest::option::of(0..(PAGE - 3)),
    ) {
        const ODD: usize = PAGE - 3;
        let mut page: Vec<u8> = word
            .to_ne_bytes()
            .iter()
            .copied()
            .cycle()
            .take(ODD)
            .collect();
        // One flipped byte always breaks the pattern: the base is exactly
        // repeating, so the flipped word (or tail) no longer matches.
        let mut flipped = false;
        if let Some(i) = flip {
            page[i] ^= 0x40;
            flipped = true;
        }
        let store = CompressedStore::new(StoreConfig::in_memory(64 << 20));
        store.put(1, &page).unwrap();
        store.flush().unwrap();
        let s = store.stats();
        if flipped {
            prop_assert_eq!(s.same_filled, 0, "near-pattern wrongly elided");
            prop_assert_eq!(s.compressed + s.stored_raw, 1);
        } else {
            prop_assert_eq!(s.same_filled, 1, "repeated word not detected");
            prop_assert_eq!(s.compressed + s.stored_raw, 0);
            prop_assert_eq!(s.resident_bytes, 0);
        }
        let mut out = vec![0u8; ODD];
        prop_assert!(store.get(1, &mut out).unwrap());
        prop_assert_eq!(&out, &page);
    }
}
