//! Property tests of the tiering engine: byte-for-byte integrity while
//! entries migrate hot → warm → cold → hot, under every tier policy.
//!
//! The flat-store proptests (`store_proptest.rs`) already cover the
//! residence machinery under the default policy; these cases add (1) the
//! policy dimension — each `TierPolicy` preset must preserve exact
//! bytes — and (2) explicit `demote_now()` passes under an aggressive
//! recency policy, so single cases drive pages through the complete
//! hot → warm → cold → hot cycle deterministically.

use cc_core::store::{CompressedStore, StoreConfig};
use cc_core::tier::TierPolicy;
use cc_util::SplitMix64;
use proptest::prelude::*;
use std::collections::HashMap;
use std::time::Duration;

const PAGE: usize = 1024;

#[derive(Debug, Clone, Copy)]
enum Fill {
    /// Compressible text-like content (admitted → warm on put).
    Text,
    /// Incompressible noise (rejected → hot under the adaptive policies).
    Noise,
    /// A single repeated word (same-filled fast path, tier-independent).
    Same,
}

#[derive(Debug, Clone)]
enum Op {
    Put {
        key: u8,
        seed: u16,
        fill: Fill,
    },
    Get {
        key: u8,
    },
    Remove {
        key: u8,
    },
    /// One explicit demoter pass (the background thread is parked).
    Demote,
    Flush,
}

fn op() -> impl Strategy<Value = Op> {
    let fill = prop_oneof![
        3 => Just(Fill::Text),
        3 => Just(Fill::Noise),
        1 => Just(Fill::Same),
    ];
    prop_oneof![
        4 => (any::<u8>(), any::<u16>(), fill).prop_map(|(key, seed, fill)| Op::Put {
            key,
            seed,
            fill
        }),
        3 => any::<u8>().prop_map(|key| Op::Get { key }),
        1 => any::<u8>().prop_map(|key| Op::Remove { key }),
        1 => Just(Op::Demote),
        1 => Just(Op::Flush),
    ]
}

fn page_for(seed: u16, fill: Fill) -> Vec<u8> {
    match fill {
        Fill::Noise => {
            let mut rng = SplitMix64::new(seed as u64 + 1);
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
            Op::Demote => {
                store.demote_now();
            }
            Op::Flush => store.flush().unwrap(),
        }
    }
    for (key, expect) in &model {
        let found = store.get(*key as u64, &mut out).unwrap();
        prop_assert!(found, "final: key {key} lost");
        prop_assert_eq!(&out, expect, "final key {} corrupted", key);
    }
    prop_assert_eq!(store.len(), model.len());
    // Tier gauges partition the budget gauge exactly (single-threaded,
    // demoter parked): whatever moved between tiers, nothing leaked.
    let s = store.stats();
    prop_assert_eq!(s.hot_bytes + s.warm_bytes, s.resident_bytes, "{:?}", s);
    prop_assert!(s.resident_bytes <= 8 * PAGE as u64, "over budget: {s:?}");
    store.flush().unwrap();
    if let Err(e) = store.check_invariants() {
        prop_assert!(false, "after the final flush: {e}");
    }
    Ok(())
}

fn spill_path(tag: &str, salt: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "ccstore-tierprop-{tag}-{}-{:x}.bin",
        std::process::id(),
        salt ^ (std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos() as u64)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every tier policy preset preserves exact bytes under a tight
    /// budget with a spill file: wherever each policy places, keeps, or
    /// migrates a page, gets return what was put.
    #[test]
    fn any_policy_matches_model(
        ops in proptest::collection::vec(op(), 1..120),
        policy_idx in 0usize..3,
    ) {
        let policy = [
            TierPolicy::COMPRESS_ALL,
            TierPolicy::PAPER_THRESHOLD,
            TierPolicy::RECENCY,
        ][policy_idx];
        let path = spill_path(&format!("policy{policy_idx}"), ops.len() as u64);
        {
            let store = CompressedStore::new(
                StoreConfig::with_spill(8 * PAGE, &path)
                    .with_tier_policy(policy)
                    .with_demote_interval(Duration::from_secs(3600)),
            );
            run_ops(&store, &ops)?;
            store.shutdown();
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Aggressive recency policy: idle windows of one op and zero
    /// pressure floors make every explicit demoter pass migrate whatever
    /// aged, so cases constantly push pages hot → warm → cold while
    /// re-accesses promote them back — all byte-exact.
    #[test]
    fn aggressive_demotion_matches_model(ops in proptest::collection::vec(op(), 1..120)) {
        let policy = TierPolicy {
            rejects_hot: true,
            hot_idle: 1,
            warm_idle: 2,
            promote_window: u64::MAX,
            max_promote_pressure_pct: 100,
            hot_demote_pressure_pct: 0,
            warm_demote_pressure_pct: 0,
        };
        let path = spill_path("aggressive", ops.len() as u64);
        {
            let store = CompressedStore::new(
                StoreConfig::with_spill(8 * PAGE, &path)
                    .with_tier_policy(policy)
                    .with_demote_interval(Duration::from_secs(3600)),
            );
            run_ops(&store, &ops)?;
            store.shutdown();
        }
        let _ = std::fs::remove_file(&path);
    }
}
