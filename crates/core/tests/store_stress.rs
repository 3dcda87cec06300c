//! Multi-threaded stress tests for the sharded `CompressedStore`.
//!
//! Eight threads hammer an overlapping key space with puts, gets,
//! removes, and flushes while a sampler thread watches the memory
//! accounting. Two invariants must hold throughout:
//!
//! 1. **Round-trip integrity** — a `get` either misses or returns exactly
//!    the page deterministically derived from its key; torn, stale-beyond
//!    -replacement, or cross-key data is a failure.
//! 2. **Budget** — `stats().resident_bytes` never exceeds the configured
//!    memory budget, at any sampled instant, under full contention.

use cc_core::store::{CompressedStore, StoreConfig, StoreError};
use cc_core::tier::RecencyCompressibility;
use cc_util::SplitMix64;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const PAGE: usize = 4096;
const THREADS: u64 = 8;
/// Shared key space: every key is touched by several threads.
const KEYS: u64 = 512;

/// The one true page for `key`: mixed compressible/incompressible
/// content so stores exercise both the keep and reject threshold paths.
fn page_for(key: u64) -> Vec<u8> {
    let mut p = vec![0u8; PAGE];
    if key.is_multiple_of(3) {
        let mut rng = SplitMix64::new(key.wrapping_mul(0x9E37_79B9));
        for b in p.iter_mut() {
            *b = rng.next_u64() as u8;
        }
    } else {
        for (i, b) in p.iter_mut().enumerate() {
            *b = (key as u8).wrapping_add((i / 61) as u8);
        }
    }
    p
}

fn hammer(store: Arc<CompressedStore>, ops_per_thread: u64, allow_oom: bool) {
    let stop = Arc::new(AtomicBool::new(false));
    // Budget watcher: samples the gauge as fast as it can while the
    // worker threads churn.
    let budget = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut max_seen = 0u64;
            while !stop.load(Ordering::Relaxed) {
                max_seen = max_seen.max(store.stats().resident_bytes);
            }
            max_seen
        })
    };
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let store = Arc::clone(&store);
        handles.push(std::thread::spawn(move || {
            let mut rng = SplitMix64::new(t + 1);
            let mut out = vec![0u8; PAGE];
            for i in 0..ops_per_thread {
                let key = rng.next_u64() % KEYS;
                match rng.next_u64() % 10 {
                    // 50% puts keep the store full and churning.
                    0..=4 => match store.put(key, &page_for(key)) {
                        Ok(()) => {}
                        Err(StoreError::OutOfMemory) if allow_oom => {}
                        Err(e) => panic!("put({key}) failed: {e}"),
                    },
                    5..=7 => {
                        if store.get(key, &mut out).unwrap() {
                            assert_eq!(out, page_for(key), "key {key} corrupted");
                        }
                    }
                    8 => {
                        store.remove(key);
                    }
                    _ => {
                        if i % 64 == 0 {
                            store.flush().unwrap();
                        }
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let max_seen = budget.join().unwrap();
    let limit = store.stats().resident_bytes.max(max_seen);
    assert!(
        limit <= 48 * 1024 * 1024,
        "sanity: observed resident {limit}"
    );
}

#[test]
fn stress_in_memory_unbounded() {
    // Budget far above working set: no eviction, pure lock-striping churn.
    let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(48 << 20)));
    hammer(Arc::clone(&store), 4000, false);
    // Every surviving key must still round-trip.
    let mut out = vec![0u8; PAGE];
    for key in 0..KEYS {
        if store.get(key, &mut out).unwrap() {
            assert_eq!(out, page_for(key), "final key {key}");
        }
    }
    let s = store.stats();
    assert!(s.resident_bytes <= 48 << 20);
    store.check_invariants().unwrap();
}

#[test]
fn stress_spill_under_budget_pressure() {
    let dir = std::env::temp_dir().join(format!("ccstore-stress-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("spill.bin");
    const BUDGET: usize = 256 * 1024; // a few dozen compressed pages
    {
        let store = Arc::new(CompressedStore::new(StoreConfig::with_spill(BUDGET, &path)));
        let stop = Arc::new(AtomicBool::new(false));
        let watcher = {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut max_seen = 0u64;
                let mut samples = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    max_seen = max_seen.max(store.stats().resident_bytes);
                    samples += 1;
                }
                (max_seen, samples)
            })
        };
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                let mut rng = SplitMix64::new(0xC0FFEE + t);
                let mut out = vec![0u8; PAGE];
                for i in 0..1500u64 {
                    let key = rng.next_u64() % KEYS;
                    match rng.next_u64() % 8 {
                        0..=3 => store.put(key, &page_for(key)).unwrap(),
                        4..=5 => {
                            if store.get(key, &mut out).unwrap() {
                                assert_eq!(out, page_for(key), "key {key} corrupted");
                            }
                        }
                        6 => {
                            store.remove(key);
                        }
                        _ => {
                            if i % 100 == 0 {
                                store.flush().unwrap();
                            }
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let (max_seen, samples) = watcher.join().unwrap();
        assert!(samples > 0);
        assert!(
            max_seen <= BUDGET as u64,
            "budget exceeded: saw {max_seen} resident with budget {BUDGET}"
        );
        store.flush().unwrap();
        store.check_invariants().unwrap();
        let s = store.stats();
        assert!(s.resident_bytes <= BUDGET as u64);
        assert!(s.spilled > 0, "pressure test never spilled: {s:?}");
        // Full final verification through every residence class.
        let mut out = vec![0u8; PAGE];
        for key in 0..KEYS {
            if store.get(key, &mut out).unwrap() {
                assert_eq!(out, page_for(key), "final key {key}");
            }
        }
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

/// Budget + integrity under *aggressive compaction*: tiny spill batches
/// and a low dead ratio make the writer run GC constantly while eight
/// threads churn replaces and removes, so extents relocate under live
/// readers. The budget gauge must never exceed the budget — including
/// during compaction passes — and same-filled pages (mixed into the
/// workload) must round-trip through their pattern encoding.
#[test]
fn stress_gc_churn_with_same_filled() {
    let dir = std::env::temp_dir().join(format!("ccstore-gcstress-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("spill.bin");
    const BUDGET: usize = 128 * 1024;
    {
        let store = Arc::new(CompressedStore::new(
            StoreConfig::with_spill(BUDGET, &path)
                .with_spill_batch_bytes(4 * 1024)
                .with_gc_dead_ratio(0.25),
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let watcher = {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut max_seen = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    max_seen = max_seen.max(store.stats().resident_bytes);
                }
                max_seen
            })
        };
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                let mut rng = SplitMix64::new(0x6C_5EED + t);
                let mut out = vec![0u8; PAGE];
                for i in 0..1200u64 {
                    let key = rng.next_u64() % KEYS;
                    match rng.next_u64() % 10 {
                        // Heavy replace churn feeds dead bytes to GC.
                        0..=4 => store.put(key, &page_for(key)).unwrap(),
                        // Every 10th op stores a same-filled page under a
                        // dedicated key range so both encodings coexist.
                        5 => {
                            let sf = KEYS + (key % 16);
                            store.put(sf, &vec![(sf % 251) as u8; PAGE]).unwrap();
                        }
                        6..=7 => {
                            if store.get(key, &mut out).unwrap() {
                                assert_eq!(out, page_for(key), "key {key} corrupted");
                            }
                        }
                        8 => {
                            let sf = KEYS + (key % 16);
                            if store.get(sf, &mut out).unwrap() {
                                assert_eq!(
                                    out,
                                    vec![(sf % 251) as u8; PAGE],
                                    "same-filled key {sf} corrupted"
                                );
                            }
                        }
                        _ => {
                            store.remove(key);
                            if i % 200 == 0 {
                                store.flush().unwrap();
                            }
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let max_seen = watcher.join().unwrap();
        assert!(
            max_seen <= BUDGET as u64,
            "budget exceeded during GC churn: saw {max_seen} with budget {BUDGET}"
        );
        store.flush().unwrap();
        store.check_invariants().unwrap();
        let s = store.stats();
        assert!(s.spilled > 0, "GC stress never spilled: {s:?}");
        assert!(s.gc_runs > 0, "GC never ran under replace churn: {s:?}");
        assert!(s.same_filled > 0, "same-filled path unexercised: {s:?}");
        // GC detail telemetry: under this much replace churn compaction
        // must physically move live extents, and every pass is timed.
        assert!(
            s.gc_bytes_relocated > 0,
            "GC ran but relocated no bytes: {s:?}"
        );
        assert!(s.gc_pause_max_ns > 0, "GC pauses went unmeasured: {s:?}");
        // One pause sample per completed GC pass. `>=` rather than `==`:
        // the writer may legally finish one more pass between the two
        // reads.
        let gc_pause = store.telemetry_snapshot().op("gc_pause").unwrap();
        assert!(
            gc_pause.count >= s.gc_runs,
            "pause samples ({}) < GC runs ({})",
            gc_pause.count,
            s.gc_runs
        );
        assert!(gc_pause.max >= s.gc_pause_max_ns);
        // The file stays bounded by the live working set: thousands of
        // replace-spills flowed through it (several × KEYS × PAGE bytes),
        // so without reclamation it would dwarf the key space. With GC it
        // cannot exceed one uncompressed copy of every key.
        assert!(
            s.bytes_on_spill < (KEYS + 16) * PAGE as u64,
            "spill file unbounded under churn: {s:?}"
        );
        let mut out = vec![0u8; PAGE];
        for key in 0..KEYS {
            if store.get(key, &mut out).unwrap() {
                assert_eq!(out, page_for(key), "final key {key}");
            }
        }
        for sf in KEYS..KEYS + 16 {
            if store.get(sf, &mut out).unwrap() {
                assert_eq!(out, vec![(sf % 251) as u8; PAGE], "final same-filled {sf}");
            }
        }
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

/// Budget + integrity with the *background demoter* running flat out: a
/// 1 ms pass interval, one-op idle windows, and zero pressure floors
/// make it constantly compress hot pages down and push aged warm pages
/// to the spill file while eight threads put, get, remove, and flush,
/// and aggressive GC settings keep the writer compacting underneath.
/// The budget gauge must never exceed the budget at any sampled instant
/// — the demoter only ever *frees* memory — and every get must return
/// exact bytes whatever tier it caught the page in.
#[test]
fn stress_tiering_with_background_demoter() {
    let dir = std::env::temp_dir().join(format!("ccstore-tierstress-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("spill.bin");
    const BUDGET: usize = 256 * 1024;
    {
        let policy = RecencyCompressibility {
            hot_idle: 1,
            warm_idle: 2,
            promote_window: u64::MAX,
            max_promote_pressure_pct: 100,
            hot_demote_pressure_pct: 0,
            warm_demote_pressure_pct: 0,
        };
        let store = Arc::new(CompressedStore::new(
            StoreConfig::with_spill(BUDGET, &path)
                .with_tier_policy(Arc::new(policy))
                .with_demote_interval(Duration::from_millis(1))
                .with_spill_batch_bytes(8 * 1024)
                .with_gc_dead_ratio(0.25),
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let watcher = {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut max_seen = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    max_seen = max_seen.max(store.stats().resident_bytes);
                }
                max_seen
            })
        };
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                let mut rng = SplitMix64::new(0x7E1E_D0AA + t);
                let mut out = vec![0u8; PAGE];
                for i in 0..1500u64 {
                    let key = rng.next_u64() % KEYS;
                    match rng.next_u64() % 10 {
                        0..=4 => store.put(key, &page_for(key)).unwrap(),
                        // Get bursts so re-accessed pages cross the
                        // promotion bar while the demoter pulls the
                        // other way.
                        5..=7 => {
                            for _ in 0..2 {
                                if store.get(key, &mut out).unwrap() {
                                    assert_eq!(out, page_for(key), "key {key} corrupted");
                                }
                            }
                        }
                        8 => {
                            store.remove(key);
                        }
                        _ => {
                            if i % 100 == 0 {
                                store.flush().unwrap();
                            }
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let max_seen = watcher.join().unwrap();
        assert!(
            max_seen <= BUDGET as u64,
            "budget exceeded under demoter churn: saw {max_seen} with budget {BUDGET}"
        );
        store.flush().unwrap();
        store.check_invariants().unwrap();
        let s = store.stats();
        // Every tier mechanism must actually have fired under this load.
        assert!(s.puts_hot > 0, "no hot placements: {s:?}");
        assert!(s.promotions > 0, "no promotions: {s:?}");
        assert!(s.demoted_hot > 0, "demoter never demoted hot: {s:?}");
        assert!(s.demoted_warm > 0, "demoter never spilled warm: {s:?}");
        assert!(s.demoter_passes > 0, "demoter never ran: {s:?}");
        assert!(s.spilled > 0, "pressure never spilled: {s:?}");
        let mut out = vec![0u8; PAGE];
        for key in 0..KEYS {
            if store.get(key, &mut out).unwrap() {
                assert_eq!(out, page_for(key), "final key {key}");
            }
        }
        store.shutdown();
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}
