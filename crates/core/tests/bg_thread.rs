//! One background thread per store, asleep while the store idles, and
//! none once it is dropped: the threads named `cc-store-*` in
//! `/proc/self/task`, counted in a test binary of their own so no other
//! test's store is counted.
#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use cc_core::medium::{MemMedium, SpillMedium};
use cc_core::store::{CompressedStore, StoreConfig};
use cc_core::tier::TierPolicy;

/// `/proc/self/task/<tid>` of every store thread.
fn store_tasks() -> Vec<std::path::PathBuf> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| Some(task.ok()?.path()))
        .filter(|task| {
            std::fs::read_to_string(task.join("comm")).is_ok_and(|c| c.starts_with("cc-store-"))
        })
        .collect()
}

fn store_threads() -> usize {
    store_tasks().len()
}

/// Clock ticks of CPU (user + system) the store threads have used.
fn store_cpu_ticks() -> u64 {
    store_tasks()
        .iter()
        .filter_map(|task| {
            let stat = std::fs::read_to_string(task.join("stat")).ok()?;
            // Fields 14 and 15, counted after the parenthesised name.
            let rest: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
            Some(rest[11].parse::<u64>().ok()? + rest[12].parse::<u64>().ok()?)
        })
        .sum()
}

/// The count once it reaches `want`, or after a few seconds: a new
/// thread names itself after it starts, and a joined one can stay
/// listed for a moment.
fn settled_count(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let n = store_threads();
        if n == want || Instant::now() >= deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn one_background_thread_per_store() {
    let cases = [
        ("spill, RECENCY", true, TierPolicy::RECENCY, 1),
        ("spill, COMPRESS_ALL", true, TierPolicy::COMPRESS_ALL, 1),
        ("in memory, RECENCY", false, TierPolicy::RECENCY, 1),
        (
            "in memory, COMPRESS_ALL",
            false,
            TierPolicy::COMPRESS_ALL,
            0,
        ),
    ];
    for (name, spill, policy, want) in cases {
        let cfg = StoreConfig::in_memory(1 << 20).with_tier_policy(policy);
        let store = if spill {
            CompressedStore::with_medium(cfg, Arc::new(MemMedium::new()) as Arc<dyn SpillMedium>)
        } else {
            CompressedStore::new(cfg)
        };
        store.put(1, &[7u8; 4096]).unwrap();
        assert_eq!(settled_count(want), want, "{name}");
        // Idle, the thread sleeps between deadlines: a spinning one
        // would use all of the 200 ms (20 ticks at the usual 100 Hz).
        let ticks = store_cpu_ticks();
        std::thread::sleep(Duration::from_millis(200));
        let used = store_cpu_ticks() - ticks;
        assert!(used <= 4, "{name}: {used} ticks of CPU while idle");
        drop(store);
        assert_eq!(settled_count(0), 0, "{name}, dropped");
    }
}
