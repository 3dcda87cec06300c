//! The background thread seals deferred LZRW1 pages without touching
//! the allocator: each job's buffers are reserved on the foreground and
//! recycled, so the background side allocates nothing and frees
//! nothing. A counting global allocator watches the `cc-store-bg`
//! thread across 10 000 deferred puts after a warm-up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use cc_compress::{classify, Route, ThresholdPolicy};
use cc_core::store::{CompressedStore, StoreConfig};

struct Counting;

static DEMOTER_ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEMOTER_FREES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread is the background thread: 0 not yet known, 1
    /// yes, 2 no.
    static ROLE: Cell<u8> = const { Cell::new(0) };
    /// Inside the name lookup, which may allocate itself.
    static LOOKING: Cell<bool> = const { Cell::new(false) };
}

fn on_demoter() -> bool {
    ROLE.try_with(|role| {
        if role.get() == 0 {
            if LOOKING.get() {
                return false;
            }
            LOOKING.set(true);
            let named = std::thread::current().name() == Some("cc-store-bg");
            LOOKING.set(false);
            role.set(if named { 1 } else { 2 });
        }
        role.get() == 1
    })
    .unwrap_or(false)
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if on_demoter() {
            DEMOTER_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if on_demoter() {
            DEMOTER_FREES.fetch_add(1, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if on_demoter() {
            DEMOTER_ALLOCS.fetch_add(1, Ordering::Relaxed);
            DEMOTER_FREES.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const KEYS: u64 = 256;

/// A text-like page the classifier routes to LZRW1, different per
/// version.
fn lz_page(key: u64, version: u64) -> Vec<u8> {
    let line = format!("key {key:>6} version {version:>8}: the quick brown fox jumps; ");
    line.bytes().cycle().take(4096).collect()
}

fn demoter_counts() -> (u64, u64) {
    (
        DEMOTER_ALLOCS.load(Ordering::Relaxed),
        DEMOTER_FREES.load(Ordering::Relaxed),
    )
}

/// `n` LZRW1 puts in bursts of 16 — each burst wakes the parked
/// background thread — with a pause after each, so the demoter, not the queue cap or a
/// flush, seals nearly all of them.
fn drive(store: &CompressedStore, first: u64, n: u64) {
    for i in first..first + n {
        store.put(i % KEYS, &lz_page(i % KEYS, i)).unwrap();
        if i % 16 == 15 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

#[test]
fn the_demoter_seals_without_allocating() {
    let admit = ThresholdPolicy::default().max_compressed_len(4096);
    assert_eq!(classify(&lz_page(1, 1), admit), Route::Lz);
    let store = CompressedStore::new(StoreConfig::in_memory(64 << 20));

    // Warm-up: the demoter's codec set, and the job pool.
    drive(&store, 0, 2_000);
    store.flush().unwrap();
    let warm = demoter_counts();
    assert!(
        warm.0 > 0,
        "the demoter allocated nothing even warming up: is it watched?"
    );

    const PUTS: u64 = 10_000;
    let before = store.stats();
    drive(&store, 2_000, PUTS);
    // Only the demoter fills the sealed list, and only puts have
    // published from it so far; a put that found the queue full sealed
    // inline and counted at once.
    let mid = store.stats();
    let deferred = mid.seals_deferred - before.seals_deferred;
    let published = mid.puts_lzrw1 - before.puts_lzrw1;
    let by_demoter = published - (PUTS - deferred);
    store.flush().unwrap();
    let (allocs, frees) = demoter_counts();
    let (allocs, frees) = (allocs - warm.0, frees - warm.1);
    eprintln!(
        "{deferred} of {PUTS} puts deferred, {by_demoter} sealed by the demoter: \
         {allocs} allocations and {frees} frees on it"
    );
    assert!(by_demoter >= 1_000, "the demoter sealed {by_demoter}");
    assert!(
        allocs <= 8 && frees <= 8,
        "{allocs} allocations and {frees} frees for {by_demoter} seals"
    );
    store.check_invariants().unwrap();
    let mut out = vec![0u8; 4096];
    for k in 0..KEYS {
        assert!(store.get(k, &mut out).unwrap());
    }
}
