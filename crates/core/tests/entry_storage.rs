//! A shard keeps its entries in an arena of fixed chunks of 1 024 behind
//! a key index. A counting global allocator watches the putting thread
//! while N same-filled pages (which allocate no payload) go into a
//! one-shard in-memory store: the entries are stored a whole chunk at a
//! time and never moved, and no allocation is larger than the index
//! table. `--nocapture` prints the bytes per key at two index loads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};

use cc_core::store::{CompressedStore, StoreConfig};
use cc_core::tier::TierPolicy;
use cc_util::slab::CHUNK;

/// An allocator call on the watched thread: the block it freed, if any,
/// and the block it returned, if any, each `(address, bytes)`.
#[derive(Clone, Copy, Debug)]
struct Call {
    freed: Option<(usize, usize)>,
    made: Option<(usize, usize)>,
}

thread_local! {
    static WATCHED: Cell<bool> = const { Cell::new(false) };
    /// Reserved before the watch, and never grown while it runs.
    static CALLS: RefCell<Vec<Call>> = const { RefCell::new(Vec::new()) };
}

fn note(call: Call) {
    let _ = WATCHED.try_with(|w| {
        if w.get() {
            CALLS.with_borrow_mut(|c| {
                assert!(c.len() < c.capacity(), "the call log is full");
                c.push(call);
            });
        }
    });
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        note(Call {
            freed: None,
            made: Some((p as usize, layout.size())),
        });
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(Call {
            freed: Some((ptr as usize, layout.size())),
            made: None,
        });
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        note(Call {
            freed: Some((ptr as usize, layout.size())),
            made: Some((p as usize, new_size)),
        });
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The allocator calls of `n` same-filled puts into a fresh one-shard
/// store, and how many of them the first put made.
fn watch(n: u64) -> (Vec<Call>, usize) {
    let cfg = StoreConfig::in_memory(1 << 20)
        .with_shards(1)
        .with_tier_policy(TierPolicy::COMPRESS_ALL);
    let store = CompressedStore::new(cfg);
    let page = vec![0x5A; 4096];
    CALLS.with_borrow_mut(|c| *c = Vec::with_capacity(1 << 12));
    WATCHED.set(true);
    store.put(0, &page).unwrap();
    let first = CALLS.with_borrow(Vec::len);
    for key in 1..n {
        store.put(key, &page).unwrap();
    }
    WATCHED.set(false);
    let calls = CALLS.take();
    assert_eq!(store.len(), n as usize);
    store.check_invariants().unwrap();
    (calls, first)
}

/// The blocks `calls` made and did not free, `(address, bytes)`.
fn live(calls: &[Call]) -> Vec<(usize, usize)> {
    let mut live = Vec::new();
    for c in calls {
        if let Some(f) = c.freed {
            live.retain(|&b| b != f);
        }
        live.extend(c.made);
    }
    live
}

/// The entries' storage for `n` keys: a chunk per 1 024, each allocated
/// once and never moved, and nothing larger than the index table.
/// Returns the live bytes per key.
fn entries_take_whole_chunks(n: u64) -> f64 {
    let (calls, first) = watch(n);
    // The first put's largest block is the arena's first chunk: the
    // index then has a handful of 16-byte buckets.
    let chunk = (calls[..first].iter().filter_map(|c| c.made.map(|m| m.1)))
        .max()
        .expect("the first put allocates its chunk");
    assert_eq!(chunk % CHUNK, 0, "a chunk of {chunk} bytes");
    let chunks = (calls.iter())
        .filter(|c| c.freed.is_none() && c.made.is_some_and(|m| m.1 == chunk))
        .count();
    assert_eq!(chunks, (n as usize).div_ceil(CHUNK), "chunks for {n} keys");
    let moved = calls.iter().find(|c| c.freed.is_some_and(|f| f.1 == chunk));
    assert!(moved.is_none(), "entry storage reallocated: {moved:?}");
    let live = live(&calls);
    let index = (live.iter().map(|b| b.1).filter(|&b| b != chunk)).max();
    let index = index.expect("the index table is live");
    let largest = calls.iter().filter_map(|c| c.made.map(|m| m.1)).max();
    assert_eq!(
        largest,
        Some(index),
        "an allocation larger than the index table"
    );
    let bytes: usize = live.iter().map(|b| b.1).sum();
    let per_key = bytes as f64 / n as f64;
    println!(
        "{n} keys: {per_key:.1} B per key live ({chunks} chunks of {chunk} B, index {index} B), {} allocator calls",
        calls.len()
    );
    per_key
}

#[test]
fn entries_live_in_whole_chunks_at_half_and_at_most_of_a_full_index() {
    // 16 384 keys fill the index's 32 768 buckets by half, 28 000 by
    // 85 %: its bytes per key are least at the second.
    let half = entries_take_whole_chunks(16_384);
    let full = entries_take_whole_chunks(28_000);
    assert!(
        full < half,
        "{full:.1} B per key at 85 % load, {half:.1} at 50 %"
    );
}
