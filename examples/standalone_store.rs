//! The compression cache as a modern standalone library.
//!
//! `cc_core::store::CompressedStore` packages the paper's mechanism the
//! way its descendants (zram, zswap) expose it: a thread-safe, bounded
//! compressed page store with a real background spill thread. This
//! example swaps a working set into it from several threads, prints
//! the effective memory amplification, and ends with the store's own
//! telemetry snapshot — counters, gauges and per-tier latency
//! histograms — rendered through `util::fmt`.
//!
//! ```sh
//! cargo run --release --example standalone_store
//! ```

use std::sync::Arc;

use compression_cache::core::store::{CompressedStore, StoreConfig};
use compression_cache::sim::workloads::datagen;
use compression_cache::util::fmt;

const PAGE: usize = 4096;

fn main() {
    let budget = 4 * 1024 * 1024; // 4 MB of compressed residency
    let spill = std::env::temp_dir().join("cc-standalone-spill.bin");
    let store = Arc::new(CompressedStore::new(StoreConfig::with_spill(
        budget, &spill,
    )));

    // Eight threads page out 4 MB each: 32 MB of pages into a 4 MB budget.
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let store = Arc::clone(&store);
        handles.push(std::thread::spawn(move || {
            let mut page = vec![0u8; PAGE];
            for i in 0..1024u64 {
                let key = t << 32 | i;
                datagen::fill_4to1(&mut page, key);
                page[..8].copy_from_slice(&key.to_le_bytes());
                store.put(key, &page).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    store.flush().unwrap();

    // Verify a sample from every thread's range.
    let mut out = vec![0u8; PAGE];
    let mut checked = 0;
    for t in 0..8u64 {
        for i in (0..1024u64).step_by(37) {
            let key = t << 32 | i;
            assert!(store.get(key, &mut out).unwrap(), "key {key:#x} lost");
            assert_eq!(&out[..8], &key.to_le_bytes(), "key {key:#x} corrupted");
            checked += 1;
        }
    }

    let s = store.stats();
    let logical = store.len() * PAGE;
    println!("pages stored:        {}", store.len());
    println!("logical bytes:       {}", fmt::bytes(logical as u64));
    println!("memory budget:       {}", fmt::bytes(budget as u64));
    println!("compressed resident: {}", fmt::bytes(s.resident_bytes));
    println!("spilled to disk:     {} pages", s.spilled);
    println!(
        "spill batching:      {} pages in {} batched writes ({:.1}/batch)",
        s.spilled,
        s.spill_batches,
        s.spilled as f64 / s.spill_batches.max(1) as f64
    );
    println!(
        "spill file:          {} ({} dead, {} GC runs, {} relocated)",
        fmt::bytes(s.bytes_on_spill),
        fmt::bytes(s.spill_dead_bytes),
        s.gc_runs,
        fmt::bytes(s.gc_bytes_relocated),
    );
    println!("verified:            {checked} sampled pages intact");
    println!(
        "amplification:       {:.1}x the pages a raw 4 MB cache could hold",
        logical as f64 / budget as f64
    );

    // The same store, through its telemetry plane: counter sums and
    // gauges and nanosecond latency histograms per serving tier, all in
    // `util::fmt` tables.
    let snap = store
        .telemetry_snapshot()
        .gauge("logical_bytes", logical as u64);
    println!("\n--- telemetry snapshot ---");
    print!("{}", snap.render_text());
    let _ = std::fs::remove_file(&spill);
}
