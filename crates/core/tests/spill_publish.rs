//! The spill writer publishes its own results, and what it has not yet
//! published is bounded.
//!
//! 1. **No foreground help.** A put-only stream — no get, remove or
//!    flush to fold anything in — still has every spilled page's memory
//!    returned: `spill_inflight_bytes` drains to zero by the writer's
//!    work alone and never reads above the budget on the way.
//! 2. **Back-pressure without deadlock.** With the medium stalled the
//!    in-flight bytes stop at the budget, putters wait (holding no shard
//!    lock — readers and the writer still get through), and everything
//!    completes once the medium moves again.
//! 3. **A dead writer releases its waiters.** Putters blocked on the
//!    bound when the writer panics come back with an answer.
//!
//! The stalls are forced by a latch inside the medium, never by timing;
//! every case runs under a wall-clock limit so a deadlock fails the test
//! instead of hanging `cargo test`.

use cc_core::medium::{MemMedium, SpillMedium};
use cc_core::store::{CompressedStore, HitTier, StoreConfig, StoreError};
use cc_util::SplitMix64;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const PAGE: usize = 4096;

/// A distinct page per key. Compressible ones are a third noise and the
/// rest text (LZRW1 seals them at ~1.5 KB, so they live warm and spill
/// from the warm set); the others are all noise (kept hot, sealed only
/// when demoted, spilled raw).
fn page_for(key: u64, compressible: bool) -> Vec<u8> {
    let mut rng = SplitMix64::new(key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED);
    let noisy = if compressible { PAGE / 3 } else { PAGE };
    let mut p = vec![0u8; PAGE];
    for b in &mut p[..noisy] {
        *b = rng.next_u64() as u8;
    }
    for (i, b) in p[noisy..].iter_mut().enumerate() {
        *b = b"the compression cache "[i % 22];
    }
    p
}

/// Run `body` on its own thread and fail if it has not finished within
/// `limit` (a stuck body is leaked; the process still exits).
fn within(limit: Duration, what: &str, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = channel();
    let t = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(limit) {
        Ok(()) => t.join().expect("body panicked after finishing"),
        // Disconnected: the body panicked; surface its message.
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(t.join().expect_err("sender dropped without a panic"))
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what}: not finished after {limit:?} — deadlock?")
        }
    }
}

/// Poll until `cond` holds (the caller is already under [`within`]).
fn wait_for(mut cond: impl FnMut() -> bool) {
    while !cond() {
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn put_only_stream_is_published_without_foreground_help() {
    within(Duration::from_secs(120), "put-only stream", || {
        const BUDGET: usize = 1 << 20;
        const KEYS: u64 = 6144;
        let store = CompressedStore::with_medium(
            StoreConfig::in_memory(BUDGET).with_shards(4),
            Arc::new(MemMedium::new()),
        );
        let mut max_inflight = 0;
        for key in 0..KEYS {
            store.put(key, &page_for(key, true)).unwrap();
            max_inflight = max_inflight.max(store.stats().spill_inflight_bytes);
        }
        // Nothing below folds anything in: `stats` and `peek_tier` are
        // reads. The writer idles once nothing is in flight.
        wait_for(|| {
            let inflight = store.stats().spill_inflight_bytes;
            max_inflight = max_inflight.max(inflight);
            inflight == 0
        });
        assert!(
            max_inflight <= BUDGET as u64,
            "in-flight bytes read {max_inflight} against a budget of {BUDGET}"
        );
        let s = store.stats();
        let sealed = s.lzrw1_out_bytes + s.bdi_out_bytes;
        assert!(
            sealed >= 8 * BUDGET as u64,
            "stream too small to pin anything: {sealed} sealed bytes"
        );
        assert!(s.resident_bytes <= BUDGET as u64, "{s:?}");
        // Every key was put once and never read, so each hand-off is one
        // entry now on the file: everything beyond the budget is there,
        // published, and nothing is left `Spilling` (the checker ties
        // the zero gauge to the entries).
        store.check_invariants().unwrap();
        let on_file = (0..KEYS)
            .filter(|&k| store.peek_tier(k) == Some(HitTier::Spill))
            .count() as u64;
        assert_eq!(on_file, s.spilled, "{s:?}");
        assert!(
            sealed - sealed * on_file / KEYS <= 2 * BUDGET as u64,
            "only {on_file} of {KEYS} keys on the file"
        );

        let mut out = vec![0u8; PAGE];
        for key in 0..KEYS {
            assert!(store.get(key, &mut out).unwrap(), "key {key} lost");
            assert_eq!(out, page_for(key, true), "key {key}");
        }
        store.check_invariants().unwrap();
    });
}

/// What the latch medium does with a write once the latch opens.
#[derive(Clone, Copy, PartialEq)]
enum Gate {
    Closed,
    Open,
    /// Let the blocked write go — into a panic.
    Panic,
}

/// A `MemMedium` whose `write_at` blocks while the gate is closed.
struct LatchMedium {
    inner: MemMedium,
    gate: Mutex<Gate>,
    cv: Condvar,
}

impl LatchMedium {
    fn closed() -> Arc<LatchMedium> {
        Arc::new(LatchMedium {
            inner: MemMedium::new(),
            gate: Mutex::new(Gate::Closed),
            cv: Condvar::new(),
        })
    }

    fn set(&self, gate: Gate) {
        *self.gate.lock().unwrap() = gate;
        self.cv.notify_all();
    }
}

impl SpillMedium for LatchMedium {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.inner.read_at(buf, offset)
    }
    fn write_at(&self, data: &[u8], offset: u64) -> io::Result<()> {
        let mut gate = self.gate.lock().unwrap();
        while *gate == Gate::Closed {
            gate = self.cv.wait(gate).unwrap();
        }
        if *gate == Gate::Panic {
            drop(gate);
            panic!("injected medium panic");
        }
        drop(gate);
        self.inner.write_at(data, offset)
    }
    fn flush(&self) -> io::Result<()> {
        self.inner.flush()
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
}

const PUTTERS: u64 = 4;
const LATCH_BUDGET: usize = 256 * 1024;
/// More than one putter can land before the budget and the bound (twice
/// `LATCH_BUDGET` of payload) are both full, so every putter must block.
const KEYS_PER_PUTTER: u64 = 400;

fn putter_key(t: u64, i: u64) -> u64 {
    t * 1_000_000 + i
}

/// Odd keys are noise, so both hand-off paths (warm eviction, hot
/// demotion) meet the bound.
fn latch_page(key: u64) -> Vec<u8> {
    page_for(key, key.is_multiple_of(2))
}

/// A store over a closed latch with [`PUTTERS`] threads putting distinct
/// keys.
struct Stalled {
    store: Arc<CompressedStore>,
    medium: Arc<LatchMedium>,
    /// `progress[t]`: how many puts thread `t` has completed.
    progress: Arc<Vec<AtomicU64>>,
    /// Each thread returns its put results.
    putters: Vec<std::thread::JoinHandle<Vec<Result<(), StoreError>>>>,
}

/// Returns once every putter is blocked on the in-flight bound.
fn stalled_store() -> Stalled {
    let medium = LatchMedium::closed();
    let store = Arc::new(CompressedStore::with_medium(
        StoreConfig::in_memory(LATCH_BUDGET).with_shards(4),
        Arc::clone(&medium) as Arc<dyn SpillMedium>,
    ));
    let progress: Arc<Vec<AtomicU64>> = Arc::new((0..PUTTERS).map(|_| AtomicU64::new(0)).collect());
    let putters = (0..PUTTERS)
        .map(|t| {
            let (store, progress) = (Arc::clone(&store), Arc::clone(&progress));
            std::thread::spawn(move || {
                (0..KEYS_PER_PUTTER)
                    .map(|i| {
                        let key = putter_key(t, i);
                        let res = store.put(key, &latch_page(key));
                        progress[t as usize].fetch_add(1, Ordering::Release);
                        res
                    })
                    .collect()
            })
        })
        .collect();
    // The writer is stuck in its first write, so nothing leaves flight:
    // the budget fills, then the in-flight bound, then every putter
    // blocks.
    wait_for(|| store.stats().put_backpressure_waits >= PUTTERS);
    Stalled {
        store,
        medium,
        progress,
        putters,
    }
}

/// Every key whose put has returned reads back, from memory.
fn read_back_completed(store: &CompressedStore, progress: &[AtomicU64]) {
    let mut out = vec![0u8; PAGE];
    for (t, done) in progress.iter().enumerate() {
        for i in 0..done.load(Ordering::Acquire) {
            let key = putter_key(t as u64, i);
            let tier = store.get_tier(key, &mut out).unwrap();
            assert!(
                matches!(tier, Some(HitTier::Hot | HitTier::Memory)),
                "key {key}: {tier:?} with nothing written yet"
            );
            assert_eq!(out, latch_page(key), "key {key}");
        }
    }
}

#[test]
fn backpressure_holds_the_bound_and_never_deadlocks() {
    within(Duration::from_secs(120), "latched medium", || {
        let Stalled {
            store,
            medium,
            progress,
            putters,
        } = stalled_store();

        // Settled at or below the bound, and staying there: every
        // producer is blocked and the writer cannot move.
        let settled = store.stats();
        assert!(settled.spill_inflight_bytes > 0);
        let deadline = Instant::now() + Duration::from_millis(50);
        while Instant::now() < deadline {
            let s = store.stats();
            assert_eq!(s.spill_inflight_bytes, settled.spill_inflight_bytes);
            assert!(s.spill_inflight_bytes <= LATCH_BUDGET as u64, "{s:?}");
            assert!(s.resident_bytes <= LATCH_BUDGET as u64, "{s:?}");
            assert_eq!(s.spill_batches, 0);
        }
        let done: u64 = progress.iter().map(|p| p.load(Ordering::Acquire)).sum();
        assert!(done < PUTTERS * KEYS_PER_PUTTER, "nobody was held back");
        store.check_invariants().unwrap();

        // Readers never wait on the writer: resident keys and keys still
        // `Spilling` (bytes are in flight, none of them on the medium)
        // all come back while everything else is stuck.
        read_back_completed(&store, &progress);

        medium.set(Gate::Open);
        for p in putters {
            for res in p.join().expect("putter panicked") {
                res.expect("put failed on a healthy medium");
            }
        }
        store.flush().unwrap();
        let s = store.stats();
        assert_eq!(s.spill_inflight_bytes, 0);
        assert!(s.put_backpressure_waits >= PUTTERS);
        assert!(s.spill_batches > 0 && !s.degraded, "{s:?}");
        let mut out = vec![0u8; PAGE];
        for t in 0..PUTTERS {
            for i in 0..KEYS_PER_PUTTER {
                let key = putter_key(t, i);
                assert!(store.get(key, &mut out).unwrap(), "key {key} lost");
                assert_eq!(out, latch_page(key), "key {key}");
            }
        }
        store.check_invariants().unwrap();
    });
}

#[test]
fn writer_death_releases_waiting_putters() {
    within(Duration::from_secs(120), "panicking medium", || {
        let Stalled {
            store,
            medium,
            putters,
            ..
        } = stalled_store();

        // The blocked write panics the writer thread under four waiting
        // putters. None may hang: each remaining put either lands (the
        // degraded store sheds to make room) or reports the shutdown.
        medium.set(Gate::Panic);
        let mut landed = Vec::new();
        for (t, p) in putters.into_iter().enumerate() {
            for (i, res) in p.join().expect("putter panicked").into_iter().enumerate() {
                match res {
                    Ok(()) => landed.push(putter_key(t as u64, i as u64)),
                    Err(StoreError::ShuttingDown | StoreError::OutOfMemory) => {}
                    Err(e) => panic!("put after writer death: unexpected {e}"),
                }
            }
        }
        assert!(store.is_degraded(), "writer panic must degrade the store");

        // Jobs died with the writer: flush says so, takes their pages
        // back, and returns the in-flight gauge to zero.
        assert!(matches!(store.flush(), Err(StoreError::ShuttingDown)));
        let s = store.stats();
        assert_eq!(s.spill_inflight_bytes, 0, "{s:?}");
        assert!(s.resident_bytes <= LATCH_BUDGET as u64, "{s:?}");
        store.check_invariants().unwrap();
        assert!(store.flush().is_ok(), "nothing left in flight");

        // Whatever survived the shedding is exact; the rest misses.
        let mut out = vec![0u8; PAGE];
        let mut readable = 0;
        for key in landed {
            if store.get(key, &mut out).unwrap() {
                assert_eq!(out, latch_page(key), "key {key}");
                readable += 1;
            }
        }
        assert!(readable > 0, "shed everything");
    });
}
