//! Chaos tests: the store against a lying spill medium.
//!
//! The contract under fault injection is strict and small:
//!
//! 1. **Never garbage.** Any `get` that returns data returns exactly the
//!    bytes that were put. Corruption surfaces as `StoreError::Corrupt`
//!    (and the entry is dropped so later gets miss) — never as a page.
//! 2. **Budget holds.** `resident_bytes` settles at or below the
//!    configured budget even when failed batches bounce entries back to
//!    memory (the store sheds clean pages to repair the overshoot).
//! 3. **Degraded mode is entered and exited on schedule.** Consecutive
//!    hard batch failures disable spilling; probation probes re-enable
//!    it once the medium answers again.
//! 4. **Nothing hangs.** A dead writer (even one that panicked inside
//!    the medium) turns `flush()` into `Err(ShuttingDown)`, not a wait
//!    for completions that will never come.

mod support;

use cc_core::medium::{Fault, FaultInjector, FaultPlan, FileMedium, MemMedium, SpillMedium};
use cc_core::persist::{decode_summary, read_superblock, SUPERBLOCK_RESERVED};
use cc_core::store::{CompressedStore, HitTier, StoreConfig, StoreError};
use cc_core::tier::TierPolicy;
use proptest::prelude::*;
use std::cell::Cell;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use support::model::{self, Arm, Class, Class::*, Mix, Mode, Model, Unchecked};
use support::TempPath;

const PAGE: usize = 1024;

/// Read back version `version` of the `class` pages of `keys`: each
/// exact or missing, never an error. Returns how many are missing.
fn missing(store: &CompressedStore, keys: std::ops::Range<u64>, class: Class, version: u64) -> u64 {
    let mut out = vec![0u8; PAGE];
    let mut missing = 0;
    for key in keys {
        match store.get(key, &mut out) {
            Ok(true) => assert_eq!(out, class.page(key, version, PAGE), "key {key} corrupted"),
            Ok(false) => missing += 1,
            Err(e) => panic!("key {key}: {e}"),
        }
    }
    missing
}

/// Read back keys `0..keys` after a bit flip: a page must be
/// `page(key)`, and a miss means a key lost without a `Corrupt`. Returns
/// the keys that surfaced `Corrupt`.
fn corrupt_keys(
    store: &CompressedStore,
    keys: u64,
    page: impl Fn(u64) -> Vec<u8>,
) -> Result<Vec<u64>, TestCaseError> {
    let mut out = vec![0u8; PAGE];
    let mut corrupt = Vec::new();
    for key in 0..keys {
        match store.get(key, &mut out) {
            Ok(true) => prop_assert_eq!(&out, &page(key), "key {} returned wrong bytes", key),
            Ok(false) => prop_assert!(false, "key {key} lost without a Corrupt"),
            Err(StoreError::Corrupt) => corrupt.push(key),
            Err(e) => prop_assert!(false, "key {key}: unexpected error {e}"),
        }
    }
    Ok(corrupt)
}

/// Spin until `cond` holds or `what` times out.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite: any single bit flip in the spill file is detected, by
    /// what lies at the flipped byte. In an extent — header or payload —
    /// the damaged key surfaces as `Corrupt` exactly once (then misses:
    /// the entry was dropped). In a batch summary every get stays exact,
    /// and the checker's read-back reports the summary's live extents
    /// "on the file". In the superblock region or a gap it has no
    /// effect. No get ever returns wrong bytes.
    #[test]
    fn any_single_bit_flip_is_detected(sel in any::<u64>()) {
        const KEYS: u64 = 24;
        let path = TempPath::new(&format!("chaos-bitflip-{sel:x}"));
        {
            // Single read attempt: a verification failure is immediately
            // persistent (the flip is on the medium, retrying cannot
            // help), which keeps the case fast and the accounting exact.
            let store = CompressedStore::new(
                StoreConfig::with_spill(2 * PAGE, &*path)
                    .with_spill_retry(1, Duration::ZERO),
            );
            for key in 0..KEYS {
                store.put(key, &Noise.page(key, 1, PAGE)).unwrap();
            }
            store.flush().unwrap();

            // What lies where: after the superblock region, each segment
            // is a chain of batches, a summary and then its extents.
            let file = std::fs::read(&*path).unwrap();
            let sb = read_superblock(&FileMedium::open(&*path).unwrap()).expect("a superblock");
            // `[start, end)` of each summary, and whether it names a live
            // extent (the newest generation of its key: each key is put
            // once here, so every extent on the file is live).
            let mut summaries: Vec<(u64, u64, bool)> = Vec::new();
            let mut extents: Vec<(u64, u64)> = Vec::new();
            let mut seg = SUPERBLOCK_RESERVED;
            while seg < file.len() as u64 {
                let mut at = seg;
                while let Some(s) = file
                    .get(at as usize..)
                    .and_then(|b| decode_summary(b, file.len() as u64 - at, &sb))
                {
                    let named: Vec<(u64, u64)> = (s.records.iter())
                        .filter(|r| !r.is_tombstone())
                        .map(|r| (at + r.rel as u64, at + r.rel as u64 + r.len as u64))
                        .collect();
                    let body: u64 = named.iter().map(|(a, b)| b - a).sum();
                    summaries.push((at, at + s.batch_len as u64 - body, !named.is_empty()));
                    extents.extend(named);
                    at += s.batch_len as u64;
                }
                seg += sb.seg_bytes;
            }

            // Flip one bit, chosen by the proptest case, anywhere in the
            // file — through a second handle to the same inode.
            let flipped = {
                use std::os::unix::fs::FileExt as _;
                let f = std::fs::OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(&*path)
                    .unwrap();
                let len = f.metadata().unwrap().len();
                prop_assert!(!extents.is_empty(), "nothing spilled under a 2-page budget");
                let bit = sel % (len * 8);
                let mut byte = [0u8; 1];
                f.read_exact_at(&mut byte, bit / 8).unwrap();
                byte[0] ^= 1 << (bit % 8);
                f.write_all_at(&byte, bit / 8).unwrap();
                bit / 8
            };
            let in_extent = extents.iter().any(|&(a, b)| (a..b).contains(&flipped));
            let summary = summaries.iter().find(|&&(a, b, _)| (a..b).contains(&flipped));

            let corrupt_keys = corrupt_keys(&store, KEYS, |key| Noise.page(key, 1, PAGE))?;
            let mut out = vec![0u8; PAGE];
            // One flipped bit damages at most one extent; inside an
            // extent it damages exactly one, and anywhere else none.
            prop_assert!(corrupt_keys.len() <= 1, "one bit, {corrupt_keys:?} corrupt");
            if in_extent {
                prop_assert_eq!(corrupt_keys.len(), 1, "in-extent flip not detected");
            } else {
                prop_assert!(
                    corrupt_keys.is_empty(),
                    "flip at {flipped} outside every extent: {corrupt_keys:?}"
                );
            }
            let s = store.stats();
            prop_assert_eq!(s.corrupt_detected, corrupt_keys.len() as u64);
            // The damaged entry was dropped: it now misses (refillable)
            // instead of erroring forever.
            for &key in &corrupt_keys {
                prop_assert_eq!(store.get(key, &mut out).unwrap(), false);
                prop_assert!(!store.contains(key));
            }
            let checked = store.check_invariants();
            let on_file = checked.as_ref().is_err_and(|e| e.starts_with("on the file"));
            match summary {
                Some(&(_, _, live)) => prop_assert!(
                    on_file || (!live && checked.is_ok()),
                    "summary flip at {flipped}: {checked:?}"
                ),
                None => prop_assert_eq!(checked, Ok(())),
            }
            store.shutdown();
        }
    }

    /// Satellite (codec layer): flipping a bit in the *codec id byte* of
    /// a spill extent is detected — the damaged page surfaces as
    /// `Corrupt`, never as bytes decoded under the wrong codec. The
    /// keyspace mixes BDI-sealed and LZRW1-sealed extents so both codec
    /// ids are on disk when the flip lands.
    #[test]
    fn codec_id_bit_flip_never_decodes_under_wrong_codec(sel in any::<u64>()) {
        const KEYS: u64 = 24;
        // v2 extent layout: magic u32 | plen u32 | gen u64 | codec u8 |
        // pad [u8; 3] | crc u32 | payload.
        const MAGIC: [u8; 4] = 0xCC5E_E002u32.to_le_bytes();
        const CODEC_OFFSET: u64 = 16;
        const HEADER: usize = 24;

        // BDI-sealed and LZRW1-sealed pages.
        let page_for = |key: u64| [Words, Text][key as usize % 2].page(key, 1, PAGE);

        let path = TempPath::new(&format!("chaos-codecflip-{sel:x}"));
        {
            let store = CompressedStore::new(
                StoreConfig::with_spill(2 * PAGE, &*path)
                    .with_spill_retry(1, Duration::ZERO),
            );
            for key in 0..KEYS {
                store.put(key, &page_for(key)).unwrap();
            }
            store.flush().unwrap();

            // Locate extent headers by magic (validated by a sane payload
            // length) and flip one bit of one extent's codec byte.
            {
                use std::os::unix::fs::FileExt as _;
                let f = std::fs::OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(&*path)
                    .unwrap();
                let len = f.metadata().unwrap().len() as usize;
                let mut file = vec![0u8; len];
                f.read_exact_at(&mut file, 0).unwrap();
                let mut extents = Vec::new();
                let mut at = 0usize;
                while at + HEADER <= len {
                    if file[at..at + 4] == MAGIC {
                        let plen = u32::from_le_bytes(
                            file[at + 4..at + 8].try_into().unwrap(),
                        ) as usize;
                        if plen > 0 && at + HEADER + plen <= len {
                            extents.push(at as u64);
                            at += HEADER + plen;
                            continue;
                        }
                    }
                    at += 1;
                }
                prop_assert!(!extents.is_empty(), "no extents found on spill");
                let target = extents[(sel % extents.len() as u64) as usize];
                let mut byte = [0u8; 1];
                f.read_exact_at(&mut byte, target + CODEC_OFFSET).unwrap();
                byte[0] ^= 1 << (sel % 8);
                f.write_all_at(&byte, target + CODEC_OFFSET).unwrap();
            }

            let corrupt_keys = corrupt_keys(&store, KEYS, page_for)?;
            prop_assert_eq!(
                corrupt_keys.len(), 1,
                "exactly the flipped extent must fail: {:?}", corrupt_keys
            );
            prop_assert_eq!(store.stats().corrupt_detected, 1);
            prop_assert_eq!(store.check_invariants(), Ok(()));
            store.shutdown();
        }
    }
}

/// Tentpole acceptance: 8 threads of mixed put/get/remove against a
/// seeded fault injector (EIO reads, bit-flip reads, EIO and torn
/// writes) with GC churning underneath. Every get that returns data
/// returns exact bytes; corruption is detected and counted; retries
/// happen; the budget holds once the dust settles.
#[test]
fn chaos_stress_survives_faulty_medium() {
    // Rate-injected write failures are scattered, but 3 consecutive
    // hard batch failures can happen over a long run; this schedule
    // pins integrity-under-fire, not the degraded transition.
    stress_schedule(None, u32::MAX);
    // The same storm, with writes 60..100 hard-failing and the store
    // degrading after 2 failed batches: the threads keep going while it
    // degrades, and probation probes burn the rest of the window
    // before one lands and recovers it.
    stress_schedule(Some(60..100), 2);
}

thread_local! {
    /// Set by a thread to have [`FlipOnRequest`] damage its next read.
    static FLIP_NEXT_READ: Cell<bool> = const { Cell::new(false) };
}

/// A medium that flips one bit of the next read a thread asks to have
/// damaged ([`FLIP_NEXT_READ`]): a transfer error the test causes, on a
/// read it issues itself, where the injector's rate only makes one
/// likely.
struct FlipOnRequest<M>(M);

impl<M: SpillMedium> SpillMedium for FlipOnRequest<M> {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.0.read_at(buf, offset)?;
        if FLIP_NEXT_READ.replace(false) {
            if let Some(last) = buf.last_mut() {
                *last ^= 1;
            }
        }
        Ok(())
    }
    fn write_at(&self, data: &[u8], offset: u64) -> io::Result<()> {
        self.0.write_at(data, offset)
    }
    fn flush(&self) -> io::Result<()> {
        self.0.flush()
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
}

/// One run of [`chaos_stress_survives_faulty_medium`]: the fault rates
/// plus `write_outage`, degrading after `degrade_after` failed batches.
fn stress_schedule(write_outage: Option<std::ops::Range<u64>>, degrade_after: u32) {
    const THREADS: u64 = 8;
    const OPS: usize = 1_500;
    const KEYS_PER_THREAD: u64 = 96;
    const BUDGET: usize = 8 * PAGE;

    let outage = write_outage.is_some();
    let path = TempPath::new(&format!("chaos-stress-{degrade_after}"));
    let injector = Arc::new(FaultInjector::new(
        FlipOnRequest(FileMedium::create(&*path).unwrap()),
        FaultPlan {
            seed: 0xC4A0_5CA0,
            read_error_1_in: 61,
            read_corrupt_1_in: 43,
            write_error_1_in: 127,
            short_write_1_in: 211,
            write_outage,
            ..FaultPlan::default()
        },
    ));
    let store = Arc::new(CompressedStore::with_medium(
        StoreConfig::in_memory(BUDGET)
            .with_spill_batch_bytes(4 * PAGE)
            .with_gc_dead_ratio(0.2)
            .with_spill_retry(3, Duration::from_micros(200))
            .with_degrade_after(degrade_after)
            .with_probe_interval(Duration::from_millis(2)),
        Arc::clone(&injector) as Arc<dyn SpillMedium>,
    ));

    // Each thread runs its own script on its own keys, under a lossy
    // model: a miss is legal (shed or dropped) and so is an error
    // (Corrupt, or retries exhausted on injected EIO), but wrong bytes
    // never are. Removes churn the spill file so GC compaction runs (and
    // relocates extents) mid-fault-storm.
    let arm = Arm::store("recency", "adaptive", "faults");
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let mix = Mix {
                    keys: t * KEYS_PER_THREAD..(t + 1) * KEYS_PER_THREAD,
                    weights: [4, 4, 2, 0, 0],
                    classes: &[Noise],
                    shared: false,
                };
                let seed = format!("thread {t}, script seed {}", t + 1);
                let mut model = Model::new(Mode::Lossy, PAGE);
                let ops = model::script(t + 1, OPS, &mix);
                let ran = model.run(&mut Unchecked(&*store), &ops, &arm, &seed);
                ran.map(|()| (model, seed))
            })
        })
        .collect();
    let mut models: Vec<_> = (handles.into_iter())
        .map(|h| {
            h.join()
                .expect("chaos thread panicked")
                .unwrap_or_else(|e| panic!("{e}"))
        })
        .collect();

    // The outage window is finite: wait out probation, then settle.
    wait_for("recovery from the outage", || !store.is_degraded());
    let _ = store.flush();
    // Final readback: every surviving key exact-or-absent.
    for (model, seed) in &mut models {
        let verified = model.verify_all(&mut Unchecked(&*store), &arm, seed);
        verified.unwrap_or_else(|e| panic!("{e}"));
    }
    let mut out = vec![0u8; PAGE];
    // One detection the test causes rather than hopes for: fill the
    // spill file with fresh pages and flip a bit of this thread's read
    // of one of them. The read is retried, so the get still returns the
    // page, or `Corrupt` if every retry failed too — never other bytes.
    const FRESH: std::ops::Range<u64> = 10_000..10_032;
    for key in FRESH {
        store.put(key, &Noise.page(key, 1, PAGE)).unwrap();
    }
    let _ = store.flush();
    let spilled = FRESH
        .into_iter()
        .find(|&key| store.peek_tier(key) == Some(HitTier::Spill))
        .expect("a fresh page on the spill file");
    let detected = store.stats().corrupt_detected;
    FLIP_NEXT_READ.set(true);
    match store.get(spilled, &mut out) {
        Ok(true) => assert_eq!(out, Noise.page(spilled, 1, PAGE), "key {spilled} corrupted"),
        Err(StoreError::Corrupt) => {}
        other => panic!("key {spilled}: {other:?}"),
    }
    assert!(!FLIP_NEXT_READ.get(), "the flip was never applied");
    assert!(
        store.stats().corrupt_detected > detected,
        "the flip was never detected"
    );
    // The storm's reads make an injected corruption likely, not
    // certain: read the fresh pages on the spill file until the injector
    // has damaged one, and check every page that comes back.
    for key in FRESH.cycle().take(4_096) {
        if injector.injected().read_corruptions > 0 {
            break;
        }
        if store.peek_tier(key) != Some(HitTier::Spill) {
            continue;
        }
        if let Ok(true) = store.get(key, &mut out) {
            assert_eq!(out, Noise.page(key, 1, PAGE), "key {key} corrupted");
        }
    }

    let s = store.stats();
    let inj = injector.injected();
    assert!(inj.total() > 0, "no faults injected: {inj:?}");
    assert!(
        inj.read_corruptions > 0,
        "no read corruption exercised: {inj:?}"
    );
    assert!(
        s.corrupt_detected > 0,
        "injected corruption was never detected ({inj:?}, {s:?})"
    );
    assert!(s.io_retries > 0, "injected EIO never retried ({s:?})");
    assert!(
        s.resident_bytes <= BUDGET as u64,
        "budget violated after settling: {} > {BUDGET} ({s:?})",
        s.resident_bytes
    );
    if outage {
        assert!(s.degraded_entered >= 1, "the outage never degraded ({s:?})");
        assert!(s.degraded_recovered >= 1, "recovery not counted ({s:?})");
        assert!(!s.degraded, "still degraded after settling ({s:?})");
    }
    assert_eq!(store.check_invariants(), Ok(()));
    store.shutdown();
}

/// Tentpole: a scheduled write outage drives the degraded-mode state
/// machine end to end — consecutive hard batch failures disable
/// spilling, probation probes hammer the medium, and the first probe
/// that lands re-enables spill. Entered and recovered exactly once.
#[test]
fn write_outage_degrades_then_probes_recover() {
    const BUDGET: usize = 4 * PAGE;
    // Writes 1..25 hard-fail (write 0 is the superblock the store
    // stamps as it opens): enough to burn both batch retries of
    // several batches plus the first probes; probe writes keep
    // consuming write indices, so the outage expires on schedule.
    const OUTAGE: std::ops::Range<u64> = 1..25;

    let path = TempPath::new("chaos-outage");
    let injector = Arc::new(FaultInjector::new(
        FileMedium::create(&*path).unwrap(),
        FaultPlan {
            write_outage: Some(OUTAGE),
            ..FaultPlan::default()
        },
    ));
    let store = CompressedStore::with_medium(
        StoreConfig::in_memory(BUDGET)
            .with_spill_batch_bytes(2 * PAGE)
            .with_spill_retry(2, Duration::from_micros(100))
            .with_degrade_after(2)
            .with_probe_interval(Duration::from_millis(2)),
        Arc::clone(&injector) as Arc<dyn SpillMedium>,
    );

    // Push well past the budget: evictions queue spill jobs, batches
    // hard-fail against the outage, entries bounce back to memory, and
    // the failure counter crosses the threshold.
    for key in 0..32u64 {
        let _ = store.put(key, &Noise.page(key, 1, PAGE));
    }
    wait_for("degraded mode", || store.is_degraded());

    let mid = store.stats();
    assert!(mid.degraded, "stats gauge disagrees with is_degraded");
    assert_eq!(mid.degraded_entered, 1, "degrade transition not counted");
    assert!(
        mid.spill_fallback_resident + mid.shed_pages > 0,
        "failed batches neither reverted nor shed: {mid:?}"
    );

    // Probation: probes burn through the rest of the outage window and
    // the first clean canary round-trip recovers the store.
    wait_for("recovery", || !store.is_degraded());

    let s = store.stats();
    assert_eq!(s.degraded_entered, 1, "re-entered degraded after outage");
    assert_eq!(s.degraded_recovered, 1, "recovery not counted");
    assert!(s.medium_probes >= 1, "recovered without probing: {s:?}");
    assert!(
        injector.injected().write_errors >= OUTAGE.end - OUTAGE.start - 1,
        "outage window not consumed: {:?}",
        injector.injected()
    );

    // The medium is trusted again: new puts spill for real and
    // everything still present reads back exact.
    let before = s.spill_batches;
    for key in 100..132u64 {
        store.put(key, &Noise.page(key, 2, PAGE)).unwrap();
    }
    store.flush().unwrap();
    let after = store.stats();
    assert!(
        after.spill_batches > before,
        "spilling never resumed after recovery: {after:?}"
    );
    assert!(!after.degraded);
    // A miss is a page shed while over budget, never garbage.
    missing(&store, 100..132, Noise, 2);
    assert!(after.resident_bytes <= BUDGET as u64, "{after:?}");
    assert_eq!(store.check_invariants(), Ok(()));
    store.shutdown();
}

/// A medium whose writes fail while `broken` is set.
struct Switchable {
    inner: MemMedium,
    broken: AtomicBool,
}

impl SpillMedium for Switchable {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.inner.read_at(buf, offset)
    }
    fn write_at(&self, data: &[u8], offset: u64) -> io::Result<()> {
        if self.broken.load(Ordering::SeqCst) {
            return Err(io::Error::other("switched off"));
        }
        self.inner.write_at(data, offset)
    }
    fn flush(&self) -> io::Result<()> {
        self.inner.flush()
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
}

/// Regression: a degraded store probes its medium every
/// `probe_interval`, however often flushes arrive. Removing a spilled
/// key queues a tombstone, so each `flush()` hands the writer a barrier;
/// one every millisecond must not keep the healed medium from being
/// probed and the store from recovering.
#[test]
fn a_stream_of_flushes_does_not_starve_the_probe() {
    const KEYS: u64 = 800;
    let medium = Arc::new(Switchable {
        inner: MemMedium::new(),
        broken: AtomicBool::new(false),
    });
    let store = CompressedStore::with_medium(
        StoreConfig::in_memory(4 * PAGE)
            .with_tier_policy(TierPolicy::COMPRESS_ALL)
            .with_spill_batch_bytes(4 * PAGE)
            .with_spill_retry(1, Duration::ZERO)
            .with_degrade_after(1)
            .with_probe_interval(Duration::from_millis(20)),
        Arc::clone(&medium) as Arc<dyn SpillMedium>,
    );
    // Healthy: nearly every page spills, so its key is on the file.
    for key in 0..KEYS {
        store.put(key, &Noise.page(key, 1, PAGE)).unwrap();
    }
    store.flush().unwrap();
    // Broken: the next batch fails, and the store degrades.
    medium.broken.store(true, Ordering::SeqCst);
    let mut key = KEYS;
    while !store.is_degraded() {
        assert!(key < 2 * KEYS, "the store never degraded");
        let _ = store.put(key, &Noise.page(key, 1, PAGE));
        key += 1;
    }
    medium.broken.store(false, Ordering::SeqCst);

    let start = Instant::now();
    let mut flushes = 0;
    while store.is_degraded() && start.elapsed() < Duration::from_millis(600) {
        store.remove(flushes);
        let _ = store.flush();
        flushes += 1;
        std::thread::sleep(Duration::from_millis(1));
    }
    let s = store.stats();
    assert!(
        !s.degraded,
        "still degraded after {flushes} flushes in {:?}: {s:?}",
        start.elapsed()
    );
    assert!(s.medium_probes >= 1, "{s:?}");
    assert_eq!(store.check_invariants(), Ok(()));
}

/// A medium so broken it panics the writer thread. The store must not
/// hang or lose its mind: it flips degraded, `flush()` returns
/// `Err(ShuttingDown)` instead of waiting forever, in-memory entries
/// stay readable, and the budget is repaired by shedding.
#[test]
fn writer_panic_degrades_and_flush_never_hangs() {
    /// Panics on the first write — simulating a bug (or a poisoned
    /// lock) inside a custom medium, the worst failure a trait object
    /// can inflict.
    struct PanickingMedium;
    impl SpillMedium for PanickingMedium {
        fn read_at(&self, _buf: &mut [u8], _offset: u64) -> io::Result<()> {
            Err(io::Error::other("unreachable: nothing was ever written"))
        }
        fn write_at(&self, _data: &[u8], _offset: u64) -> io::Result<()> {
            panic!("injected medium panic");
        }
        fn flush(&self) -> io::Result<()> {
            Ok(())
        }
        fn set_len(&self, _len: u64) -> io::Result<()> {
            Ok(())
        }
    }

    const BUDGET: usize = 4 * PAGE;
    let store = CompressedStore::with_medium(
        StoreConfig::in_memory(BUDGET)
            .with_spill_retry(1, Duration::ZERO)
            .with_degrade_after(1),
        Arc::new(PanickingMedium),
    );

    // Force evictions: the first spill batch murders the writer.
    for key in 0..16u64 {
        let _ = store.put(key, &Noise.page(key, 1, PAGE));
    }
    wait_for("degraded after writer panic", || store.is_degraded());

    // flush() must return (with the truth), not block on completions
    // that can never arrive.
    match store.flush() {
        Err(StoreError::ShuttingDown) => {}
        Ok(()) => {
            // Legal only if no job was in flight when the writer died;
            // the store must still be degraded and consistent.
        }
        Err(e) => panic!("flush after writer death: unexpected {e}"),
    }
    let s = store.stats();
    assert!(s.degraded, "writer panic must degrade the store");
    assert!(s.degraded_entered >= 1);
    assert!(
        s.resident_bytes <= BUDGET as u64,
        "budget not repaired after reclaim: {s:?}"
    );

    // Whatever survived shedding reads back exact, from memory.
    assert!(
        missing(&store, 0..16, Noise, 1) < 16,
        "everything lost: shedding was total"
    );
    let mut out = vec![0u8; PAGE];
    // Same-filled pages bypass the budget and the (dead) writer: the
    // degraded store still serves them.
    store.put(999, &[0x5Au8; PAGE]).unwrap();
    assert!(store.get(999, &mut out).unwrap());
    assert_eq!(out, [0x5Au8; PAGE]);
    // A second flush is just as honest, and just as prompt.
    assert!(matches!(
        store.flush(),
        Err(StoreError::ShuttingDown) | Ok(())
    ));
    assert_eq!(store.check_invariants(), Ok(()));
    store.shutdown();
}

/// Satellite regression: a hard-failed batch reverts its entries to
/// memory residence (counted in `spill_fallback_resident`), the
/// resulting budget overshoot is repaired by shedding clean pages, and
/// one isolated failure does NOT degrade the store.
#[test]
fn spill_failed_fallback_restores_budget_without_degrading() {
    const BUDGET: usize = 4 * PAGE;
    let path = TempPath::new("chaos-fallback");
    // After the superblock the store stamps as it opens (op 0), the
    // next medium operations are exactly the first batch's write
    // attempts (nothing has spilled, so no reads can precede them):
    // scripting WriteError at ops 1..4 hard-fails batch #1 through all
    // three of its retries and leaves every later batch clean.
    let injector = Arc::new(FaultInjector::new(
        FileMedium::create(&*path).unwrap(),
        FaultPlan {
            script: vec![
                (1, Fault::WriteError),
                (2, Fault::WriteError),
                (3, Fault::WriteError),
            ],
            ..FaultPlan::default()
        },
    ));
    let store = CompressedStore::with_medium(
        StoreConfig::in_memory(BUDGET)
            .with_spill_batch_bytes(2 * PAGE)
            .with_spill_retry(3, Duration::from_micros(100)),
        Arc::clone(&injector) as Arc<dyn SpillMedium>,
    );

    for key in 0..24u64 {
        store.put(key, &Noise.page(key, 1, PAGE)).unwrap();
    }
    store.flush().unwrap();

    let s = store.stats();
    assert_eq!(
        injector.injected().write_errors,
        3,
        "script misfired: {:?}",
        injector.injected()
    );
    assert!(
        s.spill_fallback_resident > 0,
        "failed batch did not fall back to memory: {s:?}"
    );
    assert_eq!(s.io_retries, 2, "3 attempts = 2 retries: {s:?}");
    assert!(
        !s.degraded && s.degraded_entered == 0,
        "one failed batch (< degrade_after) must not degrade: {s:?}"
    );
    assert!(
        s.resident_bytes <= BUDGET as u64,
        "fallback overshoot never shed: {} > {BUDGET} ({s:?})",
        s.resident_bytes
    );

    // Exact-or-absent, and absences are explained by shedding.
    let missing = missing(&store, 0..24, Noise, 1);
    assert!(
        missing <= s.shed_pages,
        "{missing} keys missing but only {} shed",
        s.shed_pages
    );
    assert_eq!(store.check_invariants(), Ok(()));
    store.shutdown();
}

/// A write outage at budget while LZRW1 puts wait `Sealing`: failed
/// batches send their pages back to memory past the budget and then
/// degrade the store, which evicts by shedding. A `Sealing` page is in
/// neither victim set, so no shed can drop it; they stay within a
/// quarter of the budget, so every put still finds a page to shed, and
/// the fallback sheds back under the budget.
#[test]
fn a_write_outage_at_budget_sheds_past_sealing_pages() {
    const BUDGET: usize = 16 * PAGE;
    let admit = cc_compress::ThresholdPolicy::default().max_compressed_len(PAGE);
    let route = cc_compress::classify(&Text.page(1, 1, PAGE), admit);
    assert_eq!(route, cc_compress::Route::Lz);
    let injector = Arc::new(FaultInjector::new(
        MemMedium::new(),
        FaultPlan {
            write_outage: Some(1..13),
            ..FaultPlan::default()
        },
    ));
    let store = CompressedStore::with_medium(
        StoreConfig::in_memory(BUDGET)
            .with_spill_batch_bytes(2 * PAGE)
            .with_spill_retry(2, Duration::from_micros(100))
            .with_degrade_after(2)
            .with_probe_interval(Duration::from_millis(2)),
        Arc::clone(&injector) as Arc<dyn SpillMedium>,
    );
    for key in 0..256u64 {
        store.put(key, &Text.page(key, 1, PAGE)).unwrap();
        if key % 32 == 31 {
            assert_eq!(store.check_invariants(), Ok(()), "after key {key}");
        }
    }
    store.flush().unwrap();
    let s = store.stats();
    assert!(s.seals_deferred > 0, "nothing waited Sealing: {s:?}");
    assert_eq!(s.degraded_entered, 1, "{s:?}");
    assert!(
        s.spill_fallback_resident > 0 && s.shed_pages > 0,
        "failed batches neither reverted nor shed: {s:?}"
    );
    assert!(s.resident_bytes <= BUDGET as u64, "{s:?}");
    let missing = missing(&store, 0..256, Text, 1);
    assert!(missing <= s.shed_pages, "{missing} missing, {s:?}");
    assert_eq!(store.check_invariants(), Ok(()));
    store.shutdown();
}
