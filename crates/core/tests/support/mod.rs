//! What the store and wire suites share: the reference model, its
//! op-script generator and page classes (`model`), the zipf sampler,
//! the trials whose counters `store_stress.rs` and whose latencies the
//! release-only timed gates read, and self-removing spill-file paths.
//! The server crate's `server_integration.rs` and `timed_gates.rs`
//! include this file by path.

#![allow(dead_code)]

pub mod model;
mod temp_path;

pub use temp_path::TempPath;

use cc_compress::CodecPolicy;
use cc_core::store::{CompressedStore, StoreConfig};
use cc_core::tier::TierPolicy;
use cc_core::StoreStats;
use cc_telemetry::Snapshot;
use cc_util::SplitMix64;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const PAGE: usize = 4096;

/// Samples a store's resident gauge as fast as it can, on a thread of
/// its own, until stopped.
pub struct ResidentWatch {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<u64>,
}

impl ResidentWatch {
    pub fn start(store: &Arc<CompressedStore>) -> ResidentWatch {
        let (store, stop) = (Arc::clone(store), Arc::new(AtomicBool::new(false)));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut max = 0;
            while !flag.load(Ordering::Relaxed) {
                max = max.max(store.stats().resident_bytes);
            }
            max
        });
        ResidentWatch { stop, thread }
    }

    /// The largest resident byte count read.
    pub fn stop(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("watcher panicked")
    }
}

/// Idle windows of one op and no pressure floors: every demote pass
/// moves whatever aged, hot to warm to cold, while re-accesses promote
/// pages back.
pub const AGGRESSIVE: TierPolicy = TierPolicy {
    rejects_hot: true,
    hot_idle: 1,
    warm_idle: 2,
    promote_window: u64::MAX,
    max_promote_pressure_pct: 100,
    hot_demote_pressure_pct: 0,
    warm_demote_pressure_pct: 0,
};

/// Zipfian sampler over ranks `0..n`: a precomputed CDF and a binary
/// search, so a draw is one `SplitMix64` step and a `partition_point`.
pub struct Zipf {
    pub cdf: Vec<f64>,
}

impl Zipf {
    /// Rank `k` is drawn with weight `1 / (k + 1)^s`.
    pub fn new(n: u64, s: f64) -> Self {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                total += 1.0 / (k as f64).powf(s);
                total
            })
            .collect();
        cdf.iter_mut().for_each(|v| *v /= total);
        Zipf { cdf }
    }

    /// One draw: a rank `< n`, rank 0 the most frequent.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

/// Page payload for `key`: ~2:1 compressible text-like filler, every
/// fifth key incompressible noise.
pub fn page_for(key: u64, buf: &mut [u8]) {
    if key.is_multiple_of(5) {
        let mut rng = SplitMix64::new(key | 1);
        buf.iter_mut().for_each(|b| *b = rng.next_u64() as u8);
    } else {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = ((key as usize + i / 13) % 64) as u8 + b' ';
        }
    }
}

/// Pattern-heavy page payload: the word-regular classes BDI targets
/// (near-zero, narrow values, pointer-like base+delta) plus the
/// byte-regular and incompressible classes it must leave to LZRW1 —
/// 15/25/25/20/15 % by key.
pub fn pattern_page_for(key: u64, buf: &mut [u8]) {
    let class = key % 20;
    let mut rng = SplitMix64::new(key | 1);
    let mut words = |f: &mut dyn FnMut(usize, u64) -> u64| {
        for (i, w) in buf.chunks_exact_mut(8).enumerate() {
            w.copy_from_slice(&f(i, rng.next_u64()).to_le_bytes());
        }
    };
    match class {
        // Almost zero, with sparse nonzero words so the same-filled
        // elision does not take them before any codec.
        0..=2 => words(&mut |i, _| if i % 64 == 0 { key + i as u64 + 1 } else { 0 }),
        // Narrow values around zero (counters, small ints).
        3..=7 => words(&mut |_, r| r % 251),
        // Pointer-like words clustered near one base.
        8..=12 => words(&mut |_, r| (0x7F00_0000_0000u64 ^ (key << 21)) + r % 120),
        // Text: byte-regular, word-irregular — LZRW1's class.
        13..=16 => {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = ((key as usize + i / 13) % 64) as u8 + b' ';
            }
        }
        // Noise: stored raw under any policy.
        _ => words(&mut |_, r| r),
    }
}

/// Median of `ns` (the lower of the middle two), 0 if empty.
pub fn p50(mut ns: Vec<u64>) -> u64 {
    ns.sort_unstable();
    ns.get(ns.len().saturating_sub(1) / 2).copied().unwrap_or(0)
}

/// Whole-store compression ratio: original bytes over stored bytes.
pub fn ratio(store: &CompressedStore) -> f64 {
    let stored = store.stats().resident_bytes.max(1);
    (store.len() * PAGE) as f64 / stored as f64
}

/// Fill `0..keys` with [`page_for`] pages, hottest (key 0) last.
pub fn prefill(store: &CompressedStore, keys: u64) {
    let mut page = vec![0u8; PAGE];
    for key in (0..keys).rev() {
        page_for(key, &mut page);
        store.put(key, &page).expect("prefill");
    }
}

/// One operation of the mixed workload: 50 % put / 40 % get / 10 %
/// remove of a zipfian key. Returns whether it was a put.
pub fn mixed_op(
    store: &CompressedStore,
    zipf: &Zipf,
    rng: &mut SplitMix64,
    page: &mut [u8],
    out: &mut [u8],
) -> bool {
    let key = zipf.sample(rng);
    match rng.next_u64() % 10 {
        0..=4 => {
            page_for(key, page);
            store.put(key, page).expect("put");
            return true;
        }
        5..=8 => {
            store.get(key, out).expect("get");
        }
        _ => {
            store.remove(key);
        }
    }
    false
}

/// One arm of the codec sweep: a 60/40 put/get mix over `keys`
/// prefilled [`pattern_page_for`] pages under one policy, plus the same
/// policy's ratio on `zipf_ops` of the zipfian [`mixed_op`] mix.
pub struct CodecTrial {
    pub put_p50_ns: u64,
    /// Compression ratio on the pattern mix.
    pub ratio: f64,
    /// Compression ratio on the zipfian mix.
    pub zipf_ratio: f64,
    pub stats: StoreStats,
    pub telemetry: Snapshot,
}

pub fn codec_trial(policy: CodecPolicy, keys: u64, ops: u64, zipf_ops: u64) -> CodecTrial {
    let cfg = StoreConfig::in_memory(64 << 20)
        .with_codec_policy(policy)
        .with_tier_policy(TierPolicy::COMPRESS_ALL);
    let store = CompressedStore::new(cfg.clone());
    let mut rng = SplitMix64::new(0xC0DE ^ policy as u64);
    let (mut page, mut out) = (vec![0u8; PAGE], vec![0u8; PAGE]);
    for key in 0..keys {
        pattern_page_for(key, &mut page);
        store.put(key, &page).expect("prefill");
    }
    let mut put_ns = Vec::new();
    for _ in 0..ops {
        let key = rng.next_u64() % keys;
        if rng.next_u64() % 10 < 6 {
            pattern_page_for(key, &mut page);
            let t0 = Instant::now();
            store.put(key, &page).expect("put");
            put_ns.push(t0.elapsed().as_nanos() as u64);
        } else {
            store.get(key, &mut out).expect("get");
        }
    }
    store.flush().expect("flush");
    let zipf_store = CompressedStore::new(cfg.with_shards(1).with_telemetry(false));
    prefill(&zipf_store, keys);
    let zipf = Zipf::new(keys, 0.99);
    let mut rng = SplitMix64::new(0xBEEF);
    for _ in 0..zipf_ops {
        mixed_op(&zipf_store, &zipf, &mut rng, &mut page, &mut out);
    }
    zipf_store.flush().expect("flush");
    CodecTrial {
        put_p50_ns: p50(put_ns),
        ratio: ratio(&store),
        zipf_ratio: ratio(&zipf_store),
        stats: store.stats(),
        telemetry: store.telemetry_snapshot(),
    }
}

/// The tier-sweep arms: the flat store, the paper's 4:3 admission split,
/// and recency with idle windows sized for the sweep's op clock and
/// pressure floors low enough that the demoter keeps headroom for
/// promotions while the working set pins the budget.
pub const TIER_POLICIES: [(&str, TierPolicy); 3] = [
    ("compress-all", TierPolicy::COMPRESS_ALL),
    ("paper-threshold", TierPolicy::PAPER_THRESHOLD),
    (
        "recency",
        TierPolicy {
            hot_idle: 2048,
            warm_idle: 4096,
            promote_window: 1024,
            max_promote_pressure_pct: 100,
            hot_demote_pressure_pct: 40,
            warm_demote_pressure_pct: 60,
            ..TierPolicy::RECENCY
        },
    ),
];

/// What one tier arm saw.
pub struct TierArm {
    pub get_p50_ns: u64,
    pub stats: StoreStats,
    pub max_resident: u64,
    pub invariants: Result<(), String>,
}

/// One arm of the tier sweep: four threads of a 30/70 put/get mix at
/// zipf skew `s` over `keys` keys in a spill store of `budget` bytes,
/// prefilled hottest-last, demoter live. The keys should compress to
/// about 4/3 of the budget, so the zipf head can stay resident but the
/// tail cannot.
pub fn tier_arm(
    policy: TierPolicy,
    keys: u64,
    budget: usize,
    s: f64,
    ops_per_thread: u64,
    path: &Path,
) -> TierArm {
    let store = Arc::new(CompressedStore::new(
        StoreConfig::with_spill(budget, path).with_tier_policy(policy),
    ));
    prefill(&store, keys);
    store.flush().expect("flush");
    let zipf = Arc::new(Zipf::new(keys, s));
    let watch = ResidentWatch::start(&store);
    let workers: Vec<_> = (0..4)
        .map(|t| {
            let (store, zipf) = (Arc::clone(&store), Arc::clone(&zipf));
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(0x71E2 + t);
                let (mut page, mut out) = (vec![0u8; PAGE], vec![0u8; PAGE]);
                let mut get_ns = Vec::new();
                for _ in 0..ops_per_thread {
                    let key = zipf.sample(&mut rng);
                    if rng.next_u64() % 10 < 3 {
                        page_for(key, &mut page);
                        store.put(key, &page).expect("put");
                    } else {
                        let t0 = Instant::now();
                        store.get(key, &mut out).expect("get");
                        get_ns.push(t0.elapsed().as_nanos() as u64);
                    }
                }
                get_ns
            })
        })
        .collect();
    let get_ns = workers
        .into_iter()
        .flat_map(|h| h.join().expect("worker panicked"))
        .collect();
    store.flush().expect("flush");
    let max_resident = watch.stop();
    let arm = TierArm {
        get_p50_ns: p50(get_ns),
        stats: store.stats(),
        max_resident,
        invariants: store.check_invariants(),
    };
    store.shutdown();
    arm
}

/// Resident set of this process in bytes (`VmRSS`), 0 if unreadable.
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
            line.split_whitespace().next()?.parse::<u64>().ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// What a put-only phase saw.
pub struct PutOnly {
    /// Largest `spill_inflight_bytes` read, after every put and while
    /// draining.
    pub max_inflight: u64,
    /// Largest `resident_bytes` read, after every put and while draining.
    pub max_resident: u64,
    /// How long after the last put the gauge read 0, if it did within a
    /// second.
    pub drained_after: Option<Duration>,
    /// `VmRSS` growth over the phase, drain included.
    pub rss_growth: u64,
}

/// Fresh keys from `first_key` up worth 8 × `budget` in stored bytes,
/// put by one thread with no get, remove or flush, so nothing but the
/// spill writer can give back what it holds; then up to a second of
/// waiting for the in-flight gauge to read 0.
pub fn put_only_phase(store: &CompressedStore, first_key: u64, budget: usize) -> PutOnly {
    let stored =
        |s: &StoreStats| s.lzrw1_out_bytes + s.bdi_out_bytes + s.stored_raw * (PAGE as u64 + 1);
    let rss0 = rss_bytes();
    let stored0 = stored(&store.stats());
    let mut page = vec![0u8; PAGE];
    let (mut max_inflight, mut max_resident) = (0, 0);
    for key in first_key.. {
        page_for(key, &mut page);
        store.put(key, &page).expect("put-only put");
        let s = store.stats();
        max_inflight = max_inflight.max(s.spill_inflight_bytes);
        max_resident = max_resident.max(s.resident_bytes);
        if stored(&s) - stored0 >= 8 * budget as u64 {
            break;
        }
    }
    let last_put = Instant::now();
    let mut drained_after = None;
    while drained_after.is_none() && last_put.elapsed() < Duration::from_secs(1) {
        let s = store.stats();
        let inflight = s.spill_inflight_bytes;
        max_inflight = max_inflight.max(inflight);
        max_resident = max_resident.max(s.resident_bytes);
        if inflight == 0 {
            drained_after = Some(last_put.elapsed());
        } else {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    PutOnly {
        max_inflight,
        max_resident,
        drained_after,
        rss_growth: rss_bytes().saturating_sub(rss0),
    }
}
