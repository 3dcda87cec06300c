//! `storebench` — the correctness gates of the sharded `CompressedStore`.
//!
//! It measures nothing for its own sake: ccbench (`benchmark/`) is the
//! repo's one benchmark. Both modes print what they saw, list every
//! broken gate, and exit nonzero if there is one; CI runs both on every
//! push:
//!
//! ```text
//! cargo run --release -p cc-bench --bin storebench -- --smoke
//! cargo run --release -p cc-bench --bin storebench -- --chaos [--smoke] [--seed N]
//! ```
//!
//! Run without a mode it prints the usage line and exits 2.
//!
//! `--smoke` drives five reduced-ops trials:
//!
//! 1. **Spill pipeline** — four threads of a zipfian 50/40/10
//!    put/get/remove mix against a budget ~10× under the working set,
//!    then a put-only phase (8 × budget of fresh keys, no reads); once
//!    under the flat `compress-all` tier policy, once under the default.
//! 2. **Same-filled fast path** — a put-only mix, half of it pages of
//!    one repeated word.
//! 3. **Telemetry cost** — 108 strictly interleaved short trial pairs of
//!    the zipfian mix, telemetry on vs `with_telemetry(false)`, read at
//!    the median pair.
//! 4. **Codec sweep** — a 60/40 put/get mix over pattern-heavy pages
//!    (near-zero, narrow, base+delta, text, noise) under each
//!    `CodecPolicy` (`lzrw1-only`, `adaptive`), plus each policy's
//!    compression on the ordinary zipfian mix.
//! 5. **Tier sweep** — a 30/70 put/get mix under a budget that forces
//!    placement, for each `TierPolicy` (`compress-all` /
//!    `paper-threshold` / `recency`) at two zipf skews, demoter live.
//!
//! Trials 1–4 pin `compress-all` (trial 1's second run aside) so they
//! exercise the codec and spill paths, not placement. `--smoke` fails if
//! the resident-bytes budget is ever exceeded (spill trial and every
//! tier arm), the spill pipeline goes unexercised, the put-only phase
//! sees more than the budget in flight to the writer, sees it fail to
//! drain within a second without a flush, or grows `VmRSS` by more than
//! 3 × budget, the spill trial under the default tier policy counts more
//! than one demoter pass per 16 puts (a put must not wake the demoter),
//! `crc32` takes more than 2 µs per 1 500-byte extent in a release
//! build, a latency histogram is empty or has p50/p99/max out of order,
//! ring event counts disagree with the counters they shadow, telemetry
//! costs more than 5% of throughput, adaptive codec selection is slower
//! at put p50 than the lzrw1-only baseline on the pattern mix (or loses
//! compression on the pattern or zipfian mix, or routes nothing to one
//! of its codecs), any per-codec histogram goes unexercised, the recency
//! tier policy loses to compress-all at get p50 on the hot-skewed mix,
//! any tier or the demoter goes unexercised in the recency arm, or
//! `check_invariants()` fails after the final flush of either spill
//! trial or of any tier arm.
//!
//! `--chaos` (`--chaos --smoke` is the reduced CI variant) runs the
//! mixed workload against a seeded fault-injecting spill medium —
//! transient EIO, bit-flip read corruption, torn writes, and a scheduled
//! write outage — then crash-recovers a persistent store, and fails if
//! any get returns wrong bytes, injected corruption goes undetected, the
//! store fails to enter *and* leave degraded mode on schedule, the
//! memory budget stays violated after settling, a durable entry is lost
//! or resurfaces stale after the reopen, or `check_invariants()` fails
//! on the settled store or on a reopened one.

use cc_bench::{smoke, Zipf};
use cc_compress::CodecPolicy;
use cc_core::medium::{CrashSwitch, FaultInjector, FaultPlan, FileMedium, SpillMedium};
use cc_core::store::{CompressedStore, HitTier, StoreConfig};
use cc_core::tier::{CompressAll, PaperThreshold, RecencyCompressibility, TierPolicy};
use cc_core::StoreStats;
use cc_telemetry::Snapshot;
use cc_util::{crc32, SplitMix64};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PAGE: usize = 4096;
const KEYS: u64 = 4096;
const ZIPF_S: f64 = 0.99;
/// Budget comfortably above the compressed working set, so the
/// in-memory trials never evict.
const BUDGET: usize = 64 << 20;
/// Spill-trial budget: ~10× smaller than the compressed working set, so
/// the disk tier carries most of the key space.
const SPILL_BUDGET: usize = 1 << 20;
const SPILL_THREADS: usize = 4;
/// Tier-sweep key space and budget: ~2048 keys compress to roughly
/// 4 MB, so a 3 MB budget forces real placement decisions — the zipf
/// head can stay resident but the tail cannot.
const TIER_KEYS: u64 = 2048;
const TIER_BUDGET: usize = 3 << 20;
const TIER_THREADS: usize = 4;
/// Skews for the tier sweep: hot-concentrated and flatter-than-hot.
const TIER_SKEWS: [f64; 2] = [0.99, 0.6];
/// Operations per thread of a full (non-`--smoke`) `--chaos` run.
const CHAOS_OPS: u64 = 50_000;

/// The flat-store tier policy pinned by every non-tier trial, so they
/// keep exercising the codec and spill paths, not placement.
fn flat_tiering() -> Arc<dyn TierPolicy> {
    Arc::new(CompressAll)
}

/// Page payload for `key`: ~2:1 compressible text-like filler with a
/// sprinkle of noise pages, mirroring the mixed workloads of the paper.
fn page_for(key: u64, buf: &mut [u8]) {
    if key.is_multiple_of(5) {
        let mut rng = SplitMix64::new(key | 1);
        for b in buf.iter_mut() {
            *b = rng.next_u64() as u8;
        }
    } else {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = ((key as usize + i / 13) % 64) as u8 + b' ';
        }
    }
}

/// Pattern-heavy page payload for the codec sweep: the word-regular
/// classes the BDI codec targets (near-zero, narrow values, pointer-like
/// base+delta) plus the byte-regular and incompressible classes it must
/// leave to LZRW1 — roughly 15/25/25/20/15 by key.
fn pattern_page_for(key: u64, buf: &mut [u8]) {
    let class = key % 20;
    if class < 3 {
        // Almost-zero pages, with sparse nonzero words so the
        // same-filled elision does not swallow them before any codec.
        buf.fill(0);
        for (i, w) in buf.chunks_exact_mut(8).enumerate() {
            if i % 64 == 0 {
                w.copy_from_slice(&(key + i as u64 + 1).to_le_bytes());
            }
        }
    } else if class < 8 {
        // Narrow values around zero (counters, small ints).
        let mut rng = SplitMix64::new(key | 1);
        for w in buf.chunks_exact_mut(8) {
            w.copy_from_slice(&(rng.next_u64() % 251).to_le_bytes());
        }
    } else if class < 13 {
        // Pointer-like words clustered near one base.
        let base = 0x7F00_0000_0000u64 ^ (key << 21);
        let mut rng = SplitMix64::new(key | 1);
        for w in buf.chunks_exact_mut(8) {
            w.copy_from_slice(&(base + rng.next_u64() % 120).to_le_bytes());
        }
    } else if class < 17 {
        // Text-like filler: byte-regular, word-irregular — LZRW1's class.
        for (i, b) in buf.iter_mut().enumerate() {
            *b = ((key as usize + i / 13) % 64) as u8 + b' ';
        }
    } else {
        // Incompressible noise: the stored-raw class under any policy.
        let mut rng = SplitMix64::new(key | 1);
        for b in buf.iter_mut() {
            *b = rng.next_u64() as u8;
        }
    }
}

/// A same-filled page for `key`: one derived 8-byte word repeated.
fn same_page_for(key: u64, buf: &mut [u8]) {
    let word = key.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_ne_bytes();
    for (i, b) in buf.iter_mut().enumerate() {
        *b = word[i % 8];
    }
}

/// Median of `ns` (the lower of the middle two), 0 if empty.
fn p50(mut ns: Vec<u64>) -> u64 {
    ns.sort_unstable();
    ns.get(ns.len().saturating_sub(1) / 2).copied().unwrap_or(0)
}

/// Whole-store compression ratio: original bytes over stored bytes.
fn ratio(store: &CompressedStore) -> f64 {
    let stored = store.stats().resident_bytes;
    if stored > 0 {
        (store.len() as u64 * PAGE as u64) as f64 / stored as f64
    } else {
        1.0
    }
}

/// Fill `0..KEYS` with [`page_for`] pages.
fn prefill(store: &CompressedStore) {
    let mut page = vec![0u8; PAGE];
    for key in 0..KEYS {
        page_for(key, &mut page);
        store.put(key, &page).expect("prefill");
    }
}

/// One operation of the mixed workload: 50% put / 40% get / 10% remove
/// of a zipfian key. Returns whether it was a put.
fn mixed_op(
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
            let _ = store.get(key, out).expect("get");
        }
        _ => {
            store.remove(key);
        }
    }
    false
}

/// Compression ratio of `ops` single-thread operations of the zipfian
/// mixed workload under `policy`, over a prefilled key space: the codec
/// gate's "does adapting cost compression on ordinary pages?" control.
fn zipf_ratio(zipf: &Zipf, ops: u64, policy: CodecPolicy) -> f64 {
    let store = CompressedStore::new(
        StoreConfig::in_memory(BUDGET)
            .with_shards(1)
            .with_telemetry(false)
            .with_codec_policy(policy)
            .with_tier_policy(flat_tiering()),
    );
    prefill(&store);
    let mut rng = SplitMix64::new(0xBEEF);
    let (mut page, mut out) = (vec![0u8; PAGE], vec![0u8; PAGE]);
    for _ in 0..ops {
        mixed_op(&store, zipf, &mut rng, &mut page, &mut out);
    }
    ratio(&store)
}

/// What the spill-pipeline trial leaves for the gates.
struct SpillTrial {
    /// Puts the workers issued. With `stats.demoter_passes` (open to the
    /// end of the put-only phase) this is `--smoke`'s "a put never wakes
    /// the demoter" gate, run under the default tier policy (under the
    /// pinned flat one the demoter has no work).
    puts: u64,
    /// Store counters after the final flush.
    stats: StoreStats,
    file_bytes_on_disk: u64,
    max_resident_seen: u64,
    put_only: PutOnlyPhase,
    /// Telemetry snapshot after the final flush: per-tier latency
    /// histograms plus ring event counts.
    telemetry: Snapshot,
    /// `check_invariants()` after the final flush.
    invariants: Result<(), String>,
}

/// What the spill trial's put-only phase saw: fresh keys worth
/// [`PUT_ONLY_BUDGETS`] × the budget in stored bytes, put by one thread
/// with no get, remove or flush — nothing but the spill writer itself
/// can return the memory of what it wrote. Gated by `--smoke`: "the
/// budget means memory".
struct PutOnlyPhase {
    /// Largest `spill_inflight_bytes` read (after every put, and while
    /// draining).
    max_inflight: u64,
    /// Largest `resident_bytes` read after a put.
    max_resident: u64,
    /// How long after the last put the gauge read zero, if it did
    /// within [`PUT_ONLY_DRAIN`].
    drained_after: Option<Duration>,
    /// `VmRSS` growth over the phase, drain included (0 where
    /// `/proc/self/status` does not exist).
    rss_growth: u64,
}

const PUT_ONLY_BUDGETS: u64 = 8;
const PUT_ONLY_DRAIN: Duration = Duration::from_secs(1);

/// Resident set of this process in bytes (`VmRSS`), 0 if unreadable.
fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
            line.split_whitespace().next()?.parse::<u64>().ok()
        })
        .map_or(0, |kb| kb * 1024)
}

fn run_put_only_phase(store: &CompressedStore) -> PutOnlyPhase {
    let stored =
        |s: &StoreStats| s.lzrw1_out_bytes + s.bdi_out_bytes + s.stored_raw * (PAGE as u64 + 1);
    let rss0 = rss_bytes();
    let stored0 = stored(&store.stats());
    let mut page = vec![0u8; PAGE];
    let (mut max_inflight, mut max_resident) = (0, 0);
    for key in KEYS.. {
        page_for(key, &mut page);
        store.put(key, &page).expect("put-only put");
        let s = store.stats();
        max_inflight = max_inflight.max(s.spill_inflight_bytes);
        max_resident = max_resident.max(s.resident_bytes);
        if stored(&s) - stored0 >= PUT_ONLY_BUDGETS * SPILL_BUDGET as u64 {
            break;
        }
    }
    let last_put = Instant::now();
    let mut drained_after = None;
    while drained_after.is_none() && last_put.elapsed() < PUT_ONLY_DRAIN {
        let inflight = store.stats().spill_inflight_bytes;
        max_inflight = max_inflight.max(inflight);
        if inflight == 0 {
            drained_after = Some(last_put.elapsed());
        } else {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    PutOnlyPhase {
        max_inflight,
        max_resident,
        drained_after,
        rss_growth: rss_bytes().saturating_sub(rss0),
    }
}

/// Budget watcher: samples the resident gauge as fast as it can until
/// `stop` is set, and returns the largest value it read.
fn watch_resident(
    store: &Arc<CompressedStore>,
    stop: &Arc<AtomicBool>,
) -> std::thread::JoinHandle<u64> {
    let (store, stop) = (Arc::clone(store), Arc::clone(stop));
    std::thread::spawn(move || {
        let mut max_seen = 0u64;
        while !stop.load(Ordering::Relaxed) {
            max_seen = max_seen.max(store.stats().resident_bytes);
        }
        max_seen
    })
}

fn run_spill_trial(
    threads: usize,
    ops_per_thread: u64,
    zipf: &Arc<Zipf>,
    policy: Arc<dyn TierPolicy>,
) -> SpillTrial {
    let path = std::env::temp_dir().join(format!("storebench-spill-{}.bin", std::process::id()));
    let store = Arc::new(CompressedStore::new(
        StoreConfig::with_spill(SPILL_BUDGET, &path).with_tier_policy(policy),
    ));
    prefill(&store);
    store.flush().expect("flush");

    // The spill path must never overshoot the budget while the workers
    // churn.
    let stop = Arc::new(AtomicBool::new(false));
    let watcher = watch_resident(&store, &stop);
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let store = Arc::clone(&store);
            let zipf = Arc::clone(zipf);
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(0xD15C + t as u64);
                let (mut page, mut out) = (vec![0u8; PAGE], vec![0u8; PAGE]);
                (0..ops_per_thread)
                    .filter(|_| mixed_op(&store, &zipf, &mut rng, &mut page, &mut out))
                    .count() as u64
            })
        })
        .collect();
    let puts = handles
        .into_iter()
        .map(|h| h.join().expect("worker panicked"))
        .sum();
    store.flush().expect("flush");
    stop.store(true, Ordering::Relaxed);
    let max_resident_seen = watcher.join().expect("watcher panicked");
    // With the watcher gone no other thread calls into the store: the
    // phase would catch a store whose reads lend the writer a hand.
    let put_only = run_put_only_phase(&store);
    let max_resident_seen = max_resident_seen.max(put_only.max_resident);
    store.flush().expect("flush");

    let trial = SpillTrial {
        puts,
        stats: store.stats(),
        file_bytes_on_disk: std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
        max_resident_seen,
        put_only,
        telemetry: store.telemetry_snapshot(),
        invariants: store.check_invariants(),
    };
    drop(store);
    let _ = std::fs::remove_file(&path);
    trial
}

/// Throughput cost of telemetry: the single-thread zipfian mixed
/// workload with telemetry on vs `with_telemetry(false)`, as the median
/// of [`OVERHEAD_PAIRS`] adjacent off/on trial pairs.
struct Overhead {
    /// Median trial rate of each arm (for scale; the cost is read off
    /// the pairs, not off these).
    ops_per_sec_on: f64,
    ops_per_sec_off: f64,
    /// Throughput lost to telemetry, percent of the telemetry-off rate
    /// (clamped at 0).
    overhead_pct: f64,
    /// The same cost as time: nanoseconds telemetry adds to one
    /// operation (not clamped).
    ns_per_op: f64,
}

/// Adjacent off/on trial pairs in the overhead probe.
const OVERHEAD_PAIRS: usize = 108;

/// `total_ops` operations per arm as [`OVERHEAD_PAIRS`] very short
/// trials per arm against one prefilled store each, strictly
/// interleaved, read as the median over the pairs of
/// `rate on / rate off`.
///
/// Why this shape, from 40 probe runs per candidate on the 2-vCPU
/// guest, all of the same total work, for a true cost of about 0.5 %:
/// the host's speed wanders ±10 % over tens of milliseconds, in both
/// directions, so the arms must alternate faster than that (2.5 ms
/// trials) and be compared pair by pair, each pair sharing its weather
/// (the way ccbench reads `harness.trace_overhead_pct`). Readings were
/// 0.03–1.19 % (σ 0.26) for this median of pair ratios; −0.9–2.1 %
/// (σ 0.65) for each arm's fast quartile of the same 108 trials and
/// −3.7–5.0 % (σ 1.85) for each arm's fastest; −2.7–3.8 % (σ 1.3) for
/// the fast quartile of 27 trials of 10 ms; and with a fresh store per
/// trial, best of three 90 ms trials per arm, the *off* arm alone swung
/// 151–259 k ops/s run to run.
fn run_overhead_probe(total_ops: u64, zipf: &Zipf) -> Overhead {
    let ops = (total_ops / OVERHEAD_PAIRS as u64).max(1);
    let (mut page, mut out) = (vec![0u8; PAGE], vec![0u8; PAGE]);
    // One prefilled store per arm, [off, on], each fed the same
    // operation stream.
    let mut arms = [false, true].map(|telemetry| {
        let store = CompressedStore::new(
            StoreConfig::in_memory(BUDGET)
                .with_shards(1)
                .with_telemetry(telemetry)
                .with_tier_policy(flat_tiering()),
        );
        prefill(&store);
        (store, SplitMix64::new(0xBEEF))
    });
    let r = cc_bench::paired_rates(OVERHEAD_PAIRS, |arm| {
        let (store, rng) = &mut arms[arm];
        let start = Instant::now();
        for _ in 0..ops {
            mixed_op(store, zipf, rng, &mut page, &mut out);
        }
        ops as f64 / start.elapsed().as_secs_f64()
    });
    Overhead {
        ops_per_sec_on: r.on,
        ops_per_sec_off: r.off,
        overhead_pct: r.overhead_pct(),
        ns_per_op: 1e9 / r.off * (1.0 / r.on_over_off - 1.0),
    }
}

/// The same-filled fast path: `ops` puts, half of them repeated-word
/// pages (zeroed or memset-style), the other half normal compressible
/// content. Returns the store's `same_filled` counter.
fn run_same_filled_trial(ops: u64) -> u64 {
    let store =
        CompressedStore::new(StoreConfig::in_memory(BUDGET).with_tier_policy(flat_tiering()));
    let mut rng = SplitMix64::new(0x5A5A);
    let mut page = vec![0u8; PAGE];
    for _ in 0..ops {
        let key = rng.next_u64() % KEYS;
        if key.is_multiple_of(2) {
            same_page_for(key, &mut page);
        } else {
            page_for(key, &mut page);
        }
        store.put(key, &page).expect("put");
    }
    store.stats().same_filled
}

/// One arm of the codec sweep: a put/get mix over the pattern-heavy page
/// classes under one [`CodecPolicy`], plus the same policy's
/// [`zipf_ratio`].
struct CodecTrial {
    policy: CodecPolicy,
    put_p50_ns: u64,
    /// Whole-store compression ratio on the pattern mix.
    ratio: f64,
    zipf_ratio: f64,
    /// Per-codec routing counters.
    stats: StoreStats,
    /// Per-codec compress/decompress latency histograms live here.
    telemetry: Snapshot,
}

fn run_codec_trial(policy: CodecPolicy, ops: u64, zipf: &Zipf, zipf_ops: u64) -> CodecTrial {
    let store = CompressedStore::new(
        StoreConfig::in_memory(BUDGET)
            .with_codec_policy(policy)
            .with_tier_policy(flat_tiering()),
    );
    let mut rng = SplitMix64::new(0xC0DE ^ policy as u64);
    let (mut page, mut out) = (vec![0u8; PAGE], vec![0u8; PAGE]);
    // Prefill so gets hit from the first op.
    for key in 0..KEYS {
        pattern_page_for(key, &mut page);
        store.put(key, &page).expect("prefill");
    }
    let mut put_ns = Vec::new();
    for _ in 0..ops {
        let key = rng.next_u64() % KEYS;
        // 60/40 put/get: the sweep is about the put path, but decompress
        // histograms must be exercised too.
        if rng.next_u64() % 10 < 6 {
            pattern_page_for(key, &mut page);
            let t0 = Instant::now();
            store.put(key, &page).expect("put");
            put_ns.push(t0.elapsed().as_nanos() as u64);
        } else {
            let _ = store.get(key, &mut out).expect("get");
        }
    }
    CodecTrial {
        policy,
        put_p50_ns: p50(put_ns),
        ratio: ratio(&store),
        zipf_ratio: zipf_ratio(zipf, zipf_ops, policy),
        stats: store.stats(),
        telemetry: store.telemetry_snapshot(),
    }
}

fn run_codec_sweep(ops: u64, zipf: &Zipf, zipf_ops: u64) -> Vec<CodecTrial> {
    CodecPolicy::all()
        .into_iter()
        .map(|policy| {
            let t = run_codec_trial(policy, ops, zipf, zipf_ops);
            eprintln!(
                "  [codec {:<10}] put p50={:>6} ns  ratio={:.2} (zipf {:.2})  lzrw1/bdi/fallback={}/{}/{}",
                t.policy.name(),
                t.put_p50_ns,
                t.ratio,
                t.zipf_ratio,
                t.stats.puts_lzrw1,
                t.stats.puts_bdi,
                t.stats.codec_fallbacks,
            );
            t
        })
        .collect()
}

/// The tier-sweep policy arms: the flat store, the paper's 4:3
/// admission split, and recency+compressibility tuned for the sweep's
/// op clock (idle windows sized in generation ticks, pressure floors
/// low enough that the demoter keeps headroom for promotions even
/// though the working set pins the budget).
fn tier_policies() -> Vec<(&'static str, Arc<dyn TierPolicy>)> {
    vec![
        ("compress-all", Arc::new(CompressAll)),
        ("paper-threshold", Arc::new(PaperThreshold)),
        (
            "recency",
            Arc::new(RecencyCompressibility {
                hot_idle: 2048,
                warm_idle: 4096,
                promote_window: 1024,
                max_promote_pressure_pct: 100,
                hot_demote_pressure_pct: 40,
                warm_demote_pressure_pct: 60,
            }),
        ),
    ]
}

/// One arm of the tier sweep: the mixed workload under one
/// [`TierPolicy`] at one zipf skew, with the background demoter live.
struct TierArm {
    policy: &'static str,
    zipf_s: f64,
    get_p50_ns: u64,
    /// Store counters after the final flush: hits per tier, promotion
    /// and demotion traffic, demoter passes.
    stats: StoreStats,
    max_resident_seen: u64,
    /// `check_invariants()` after the final flush.
    invariants: Result<(), String>,
}

fn run_tier_trial(
    name: &'static str,
    policy: Arc<dyn TierPolicy>,
    zipf_s: f64,
    ops_per_thread: u64,
) -> TierArm {
    let path = std::env::temp_dir().join(format!(
        "storebench-tier-{name}-{}-{}.bin",
        (zipf_s * 100.0) as u32,
        std::process::id()
    ));
    let store = Arc::new(CompressedStore::new(
        StoreConfig::with_spill(TIER_BUDGET, &path).with_tier_policy(policy),
    ));
    let zipf = Arc::new(Zipf::new(TIER_KEYS, zipf_s));
    // Prefill hottest-last so the zipf head starts memory-resident and
    // the tail is what eviction pushes to disk.
    let mut page = vec![0u8; PAGE];
    for key in (0..TIER_KEYS).rev() {
        page_for(key, &mut page);
        store.put(key, &page).expect("prefill");
    }
    store.flush().expect("flush");

    let stop = Arc::new(AtomicBool::new(false));
    let watcher = watch_resident(&store, &stop);
    let handles: Vec<_> = (0..TIER_THREADS)
        .map(|t| {
            let store = Arc::clone(&store);
            let zipf = Arc::clone(&zipf);
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(0x71E2 + t as u64);
                let (mut page, mut out) = (vec![0u8; PAGE], vec![0u8; PAGE]);
                let mut get_ns = Vec::new();
                for _ in 0..ops_per_thread {
                    let key = zipf.sample(&mut rng);
                    // 30/70 put/get: read-mostly, the regime where hot
                    // placement pays (gets dodge the decompress).
                    if rng.next_u64() % 10 < 3 {
                        page_for(key, &mut page);
                        store.put(key, &page).expect("put");
                    } else {
                        let t0 = Instant::now();
                        let _ = store.get(key, &mut out).expect("get");
                        get_ns.push(t0.elapsed().as_nanos() as u64);
                    }
                }
                get_ns
            })
        })
        .collect();
    let get_ns = handles
        .into_iter()
        .flat_map(|h| h.join().expect("worker panicked"))
        .collect();
    store.flush().expect("flush");
    stop.store(true, Ordering::Relaxed);
    let max_resident_seen = watcher.join().expect("watcher panicked");

    let arm = TierArm {
        policy: name,
        zipf_s,
        get_p50_ns: p50(get_ns),
        stats: store.stats(),
        max_resident_seen,
        invariants: store.check_invariants(),
    };
    drop(store);
    let _ = std::fs::remove_file(&path);
    arm
}

fn run_tier_sweep(ops_per_thread: u64) -> Vec<TierArm> {
    let mut arms = Vec::new();
    for &zipf_s in &TIER_SKEWS {
        for (name, policy) in tier_policies() {
            let a = run_tier_trial(name, policy, zipf_s, ops_per_thread);
            let s = &a.stats;
            eprintln!(
                "  [tier {:<15}] s={:<4} get p50={:>6} ns  hot/warm/cold hits={}/{}/{}  promo={}  demo hot/warm={}/{}  passes={}",
                a.policy,
                a.zipf_s,
                a.get_p50_ns,
                s.hits_hot,
                s.hits_memory,
                s.hits_spill,
                s.promotions,
                s.demoted_hot,
                s.demoted_warm,
                s.demoter_passes,
            );
            arms.push(a);
        }
    }
    arms
}

fn tier_arm<'a>(arms: &'a [TierArm], policy: &str, zipf_s: f64) -> &'a TierArm {
    arms.iter()
        .find(|a| a.policy == policy && a.zipf_s == zipf_s)
        .expect("tier sweep ran this arm")
}

/// Deterministic chaos gate: the spill workload against a seeded
/// [`FaultInjector`] (EIO reads, bit-flip reads, EIO/torn writes) with a
/// scheduled write outage that forces the degraded-mode transition
/// mid-run, then [`run_chaos_recovery`]. Exits nonzero if any get
/// returns wrong bytes, corruption goes undetected, the store fails to
/// degrade and recover on schedule, the budget is still violated once
/// the dust settles, or the settled store fails `check_invariants()`.
fn run_chaos(threads: usize, ops_per_thread: u64, seed: u64) -> i32 {
    const CHAOS_KEYS: u64 = 1024;
    let path = std::env::temp_dir().join(format!("storebench-chaos-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let injector = Arc::new(FaultInjector::new(
        FileMedium::create(&path).expect("create chaos spill file"),
        FaultPlan {
            seed,
            read_error_1_in: 61,
            read_corrupt_1_in: 43,
            write_error_1_in: 257,
            short_write_1_in: 509,
            // Writes 60..100 hard-fail: consecutive batch failures cross
            // `degrade_after` on schedule, and the probation probes burn
            // the rest of the window before one lands and recovers.
            write_outage: Some(60..100),
            ..FaultPlan::default()
        },
    ));
    let store = Arc::new(CompressedStore::with_medium(
        StoreConfig::in_memory(SPILL_BUDGET)
            .with_gc_dead_ratio(0.2)
            .with_spill_retry(2, Duration::from_micros(200))
            .with_degrade_after(2)
            .with_probe_interval(Duration::from_millis(2)),
        Arc::clone(&injector) as Arc<dyn SpillMedium>,
    ));
    eprintln!(
        "storebench --chaos: seed {seed:#x}, {threads} threads x {ops_per_thread} ops, mixed 50/30/20 put/get/remove over {CHAOS_KEYS} keys, budget {SPILL_BUDGET} B"
    );

    let violations = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..threads as u64)
        .map(|t| {
            let store = Arc::clone(&store);
            let violations = Arc::clone(&violations);
            let keys_per_thread = (CHAOS_KEYS / threads as u64).max(1);
            std::thread::spawn(move || {
                let base = t * keys_per_thread;
                // version[k] = last acknowledged put; 0 = unknown.
                let mut version = vec![0u64; keys_per_thread as usize];
                let mut vnext = 0u64;
                let mut rng = SplitMix64::new(seed ^ (t + 1));
                let mut page = vec![0u8; PAGE];
                let mut out = vec![0u8; PAGE];
                for _ in 0..ops_per_thread {
                    let k = (rng.next_u64() % keys_per_thread) as usize;
                    let key = base + k as u64;
                    match rng.next_u64() % 10 {
                        0..=4 => {
                            vnext += 1;
                            chaos_page(key, vnext, &mut page);
                            match store.put(key, &page) {
                                Ok(()) => version[k] = vnext,
                                Err(_) => version[k] = 0, // degraded: unknown
                            }
                        }
                        5..=7 => match store.get(key, &mut out) {
                            Ok(true) => {
                                // THE invariant: returned bytes are some
                                // exact put, never garbage.
                                if version[k] != 0 {
                                    chaos_page(key, version[k], &mut page);
                                    if out != page {
                                        violations.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                            // A miss (shed / corrupt-dropped) and an
                            // honest error are both legal outcomes.
                            Ok(false) | Err(_) => version[k] = 0,
                        },
                        _ => {
                            store.remove(key);
                            version[k] = 0;
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("chaos worker panicked");
    }

    // The outage window is finite: wait out probation, then settle.
    let deadline = Instant::now() + Duration::from_secs(30);
    while store.is_degraded() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let flush_ok = store.flush().is_ok();
    let invariants = store.check_invariants();
    let s = store.stats();
    let inj = injector.injected();
    eprintln!(
        "  injected: {} read EIO, {} bit flips, {} write EIO, {} torn writes over {} medium ops",
        inj.read_errors,
        inj.read_corruptions,
        inj.write_errors,
        inj.short_writes,
        injector.operations(),
    );
    eprintln!(
        "  detected: {} corrupt extents, {} io retries; degraded {}x, recovered {}x after {} probes; {} fallback-resident, {} shed",
        s.corrupt_detected,
        s.io_retries,
        s.degraded_entered,
        s.degraded_recovered,
        s.medium_probes,
        s.spill_fallback_resident,
        s.shed_pages,
    );
    eprintln!(
        "  settled: resident {} B / budget {SPILL_BUDGET} B, {} spilled in {} batches, {} GC runs, flush_ok={flush_ok}",
        s.resident_bytes, s.spilled, s.spill_batches, s.gc_runs,
    );

    let mut failures = Vec::new();
    if violations.load(Ordering::Relaxed) > 0 {
        failures.push(format!(
            "{} gets returned wrong bytes under fault injection",
            violations.load(Ordering::Relaxed)
        ));
    }
    if inj.total() == 0 {
        failures.push("fault injector idle: the chaos run exercised nothing".into());
    }
    if inj.read_corruptions > 0 && s.corrupt_detected == 0 {
        failures.push(format!(
            "{} bit flips injected but none detected",
            inj.read_corruptions
        ));
    }
    if s.io_retries == 0 {
        failures.push("injected transient EIO never retried".into());
    }
    if s.degraded_entered == 0 {
        failures.push("write outage did not trigger degraded mode".into());
    }
    if s.degraded_recovered == 0 || s.degraded {
        failures.push(format!(
            "store never recovered from the outage (entered {}x, recovered {}x, degraded={})",
            s.degraded_entered, s.degraded_recovered, s.degraded
        ));
    }
    if s.resident_bytes > SPILL_BUDGET as u64 {
        failures.push(format!(
            "budget violated after settling: {} > {SPILL_BUDGET}",
            s.resident_bytes
        ));
    }
    if s.spill_batches == 0 {
        failures.push("nothing ever spilled: the chaos ran against an idle medium".into());
    }
    if let Err(e) = invariants {
        failures.push(format!("chaos run, settled: check_invariants: {e}"));
    }
    store.shutdown();
    let _ = std::fs::remove_file(&path);
    failures.extend(run_chaos_recovery());
    smoke::report("storebench --chaos", &failures)
}

/// Crash-recovery trial: spill a known working set through a persistent
/// store, kill the power mid-stream with a [`CrashSwitch`] write cut,
/// reopen the real files, and verify the recovery contract — every
/// durably-committed entry served byte-for-byte from the spill tier
/// (no re-PUT), never a wrong byte, and the reopened store passes
/// `check_invariants()`. A second, cleanly shut down round must
/// warm-start on the fast path (no extent re-scan). The geometry is
/// content-driven, so no seed enters.
fn run_chaos_recovery() -> Vec<String> {
    const RECOVERY_KEYS: u64 = 256;
    let dir = std::env::temp_dir();
    let data_path = dir.join(format!("storebench-recovery-{}.bin", std::process::id()));
    let map_path = dir.join(format!(
        "storebench-recovery-{}.bin.map",
        std::process::id()
    ));
    let mut failures = Vec::new();

    // One round per shutdown style: a hard cut after the barrier, then
    // an orderly seal. `clean` selects the expectations.
    for clean in [false, true] {
        let _ = std::fs::remove_file(&data_path);
        let _ = std::fs::remove_file(&map_path);
        let switch = CrashSwitch::new();
        let data = Arc::new(FaultInjector::with_switch(
            FileMedium::create(&data_path).expect("create recovery data file"),
            FaultPlan::quiet(),
            Arc::clone(&switch),
        )) as Arc<dyn SpillMedium>;
        let journal = Arc::new(FaultInjector::with_switch(
            FileMedium::create(&map_path).expect("create recovery journal file"),
            FaultPlan::quiet(),
            Arc::clone(&switch),
        )) as Arc<dyn SpillMedium>;
        let cfg =
            StoreConfig::with_spill(SPILL_BUDGET / 8, &data_path).with_tier_policy(flat_tiering());
        let store = CompressedStore::with_persistent_media(cfg.clone(), data, journal)
            .expect("open persistent store");
        let mut page = vec![0u8; PAGE];
        for key in 0..RECOVERY_KEYS {
            chaos_page(key, 1, &mut page);
            store.put(key, &page).expect("recovery put");
        }
        store.flush().expect("recovery flush");
        // The durable set: everything the barrier left in the spill tier.
        let durable: Vec<u64> = (0..RECOVERY_KEYS)
            .filter(|&k| store.peek_tier(k) == Some(HitTier::Spill))
            .collect();
        if clean {
            store.shutdown();
        } else {
            switch.cut_now();
            // Post-crash writes must vanish, not resurface on reopen.
            for key in 0..8 {
                chaos_page(key, 2, &mut page);
                let _ = store.put(key, &page);
            }
            let _ = store.flush();
        }
        let kind = if clean { "clean" } else { "crashed" };
        drop(store);

        let reopened = match CompressedStore::open_existing_with_media(
            cfg,
            Arc::new(FileMedium::open(&data_path).expect("reopen data")) as Arc<dyn SpillMedium>,
            Arc::new(FileMedium::open(&map_path).expect("reopen journal")) as Arc<dyn SpillMedium>,
        ) {
            Ok(s) => s,
            Err(e) => {
                failures.push(format!("recovery ({kind}): reopen failed: {e}"));
                continue;
            }
        };
        let s = reopened.stats();
        eprintln!(
            "  recovery ({kind}): {} extents recovered, {} records replayed, {} verified, {} torn discarded, {} stale dropped, clean={}",
            s.extents_recovered,
            s.journal_records_replayed,
            s.recovery_extents_verified,
            s.torn_tail_discarded,
            s.stale_generation_dropped,
            s.clean_recoveries,
        );
        let mut out = vec![0u8; PAGE];
        let mut wrong = 0u64;
        let mut lost = 0u64;
        for &key in &durable {
            if reopened.peek_tier(key) != Some(HitTier::Spill) {
                lost += 1;
                continue;
            }
            chaos_page(key, 1, &mut page);
            match reopened.get(key, &mut out) {
                Ok(true) if out == page => {}
                Ok(true) => wrong += 1,
                _ => lost += 1,
            }
        }
        if wrong > 0 {
            failures.push(format!(
                "recovery ({kind}): {wrong} keys served wrong bytes"
            ));
        }
        if lost > 0 {
            failures.push(format!(
                "recovery ({kind}): {lost} of {} durable entries unrecovered",
                durable.len()
            ));
        }
        if durable.is_empty() {
            failures.push(format!(
                "recovery ({kind}): nothing spilled — the trial exercised nothing"
            ));
        }
        if clean {
            if s.clean_recoveries != 1 {
                failures.push("recovery (clean): seal not honoured on reopen".into());
            }
            if s.recovery_extents_verified != 0 {
                failures.push(format!(
                    "recovery (clean): clean start took the slow scan ({} extents re-verified)",
                    s.recovery_extents_verified
                ));
            }
        } else {
            if s.clean_recoveries != 0 {
                failures.push("recovery (crashed): cut run recovered as clean".into());
            }
            // The post-cut overwrites (version 2) must not have survived.
            for key in 0..8u64 {
                chaos_page(key, 2, &mut page);
                if reopened.get(key, &mut out).ok() == Some(true) && out == page {
                    failures.push(format!(
                        "recovery (crashed): post-crash write of key {key} resurfaced"
                    ));
                }
            }
        }
        if let Err(e) = reopened.check_invariants() {
            failures.push(format!(
                "recovery ({kind}), reopened: check_invariants: {e}"
            ));
        }
        reopened.shutdown();
    }
    let _ = std::fs::remove_file(&data_path);
    let _ = std::fs::remove_file(&map_path);
    failures
}

/// Page payload for the chaos trial: versioned incompressible noise, so
/// every page takes the spill machinery (never the same-filled elision)
/// and any single flipped bit is visible.
fn chaos_page(key: u64, version: u64, buf: &mut [u8]) {
    let mut rng = SplitMix64::new(key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ version);
    for b in buf.iter_mut() {
        *b = rng.next_u64() as u8;
    }
}

/// Extent size for the checksum probe: the mean spilled extent.
const CRC_EXTENT: usize = 1500;

/// Fastest of 32 timed batches of 256 `crc32` calls over a
/// [`CRC_EXTENT`]-byte buffer, in nanoseconds per call.
fn crc32_ns_per_extent() -> f64 {
    let mut rng = SplitMix64::new(0xC4C3);
    let buf: Vec<u8> = (0..CRC_EXTENT).map(|_| rng.next_u64() as u8).collect();
    (0..32)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..256 {
                std::hint::black_box(crc32(std::hint::black_box(&buf)));
            }
            t0.elapsed().as_nanos() as f64 / 256.0
        })
        .fold(f64::INFINITY, f64::min)
}

/// Reduced-ops CI gate: exercise the spill pipeline, same-filled path,
/// telemetry plane, codec sweep and tier sweep for real, and fail loudly
/// if an invariant breaks.
fn run_smoke() -> i32 {
    let zipf = Arc::new(Zipf::new(KEYS, ZIPF_S));
    eprintln!(
        "storebench --smoke: spill pipeline + demoter wake + crc32 + same-filled + telemetry + codec-sweep + tier-sweep gate"
    );
    let spill = run_spill_trial(SPILL_THREADS, 10_000, &zipf, flat_tiering());
    let tiered = run_spill_trial(
        SPILL_THREADS,
        10_000,
        &zipf,
        cc_core::tier::default_policy(),
    );
    let same_filled = run_same_filled_trial(20_000);
    let ovh = run_overhead_probe(60_000, &zipf);
    let sweep = run_codec_sweep(20_000, &zipf, 10_000);
    let tiers = run_tier_sweep(8_000);
    let ss = &spill.stats;
    eprintln!(
        "  spill: {} spilled in {} batches ({:.1}/batch), gc_runs={}, file={} B, max_resident={} B (budget {SPILL_BUDGET})",
        ss.spilled,
        ss.spill_batches,
        ss.spilled as f64 / ss.spill_batches.max(1) as f64,
        ss.gc_runs,
        spill.file_bytes_on_disk,
        spill.max_resident_seen,
    );
    eprintln!(
        "  spill, default tier policy: {} demoter passes over {} puts",
        tiered.stats.demoter_passes, tiered.puts,
    );
    eprintln!(
        "  put-only phase ({PUT_ONLY_BUDGETS} x budget of fresh keys, no reads): max in flight {} B, drained {}, VmRSS +{} B",
        spill.put_only.max_inflight,
        match spill.put_only.drained_after {
            Some(d) => format!("{} us after the last put", d.as_micros()),
            None => "never".into(),
        },
        spill.put_only.rss_growth,
    );
    eprintln!("  same-filled: {same_filled} elided puts");
    eprintln!(
        "  telemetry: overhead {:.2}% = {:+.0} ns/op ({:.0} ops/s on vs {:.0} ops/s off, medians of {OVERHEAD_PAIRS} interleaved trial pairs), {} events recorded ({} dropped)",
        ovh.overhead_pct,
        ovh.ns_per_op,
        ovh.ops_per_sec_on,
        ovh.ops_per_sec_off,
        spill.telemetry.events_recorded,
        spill.telemetry.events_dropped,
    );
    let mut failures = Vec::new();
    if spill.max_resident_seen > SPILL_BUDGET as u64 {
        failures.push(format!(
            "budget exceeded: saw {} resident bytes with budget {SPILL_BUDGET}",
            spill.max_resident_seen
        ));
    }
    // The budget means memory: what the writer holds is bounded, and it
    // gives it back on its own.
    let po = &spill.put_only;
    if po.max_inflight > SPILL_BUDGET as u64 {
        failures.push(format!(
            "put-only phase: spill_inflight_bytes read {} with budget {SPILL_BUDGET}",
            po.max_inflight
        ));
    }
    if po.drained_after.is_none() {
        failures.push(format!(
            "put-only phase: spill_inflight_bytes not back to 0 within {PUT_ONLY_DRAIN:?} of the last put (no flush)"
        ));
    }
    if po.rss_growth > 3 * SPILL_BUDGET as u64 {
        failures.push(format!(
            "put-only phase: VmRSS grew {} B putting {PUT_ONLY_BUDGETS} x the {SPILL_BUDGET} B budget (limit 3 x budget)",
            po.rss_growth
        ));
    }
    // A put never wakes the demoter: it sleeps its interval and drains
    // per wake. One kick per eviction reads about one pass per five puts
    // here; the interval alone, about one per two hundred.
    if tiered.stats.demoter_passes > tiered.puts / 16 {
        failures.push(format!(
            "spill trial, default tier policy: {} demoter passes for {} puts (limit 1 per 16): something wakes the demoter per put",
            tiered.stats.demoter_passes, tiered.puts
        ));
    }
    for (trial, t) in [
        ("spill trial", &spill),
        ("spill trial, default tier policy", &tiered),
    ] {
        if let Err(e) = &t.invariants {
            failures.push(format!(
                "{trial}: check_invariants after the final flush: {e}"
            ));
        }
    }
    // The checksum guards every spilled extent in both directions; the
    // byte-at-a-time kernel read ~4 400 ns here, the 16-byte stride ~800.
    let crc_ns = crc32_ns_per_extent();
    eprintln!("  crc32: {crc_ns:.0} ns per {CRC_EXTENT}-byte extent");
    if !cfg!(debug_assertions) && crc_ns > 2_000.0 {
        failures.push(format!(
            "crc32 takes {crc_ns:.0} ns per {CRC_EXTENT}-byte extent (limit 2000 ns in release)"
        ));
    }
    if ss.spilled == 0 {
        failures.push("spill pipeline unexercised: nothing spilled".into());
    }
    if ss.spill_batches == 0 {
        failures.push("spill writer committed no batches".into());
    }
    if same_filled == 0 {
        failures.push("same-filled fast path unexercised".into());
    }
    // Telemetry gates: every tier the spill trial exercises must have a
    // sane histogram, ring event counts must agree with the counters
    // they shadow, and the measured overhead must stay within budget.
    for op in [
        "put",
        "get_memory",
        "get_spill",
        "spill_write",
        "spill_read",
        "spill_verify",
    ] {
        if let Some(f) = smoke::check_hist(&spill.telemetry, op) {
            failures.push(f);
        }
    }
    if let Some(f) = smoke::check_event_agrees(
        &spill.telemetry,
        "batch_commit",
        "spill_batches",
        ss.spill_batches,
    ) {
        failures.push(f);
    }
    if spill.telemetry.events_recorded == 0 {
        failures.push("event ring recorded nothing".into());
    }
    if ovh.overhead_pct > 5.0 {
        failures.push(format!(
            "telemetry overhead {:.2}% ({:+.0} ns/op) exceeds the 5% budget ({:.0} ops/s on vs {:.0} ops/s off)",
            ovh.overhead_pct, ovh.ns_per_op, ovh.ops_per_sec_on, ovh.ops_per_sec_off
        ));
    }
    // Codec-sweep gates: on the pattern-heavy mix, adaptive selection
    // must not lose to the LZRW1-only baseline at put p50, must route
    // pages to both codecs, must exercise all four per-codec latency
    // histograms, and must not pay for the put win with compression on
    // the ordinary zipfian text/noise mix.
    let lz = sweep
        .iter()
        .find(|t| t.policy == CodecPolicy::Lzrw1Only)
        .expect("sweep ran lzrw1-only");
    let ad = sweep
        .iter()
        .find(|t| t.policy == CodecPolicy::Adaptive)
        .expect("sweep ran adaptive");
    if ad.put_p50_ns > lz.put_p50_ns {
        failures.push(format!(
            "adaptive put p50 ({} ns) slower than lzrw1-only ({} ns) on the pattern mix",
            ad.put_p50_ns, lz.put_p50_ns
        ));
    }
    if ad.stats.puts_bdi == 0 || ad.stats.puts_lzrw1 == 0 {
        failures.push(format!(
            "adaptive routed nothing to some codec: {} lzrw1, {} bdi puts",
            ad.stats.puts_lzrw1, ad.stats.puts_bdi
        ));
    }
    for op in [
        "compress_lzrw1",
        "compress_bdi",
        "decompress_lzrw1",
        "decompress_bdi",
    ] {
        if let Some(f) = smoke::check_hist(&ad.telemetry, op) {
            failures.push(f);
        }
    }
    if ad.ratio < lz.ratio * 0.99 {
        failures.push(format!(
            "adaptive pattern-mix ratio {:.3} worse than lzrw1-only {:.3}",
            ad.ratio, lz.ratio
        ));
    }
    if ad.zipf_ratio < lz.zipf_ratio * 0.99 {
        failures.push(format!(
            "adaptive zipfian ratio {:.3} worse than lzrw1-only {:.3}",
            ad.zipf_ratio, lz.zipf_ratio
        ));
    }
    // Tier-sweep gates: at equal budget on the hot-skewed mix, adaptive
    // placement must beat compress-everything at get p50 (hot hits are
    // memcpys, not decompresses), the recency arm must exercise all
    // three tiers plus both demotion directions and the background
    // demoter, and no arm may ever overshoot its budget or fail the
    // store's own checker.
    let flat_hot = tier_arm(&tiers, "compress-all", 0.99);
    let rec_hot = tier_arm(&tiers, "recency", 0.99);
    let rs = &rec_hot.stats;
    if rec_hot.get_p50_ns >= flat_hot.get_p50_ns {
        failures.push(format!(
            "recency get p50 ({} ns) not better than compress-all ({} ns) on the s=0.99 mix",
            rec_hot.get_p50_ns, flat_hot.get_p50_ns
        ));
    }
    if rs.hits_hot == 0 || rs.hits_memory == 0 || rs.hits_spill == 0 {
        failures.push(format!(
            "recency arm left a tier unexercised: {} hot, {} warm, {} cold hits",
            rs.hits_hot, rs.hits_memory, rs.hits_spill
        ));
    }
    if rs.promotions == 0 {
        failures.push("recency arm promoted nothing back to hot".into());
    }
    if rs.demoted_hot == 0 || rs.demoted_warm == 0 {
        failures.push(format!(
            "demotion unexercised in the recency arm: {} hot->warm/cold, {} warm->cold",
            rs.demoted_hot, rs.demoted_warm
        ));
    }
    if rs.demoter_passes == 0 {
        failures.push("background demoter never completed a pass".into());
    }
    for a in &tiers {
        if a.max_resident_seen > TIER_BUDGET as u64 {
            failures.push(format!(
                "tier arm {} s={} exceeded budget: saw {} resident bytes with budget {TIER_BUDGET}",
                a.policy, a.zipf_s, a.max_resident_seen
            ));
        }
        if let Err(e) = &a.invariants {
            failures.push(format!(
                "tier arm {} s={}: check_invariants after the final flush: {e}",
                a.policy, a.zipf_s
            ));
        }
    }
    smoke::report("storebench", &failures)
}

const USAGE: &str = "usage: storebench --smoke | --chaos [--smoke] [--seed N]";

fn main() {
    let (mut smoke, mut chaos) = (false, false);
    let mut seed: u64 = 0xC4A0_5CA0;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                seed = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed expects a number (the fault-injection seed)");
                    std::process::exit(2);
                })
            }
            "--smoke" => smoke = true,
            "--chaos" => chaos = true,
            other => {
                eprintln!("unknown arg: {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let code = if chaos {
        // `--chaos --smoke` is the reduced-ops CI gate.
        run_chaos(8, if smoke { 6_000 } else { CHAOS_OPS }, seed)
    } else if smoke {
        run_smoke()
    } else {
        eprintln!("{USAGE}");
        2
    };
    std::process::exit(code);
}
