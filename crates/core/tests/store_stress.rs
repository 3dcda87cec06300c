//! Multi-threaded stress tests and workload gates for the sharded
//! `CompressedStore`.
//!
//! Eight threads hammer an overlapping key space with puts, gets,
//! removes, and flushes while a sampler thread watches the memory
//! accounting. Two invariants must hold throughout:
//!
//! 1. **Round-trip integrity** — a `get` either misses or returns exactly
//!    the one page every put of its key writes (the model's shared
//!    mode); torn, stale or cross-key data is a failure.
//! 2. **Budget** — `stats().resident_bytes` never exceeds the configured
//!    memory budget, at any sampled instant, under full contention.
//!
//! The workload gates run the codec sweep and the tier sweep of
//! `support` (shared with the server crate's timed gates) and check what
//! they count: routing, compression ratio, tier hits, budget, checker.

mod support;

use cc_compress::CodecPolicy;
use cc_core::store::{CompressedStore, StoreConfig};
use cc_core::tier::TierPolicy;
use cc_util::SplitMix64;
use std::sync::Arc;
use std::time::{Duration, Instant};
use support::model::{self, Arm, Class, Class::*, Mix, Mode, Model, Op, Unchecked};
use support::{TempPath, Zipf, AGGRESSIVE, TIER_POLICIES};

const PAGE: usize = 4096;
const THREADS: u64 = 8;
/// Shared key space: every key is touched by several threads.
const KEYS: u64 = 512;
/// Every third key noise, the rest text: the keep and the reject
/// threshold paths both.
const MIXED: &[Class] = &[Noise, Text, Text];

/// A shared mix over [`KEYS`] of `classes`, with `weights` of put, get,
/// remove and flush.
fn mix(weights: [u64; 4], classes: &'static [Class]) -> Mix {
    let [put, get, remove, flush] = weights;
    Mix {
        keys: 0..KEYS,
        weights: [put, get, remove, flush, 0],
        classes,
        shared: true,
    }
}

/// What [`hammer`] saw.
struct Hammered {
    puts: u64,
    /// The largest `resident_bytes` the watcher read.
    max_resident: u64,
}

/// [`THREADS`] threads each run `ops` ops of `mix` on `store`, script
/// seeds `seed + thread`, every reply checked by the thread's model in
/// shared mode, while a watcher samples the budget gauge as fast as it
/// can. Then every key is read back.
fn hammer(store: &Arc<CompressedStore>, arm: Arm, seed: u64, ops: usize, mix: Mix) -> Hammered {
    let watch = support::ResidentWatch::start(store);
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let (store, mix) = (Arc::clone(store), mix.clone());
            std::thread::spawn(move || {
                let (seed, mut model) = (seed + t, Model::new(Mode::Shared(mix.classes), PAGE));
                let ops = model::script(seed, ops, &mix);
                let label = format!("thread {t}, script seed {seed:#x}");
                let ran = model.run(&mut Unchecked(&*store), &ops, &arm, &label);
                ran.map(|()| ops.iter().filter(|op| matches!(op, Op::Put { .. })).count() as u64)
            })
        })
        .collect();
    let puts = (workers.into_iter())
        .map(|h| {
            h.join()
                .expect("worker panicked")
                .unwrap_or_else(|e| panic!("{e}"))
        })
        .sum();
    let max_resident = watch.stop();
    // Every key's one page, whoever put it last.
    let sweep: Vec<Op> = mix.keys.clone().map(|key| Op::Get { key }).collect();
    let mut model = Model::new(Mode::Shared(mix.classes), PAGE);
    let swept = model.run(&mut Unchecked(&**store), &sweep, &arm, "final sweep");
    swept.unwrap_or_else(|e| panic!("{e}"));
    Hammered { puts, max_resident }
}

#[test]
fn stress_in_memory_unbounded() {
    // Budget far above working set: no eviction, pure lock-striping churn.
    let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(48 << 20)));
    let arm = Arm::store("recency", "adaptive", "memory");
    let run = hammer(&store, arm, 1, 3600, mix([500, 300, 100, 2], MIXED));
    let s = store.stats();
    assert!(run.max_resident.max(s.resident_bytes) <= 48 << 20);
    store.check_invariants().unwrap();
}

#[test]
fn stress_spill_under_budget_pressure() {
    spill_under_budget_pressure("default", TierPolicy::default());
}

/// The same churn and put-only phase on the flat store, where every put
/// goes through the compressor and the demoter has nothing to do.
#[test]
fn stress_spill_under_budget_pressure_compress_all() {
    spill_under_budget_pressure("compress-all", TierPolicy::COMPRESS_ALL);
}

fn spill_under_budget_pressure(name: &'static str, policy: TierPolicy) {
    let path = TempPath::new(&format!("stress-{name}"));
    const BUDGET: usize = 256 * 1024; // a few dozen compressed pages
    let cfg = StoreConfig::with_spill(BUDGET, &*path)
        .with_tier_policy(policy)
        // A long demote interval: the passes it runs stay few, so one
        // kick per put stands out even in a debug build, where puts are
        // slow.
        .with_demote_interval(Duration::from_millis(50));
    let (limit, interval) = (cfg.spill_inflight_limit() as u64, cfg.demote_interval);
    let born = Instant::now();
    let store = Arc::new(CompressedStore::new(cfg));
    let arm = Arm::store(name, "adaptive", "spill-file");
    let run = hammer(&store, arm, 0xC0FFEE, 1314, mix([400, 200, 100, 1], MIXED));
    assert!(
        run.max_resident <= BUDGET as u64,
        "budget exceeded: saw {} resident with budget {BUDGET}",
        run.max_resident
    );
    store.flush().unwrap();
    store.check_invariants().unwrap();
    let s = store.stats();
    assert!(s.resident_bytes <= BUDGET as u64);
    assert!(s.spilled > 0, "pressure test never spilled: {s:?}");
    assert!(s.spill_batches > 0, "the writer committed no batch: {s:?}");
    // The budget means memory: what the writer holds is bounded, and
    // it gives it back on its own, without a flush. The watcher is
    // gone, so the phase samples the budget itself.
    let phase = support::put_only_phase(&store, KEYS, BUDGET);
    assert!(
        phase.max_resident <= BUDGET as u64,
        "put-only phase: saw {} resident with budget {BUDGET}",
        phase.max_resident
    );
    assert!(
        phase.max_inflight <= limit,
        "put-only phase: {} bytes in flight with a limit of {limit}",
        phase.max_inflight
    );
    assert!(
        phase.drained_after.is_some(),
        "put-only phase: in-flight bytes not back to 0 within 1 s of the last put"
    );
    store.flush().unwrap();
    store.check_invariants().unwrap();
    // A put wakes the background thread only to hand it a batch of
    // LZRW1 seals, never per put, and a demote pass runs on the
    // interval: one that demotes nothing makes the next due a whole
    // interval later, and passes are counted only under pressure. So
    // the passes are at most about one per interval the run spanned,
    // however slow the host: 0.7–0.9 per interval read in debug and in
    // release. One kick per put reads 2.2–7.5 per interval in debug and
    // 130–475 in release.
    let s = store.stats();
    let intervals = (born.elapsed().as_micros() / interval.as_micros()) as u64 + 1;
    assert!(
        s.demoter_passes <= intervals + intervals / 2,
        "{} demote passes in {intervals} demote intervals ({} puts): something wakes the demoter per put",
        s.demoter_passes,
        run.puts
    );
    let snap = store.telemetry_snapshot();
    for op in [
        "put",
        "get_memory",
        "get_spill",
        "spill_write",
        "spill_read",
        "spill_verify",
    ] {
        let count = snap.op(op).map_or(0, |h| h.count);
        assert!(count > 0, "histogram {op} recorded nothing");
    }
}

/// Budget + integrity under *aggressive compaction*: tiny spill batches
/// and a low dead ratio make the writer run GC constantly while eight
/// threads churn replaces and removes, so extents relocate under live
/// readers. The budget gauge must never exceed the budget — including
/// during compaction passes — and same-filled pages (every fourth key)
/// must round-trip through their pattern encoding.
#[test]
fn stress_gc_churn_with_same_filled() {
    let path = TempPath::new("stress-gc");
    const BUDGET: usize = 128 * 1024;
    let store = Arc::new(CompressedStore::new(
        StoreConfig::with_spill(BUDGET, &*path)
            .with_spill_batch_bytes(4 * 1024)
            .with_gc_dead_ratio(0.25),
    ));
    // Heavy replace churn feeds dead bytes to GC.
    let classes = &[Noise, Text, Text, Same];
    let arm = Arm::store("recency", "adaptive", "cleaner");
    let run = hammer(
        &store,
        arm,
        0x6C_5EED,
        1200,
        mix([600, 300, 100, 1], classes),
    );
    assert!(
        run.max_resident <= BUDGET as u64,
        "budget exceeded during GC churn: saw {} with budget {BUDGET}",
        run.max_resident
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
        s.bytes_on_spill < KEYS * PAGE as u64,
        "spill file unbounded under churn: {s:?}"
    );
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
    let path = TempPath::new("stress-tiering");
    const BUDGET: usize = 256 * 1024;
    const BATCH: usize = 8 * 1024;
    let store = Arc::new(CompressedStore::new(
        StoreConfig::with_spill(BUDGET, &*path)
            .with_tier_policy(AGGRESSIVE)
            .with_demote_interval(Duration::from_millis(1))
            .with_spill_batch_bytes(BATCH)
            .with_gc_dead_ratio(0.25),
    ));
    let arm = Arm::store("aggressive", "adaptive", "cleaner");
    let run = hammer(
        &store,
        arm,
        0x7E1E_D0AA,
        1800,
        mix([500, 600, 100, 1], MIXED),
    );
    assert!(
        run.max_resident <= BUDGET as u64,
        "budget exceeded under demoter churn: saw {} with budget {BUDGET}",
        run.max_resident
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
    // A cleaning step copies at most one batch of survivors, and
    // every extent here is smaller than a batch.
    assert!(s.gc_runs > 0, "the cleaner never ran: {s:?}");
    assert!(
        s.gc_bytes_relocated <= s.gc_runs * BATCH as u64,
        "{} B relocated in {} cleaning steps: more than one batch a step",
        s.gc_bytes_relocated,
        s.gc_runs
    );
    store.shutdown();
}

/// The codec sweep on the pattern-heavy mix: adaptive selection routes
/// pages to both codecs, predicts the noise pages' rejects without one
/// misprediction, times every per-codec histogram, and keeps at least
/// 99 % of the LZRW1-only ratio there and on the zipfian text/noise mix.
/// Every broken gate is reported, not just the first.
#[test]
fn codec_sweep_routes_both_codecs_and_keeps_the_ratio() {
    let [lz, ad] = [CodecPolicy::Lzrw1Only, CodecPolicy::Adaptive]
        .map(|policy| support::codec_trial(policy, 256, 600, 600));
    let s = &ad.stats;
    let mut failed = Vec::new();
    let mut gate = |ok: bool, what: &str| {
        if !ok {
            failed.push(what.to_owned());
        }
    };
    gate(s.puts_bdi > 0, "adaptive routed nothing to BDI");
    gate(s.puts_lzrw1 > 0, "adaptive routed nothing to LZRW1");
    gate(s.reject_predicted > 0, "no reject predicted");
    gate(s.reject_mispredicted == 0, "a reject mispredicted");
    for op in [
        "compress_lzrw1",
        "compress_bdi",
        "decompress_lzrw1",
        "decompress_bdi",
    ] {
        let count = ad.telemetry.op(op).map_or(0, |h| h.count);
        gate(count > 0, &format!("histogram {op} recorded nothing"));
    }
    gate(ad.ratio >= lz.ratio * 0.99, "pattern-mix ratio lost");
    gate(ad.zipf_ratio >= lz.zipf_ratio * 0.99, "zipfian ratio lost");
    assert!(
        failed.is_empty(),
        "{failed:?}; adaptive {s:?}, ratios {:.3} / {:.3} against lzrw1-only {:.3} / {:.3}",
        ad.ratio,
        ad.zipf_ratio,
        lz.ratio,
        lz.zipf_ratio
    );
}

/// The tier sweep, every policy at two skews with the demoter live: no
/// arm goes over its budget or fails the checker, and the recency arm
/// on the hot-skewed mix serves gets from all three tiers. Every broken
/// gate is reported, not just the first.
#[test]
fn tier_sweep_holds_the_budget_and_hits_every_tier() {
    const TIER_KEYS: u64 = 256;
    const TIER_BUDGET: usize = 384 << 10;
    let mut failed = Vec::new();
    for s in [0.99, 0.6] {
        for (name, policy) in TIER_POLICIES {
            let path = TempPath::new(&format!("tier-sweep-{name}-{s}"));
            let arm = support::tier_arm(policy, TIER_KEYS, TIER_BUDGET, s, 300, &path);
            if arm.max_resident > TIER_BUDGET as u64 {
                failed.push(format!("{name} s={s}: {} resident", arm.max_resident));
            }
            if let Err(e) = arm.invariants {
                failed.push(format!("{name} s={s}: check_invariants: {e}"));
            }
            let st = &arm.stats;
            let hits = [st.hits_hot, st.hits_memory, st.hits_spill];
            if name == "recency" && s == 0.99 && hits.contains(&0) {
                failed.push(format!("recency left a tier unhit: hot/warm/cold {hits:?}"));
            }
        }
    }
    assert!(failed.is_empty(), "budget {TIER_BUDGET}: {failed:#?}");
}

#[test]
fn zipf_cdf_ends_at_one_and_rank_zero_leads() {
    const N: u64 = 100;
    let zipf = Zipf::new(N, 0.99);
    assert!(zipf.cdf.windows(2).all(|w| w[0] < w[1]), "CDF not monotone");
    assert_eq!(zipf.cdf.last().copied(), Some(1.0));
    let mut rng = SplitMix64::new(7);
    let mut hits = [0u32; N as usize];
    for _ in 0..100_000 {
        let k = zipf.sample(&mut rng);
        assert!(k < N, "sample {k} out of 0..{N}");
        hits[k as usize] += 1;
    }
    assert!(hits[1..].iter().all(|&h| h < hits[0]), "{hits:?}");
}
