//! Crash-recovery tests: the persistent spill tier against power loss.
//!
//! The contract (DESIGN.md §14) is checked against the store suites'
//! reference model (`support::model`): its snapshot at each completed
//! flush is what the barrier made durable, and its history of every
//! version put is what may ever be served.
//!
//! 1. **Never garbage.** A recovered store never serves bytes that are
//!    not byte-exact some version that was actually put for that key.
//! 2. **Completeness.** Cut the power at (or anywhere past) a flush
//!    barrier and every key the barrier saw in the spill tier is served
//!    byte-for-byte — torn tails and partial batches past the cut are
//!    discarded, never a durable entry.
//! 3. **Tombstones hold.** A key removed before a durable barrier and
//!    never re-put stays gone after recovery.
//! 4. **Clean shutdown is trusted.** An orderly shutdown seals the
//!    superblock; reopening skips extent verification entirely and
//!    still recovers everything.
//!
//! Each schedule runs the store once, over a [`RecordingMedium`] that
//! logs its write stream. A crash is an image built from that log after
//! the run: [`RecordingMedium::replay`] writes its prefix up to byte N —
//! a barrier, one torn byte past it, any byte, an ordering edge of
//! cleaning, or the whole log — onto a fresh medium, optionally with the
//! torn sector scribbled, and the store reopens from it.

mod support;

use cc_core::medium::{FileMedium, MemMedium, Recorded, RecordingMedium, SpillMedium};
use cc_core::persist::{decode_summary, read_superblock, SUMMARY_HEAD};
use cc_core::store::{CompressedStore, HitTier, StoreConfig};
use cc_core::TierPolicy;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;
use support::model::{self, Arm, Class::Noise, Mix, Mode, Model, Op, Unchecked};
use support::TempPath;

const PAGE: usize = 1024;

/// A tight-budget config: almost everything spills, no background
/// demoter (`TierPolicy::COMPRESS_ALL`), GC off unless a trial turns it
/// on. It has no spill path, so trials run it over an in-memory medium.
fn cfg(budget_pages: usize, gc_ratio: f64) -> StoreConfig {
    StoreConfig::in_memory(budget_pages * PAGE)
        .with_tier_policy(TierPolicy::COMPRESS_ALL)
        .with_gc_dead_ratio(gc_ratio)
        .with_spill_retry(1, Duration::ZERO)
}

const MATRIX_BUDGET_PAGES: usize = 2;

fn matrix_cfg() -> StoreConfig {
    cfg(MATRIX_BUDGET_PAGES, f64::MAX)
}

/// Appends a put of `key`: a noise page, so always the raw/compressed
/// spill path and never the same-filled one, whose version is its place
/// in the schedule counted from 1, as [`model::script`] numbers them.
/// A schedule's `Op::Flush` is a durability barrier.
fn put(schedule: &mut Vec<Op>, key: u64) {
    let version = schedule.len() as u64 + 1;
    schedule.push(Op::Put {
        key,
        version,
        class: Noise,
    });
}

/// How a trial's run ends.
#[derive(Debug, Clone, Copy, PartialEq)]
enum End {
    /// An orderly `shutdown()` (clean seal).
    Shutdown,
    /// The store is just dropped.
    Drop,
}

/// Where the power dies in a trial's write log.
#[derive(Debug, Clone, Copy)]
enum Cut {
    /// Nothing is lost: the image is the whole log.
    Whole,
    /// Exactly at barrier `i`'s byte position.
    Barrier(usize),
    /// `delta` bytes past barrier `i`: the next write is torn mid-flight
    /// (and the torn sector scribbled when `tear`).
    AfterBarrier {
        barrier: usize,
        delta: u64,
        tear: bool,
    },
    /// At an absolute byte of the stream.
    At { at: u64, tear: bool },
    /// Just past the write that completes an ordering edge of the first
    /// cleaning.
    Edge(Edge),
}

/// The ordering edges of cleaning a segment on a persistent store, in
/// write-stream order (DESIGN.md §14, *Batch summaries*).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Edge {
    /// The first relocation batch is durable: its summary names copies
    /// of `(key, generation)`s that also still sit in the victim.
    Relocated,
    /// The victim's first summary is invalidated; nothing has been
    /// written over the rest of it yet.
    Invalidated,
    /// The first write over one of the victim's vacated extents has
    /// landed.
    Reused,
}

/// The stream position just past the write that reaches `edge` of the
/// first cleaning in `log`, if the run reached it. Each write is read
/// against the superblock the file held right after it: the batch
/// summaries say where each `(key, generation)` lives, the first batch
/// naming one a second time is a relocation, the homes it leaves are the
/// victim's extents, a blank summary head written over their segment is
/// the invalidation, and the first later write over one of them is the
/// reuse.
fn edge_cut(log: &RecordingMedium, edge: Edge) -> Option<u64> {
    let file = MemMedium::new();
    let mut at = 0;
    // `(key, generation)` → `(offset, len)` of every extent written.
    let mut homes = HashMap::new();
    // The homes the first relocation batch vacated.
    let mut vacated: Vec<(u64, u64)> = Vec::new();
    let mut invalidated = false;
    for op in log.ops() {
        let (offset, data) = match op {
            Recorded::Write { offset, data } => (offset, data),
            Recorded::SetLen(len) => {
                file.set_len(len).unwrap();
                continue;
            }
            Recorded::Flush => continue,
        };
        file.write_at(&data, offset).unwrap();
        at += data.len() as u64;
        let Some(sb) = read_superblock(&file) else {
            continue;
        };
        let (a, b) = (offset, offset + data.len() as u64);
        if invalidated {
            if edge == Edge::Reused && vacated.iter().any(|&(o, l)| a < o + l && o < b) {
                return Some(at);
            }
        } else if !vacated.is_empty() {
            invalidated = data == [0u8; SUMMARY_HEAD]
                && vacated
                    .iter()
                    .any(|&(o, _)| (a..a + sb.seg_bytes).contains(&o));
            if invalidated && edge == Edge::Invalidated {
                return Some(at);
            }
        } else if let Some(summary) = decode_summary(&data, data.len() as u64, &sb) {
            for r in summary.records.iter().filter(|r| !r.is_tombstone()) {
                let home = (offset + r.rel as u64, r.len as u64);
                vacated.extend(homes.insert((r.key, r.gen), home));
            }
            if !vacated.is_empty() && edge == Edge::Relocated {
                return Some(at);
            }
        }
    }
    None
}

/// What the store had provably made durable at one barrier.
struct Barrier {
    bytes: u64,
    /// (key, version): in the spill tier at the barrier — written with
    /// its summary, must be served byte-exact after any cut ≥ here.
    must_serve: Vec<(u64, u64)>,
    /// Removed at or before the barrier (tombstone committed by the
    /// barrier's flush) — must miss if never re-put afterwards.
    must_miss: Vec<u64>,
    /// Keys put or removed again *after* this barrier. When the cut
    /// lands deep inside the following phase, those later records may
    /// themselves have become durable, so the barrier's verdict on
    /// these keys is no longer binding.
    touched_later: HashSet<u64>,
}

struct Outcome {
    /// Every write, flush and truncation the store made.
    log: Arc<RecordingMedium>,
    barriers: Vec<Barrier>,
    /// The model the schedule ran against: every version ever put per
    /// key (the never-garbage set), and the keys whose final state is
    /// "removed".
    model: Model,
    /// Stats of the finished store itself (pre-reopen).
    run_stats: cc_core::StoreStats,
}

impl Outcome {
    /// The byte of the log `cut` falls at, and whether it tears.
    fn resolve(&self, cut: Cut) -> (u64, bool) {
        match cut {
            Cut::Whole => (u64::MAX, false),
            Cut::Barrier(i) => (self.barriers[i].bytes, false),
            Cut::AfterBarrier {
                barrier,
                delta,
                tear,
            } => (self.barriers[barrier].bytes + delta, tear),
            Cut::At { at, tear } => (at, tear),
            Cut::Edge(edge) => match edge_cut(&self.log, edge) {
                Some(at) => (at, false),
                None => panic!("the run never reached {edge:?}"),
            },
        }
    }
}

/// Run `schedule` once against a fresh store over a [`RecordingMedium`]:
/// over the real file at the config's spill path if it names one, else
/// over an in-memory medium. The schedule runs on the model barrier by
/// barrier; at each one the checker runs, the model's snapshot says what
/// must be served, and the log's position is the barrier's byte.
fn run_trial(schedule: &[Op], config: &StoreConfig, end: End) -> Outcome {
    let log = Arc::new(match &config.spill_path {
        Some(path) => {
            RecordingMedium::new(FileMedium::create(path).expect("create the spill file"))
        }
        None => RecordingMedium::new(MemMedium::new()),
    });
    let store = CompressedStore::with_medium(config.clone(), Arc::clone(&log) as _);

    let arm = Arm::store("compress-all", "adaptive", "recorded");
    let mut model = Model::new(Mode::Exact, PAGE);
    let mut barriers = Vec::new();
    for (barrier, ops) in schedule.split_inclusive(|op| *op == Op::Flush).enumerate() {
        let seed = format!("the ops up to barrier {barrier}");
        let ran = model.run(&mut Unchecked(&store), ops, &arm, &seed);
        ran.unwrap_or_else(|e| panic!("{e}"));
        let Some(durable) = model.durable.get(barrier) else {
            break; // ops past the last barrier
        };
        assert_eq!(store.check_invariants(), Ok(()), "at barrier {barrier}");
        barriers.push(Barrier {
            bytes: log.position(),
            must_serve: (durable.held.iter())
                .filter(|&(&k, _)| store.peek_tier(k) == Some(HitTier::Spill))
                .map(|(&k, &(v, _))| (k, v))
                .collect(),
            must_miss: durable.removed.iter().copied().collect(),
            touched_later: HashSet::new(),
        });
    }
    // Backfill `touched_later`: walk the schedule once more, noting for
    // each barrier which keys any later op touches.
    let mut later: HashSet<u64> = HashSet::new();
    let mut b = barriers.len();
    for op in schedule.iter().rev() {
        match *op {
            Op::Put { key, .. } | Op::Remove { key } => {
                later.insert(key);
            }
            Op::Flush => {
                b -= 1;
                barriers[b].touched_later = later.clone();
            }
            _ => {}
        }
    }
    if end == End::Shutdown {
        store.shutdown();
    }
    let run_stats = store.stats();
    drop(store);
    Outcome {
        log,
        barriers,
        model,
        run_stats,
    }
}

/// Replay the trial's log up to `cut` onto a fresh medium — the spill
/// path's file if the config names one, else memory — reopen the store
/// from it and check the recovery contract.
fn verify(o: &mut Outcome, config: &StoreConfig, cut: Cut) -> cc_core::StoreStats {
    let (cut_at, tear) = o.resolve(cut);
    let config = config.clone().with_gc_dead_ratio(f64::MAX);
    let reopened = match &config.spill_path {
        Some(path) => {
            let file = FileMedium::create(path).expect("create the spill file");
            o.log
                .replay(cut_at, tear, &file)
                .expect("replay onto the file");
            CompressedStore::open_existing(config)
        }
        None => {
            let disk = MemMedium::new();
            o.log.replay(cut_at, tear, &disk).expect("replay in memory");
            CompressedStore::open_existing_with_media(config, Arc::new(disk))
        }
    }
    .expect("recovery must succeed whenever a superblock slot survives");
    // The recovered location map is a consistent one: no two extents
    // overlap, none lies past the segments' end, and every one verifies
    // and is named by a summary in its segment.
    assert_eq!(reopened.check_invariants(), Ok(()), "{cut:?} at {cut_at}");
    let stats = reopened.stats();
    let mut out = vec![0u8; PAGE];

    // 1. Never garbage: anything served is byte-exact some put version.
    let keys: Vec<u64> = o.model.history.keys().copied().collect();
    for k in keys {
        if reopened.get(k, &mut out).expect("recovered get") {
            assert!(
                o.model.version_of(k, &out).is_some(),
                "key {k}: served bytes match no version ever put ({cut:?} at {cut_at})"
            );
        }
    }

    // 2./3. Completeness + tombstones vs the last durable barrier. A
    // cut exactly at the barrier (or one torn byte into the next write)
    // makes the barrier's verdict exact for every key; a deeper cut may
    // have made later records durable, so keys the schedule touches
    // again after the barrier are exempt from the barrier's verdict
    // (never-garbage above still binds them).
    if let Some(barrier) = o.barriers.iter().rev().find(|b| b.bytes <= cut_at) {
        let exact = cut_at <= barrier.bytes + 1;
        for &(k, v) in &barrier.must_serve {
            if !exact && barrier.touched_later.contains(&k) {
                continue;
            }
            // Warm restart, not re-PUT: the entry must already be in
            // the spill tier before we ever touch it.
            assert_eq!(
                reopened.peek_tier(k),
                Some(HitTier::Spill),
                "durable key {k} not recovered to the spill tier ({cut:?} at {cut_at})"
            );
            assert!(
                reopened.get(k, &mut out).expect("recovered get"),
                "durable key {k} lost ({cut:?} at {cut_at})"
            );
            // Ops between the barrier and the cut may have written a
            // newer version; the served one must be >= the barrier's.
            let served = o
                .model
                .version_of(k, &out)
                .expect("never-garbage already checked");
            assert!(
                served >= v,
                "durable key {k} regressed from v{v} to v{served} ({cut:?} at {cut_at})"
            );
            if exact {
                // At the barrier itself (or one torn byte past it)
                // nothing newer can be durable: exact version required.
                assert_eq!(served, v, "key {k}: wrong version at exact-barrier cut");
            }
        }
        for k in barrier.must_miss.iter().filter(|k| {
            exact || (o.model.removed.contains(k) && !barrier.touched_later.contains(k))
        }) {
            assert!(
                !reopened.get(*k, &mut out).expect("recovered get"),
                "removed key {k} resurrected ({cut:?} at {cut_at})"
            );
        }
        // The keys the barrier's verdict binds: a deeper cut may have
        // made a later remove of an exempt key durable too.
        let binding = (barrier.must_serve.iter())
            .filter(|(k, _)| exact || !barrier.touched_later.contains(k))
            .count();
        assert!(
            stats.extents_recovered >= binding as u64,
            "recovered {} extents, barrier had {binding} durable",
            stats.extents_recovered,
        );
    }
    reopened.flush().expect("recovered flush");
    assert_eq!(reopened.check_invariants(), Ok(()), "{cut:?} at {cut_at}");
    stats
}

/// The deterministic schedule the boundary matrix runs: puts, spills,
/// overwrites, removes, and a re-put of a removed key, separated by
/// five durability barriers.
fn matrix_schedule() -> Vec<Op> {
    let mut s = Vec::new();
    for k in 0..12 {
        put(&mut s, k);
    }
    s.push(Op::Flush); // 0: initial spill wave
    for k in 0..4 {
        put(&mut s, k); // overwrite -> v2, stale v1 extents on file
    }
    s.push(Op::Flush); // 1
    for k in 4..8 {
        s.push(Op::Remove { key: k });
    }
    s.push(Op::Flush); // 2: tombstones committed
    for k in 12..16 {
        put(&mut s, k);
    }
    put(&mut s, 4); // resurrect one removed key
    s.push(Op::Flush); // 3
    for k in 8..10 {
        put(&mut s, k); // second overwrite wave
    }
    s.push(Op::Flush); // 4
    s
}

/// Tentpole acceptance: a kill at *every* batch-boundary barrier (hard
/// cut, and a one-byte-torn + scribbled-sector variant) recovers all
/// durably-committed entries byte-for-byte and serves zero wrong bytes.
#[test]
fn kill_at_every_batch_boundary_recovers_durable_entries() {
    let schedule = matrix_schedule();
    let barriers = schedule.iter().filter(|op| matches!(op, Op::Flush)).count();
    let mut o = run_trial(&schedule, &matrix_cfg(), End::Drop);
    let mut replayed_total = 0;
    for i in 0..barriers {
        let stats = verify(&mut o, &matrix_cfg(), Cut::Barrier(i));
        replayed_total += stats.summary_records_replayed;
        assert_eq!(stats.clean_recoveries, 0, "cut run must not look clean");

        let torn = Cut::AfterBarrier {
            barrier: i,
            delta: 1,
            tear: true,
        };
        verify(&mut o, &matrix_cfg(), torn);
    }
    assert!(replayed_total > 0, "matrix never replayed a summary");
}

/// Overwrites leave stale generations in the summaries; recovery must
/// count them as dropped, not serve them.
#[test]
fn stale_generations_are_dropped_and_counted() {
    let schedule = matrix_schedule();
    // Cut at the last barrier: both overwrite waves durable.
    let mut o = run_trial(&schedule, &matrix_cfg(), End::Drop);
    let stats = verify(&mut o, &matrix_cfg(), Cut::Barrier(4));
    assert!(
        stats.stale_generation_dropped >= 1,
        "overwrites + a tombstoned re-put must supersede summary records"
    );
    assert!(stats.summary_records_replayed > stats.extents_recovered);
}

/// Clean shutdown seals the superblock: reopening trusts the summaries,
/// skips extent verification entirely (the fast warm start), and still
/// recovers every spilled entry.
#[test]
fn clean_shutdown_reopen_skips_extent_scan() {
    let schedule = matrix_schedule();
    let mut o = run_trial(&schedule, &matrix_cfg(), End::Shutdown);
    let stats = verify(&mut o, &matrix_cfg(), Cut::Whole);
    assert_eq!(stats.clean_recoveries, 1, "seal not honoured");
    assert_eq!(
        stats.recovery_extents_verified, 0,
        "clean start took the slow extent re-scan"
    );
    assert!(stats.extents_recovered > 0);
}

/// An orderly `Drop` (no explicit `shutdown()`) still seals: the writer
/// drains its channel and commits before exiting, so even a dropped
/// store warm-starts on the fast path.
#[test]
fn orderly_drop_also_seals_clean() {
    let schedule = matrix_schedule();
    let mut o = run_trial(&schedule, &matrix_cfg(), End::Drop);
    let stats = verify(&mut o, &matrix_cfg(), Cut::Whole);
    assert_eq!(stats.clean_recoveries, 1, "drop did not seal");
    assert_eq!(stats.recovery_extents_verified, 0);
    assert!(stats.extents_recovered > 0);
}

/// Everything durable but the seal suppressed (cut at the final
/// barrier): recovery must take the verifying path — and still recover
/// everything.
#[test]
fn unclean_but_complete_media_recover_via_verification() {
    let schedule = matrix_schedule();
    let mut o = run_trial(&schedule, &matrix_cfg(), End::Drop);
    let stats = verify(&mut o, &matrix_cfg(), Cut::Barrier(4));
    assert_eq!(stats.clean_recoveries, 0);
    assert!(
        stats.recovery_extents_verified >= stats.extents_recovered,
        "unclean open must verify what it serves"
    );
    assert!(stats.extents_recovered > 0);
}

/// A recovered store is a working store: it keeps serving, accepts new
/// puts, spills, and survives a *second* crash-recovery cycle.
#[test]
fn recovered_store_survives_a_second_crash() {
    let schedule = matrix_schedule();
    let o = run_trial(&schedule, &matrix_cfg(), End::Drop);
    let disk = MemMedium::new();
    o.log.replay(o.barriers[4].bytes, false, &disk).unwrap();
    let reopened =
        CompressedStore::open_existing_with_media(matrix_cfg(), Arc::new(disk.share())).unwrap();
    // New generation of writes on top of the recovered state.
    for k in 100..108 {
        reopened.put(k, &Noise.page(k, 1, PAGE)).unwrap();
    }
    reopened.flush().unwrap();
    reopened.shutdown();
    drop(reopened);

    let third = CompressedStore::open_existing_with_media(matrix_cfg(), Arc::new(disk)).unwrap();
    assert_eq!(third.stats().clean_recoveries, 1);
    let mut out = vec![0u8; PAGE];
    let mut served = 0;
    for k in 100..108 {
        if third.get(k, &mut out).unwrap() {
            assert_eq!(out, Noise.page(k, 1, PAGE), "second-generation key {k}");
            served += 1;
        }
    }
    assert!(served > 0, "no second-generation key survived the restart");
    // First-generation durable entries are still there too.
    let barrier = o.barriers.last().unwrap();
    for &(k, v) in &barrier.must_serve {
        if o.model.history[&k].len() == 1 {
            assert!(third.get(k, &mut out).unwrap(), "key {k} lost in round 2");
            assert_eq!(out, Noise.page(k, v, PAGE));
        }
    }
}

/// Cleaning under power loss: one scripted cut at each ordering edge of
/// a cleaning step, then cuts sprayed across the steps, always resolve
/// every durable key to exactly one CRC-valid copy — durable entries
/// survive, and nothing is ever served wrong.
#[test]
fn mid_gc_crash_resolves_to_exactly_one_valid_copy() {
    // 2 KiB batches make 64 KiB segments, ~60 pages each: the first
    // wave seals two, the removes leave half of each dead, and the
    // second wave's batches clean them and then reuse the first.
    let mut schedule = Vec::new();
    for k in 0..160 {
        put(&mut schedule, k);
    }
    schedule.push(Op::Flush); // 0
    for k in (0..160).step_by(2) {
        schedule.push(Op::Remove { key: k }); // dead space for the cleaner
    }
    schedule.push(Op::Flush); // 1: tombstones durable, nothing cleaned
    for k in 160..260 {
        put(&mut schedule, k); // batches after this trigger cleaning
    }
    schedule.push(Op::Flush); // 2
    let gc_cfg = gc_cfg();

    let mut o = run_trial(&schedule, &gc_cfg, End::Drop);
    verify(&mut o, &gc_cfg, Cut::Whole);
    assert!(
        o.run_stats.gc_runs >= 2,
        "schedule failed to trigger cleaning: {:?}",
        o.run_stats
    );
    for edge in [Edge::Relocated, Edge::Invalidated, Edge::Reused] {
        verify(&mut o, &gc_cfg, Cut::Edge(edge));
    }
    let gc_start = o.barriers[1].bytes;
    let total = o.log.position();
    assert!(total > gc_start);

    // Spray cuts across the cleaning region.
    let span = total - gc_start;
    for step in 0..16u64 {
        let at = gc_start + 1 + step * span / 16;
        let tear = step % 2 == 1;
        verify(&mut o, &gc_cfg, Cut::At { at, tear });
    }
}

/// A tombstone outlives the copy it kills: a removed key's tombstone
/// lands in a segment that the cleaner then takes — mostly dead bytes —
/// while the key's older copy still sits in another sealed segment. The
/// cleaner must carry the tombstone forward; a crash after the cleaning
/// must not bring the key back. It runs on a real file, reopened from
/// its path.
#[test]
fn a_cleaned_tombstone_keeps_an_older_copy_dead() {
    let mut schedule = Vec::new();
    for k in 0..60 {
        put(&mut schedule, k); // ~ one segment: key 0's copy stays here
    }
    for k in 100..130 {
        put(&mut schedule, k); // the next segment, left open
    }
    schedule.push(Op::Flush); // 0
    schedule.push(Op::Remove { key: 0 });
    schedule.push(Op::Flush); // 1: key 0's tombstone joins the open segment
    for k in 100..130 {
        schedule.push(Op::Remove { key: k }); // which is now mostly dead
    }
    for k in 200..290 {
        put(&mut schedule, k); // seal it, then clean it
    }
    schedule.push(Op::Flush); // 2
    let path = TempPath::new("recovery-tombstone");
    let config = StoreConfig {
        spill_path: Some(path.to_path_buf()),
        ..gc_cfg()
    };
    let mut o = run_trial(&schedule, &config, End::Drop);
    assert!(
        o.run_stats.gc_runs >= 1,
        "nothing was cleaned: {:?}",
        o.run_stats
    );
    verify(&mut o, &config, Cut::Barrier(2));
}

/// `mid_gc_crash`'s cleaner: 2 KiB batches, so 64 KiB segments of ~30
/// batches, cleaned once a fifth of the file is dead.
fn gc_cfg() -> StoreConfig {
    cfg(MATRIX_BUDGET_PAGES, 0.2).with_spill_batch_bytes(2048)
}

/// The random schedules' mix: puts, removes and barriers over 24 keys.
const MIX: Mix = Mix {
    keys: 0..24,
    weights: [5, 0, 2, 2, 0],
    classes: &[Noise],
    shared: false,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recovery after a crash at *any* byte of the write stream never
    /// serves wrong bytes, never loses a durable entry, and never
    /// resurrects a durably-removed key — over randomized schedules of
    /// puts, overwrites, removes, and barriers.
    #[test]
    fn crash_at_any_byte_never_serves_wrong_bytes(
        seed in any::<u64>(),
        len in 12usize..60,
        cut_seed in any::<u64>(),
        tear in any::<bool>(),
        cleaning in any::<bool>(),
    ) {
        let mut schedule = model::script(seed, len, &MIX);
        schedule.push(Op::Flush); // every schedule ends durable
        // Cut somewhere inside the run's write stream — but never before
        // the initial superblock (first 128 bytes): a machine that dies
        // before the store finishes *creating* the file legitimately has
        // nothing to recover. With `cleaning`, the cut may land in a
        // cleaning step, a free or a reuse.
        let config = if cleaning { gc_cfg() } else { cfg(2, f64::MAX) };
        let mut o = run_trial(&schedule, &config, End::Drop);
        let span = o.log.position().max(129) - 128;
        let at = 128 + cut_seed % span;
        verify(&mut o, &config, Cut::At { at, tear });
    }
}
