//! Opening a store: the constructors over files or explicit media, the
//! superblock a fresh spill file gets, the recovery fold that rebuilds
//! the cold tier from the spill file's batch summaries, and the spawn of
//! the store's one background thread.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use super::core::StoreCore;
use super::gc::{segment_bytes, Segments};
use super::shard::{Entry, Padded, Residence, Shard};
use super::stats::{top, tstat, STORE_TELEMETRY};
use super::writer::{Background, Inbox, SpillWriter};
use super::{CompressedStore, StoreConfig, StoreError};
use crate::medium::{FileMedium, SpillMedium};
use crate::persist::{self, Persist, Superblock};
use cc_telemetry::Telemetry;

impl CompressedStore {
    /// Open a store. With [`StoreConfig::spill_path`] the spill file is
    /// created fresh (truncating any previous state — use
    /// [`CompressedStore::open_existing`] to warm-restart instead) and
    /// written in the crash-safe format: a superblock, then every batch
    /// behind its summary.
    ///
    /// # Panics
    ///
    /// Panics if the spill file cannot be created.
    pub fn new(cfg: StoreConfig) -> Self {
        let medium = cfg.spill_path.as_ref().map(|path| {
            Arc::new(FileMedium::create(path).expect("create spill file")) as Arc<dyn SpillMedium>
        });
        Self::fresh(cfg, medium)
    }

    /// Open a fresh store over an explicit [`SpillMedium`] — a fault
    /// injector, an in-memory medium, anything. `cfg.spill_path` is
    /// ignored (the medium *is* the spill backing); everything else
    /// applies as usual, and the medium is written as
    /// [`CompressedStore::new`] writes its file.
    pub fn with_medium(cfg: StoreConfig, medium: Arc<dyn SpillMedium>) -> Self {
        Self::fresh(cfg, Some(medium))
    }

    /// Reopen a store from its existing spill file, recovering every
    /// durably-written cold extent: walk the batch summaries, arbitrate
    /// generations, re-verify extents (skipped entirely after a clean
    /// shutdown), and serve GETs for the survivors immediately — no
    /// re-PUT. Fails with [`StoreError::Corrupt`] if no superblock slot
    /// decodes, or the file was written under another format version or
    /// codec/format fingerprint, and with [`StoreError::Io`] if the
    /// dirty superblock cannot be stamped.
    pub fn open_existing(cfg: StoreConfig) -> Result<Self, StoreError> {
        let path = cfg
            .spill_path
            .clone()
            .expect("reopening a store needs a spill path");
        let medium = Arc::new(FileMedium::open(&path)?) as Arc<dyn SpillMedium>;
        Self::open_existing_with_media(cfg, medium)
    }

    /// [`CompressedStore::open_existing`] over an explicit medium:
    /// recover whatever it already holds. This is the crash-recovery
    /// test entry point — cut the medium mid-run, then reopen it here.
    pub fn open_existing_with_media(
        cfg: StoreConfig,
        data: Arc<dyn SpillMedium>,
    ) -> Result<Self, StoreError> {
        let t0 = Instant::now();
        // Not an I/O problem: the file itself is unusable (a destroyed
        // superblock, or another format). Surface it as corruption
        // rather than guessing.
        let mut rec = persist::recover(&*data).map_err(|_| StoreError::Corrupt)?;
        // Stamp the file dirty *before* serving: if we crash from here
        // on, the next open must not trust the old clean seal.
        let persist = Persist::new(rec.sb);
        persist.stamp(&*data, rec.page_size, false, rec.sb.seq_limit)?;
        let segments = Segments::recovered(
            rec.sb.seg_bytes,
            std::mem::take(&mut rec.segments),
            rec.entries.iter().map(|e| (e.offset, e.len)),
        );
        let recovery = Some((rec, t0.elapsed()));
        Ok(Self::build(cfg, Some(data), segments, persist, recovery))
    }

    /// A store over a fresh `medium`, if any, whose writer stamps the
    /// first superblock as its thread starts ([`Background::run`]).
    fn fresh(cfg: StoreConfig, medium: Option<Arc<dyn SpillMedium>>) -> Self {
        let seg_bytes = segment_bytes(cfg.spill_batch_bytes);
        let persist = Persist::new(Superblock::fresh(seg_bytes));
        Self::build(cfg, medium, Segments::new(seg_bytes), persist, None)
    }

    /// Assemble the store and start its thread. A recovered store keeps
    /// its file's segment size and brings what recovery found and how
    /// long it took; a fresh one has no superblock on its file yet.
    fn build(
        cfg: StoreConfig,
        medium: Option<Arc<dyn SpillMedium>>,
        segments: Segments,
        persist: Persist,
        recovery: Option<(persist::Recovery, Duration)>,
    ) -> Self {
        let nshards = cfg.resolved_shards();
        let shards = (0..nshards)
            .map(|i| Padded(Mutex::new(Shard::new(i as u64))))
            .collect();
        let tel = Telemetry::new(STORE_TELEMETRY, nshards, cfg.telemetry);
        let core = Arc::new(StoreCore {
            cfg,
            shards,
            shard_mask: nshards as u64 - 1,
            resident: AtomicUsize::new(0),
            hot_resident: AtomicUsize::new(0),
            warm_resident: AtomicUsize::new(0),
            touch_clock: AtomicU64::new(0),
            inbox: Mutex::new(Inbox::default()),
            wake: Condvar::new(),
            seals_ready: AtomicBool::new(false),
            seal_orphaned: AtomicUsize::new(0),
            page_size: AtomicUsize::new(0),
            next_gen: AtomicU64::new(0),
            medium,
            degraded: AtomicBool::new(false),
            writer_dead: AtomicBool::new(false),
            spill_inflight: AtomicUsize::new(0),
            spill_orphaned: AtomicUsize::new(0),
            shedding: AtomicUsize::new(0),
            tel,
            spill_file_bytes: AtomicU64::new(0),
            spill_dead_bytes: AtomicU64::new(0),
            segments: Mutex::new(segments),
            persist,
        });
        core.mirror(&core.segments());
        let fresh = recovery.is_none();
        if let Some((rec, took)) = recovery {
            // Size each shard's index once for what it recovers, not by
            // doubling it log2(n) times.
            let mut per_shard = vec![0; nshards];
            for e in &rec.entries {
                per_shard[core.shard_index(e.key)] += 1;
            }
            for (s, n) in core.shards.iter().zip(per_shard) {
                s.0.lock().expect("shard poisoned").reserve(n);
            }
            for e in &rec.entries {
                let idx = core.shard_index(e.key);
                let mut shard = core.shards[idx].0.lock().expect("shard poisoned");
                shard.insert(Entry {
                    key: e.key,
                    residence: Residence::Spilled {
                        offset: e.offset,
                        len: e.len,
                        gen: e.gen,
                    },
                    orig_len: rec.page_size,
                    codec: e.codec,
                    probe: None,
                    gets: 0,
                    last_touch: 0,
                    journaled: true,
                });
            }
            // Resume generations above everything the file has seen
            // (ABA safety across the restart, and the walk rule's
            // increasing batch sequences).
            core.next_gen.store(rec.sb.seq_limit, Ordering::Relaxed);
            if rec.page_size != 0 {
                core.page_size
                    .store(rec.page_size as usize, Ordering::Relaxed);
            }
            let c = &rec.counts;
            core.tel
                .count(0, tstat::EXTENTS_RECOVERED, c.extents_recovered);
            core.tel.count(
                0,
                tstat::SUMMARY_RECORDS_REPLAYED,
                c.summary_records_replayed,
            );
            core.tel
                .count(0, tstat::TORN_TAIL_DISCARDED, c.torn_tail_discarded);
            core.tel.count(
                0,
                tstat::STALE_GENERATION_DROPPED,
                c.stale_generation_dropped,
            );
            core.tel
                .count(0, tstat::RECOVERY_EXTENTS_VERIFIED, c.extents_verified);
            if rec.clean {
                core.tel.count(0, tstat::CLEAN_RECOVERIES, 1);
            }
            core.tel.record(top::RECOVERY, took.as_nanos() as u64);
        }
        // One thread for the spill writer, the seals and the demote
        // passes; a store in memory that ages nothing runs none.
        let demoter = core.cfg.tier_policy.wants_demoter();
        let bg = (core.has_spill() || demoter).then(|| {
            let bg = Background {
                writer: (core.medium.clone()).map(|m| SpillWriter::new(Arc::clone(&core), m)),
                next_demote: demoter.then(|| Instant::now() + core.cfg.demote_interval),
                core: Arc::clone(&core),
            };
            let exit_core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("cc-store-bg".into())
                .spawn(move || {
                    // A panic anywhere in the thread (including inside a
                    // hostile medium) must not strand `flush()` callers
                    // or back-pressured puts: degrade the store so
                    // eviction sheds instead of queueing into the void,
                    // then mark the thread dead and wake them, so flush
                    // can reclaim orphaned jobs.
                    let body = std::panic::AssertUnwindSafe(move || bg.run(fresh));
                    if std::panic::catch_unwind(body).is_err() {
                        exit_core.enter_degraded(0);
                    }
                    exit_core.writer_exited();
                })
                .expect("spawn background thread")
        });
        CompressedStore {
            core,
            bg: Mutex::new(bg),
        }
    }
}
