//! Opening a store: the constructors over files or explicit media, the
//! fresh persistent superblock, the recovery fold that rebuilds the cold
//! tier from a journal, and the spawn of the writer and demoter threads.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use super::core::StoreCore;
use super::shard::{Entry, EntryMap, Padded, Residence, Shard};
use super::stats::{tevent, top, tstat, STORE_TELEMETRY};
use super::writer::{SpillJob, SpillWriter};
use super::{CompressedStore, StoreConfig, StoreError};
use crate::medium::{FileMedium, SpillMedium};
use crate::persist::{self, Persist, PersistState, RecoverError, Superblock, SUPERBLOCK_RESERVED};
use cc_telemetry::Telemetry;
use cc_util::LruList;

/// The location-map journal lives beside the spill file: `<spill>.map`.
fn journal_path(path: &std::path::Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".map");
    PathBuf::from(os)
}

/// Everything a persistent open hands to [`CompressedStore::build`]: the
/// journal medium, the resume position, and (for an existing file) the
/// recovered entry set with how long recovery took.
struct PersistSetup {
    journal: Arc<dyn SpillMedium>,
    state: PersistState,
    recovery: Option<(persist::Recovery, Duration)>,
}

impl CompressedStore {
    /// Open a store.
    ///
    /// With [`StoreConfig::persistent`], the spill file gains a
    /// superblock and a `<spill_path>.map` location journal; both are
    /// created fresh (truncating any previous state — use
    /// [`CompressedStore::open_existing`] to warm-restart instead).
    ///
    /// # Panics
    ///
    /// Panics if the spill file (or, when persistent, the journal file
    /// or initial superblock) cannot be created.
    pub fn new(cfg: StoreConfig) -> Self {
        let medium = cfg.spill_path.as_ref().map(|path| {
            Arc::new(FileMedium::create(path).expect("create spill file")) as Arc<dyn SpillMedium>
        });
        if cfg.persistent {
            let path = cfg
                .spill_path
                .as_ref()
                .expect("persistent store needs a spill path");
            let journal =
                Arc::new(FileMedium::create(journal_path(path)).expect("create spill journal"));
            let medium = medium.expect("persistent store needs a spill medium");
            return Self::with_persistent_media(cfg, medium, journal)
                .expect("write initial superblock");
        }
        Self::build(cfg, medium, None)
    }

    /// Open a store over an explicit [`SpillMedium`] — a fault injector,
    /// an in-memory medium, anything. `cfg.spill_path` is ignored (the
    /// medium *is* the spill backing); everything else applies as usual.
    /// Non-persistent; see [`CompressedStore::with_persistent_media`].
    pub fn with_medium(cfg: StoreConfig, medium: Arc<dyn SpillMedium>) -> Self {
        Self::build(cfg, Some(medium), None)
    }

    /// Reopen a persistent store from its existing spill file and
    /// journal, recovering every durably-committed cold extent: replay
    /// the location journal, arbitrate generations, re-verify extents
    /// (skipped entirely after a clean shutdown), and serve GETs for
    /// the survivors immediately — no re-PUT. `cfg.persistent` is
    /// implied. Fails with [`StoreError::Corrupt`] if no superblock
    /// slot decodes or the file was written under a different
    /// codec/format fingerprint.
    pub fn open_existing(mut cfg: StoreConfig) -> Result<Self, StoreError> {
        cfg.persistent = true;
        let path = cfg
            .spill_path
            .clone()
            .expect("persistent store needs a spill path");
        let medium = Arc::new(FileMedium::open(&path)?) as Arc<dyn SpillMedium>;
        let journal = Arc::new(FileMedium::open(journal_path(&path))?) as Arc<dyn SpillMedium>;
        Self::open_with(cfg, medium, journal)
    }

    /// Open a *fresh* persistent store over explicit media (the spill
    /// data medium and the location-journal medium) — fault injectors,
    /// in-memory media, anything. `cfg.spill_path` is ignored.
    pub fn with_persistent_media(
        mut cfg: StoreConfig,
        data: Arc<dyn SpillMedium>,
        journal: Arc<dyn SpillMedium>,
    ) -> Result<Self, StoreError> {
        cfg.persistent = true;
        let state = Self::init_persistent(&*data)?;
        Ok(Self::build(
            cfg,
            Some(data),
            Some(PersistSetup {
                journal,
                state,
                recovery: None,
            }),
        ))
    }

    /// [`CompressedStore::open_existing`] over explicit media: recover
    /// whatever the media already hold. This is the crash-recovery
    /// test entry point — cut the media mid-run, then reopen them here.
    pub fn open_existing_with_media(
        mut cfg: StoreConfig,
        data: Arc<dyn SpillMedium>,
        journal: Arc<dyn SpillMedium>,
    ) -> Result<Self, StoreError> {
        cfg.persistent = true;
        Self::open_with(cfg, data, journal)
    }

    /// Write the initial superblock of a fresh persistent store.
    fn init_persistent(data: &dyn SpillMedium) -> Result<PersistState, StoreError> {
        let sb = Superblock {
            seq: 1,
            page_size: 0,
            codec_fpr: persist::codec_fingerprint(),
            clean: false,
            epoch: 0,
            journal_start: 0,
            data_cursor: SUPERBLOCK_RESERVED,
            journal_tail: 0,
        };
        persist::write_superblock(data, &sb)?;
        Ok(PersistState {
            tail: 0,
            epoch: 0,
            start: 0,
            sb_seq: 1,
            pending: Vec::new(),
        })
    }

    fn open_with(
        cfg: StoreConfig,
        data: Arc<dyn SpillMedium>,
        journal: Arc<dyn SpillMedium>,
    ) -> Result<Self, StoreError> {
        let t0 = Instant::now();
        let rec = persist::recover(&*data, &*journal).map_err(|e| match e {
            RecoverError::Io(e) => StoreError::Io(e),
            other => {
                // Not an I/O problem: the file itself is unusable
                // (missing/destroyed superblock or format mismatch).
                // Surface it as corruption rather than guessing.
                let _ = other;
                StoreError::Corrupt
            }
        })?;
        // Mark the file dirty *before* serving: if we crash from here
        // on, the next open must not trust the old clean seal.
        let sb_seq = rec.sb_seq + 1;
        persist::write_superblock(
            &*data,
            &Superblock {
                seq: sb_seq,
                page_size: rec.page_size,
                codec_fpr: persist::codec_fingerprint(),
                clean: false,
                epoch: rec.epoch,
                journal_start: rec.journal_start,
                data_cursor: rec.data_cursor,
                journal_tail: rec.journal_tail,
            },
        )?;
        let state = PersistState {
            tail: rec.journal_tail,
            epoch: rec.epoch,
            start: rec.journal_start,
            sb_seq,
            pending: Vec::new(),
        };
        Ok(Self::build(
            cfg,
            Some(data),
            Some(PersistSetup {
                journal,
                state,
                recovery: Some((rec, t0.elapsed())),
            }),
        ))
    }

    fn build(
        cfg: StoreConfig,
        medium: Option<Arc<dyn SpillMedium>>,
        psetup: Option<PersistSetup>,
    ) -> Self {
        let (tx, rx) = match &medium {
            Some(_) => {
                let (tx, rx): (Sender<SpillJob>, Receiver<SpillJob>) = channel();
                (Some(tx), Some(rx))
            }
            None => (None, None),
        };
        let nshards = cfg.resolved_shards();
        let shards = (0..nshards)
            .map(|_| {
                Padded(Mutex::new(Shard {
                    entries: EntryMap::default(),
                    lru: LruList::new(),
                    lru_hot: LruList::new(),
                    pool: Vec::new(),
                    tx: tx.clone(),
                }))
            })
            .collect();
        drop(tx);
        let tel = Telemetry::with_options(
            STORE_TELEMETRY,
            nshards,
            cc_telemetry::DEFAULT_RING_CAPACITY,
            cfg.telemetry,
        );
        let (persist_handle, recovery) = match psetup {
            Some(p) => (Some(Persist::new(p.journal, p.state)), p.recovery),
            None => (None, None),
        };
        // Extent space starts past the superblock region on persistent
        // media; the legacy scratch layout keeps its base of 0.
        let init_cursor = match (&recovery, &persist_handle) {
            (Some((rec, _)), _) => rec.data_cursor,
            (None, Some(_)) => SUPERBLOCK_RESERVED,
            (None, None) => 0,
        };
        let core = Arc::new(StoreCore {
            cfg,
            shards,
            shard_mask: nshards as u64 - 1,
            resident: AtomicUsize::new(0),
            hot_resident: AtomicUsize::new(0),
            warm_resident: AtomicUsize::new(0),
            touch_clock: AtomicU64::new(0),
            demote_stop: Mutex::new(false),
            demote_cv: Condvar::new(),
            page_size: AtomicUsize::new(0),
            next_gen: AtomicU64::new(0),
            medium,
            degraded: AtomicBool::new(false),
            writer_dead: AtomicBool::new(false),
            spill_inflight: AtomicUsize::new(0),
            spill_orphaned: AtomicUsize::new(0),
            spill_waiters: Mutex::new(0),
            spill_cv: Condvar::new(),
            shedding: AtomicUsize::new(0),
            tel,
            spill_file_bytes: AtomicU64::new(init_cursor),
            spill_dead_bytes: AtomicU64::new(0),
            persist: persist_handle,
        });
        if let Some((rec, took)) = recovery {
            let mut live_bytes = 0u64;
            for e in &rec.entries {
                let idx = core.shard_index(e.key);
                let mut shard = core.shards[idx].0.lock().expect("shard poisoned");
                shard.entries.insert(
                    e.key,
                    Entry {
                        residence: Residence::Spilled {
                            offset: e.offset,
                            len: e.len,
                            gen: e.gen,
                        },
                        orig_len: e.orig_len,
                        codec: e.codec,
                        probe: 0,
                        gets: 0,
                        last_touch: 0,
                        journaled: true,
                    },
                );
                live_bytes += e.len as u64;
            }
            // Resume generations above everything the journal has seen
            // (ABA safety across the restart) and restore the gauges.
            core.next_gen.store(rec.max_lsn + 1, Ordering::Relaxed);
            if rec.page_size != 0 {
                core.page_size
                    .store(rec.page_size as usize, Ordering::Relaxed);
            }
            core.spill_dead_bytes.store(
                rec.data_cursor
                    .saturating_sub(SUPERBLOCK_RESERVED)
                    .saturating_sub(live_bytes),
                Ordering::Relaxed,
            );
            let c = &rec.counts;
            core.tel
                .count(0, tstat::EXTENTS_RECOVERED, c.extents_recovered);
            core.tel.count(
                0,
                tstat::JOURNAL_RECORDS_REPLAYED,
                c.journal_records_replayed,
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
            let ns = took.as_nanos() as u64;
            core.tel.record(top::RECOVERY, ns);
            let _ = core.tel.event(tevent::RECOVERY, c.extents_recovered, ns);
        }
        let writer = match (&core.medium, rx) {
            (Some(medium), Some(rx)) => {
                let writer_core = Arc::clone(&core);
                let medium = Arc::clone(medium);
                let exit_core = Arc::clone(&core);
                Some(
                    std::thread::Builder::new()
                        .name("cc-store-cleaner".into())
                        .spawn(move || {
                            // A panic anywhere in the writer (including
                            // inside a hostile medium) must not strand
                            // `flush()` callers or back-pressured puts:
                            // degrade the store so eviction sheds
                            // instead of queueing into the void, then
                            // mark the thread dead and wake them, so
                            // flush can reclaim orphaned jobs.
                            let body = std::panic::AssertUnwindSafe(move || {
                                SpillWriter {
                                    core: writer_core,
                                    medium,
                                    cursor: init_cursor,
                                    consecutive_failures: 0,
                                    probes: 0,
                                }
                                .run(rx)
                            });
                            let result = std::panic::catch_unwind(body);
                            if result.is_err() {
                                exit_core.enter_degraded(0);
                            }
                            exit_core.writer_exited();
                        })
                        .expect("spawn cleaner thread"),
                )
            }
            _ => None,
        };
        // The demoter only exists for policies that age pages at all;
        // CompressAll / PaperThreshold stores carry zero extra threads.
        let demoter = core.cfg.tier_policy.wants_demoter().then(|| {
            let demote_core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("cc-store-demoter".into())
                .spawn(move || demote_core.demoter_loop())
                .expect("spawn demoter thread")
        });
        CompressedStore {
            core,
            writer: Mutex::new(writer),
            demoter: Mutex::new(demoter),
        }
    }
}
