//! The simulated machine: VM + file cache + compression cache + disk under
//! one virtual clock, with the §4.2 three-way memory arbiter.

use std::collections::HashMap;

use crate::disk::{Completion, Disk, DiskStats};
use crate::mem::{FrameId, FrameOwner, FramePool};
use cc_compress::{Compressor, Lzrw1, Lzss, Null, Rle};
use cc_telemetry::{Telemetry, TelemetrySpec};
use cc_util::Ns;

use crate::blockfs::{read_block_through, BufferCache, CacheBlockKey, FileId, FileSystem};
use crate::config::{CodecKind, Mode, SimConfig};
use crate::paper::{
    BackingStore, CacheConfig, CleanEvictOutcome, CompressionCache, CoreStats, FaultOutcome,
    InsertOutcome, OverheadReport, PageKey,
};
use crate::stats::{SystemReport, SystemStats};
use crate::vm::{AccessResult, FaultKind, PageState, SegId, VPage, Vm, VmStats};

/// Timed-operation indices for the simulator's telemetry: fault service
/// latency per fault class, in **virtual** nanoseconds (clock deltas
/// across `service_fault`, so they are exactly the latencies a paper
/// Table 2/3-style breakdown wants, deterministic across runs).
mod top {
    cc_telemetry::names! {
        fault_zero_fill => FAULT_ZERO_FILL,
        fault_cc => FAULT_CC,
        fault_std => FAULT_STD,
    }
}

/// The simulator's telemetry layout: latency histograms only (the
/// simulator's counters live in [`SystemStats`] and the substrates).
const SIM_TELEMETRY: TelemetrySpec = TelemetrySpec {
    counters: &[],
    ops: top::NAMES,
};

/// Page-key namespace for compressed file-cache blocks (§6 extension):
/// the high bit of the segment id distinguishes them from VM pages so the
/// two never collide and PTE bookkeeping skips them.
const FILE_KEY_BIT: u32 = 0x8000_0000;

fn file_block_key(file: FileId, block: u64) -> PageKey {
    PageKey {
        seg: FILE_KEY_BIT | file.0,
        page: block as u32,
    }
}

/// Backing-store adapter: the compression cache's flat byte space is one
/// big swap file on the shared file system.
struct FsBacking<'a> {
    fs: &'a mut FileSystem,
    file: FileId,
}

impl BackingStore for FsBacking<'_> {
    fn write(&mut self, now: Ns, offset: u64, data: &[u8]) -> Completion {
        self.fs.write_bytes(now, self.file, offset, data)
    }

    fn read(&mut self, now: Ns, offset: u64, out: &mut [u8]) -> Ns {
        self.fs.read_bytes(now, self.file, offset, out)
    }

    fn capacity(&self) -> u64 {
        self.fs.len_bytes(self.file)
    }
}

/// Which consumer the arbiter decided to take a frame from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VictimClass {
    Vm,
    FileCache,
    CompressionCache,
}

#[derive(Debug, Default)]
struct AdaptiveState {
    consecutive_rejects: u32,
    disabled: bool,
    skipped_since_probe: u32,
}

/// The simulated system. See the crate docs for the overall shape.
pub struct System {
    cfg: SimConfig,
    clock: Ns,
    pool: FramePool,
    vm: Vm,
    fs: FileSystem,
    file_cache: BufferCache,
    cache: Option<CompressionCache>,
    cc_swap: Option<FileId>,
    std_swap: HashMap<SegId, FileId>,
    stats: SystemStats,
    /// Virtual-time fault-latency histograms (see [`SIM_TELEMETRY`]).
    tel: Telemetry,
    adaptive: AdaptiveState,
    page_scratch: Vec<u8>,
    /// Total virtual pages over all created segments (overhead report).
    vm_total_pages: u64,
    /// When enabled, `(time, cache frames)` samples taken at faults.
    size_trace: Option<Vec<(Ns, usize)>>,
}

impl System {
    /// Build a system from configuration.
    pub fn new(cfg: SimConfig) -> Self {
        assert_eq!(
            cfg.page_bytes as u32, cfg.disk.block_bytes,
            "reproduction assumes one-to-one page/block mapping (§4.3)"
        );
        let pool = FramePool::new(cfg.frames(), cfg.page_bytes);
        let mut fs = FileSystem::new(Disk::new(cfg.disk.clone()));
        let (cache, cc_swap) = match cfg.mode {
            Mode::Std => (None, None),
            Mode::Cc => {
                let ccfg = CacheConfig {
                    page_bytes: cfg.page_bytes,
                    fragment_bytes: cfg.cc.fragment_bytes,
                    cluster_bytes: cfg.cc.cluster_bytes,
                    block_bytes: cfg.disk.block_bytes as usize,
                    allow_span: cfg.cc.allow_span,
                    threshold: cfg.cc.threshold,
                    max_slots: cfg.frames(),
                    entry_header_bytes: 36,
                    frame_header_bytes: 24,
                    swap_readahead: cfg.cc.swap_readahead,
                };
                let codec: Box<dyn Compressor> = match cfg.cc.codec {
                    CodecKind::Lzrw1 { table_bytes } => {
                        Box::new(Lzrw1::with_table_bytes(table_bytes))
                    }
                    CodecKind::Lzss => Box::new(Lzss::new()),
                    CodecKind::Rle => Box::new(Rle::new()),
                    CodecKind::Null => Box::new(Null::new()),
                };
                let swap_blocks = cfg.cc.swap_bytes / cfg.disk.block_bytes as u64;
                let file = fs.create("ccswap", swap_blocks);
                (
                    Some(CompressionCache::new(
                        ccfg,
                        codec,
                        cfg.cpu,
                        cfg.cc.swap_bytes,
                    )),
                    Some(file),
                )
            }
        };
        let page_bytes = cfg.page_bytes;
        System {
            cfg,
            clock: Ns::ZERO,
            pool,
            vm: Vm::new(),
            fs,
            file_cache: BufferCache::new(),
            cache,
            cc_swap,
            std_swap: HashMap::new(),
            stats: SystemStats::default(),
            tel: Telemetry::new(SIM_TELEMETRY, 1, true),
            adaptive: AdaptiveState::default(),
            page_scratch: vec![0u8; page_bytes],
            vm_total_pages: 0,
            size_trace: None,
        }
    }

    // ------------------------------------------------------------------
    // Workload-facing API
    // ------------------------------------------------------------------

    /// Create a segment of `bytes` (rounded up to whole pages).
    pub fn create_segment(&mut self, bytes: u64) -> SegId {
        let pb = self.cfg.page_bytes as u64;
        let npages = bytes.div_ceil(pb) as u32;
        self.vm_total_pages += npages as u64;
        let seg = self.vm.create_segment(npages);
        if self.cfg.mode == Mode::Std {
            // Fixed-mapping swap file, one block per page (§4.3's "trivial
            // to locate a page on the backing store").
            let file = self.fs.create(&format!("swap{}", seg.0), npages as u64);
            self.std_swap.insert(seg, file);
        }
        seg
    }

    /// Tear down a segment, releasing every frame, cache entry, and swap
    /// copy it holds.
    pub fn release_segment(&mut self, seg: SegId) {
        let npages = self.vm.segment_pages(seg);
        for page in 0..npages {
            let vp = VPage { seg, page };
            if let PageState::Resident { .. } = self.vm.state(vp) {
                let (_, frame, _) = self.vm.take_resident(vp);
                self.vm.set_swapped(vp);
                self.pool.free(frame);
            }
            if let Some(cache) = self.cache.as_mut() {
                cache.drop_page(PageKey { seg: seg.0, page });
            }
        }
        self.drain_cc_transitions();
    }

    /// Charge pure computation time to the workload.
    pub fn compute(&mut self, t: Ns) {
        self.clock += t;
        self.stats.compute_time += t;
    }

    /// Current virtual time.
    pub fn now(&self) -> Ns {
        self.clock
    }

    /// Read a little-endian u32 at `(seg, offset)`.
    pub fn read_u32(&mut self, seg: SegId, offset: u64) -> u32 {
        let pb = self.cfg.page_bytes as u64;
        let po = (offset % pb) as usize;
        assert!(po + 4 <= pb as usize, "unaligned u32 across page boundary");
        let frame = self.access(seg, offset, false);
        let d = self.pool.data(frame);
        u32::from_le_bytes([d[po], d[po + 1], d[po + 2], d[po + 3]])
    }

    /// Write a little-endian u32 at `(seg, offset)`.
    pub fn write_u32(&mut self, seg: SegId, offset: u64, value: u32) {
        let pb = self.cfg.page_bytes as u64;
        let po = (offset % pb) as usize;
        assert!(po + 4 <= pb as usize, "unaligned u32 across page boundary");
        let frame = self.access(seg, offset, true);
        self.pool.data_mut(frame)[po..po + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Read a little-endian u16 at `(seg, offset)`.
    pub fn read_u16(&mut self, seg: SegId, offset: u64) -> u16 {
        let pb = self.cfg.page_bytes as u64;
        let po = (offset % pb) as usize;
        assert!(po + 2 <= pb as usize, "unaligned u16 across page boundary");
        let frame = self.access(seg, offset, false);
        let d = self.pool.data(frame);
        u16::from_le_bytes([d[po], d[po + 1]])
    }

    /// Write a little-endian u16 at `(seg, offset)`.
    pub fn write_u16(&mut self, seg: SegId, offset: u64, value: u16) {
        let pb = self.cfg.page_bytes as u64;
        let po = (offset % pb) as usize;
        assert!(po + 2 <= pb as usize, "unaligned u16 across page boundary");
        let frame = self.access(seg, offset, true);
        self.pool.data_mut(frame)[po..po + 2].copy_from_slice(&value.to_le_bytes());
    }

    /// Read one byte.
    pub fn read_u8(&mut self, seg: SegId, offset: u64) -> u8 {
        let pb = self.cfg.page_bytes as u64;
        let po = (offset % pb) as usize;
        let frame = self.access(seg, offset, false);
        self.pool.data(frame)[po]
    }

    /// Write one byte.
    pub fn write_u8(&mut self, seg: SegId, offset: u64, value: u8) {
        let pb = self.cfg.page_bytes as u64;
        let po = (offset % pb) as usize;
        let frame = self.access(seg, offset, true);
        self.pool.data_mut(frame)[po] = value;
    }

    /// Bulk read crossing pages; charges one reference per word.
    pub fn read_slice(&mut self, seg: SegId, offset: u64, out: &mut [u8]) {
        let pb = self.cfg.page_bytes as u64;
        let mut done = 0usize;
        while done < out.len() {
            let off = offset + done as u64;
            let po = (off % pb) as usize;
            let chunk = (pb as usize - po).min(out.len() - done);
            let words = (chunk as u64).div_ceil(4);
            let extra = self.cfg.mem_ref * words.saturating_sub(1);
            self.clock += extra;
            self.stats.mem_ref_time += extra;
            let frame = self.access(seg, off, false);
            out[done..done + chunk].copy_from_slice(&self.pool.data(frame)[po..po + chunk]);
            done += chunk;
        }
    }

    /// Bulk write crossing pages; charges one reference per word.
    pub fn write_slice(&mut self, seg: SegId, offset: u64, data: &[u8]) {
        let pb = self.cfg.page_bytes as u64;
        let mut done = 0usize;
        while done < data.len() {
            let off = offset + done as u64;
            let po = (off % pb) as usize;
            let chunk = (pb as usize - po).min(data.len() - done);
            let words = (chunk as u64).div_ceil(4);
            let extra = self.cfg.mem_ref * words.saturating_sub(1);
            self.clock += extra;
            self.stats.mem_ref_time += extra;
            let frame = self.access(seg, off, true);
            self.pool.data_mut(frame)[po..po + chunk].copy_from_slice(&data[done..done + chunk]);
            done += chunk;
        }
    }

    // ------------------------------------------------------------------
    // File API (exercises the buffer cache and the three-way trade)
    // ------------------------------------------------------------------

    /// Create a file of `blocks` file-system blocks.
    pub fn file_create(&mut self, name: &str, blocks: u64) -> FileId {
        self.fs.create(name, blocks)
    }

    /// Read through the buffer cache.
    pub fn file_read(&mut self, file: FileId, offset: u64, out: &mut [u8]) {
        let bb = self.fs.block_bytes() as u64;
        let mut done = 0usize;
        while done < out.len() {
            let off = offset + done as u64;
            let block = off / bb;
            let po = (off % bb) as usize;
            let chunk = (bb as usize - po).min(out.len() - done);
            let key = CacheBlockKey { file, block };
            let frame = match self.file_cache.lookup(key, self.clock) {
                Some(f) => {
                    self.stats.file_hits += 1;
                    f
                }
                None => {
                    self.stats.file_misses += 1;
                    self.ensure_free_frame();
                    match self.try_fill_from_compressed_file_cache(key) {
                        Some(f) => f,
                        None => {
                            let (f, done_at) = read_block_through(
                                &mut self.file_cache,
                                &mut self.pool,
                                &mut self.fs,
                                self.clock,
                                key,
                            );
                            self.clock = self.clock.max(done_at);
                            f
                        }
                    }
                }
            };
            out[done..done + chunk].copy_from_slice(&self.pool.data(frame)[po..po + chunk]);
            self.clock += self.cfg.mem_ref;
            self.stats.mem_ref_time += self.cfg.mem_ref;
            done += chunk;
        }
    }

    /// Write through the buffer cache (write-back).
    pub fn file_write(&mut self, file: FileId, offset: u64, data: &[u8]) {
        let bb = self.fs.block_bytes() as u64;
        let mut done = 0usize;
        while done < data.len() {
            let off = offset + done as u64;
            let block = off / bb;
            let po = (off % bb) as usize;
            let chunk = (bb as usize - po).min(data.len() - done);
            let key = CacheBlockKey { file, block };
            let frame = match self.file_cache.lookup(key, self.clock) {
                Some(f) => {
                    self.stats.file_hits += 1;
                    f
                }
                None => {
                    self.stats.file_misses += 1;
                    self.ensure_free_frame();
                    match self.try_fill_from_compressed_file_cache(key) {
                        Some(f) => f,
                        None => {
                            let (f, done_at) = read_block_through(
                                &mut self.file_cache,
                                &mut self.pool,
                                &mut self.fs,
                                self.clock,
                                key,
                            );
                            self.clock = self.clock.max(done_at);
                            f
                        }
                    }
                }
            };
            self.pool.data_mut(frame)[po..po + chunk].copy_from_slice(&data[done..done + chunk]);
            self.file_cache.mark_dirty(key);
            self.clock += self.cfg.mem_ref;
            self.stats.mem_ref_time += self.cfg.mem_ref;
            done += chunk;
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// VM counters.
    pub fn vm_stats(&self) -> &VmStats {
        self.vm.stats()
    }

    /// Disk counters.
    pub fn disk_stats(&self) -> &DiskStats {
        self.fs.disk().stats()
    }

    /// Compression-cache counters (None in std mode).
    pub fn core_stats(&self) -> Option<&CoreStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// System counters.
    pub fn sys_stats(&self) -> &SystemStats {
        &self.stats
    }

    /// Who holds the machine's frames right now (the §4.2 three-way
    /// split).
    pub fn frame_counts(&self) -> crate::mem::FrameCounts {
        self.pool.counts()
    }

    /// §4.4 memory-overhead report for the current instant (None in std
    /// mode).
    pub fn overhead_report(&self) -> Option<OverheadReport> {
        let cache = self.cache.as_ref()?;
        let table_bytes = match self.cfg.cc.codec {
            CodecKind::Lzrw1 { table_bytes } => table_bytes as u64,
            _ => 0,
        };
        Some(OverheadReport::compute(
            cache.config(),
            self.vm_total_pages,
            cache.mapped_frames() as u64,
            cache.live_entries() as u64,
            table_bytes,
        ))
    }

    /// The simulator's telemetry: per-fault-class virtual-time latency
    /// histograms (`fault_zero_fill`, `fault_cc`, `fault_std`).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// A telemetry snapshot with the frame-split gauges attached.
    pub fn telemetry_snapshot(&self) -> cc_telemetry::Snapshot {
        let counts = self.pool.counts();
        self.tel
            .snapshot()
            .gauge("frames_vm", counts.vm as u64)
            .gauge("frames_file_cache", counts.file_cache as u64)
            .gauge("frames_compression_cache", counts.compression_cache as u64)
    }

    /// Assemble the end-of-run report.
    pub fn report(&self) -> SystemReport {
        let mut report = SystemReport::assemble(
            match self.cfg.mode {
                Mode::Std => "std",
                Mode::Cc => "cc",
            },
            self.clock,
            self.cfg.page_bytes,
            &self.stats,
            self.vm.stats(),
            self.fs.disk().stats(),
            self.core_stats(),
        );
        report.fault_latency = top::NAMES
            .iter()
            .enumerate()
            .map(|(i, &n)| (n.to_string(), self.tel.op_summary(i)))
            .filter(|(_, s)| s.count > 0)
            .collect();
        report
    }

    /// Cross-structure consistency check (tests).
    pub fn check_invariants(&self) {
        self.vm.check_invariants();
        if let Some(c) = &self.cache {
            c.check_invariants();
        }
        let counts = self.pool.counts();
        assert_eq!(counts.vm, self.vm.resident_count(), "vm frame count");
        assert_eq!(counts.file_cache, self.file_cache.len(), "fs frame count");
        let cc_frames = self.cache.as_ref().map(|c| c.mapped_frames()).unwrap_or(0);
        assert_eq!(counts.compression_cache, cc_frames, "cc frame count");
    }

    // ------------------------------------------------------------------
    // Fault path
    // ------------------------------------------------------------------

    fn access(&mut self, seg: SegId, offset: u64, write: bool) -> FrameId {
        let pb = self.cfg.page_bytes as u64;
        let vp = VPage {
            seg,
            page: (offset / pb) as u32,
        };
        self.clock += self.cfg.mem_ref;
        self.stats.mem_ref_time += self.cfg.mem_ref;
        match self.vm.access(vp, write, self.clock) {
            AccessResult::Hit { frame } => frame,
            AccessResult::Fault { kind } => {
                let frame = self.service_fault(vp, kind);
                // The faulting access was a write: the page was installed
                // clean, so mark it dirty now.
                if write {
                    self.vm.mark_dirty(vp);
                }
                frame
            }
        }
    }

    fn service_fault(&mut self, vp: VPage, kind: FaultKind) -> FrameId {
        let fault_start = self.clock;
        self.clock += self.cfg.fault_overhead;
        self.stats.fault_overhead_time += self.cfg.fault_overhead;
        self.ensure_free_frame();

        let op = match kind {
            FaultKind::ZeroFill => top::FAULT_ZERO_FILL,
            FaultKind::Compressed | FaultKind::Swapped => match self.cfg.mode {
                Mode::Cc => top::FAULT_CC,
                Mode::Std => top::FAULT_STD,
            },
        };
        let frame = match kind {
            FaultKind::ZeroFill => {
                let frame = self
                    .pool
                    .alloc(FrameOwner::Vm { tag: vp.tag() })
                    .expect("ensure_free_frame must leave a frame");
                self.pool.zero(frame);
                let t = self.cfg.cpu.memcpy_time(self.cfg.page_bytes);
                self.clock += t;
                // Zero-filled pages are dirty: their contents exist nowhere
                // else yet.
                self.vm.install(vp, frame, true, self.clock);
                frame
            }
            FaultKind::Compressed | FaultKind::Swapped => match self.cfg.mode {
                Mode::Cc => self.cc_fault(vp),
                Mode::Std => self.std_swapin(vp),
            },
        };

        self.cleaner_tick();
        self.sample_cc_size();
        // Virtual time the faulting access waited, arbiter and cleaner
        // work included — the number a Table 2/3 breakdown measures.
        self.tel.record(op, (self.clock - fault_start).0);
        frame
    }

    fn cc_fault(&mut self, vp: VPage) -> FrameId {
        let key = PageKey {
            seg: vp.seg.0,
            page: vp.page,
        };
        let cache = self.cache.as_mut().expect("cc_fault in std mode");
        let mut backing = FsBacking {
            fs: &mut self.fs,
            file: self.cc_swap.expect("cc swap file"),
        };
        let outcome = cache.fault(
            &mut self.pool,
            &mut backing,
            &mut self.clock,
            key,
            &mut self.page_scratch,
            false,
        );
        if outcome == FaultOutcome::Miss {
            panic!("PTE says compressed/swapped but cache lost {vp:?}")
        }
        let frame = self
            .pool
            .alloc(FrameOwner::Vm { tag: vp.tag() })
            .expect("ensure_free_frame must leave a frame");
        self.pool
            .data_mut(frame)
            .copy_from_slice(&self.page_scratch);
        self.vm.install(vp, frame, false, self.clock);
        self.drain_cc_transitions();
        frame
    }

    fn std_swapin(&mut self, vp: VPage) -> FrameId {
        let file = *self.std_swap.get(&vp.seg).expect("std swap file");
        let pb = self.cfg.page_bytes as u64;
        let done = self.fs.read_bytes(
            self.clock,
            file,
            vp.page as u64 * pb,
            &mut self.page_scratch,
        );
        self.clock = done;
        self.stats.std_swapins += 1;
        let frame = self
            .pool
            .alloc(FrameOwner::Vm { tag: vp.tag() })
            .expect("ensure_free_frame must leave a frame");
        self.pool
            .data_mut(frame)
            .copy_from_slice(&self.page_scratch);
        self.vm.install(vp, frame, false, self.clock);
        frame
    }

    // ------------------------------------------------------------------
    // The three-way memory arbiter (§4.2)
    // ------------------------------------------------------------------

    fn ensure_free_frame(&mut self) {
        let mut guard = 0usize;
        while self.pool.free_frames() == 0 {
            guard += 1;
            assert!(
                guard <= 10 * self.pool.total_frames(),
                "arbiter failed to free a frame"
            );
            // Free wins first: garbage frames inside the cache.
            if let Some(c) = self.cache.as_mut() {
                if c.reclaimable_now() > 0 {
                    let mut backing = FsBacking {
                        fs: &mut self.fs,
                        file: self.cc_swap.unwrap(),
                    };
                    c.release_frame(&mut self.pool, &mut backing, &mut self.clock);
                    self.drain_cc_transitions();
                    continue;
                }
            }
            match self.pick_victim_class() {
                VictimClass::Vm => self.evict_vm_page(),
                VictimClass::FileCache => self.evict_fs_block(),
                VictimClass::CompressionCache => self.shrink_cc(),
            }
        }
    }

    /// Compare the biased ages of the oldest page of each class (§4.2:
    /// "allocation ... requires a comparison of the ages of the oldest
    /// pages for all three types. The system biases the ages to favor
    /// compressed pages over uncompressed pages and both of these over
    /// file cache blocks.").
    fn pick_victim_class(&self) -> VictimClass {
        let now = self.clock;
        let mut best: Option<(Ns, VictimClass)> = None;
        if let Some((_, t)) = self.vm.oldest_resident() {
            let eff = now.saturating_sub(t) + self.cfg.cc.vm_age_penalty;
            best = Some((eff, VictimClass::Vm));
        }
        if let Some(t) = self.file_cache.oldest_access() {
            let eff = now.saturating_sub(t) + self.cfg.cc.fs_age_penalty;
            if best.is_none_or(|(b, _)| eff > b) {
                best = Some((eff, VictimClass::FileCache));
            }
        }
        if let Some(c) = &self.cache {
            if let Some(t) = c.oldest_stamp() {
                let raw = now.saturating_sub(t);
                let eff = Ns((raw.as_ns() as f64 * self.cfg.cc.cc_age_scale) as u64);
                if best.is_none_or(|(b, _)| eff > b) {
                    best = Some((eff, VictimClass::CompressionCache));
                }
            }
        }
        best.map(|(_, v)| v)
            .expect("no evictable memory anywhere: machine too small for kernel state")
    }

    fn evict_vm_page(&mut self) {
        let (vp, frame, dirty) = self
            .vm
            .take_oldest_resident()
            .expect("arbiter chose VM but nothing resident");
        match self.cfg.mode {
            Mode::Std => {
                if dirty {
                    let file = *self.std_swap.get(&vp.seg).expect("std swap file");
                    let pb = self.cfg.page_bytes as u64;
                    // Asynchronous page-out; later reads queue behind it.
                    self.page_scratch.copy_from_slice(self.pool.data(frame));
                    let scratch = std::mem::take(&mut self.page_scratch);
                    self.fs
                        .write_bytes(self.clock, file, vp.page as u64 * pb, &scratch);
                    self.page_scratch = scratch;
                    self.stats.std_swapouts += 1;
                }
                self.vm.set_swapped(vp);
                self.pool.free(frame);
            }
            Mode::Cc => {
                let key = PageKey {
                    seg: vp.seg.0,
                    page: vp.page,
                };
                self.stats.cc_evictions += 1;
                let cache = self.cache.as_mut().expect("cc mode");
                if !dirty {
                    match cache.evict_clean(key) {
                        CleanEvictOutcome::ToCompressed => {
                            self.vm.set_compressed(vp);
                            self.pool.free(frame);
                            return;
                        }
                        CleanEvictOutcome::ToSwap => {
                            self.vm.set_swapped(vp);
                            self.pool.free(frame);
                            return;
                        }
                        CleanEvictOutcome::NeedStore => {}
                    }
                }
                // Dirty (or clean-with-no-copy): the data must be preserved.
                let skip_compression = self.adaptive_should_skip();
                self.page_scratch.copy_from_slice(self.pool.data(frame));
                self.pool.free(frame);
                let scratch = std::mem::take(&mut self.page_scratch);
                let mut backing = FsBacking {
                    fs: &mut self.fs,
                    file: self.cc_swap.unwrap(),
                };
                let cache = self.cache.as_mut().unwrap();
                let outcome = if skip_compression {
                    cache.store_raw(&mut backing, &mut self.clock, key, &scratch);
                    InsertOutcome::Rejected { compressed_len: 0 }
                } else {
                    cache.insert_evicted(
                        &mut self.pool,
                        &mut backing,
                        &mut self.clock,
                        key,
                        &scratch,
                        true,
                    )
                };
                self.adaptive_note(&outcome);
                self.page_scratch = scratch;
                match outcome {
                    InsertOutcome::Stored { .. } => self.vm.set_compressed(vp),
                    InsertOutcome::StoredToSwap { .. }
                    | InsertOutcome::Rejected { .. }
                    | InsertOutcome::CleanOnSwap => self.vm.set_swapped(vp),
                    InsertOutcome::KeptClean => self.vm.set_compressed(vp),
                }
                self.drain_cc_transitions();
            }
        }
    }

    fn evict_fs_block(&mut self) {
        let evicted = self
            .file_cache
            .evict_lru()
            .expect("arbiter chose FS but cache empty");
        if evicted.dirty {
            let bb = self.fs.block_bytes() as u64;
            let data = self.pool.data(evicted.frame).to_vec();
            self.fs
                .write_bytes(self.clock, evicted.key.file, evicted.key.block * bb, &data);
        }
        // §6 extension: retain a discardable compressed copy so a future
        // re-read decompresses instead of hitting the disk. A clean block
        // whose copy is still in the cache needs no recompression (the
        // same optimization the VM path gets from `evict_clean`).
        if self.cfg.mode == Mode::Cc && self.cfg.cc.compress_file_cache {
            let key = file_block_key(evicted.key.file, evicted.key.block);
            let cache = self.cache.as_mut().expect("cc mode");
            if !evicted.dirty && cache.contains_entry(key) {
                self.pool.free(evicted.frame);
                return;
            }
            self.page_scratch
                .copy_from_slice(self.pool.data(evicted.frame));
            self.pool.free(evicted.frame);
            let scratch = std::mem::take(&mut self.page_scratch);
            let cache = self.cache.as_mut().expect("cc mode");
            cache.insert_discardable(&mut self.pool, &mut self.clock, key, &scratch, true);
            self.page_scratch = scratch;
            return;
        }
        self.pool.free(evicted.frame);
    }

    /// Serve a file-cache miss from the compressed file cache, if the
    /// extension is on and the block is present. Allocates a frame,
    /// decompresses into it, and installs it in the buffer cache.
    fn try_fill_from_compressed_file_cache(&mut self, key: CacheBlockKey) -> Option<FrameId> {
        if self.cfg.mode != Mode::Cc || !self.cfg.cc.compress_file_cache {
            return None;
        }
        let cache = self.cache.as_mut()?;
        let ckey = file_block_key(key.file, key.block);
        let mut scratch = std::mem::take(&mut self.page_scratch);
        let hit = cache.fetch_discardable(&self.pool, &mut self.clock, ckey, &mut scratch);
        let result = if hit {
            self.stats.file_cc_hits += 1;
            let frame = self
                .pool
                .alloc(FrameOwner::FileCache {
                    tag: (key.file.0 as u64) << 32 | key.block,
                })
                .expect("ensure_free_frame must leave a frame");
            self.pool.data_mut(frame).copy_from_slice(&scratch);
            self.file_cache.insert(key, frame, self.clock, false);
            Some(frame)
        } else {
            None
        };
        self.page_scratch = scratch;
        result
    }

    fn shrink_cc(&mut self) {
        let mut backing = FsBacking {
            fs: &mut self.fs,
            file: self.cc_swap.unwrap(),
        };
        let cache = self.cache.as_mut().expect("cc mode");
        if cache
            .release_frame(&mut self.pool, &mut backing, &mut self.clock)
            .is_none()
        {
            // Cache has nothing left; take from VM instead.
            self.evict_vm_page();
            return;
        }
        self.drain_cc_transitions();
    }

    /// Background cleaner approximation: keep a pool of clean/free frames
    /// ahead of demand (§4.2's kernel thread).
    fn cleaner_tick(&mut self) {
        let Some(cache) = self.cache.as_mut() else {
            return;
        };
        // Supply of frames obtainable without new I/O: free frames, dead
        // space, and entries droppable outright (shadowed or already
        // written). The cleaner only runs when that supply is short —
        // §4.2's "pool of physical pages clean and ready for reclamation".
        let droppable_frames =
            (cache.droppable_bytes(self.clock) / self.cfg.page_bytes as u64) as usize;
        let slack = self.pool.free_frames() + cache.reclaimable_now() + droppable_frames;
        if slack < self.cfg.cc.cleaner_low_frames && cache.dirty_bytes() > 0 {
            let mut backing = FsBacking {
                fs: &mut self.fs,
                file: self.cc_swap.unwrap(),
            };
            cache.clean_batch(&mut self.pool, &mut backing, &mut self.clock);
        }
    }

    fn sample_cc_size(&mut self) {
        if let Some(c) = &self.cache {
            let frames = c.mapped_frames();
            self.stats.cc_size_samples += 1;
            self.stats.cc_size_sum += frames as u64;
            self.stats.cc_size_peak = self.stats.cc_size_peak.max(frames);
            if let Some(trace) = &mut self.size_trace {
                trace.push((self.clock, frames));
            }
        }
    }

    /// Start recording `(time, cache frames)` samples at every fault —
    /// the data behind the §4.2 dynamic-sizing exhibit.
    pub fn enable_size_trace(&mut self) {
        self.size_trace = Some(Vec::new());
    }

    /// The recorded size trace (empty unless enabled).
    pub fn size_trace(&self) -> &[(Ns, usize)] {
        self.size_trace.as_deref().unwrap_or(&[])
    }

    fn drain_cc_transitions(&mut self) {
        let Some(cache) = self.cache.as_mut() else {
            return;
        };
        for key in cache.take_moved_to_swap() {
            if key.seg & FILE_KEY_BIT != 0 {
                // Compressed file-cache blocks have no PTE; their home is
                // their file. (Discardable entries never report here, but
                // guard anyway.)
                continue;
            }
            let vp = VPage {
                seg: SegId(key.seg),
                page: key.page,
            };
            if matches!(self.vm.state(vp), PageState::Compressed) {
                self.vm.set_swapped(vp);
            }
        }
    }

    // ------------------------------------------------------------------
    // Adaptive disable (§5.2 / §6 future work, as an option)
    // ------------------------------------------------------------------

    fn adaptive_should_skip(&mut self) -> bool {
        let cfg = &self.cfg.cc;
        if cfg.adaptive_disable_after == 0 || !self.adaptive.disabled {
            return false;
        }
        self.adaptive.skipped_since_probe += 1;
        if self.adaptive.skipped_since_probe >= cfg.adaptive_reprobe {
            // Probe: try compressing this one.
            self.adaptive.skipped_since_probe = 0;
            return false;
        }
        true
    }

    fn adaptive_note(&mut self, outcome: &InsertOutcome) {
        if self.cfg.cc.adaptive_disable_after == 0 {
            return;
        }
        match outcome {
            InsertOutcome::Rejected { .. } => {
                self.adaptive.consecutive_rejects += 1;
                if self.adaptive.consecutive_rejects >= self.cfg.cc.adaptive_disable_after {
                    self.adaptive.disabled = true;
                }
            }
            InsertOutcome::Stored { .. } | InsertOutcome::StoredToSwap { .. } => {
                self.adaptive.consecutive_rejects = 0;
                self.adaptive.disabled = false;
            }
            _ => {}
        }
    }
}
