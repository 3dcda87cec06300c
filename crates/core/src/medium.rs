//! The spill medium: the store's abstraction over its backing file, plus
//! a deterministic fault injector for chaos testing and a recorder that
//! rebuilds crash images.
//!
//! §4.3's backing-store interface is the fragile seam of the design: once
//! pages leave the compression cache the fixed page↔block mapping is
//! gone, and correctness rests entirely on the location map — so the
//! medium must be allowed to *lie*. [`SpillMedium`] is the narrow
//! positioned-I/O surface the store's spill writer and readers use;
//! [`FileMedium`] is the real file, and [`FaultInjector`] wraps any
//! medium with a seeded, replayable schedule of the failures real disks
//! exhibit: transient EIO on read or write, short (torn) writes, bit-flip
//! corruption of read data, latency spikes, and scheduled write outages.
//!
//! Every fault decision is a pure function of the injector's seed and the
//! operation's global index, so a failing chaos run replays exactly by
//! seed. Explicit per-operation scripts override the probabilistic plan
//! for tests that need a fault at a precise moment.
//!
//! Power loss is the one fault that isn't per-operation: a crash cuts the
//! *byte stream* — everything written before byte N is on the platter,
//! nothing after is, and the victim process never sees an error. It is
//! not injected while the store runs. [`RecordingMedium`] logs every
//! write, flush and truncation in order, and after the run
//! [`RecordingMedium::replay`] writes the log's prefix up to any byte
//! onto a fresh medium, optionally with the torn sector scribbled: one
//! run yields the image of a crash at every byte of its stream.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cc_util::mix64;

/// Positioned I/O over the spill medium. All methods take `&self`: one
/// medium is shared by the store's background thread and every reader, and
/// implementations must be safe under that concurrency (the real file
/// uses `pread`/`pwrite`).
pub trait SpillMedium: Send + Sync + 'static {
    /// Read exactly `buf.len()` bytes at `offset`.
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()>;
    /// Write all of `data` at `offset`. A failure may leave a prefix of
    /// the data on the medium (a torn write); callers must treat the
    /// whole write as failed.
    fn write_at(&self, data: &[u8], offset: u64) -> io::Result<()>;
    /// Flush buffered writes to the medium.
    fn flush(&self) -> io::Result<()>;
    /// Truncate (or extend) the medium to `len` bytes.
    fn set_len(&self, len: u64) -> io::Result<()>;
}

/// The real spill file, using positioned I/O so concurrent readers and
/// the background thread never contend on a seek cursor.
pub struct FileMedium {
    file: File,
}

impl FileMedium {
    /// Create (truncating) the spill file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<FileMedium> {
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(FileMedium { file })
    }

    /// Open an existing spill file at `path` without truncating it —
    /// the warm-restart entry point (creates an empty file if absent).
    pub fn open(path: impl AsRef<Path>) -> io::Result<FileMedium> {
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        Ok(FileMedium { file })
    }
}

/// A shared in-memory medium: a growable byte buffer behind a mutex.
/// Clones share the same bytes, which is what crash/recovery tests need —
/// "reopen the same disk" is just another clone of the handle.
#[derive(Clone, Default)]
pub struct MemMedium {
    data: Arc<Mutex<Vec<u8>>>,
}

impl MemMedium {
    /// An empty in-memory medium.
    pub fn new() -> MemMedium {
        MemMedium::default()
    }

    /// Another handle on the same bytes.
    pub fn share(&self) -> MemMedium {
        self.clone()
    }

    /// Current size of the medium in bytes.
    pub fn len(&self) -> usize {
        self.data.lock().expect("mem medium poisoned").len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl SpillMedium for MemMedium {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let data = self.data.lock().expect("mem medium poisoned");
        let start = offset as usize;
        let end = start + buf.len();
        if end > data.len() {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "past end"));
        }
        buf.copy_from_slice(&data[start..end]);
        Ok(())
    }

    fn write_at(&self, src: &[u8], offset: u64) -> io::Result<()> {
        let mut data = self.data.lock().expect("mem medium poisoned");
        let end = offset as usize + src.len();
        if data.len() < end {
            data.resize(end, 0);
        }
        data[offset as usize..end].copy_from_slice(src);
        Ok(())
    }

    fn flush(&self) -> io::Result<()> {
        Ok(())
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.data
            .lock()
            .expect("mem medium poisoned")
            .resize(len as usize, 0);
        Ok(())
    }
}

#[cfg(unix)]
impl SpillMedium for FileMedium {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(&self.file, buf, offset)
    }

    fn write_at(&self, data: &[u8], offset: u64) -> io::Result<()> {
        std::os::unix::fs::FileExt::write_all_at(&self.file, data, offset)
    }

    fn flush(&self) -> io::Result<()> {
        // `File::flush` is a no-op for OS-buffered files; sync_data is
        // the honest durability point but costs an fsync per batch.
        // Match the previous writer's contract: hand bytes to the OS.
        Ok(())
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }
}

#[cfg(not(unix))]
impl SpillMedium for FileMedium {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = &self.file;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)
    }

    fn write_at(&self, data: &[u8], offset: u64) -> io::Result<()> {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = &self.file;
        f.seek(SeekFrom::Start(offset))?;
        f.write_all(data)
    }

    fn flush(&self) -> io::Result<()> {
        Ok(())
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }
}

/// A fault the injector can impose on one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The read fails with EIO; the medium is untouched.
    ReadError,
    /// The read "succeeds" but one bit of the returned data is flipped
    /// (the medium itself is untouched — a transient transfer error).
    ReadCorrupt,
    /// The write fails with EIO before writing anything.
    WriteError,
    /// A torn write: a prefix of the data lands, then EIO.
    ShortWrite,
    /// The operation completes normally after a latency spike.
    Delay,
}

/// A seeded, replayable fault schedule. Rates are expressed as "one in
/// N operations" (`0` disables a fault class); which operations fault is
/// a pure function of `seed` and the operation's index, so a run replays
/// exactly. `script` pins specific operation indices to specific faults
/// (taking precedence over the rates), and `write_outage` hard-fails
/// every write whose *write index* falls in the window — the tool for
/// forcing the store through its degraded-mode transition on schedule.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for the per-operation fault decisions.
    pub seed: u64,
    /// One in N reads fails with EIO.
    pub read_error_1_in: u64,
    /// One in N reads returns data with one bit flipped.
    pub read_corrupt_1_in: u64,
    /// One in N writes fails with EIO.
    pub write_error_1_in: u64,
    /// One in N writes is torn: a prefix lands, then EIO.
    pub short_write_1_in: u64,
    /// One in N operations sleeps `delay` before proceeding.
    pub delay_1_in: u64,
    /// The latency spike applied by [`Fault::Delay`].
    pub delay: Duration,
    /// Write indices (counting only writes, from 0) that hard-fail.
    pub write_outage: Option<std::ops::Range<u64>>,
    /// Explicit `(global operation index, fault)` overrides.
    pub script: Vec<(u64, Fault)>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a counting passthrough).
    pub fn quiet() -> FaultPlan {
        FaultPlan::default()
    }
}

/// Counts of faults actually injected, for test assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Reads failed with EIO.
    pub read_errors: u64,
    /// Reads returned with a flipped bit.
    pub read_corruptions: u64,
    /// Writes failed with EIO (including outage-window failures).
    pub write_errors: u64,
    /// Writes torn after a prefix.
    pub short_writes: u64,
    /// Latency spikes imposed.
    pub delays: u64,
}

impl InjectedFaults {
    /// Total faults of every class.
    pub fn total(&self) -> u64 {
        self.read_errors + self.read_corruptions + self.write_errors + self.short_writes
    }
}

/// Deterministic fault-injecting wrapper around another [`SpillMedium`].
pub struct FaultInjector<M> {
    inner: M,
    plan: FaultPlan,
    script: HashMap<u64, Fault>,
    ops: AtomicU64,
    writes: AtomicU64,
    read_errors: AtomicU64,
    read_corruptions: AtomicU64,
    write_errors: AtomicU64,
    short_writes: AtomicU64,
    delays: AtomicU64,
}

fn one_in(h: u64, n: u64) -> bool {
    n != 0 && h.is_multiple_of(n)
}

impl<M: SpillMedium> FaultInjector<M> {
    /// Wrap `inner` with `plan`.
    pub fn new(inner: M, plan: FaultPlan) -> FaultInjector<M> {
        let script = plan.script.iter().copied().collect();
        FaultInjector {
            inner,
            plan,
            script,
            ops: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            read_errors: AtomicU64::new(0),
            read_corruptions: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            short_writes: AtomicU64::new(0),
            delays: AtomicU64::new(0),
        }
    }

    /// Faults injected so far.
    pub fn injected(&self) -> InjectedFaults {
        InjectedFaults {
            read_errors: self.read_errors.load(Ordering::Relaxed),
            read_corruptions: self.read_corruptions.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            short_writes: self.short_writes.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
        }
    }

    /// Operations (reads + writes) observed so far.
    pub fn operations(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    fn decide(&self, idx: u64, read: bool) -> Option<Fault> {
        if let Some(&f) = self.script.get(&idx) {
            return Some(f);
        }
        let h = mix64(self.plan.seed ^ idx);
        // Distinct decision streams per class so rates are independent.
        if read {
            if one_in(mix64(h ^ 1), self.plan.read_error_1_in) {
                return Some(Fault::ReadError);
            }
            if one_in(mix64(h ^ 2), self.plan.read_corrupt_1_in) {
                return Some(Fault::ReadCorrupt);
            }
        } else {
            if one_in(mix64(h ^ 3), self.plan.write_error_1_in) {
                return Some(Fault::WriteError);
            }
            if one_in(mix64(h ^ 4), self.plan.short_write_1_in) {
                return Some(Fault::ShortWrite);
            }
        }
        if one_in(mix64(h ^ 5), self.plan.delay_1_in) {
            return Some(Fault::Delay);
        }
        None
    }

    fn eio(what: &str) -> io::Error {
        io::Error::other(format!("injected {what}"))
    }
}

impl<M: SpillMedium> SpillMedium for FaultInjector<M> {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let idx = self.ops.fetch_add(1, Ordering::Relaxed);
        match self.decide(idx, true) {
            Some(Fault::ReadError) => {
                self.read_errors.fetch_add(1, Ordering::Relaxed);
                Err(Self::eio("read EIO"))
            }
            Some(Fault::ReadCorrupt) => {
                self.inner.read_at(buf, offset)?;
                if !buf.is_empty() {
                    let h = mix64(self.plan.seed ^ idx ^ 0xC0_44_07);
                    let bit = h as usize % (buf.len() * 8);
                    buf[bit / 8] ^= 1 << (bit % 8);
                    self.read_corruptions.fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            }
            Some(Fault::Delay) => {
                self.delays.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.plan.delay);
                self.inner.read_at(buf, offset)
            }
            _ => self.inner.read_at(buf, offset),
        }
    }

    fn write_at(&self, data: &[u8], offset: u64) -> io::Result<()> {
        let idx = self.ops.fetch_add(1, Ordering::Relaxed);
        let widx = self.writes.fetch_add(1, Ordering::Relaxed);
        if let Some(outage) = &self.plan.write_outage {
            if outage.contains(&widx) {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                return Err(Self::eio("write outage"));
            }
        }
        match self.decide(idx, false) {
            Some(Fault::WriteError) => {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                Err(Self::eio("write EIO"))
            }
            Some(Fault::ShortWrite) => {
                // A prefix lands on the medium, then the write "fails":
                // the torn bytes are exactly what the extent checksum
                // must catch if anything ever trusts them.
                let cut = if data.len() > 1 {
                    (mix64(self.plan.seed ^ idx ^ 0x70_42) as usize % (data.len() - 1)) + 1
                } else {
                    0
                };
                if cut > 0 {
                    let _ = self.inner.write_at(&data[..cut], offset);
                }
                self.short_writes.fetch_add(1, Ordering::Relaxed);
                Err(Self::eio("short write"))
            }
            Some(Fault::Delay) => {
                self.delays.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.plan.delay);
                self.inner.write_at(data, offset)
            }
            _ => self.inner.write_at(data, offset),
        }
    }

    fn flush(&self) -> io::Result<()> {
        self.inner.flush()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
}

/// One operation a [`RecordingMedium`] passed through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recorded {
    /// `write_at(data, offset)`.
    Write {
        /// Where the write landed.
        offset: u64,
        /// What it wrote.
        data: Vec<u8>,
    },
    /// `flush()`.
    Flush,
    /// `set_len(len)`.
    SetLen(u64),
}

/// A medium that passes everything through to another [`SpillMedium`]
/// and logs every write, flush and truncation in the order they reach
/// it. Its byte stream is the writes' data end to end: a crash at byte
/// N of it is [`RecordingMedium::replay`]`(N, ..)` onto a fresh medium.
pub struct RecordingMedium {
    inner: Box<dyn SpillMedium>,
    log: Mutex<Log>,
}

#[derive(Default)]
struct Log {
    ops: Vec<Recorded>,
    /// Bytes of every write in `ops`.
    written: u64,
}

/// The sector a torn write scribbles to its end.
const SECTOR: usize = 512;

impl RecordingMedium {
    /// Record what is done to `inner`.
    pub fn new(inner: impl SpillMedium) -> RecordingMedium {
        RecordingMedium {
            inner: Box::new(inner),
            log: Mutex::default(),
        }
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Log> {
        self.log.lock().expect("recording medium poisoned")
    }

    /// Bytes written so far: the stream position of a crash now.
    pub fn position(&self) -> u64 {
        self.log().written
    }

    /// The operations recorded so far, in order.
    pub fn ops(&self) -> Vec<Recorded> {
        self.log().ops.clone()
    }

    /// Write the log's prefix up to byte `cut` of its stream onto `onto`:
    /// the image a power loss at that byte leaves. A write that straddles
    /// the cut lands only its prefix; with `tear`, the rest of the write's
    /// 512-byte sector the cut falls in lands XOR `0xA5`, a drive that
    /// scribbles the in-flight sector instead of cutting cleanly. Flushes
    /// and truncations past the cut are lost with the writes.
    pub fn replay(&self, cut: u64, tear: bool, onto: &dyn SpillMedium) -> io::Result<()> {
        let mut at = 0;
        for op in &self.log().ops {
            if at >= cut {
                break;
            }
            match op {
                Recorded::Write { offset, data } => {
                    let keep = (cut - at).min(data.len() as u64) as usize;
                    onto.write_at(&data[..keep], *offset)?;
                    let end = keep.next_multiple_of(SECTOR).min(data.len());
                    if tear && end > keep {
                        let scribble: Vec<u8> = data[keep..end].iter().map(|b| b ^ 0xA5).collect();
                        onto.write_at(&scribble, offset + keep as u64)?;
                    }
                    at += data.len() as u64;
                }
                Recorded::Flush => onto.flush()?,
                Recorded::SetLen(len) => onto.set_len(*len)?,
            }
        }
        Ok(())
    }
}

impl SpillMedium for RecordingMedium {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.inner.read_at(buf, offset)
    }

    fn write_at(&self, data: &[u8], offset: u64) -> io::Result<()> {
        let mut log = self.log();
        log.written += data.len() as u64;
        log.ops.push(Recorded::Write {
            offset,
            data: data.to_vec(),
        });
        self.inner.write_at(data, offset)
    }

    fn flush(&self) -> io::Result<()> {
        let mut log = self.log();
        log.ops.push(Recorded::Flush);
        self.inner.flush()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        let mut log = self.log();
        log.ops.push(Recorded::SetLen(len));
        self.inner.set_len(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_is_a_passthrough() {
        let m = FaultInjector::new(MemMedium::new(), FaultPlan::quiet());
        m.write_at(b"hello world", 3).unwrap();
        let mut buf = [0u8; 5];
        m.read_at(&mut buf, 3).unwrap();
        assert_eq!(&buf, b"hello");
        assert_eq!(m.injected(), InjectedFaults::default());
        assert_eq!(m.operations(), 2);
    }

    #[test]
    fn scripted_faults_fire_at_exact_indices() {
        let plan = FaultPlan {
            script: vec![(0, Fault::WriteError), (2, Fault::ReadError)],
            ..FaultPlan::default()
        };
        let m = FaultInjector::new(MemMedium::new(), plan);
        assert!(m.write_at(b"x", 0).is_err()); // op 0: scripted
        m.write_at(b"x", 0).unwrap(); // op 1: clean
        let mut b = [0u8; 1];
        assert!(m.read_at(&mut b, 0).is_err()); // op 2: scripted
        m.read_at(&mut b, 0).unwrap(); // op 3: clean
        let inj = m.injected();
        assert_eq!(inj.write_errors, 1);
        assert_eq!(inj.read_errors, 1);
    }

    #[test]
    fn write_outage_window_counts_writes_only() {
        let plan = FaultPlan {
            write_outage: Some(1..3),
            ..FaultPlan::default()
        };
        let m = FaultInjector::new(MemMedium::new(), plan);
        m.write_at(b"a", 0).unwrap(); // write 0: fine
        let mut b = [0u8; 1];
        m.read_at(&mut b, 0).unwrap(); // reads never count
        assert!(m.write_at(b"b", 0).is_err()); // write 1: outage
        assert!(m.write_at(b"c", 0).is_err()); // write 2: outage
        m.write_at(b"d", 0).unwrap(); // write 3: recovered
        assert_eq!(m.injected().write_errors, 2);
        m.read_at(&mut b, 0).unwrap();
        assert_eq!(b[0], b'd');
    }

    #[test]
    fn corruption_flips_exactly_one_bit_and_is_seed_deterministic() {
        let run = |seed| {
            let plan = FaultPlan {
                seed,
                script: vec![(1, Fault::ReadCorrupt)],
                ..FaultPlan::default()
            };
            let m = FaultInjector::new(MemMedium::new(), plan);
            m.write_at(&[0u8; 64], 0).unwrap();
            let mut buf = [0u8; 64];
            m.read_at(&mut buf, 0).unwrap();
            // Exactly one bit set across the whole buffer.
            let ones: u32 = buf.iter().map(|b| b.count_ones()).sum();
            assert_eq!(ones, 1, "one flipped bit");
            // The medium itself is untouched.
            let mut again = [0u8; 64];
            m.read_at(&mut again, 0).unwrap();
            assert_eq!(again, [0u8; 64]);
            buf
        };
        assert_eq!(run(7), run(7), "same seed, same flip");
    }

    #[test]
    fn short_write_leaves_a_prefix() {
        let plan = FaultPlan {
            script: vec![(1, Fault::ShortWrite)],
            ..FaultPlan::default()
        };
        let m = FaultInjector::new(MemMedium::new(), plan);
        m.write_at(&[0xFFu8; 32], 0).unwrap(); // op 0: clean
        assert!(m.write_at(&[0xAAu8; 32], 0).is_err()); // op 1: torn
        assert_eq!(m.injected().short_writes, 1);
        let mut buf = [0u8; 32];
        m.read_at(&mut buf, 0).unwrap();
        // Some prefix is 0xAA, the rest still 0xFF — a genuinely torn
        // extent, not an atomic all-or-nothing failure.
        let torn = buf.iter().position(|&b| b == 0xFF).unwrap_or(32);
        assert!(torn >= 1, "at least one byte landed: {buf:?}");
        assert!(buf[..torn].iter().all(|&b| b == 0xAA));
        assert!(buf[torn..].iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn probabilistic_rates_are_deterministic_by_seed() {
        let count = |seed| {
            let plan = FaultPlan {
                seed,
                read_error_1_in: 4,
                ..FaultPlan::default()
            };
            let m = FaultInjector::new(MemMedium::new(), plan);
            m.write_at(&[0u8; 8], 0).unwrap();
            let mut errs = 0;
            let mut buf = [0u8; 8];
            for _ in 0..400 {
                if m.read_at(&mut buf, 0).is_err() {
                    errs += 1;
                }
            }
            errs
        };
        let a = count(42);
        assert_eq!(a, count(42), "replay must match");
        assert!(a > 40 && a < 200, "rate ~1/4 of 400: got {a}");
    }

    #[test]
    fn crash_cut_silently_drops_everything_past_byte_n() {
        let m = RecordingMedium::new(MemMedium::new());
        m.write_at(&[0xAAu8; 8], 0).unwrap(); // bytes 0..8: land
        m.write_at(&[0xBBu8; 8], 8).unwrap(); // bytes 8..16: 2 land
        m.write_at(&[0xCCu8; 8], 16).unwrap(); // wholly past the cut
        m.flush().unwrap(); // past the cut
        m.set_len(4).unwrap(); // past the cut: must NOT shrink the platter
        assert_eq!(m.position(), 24);
        let disk = MemMedium::new();
        m.replay(10, false, &disk).unwrap();
        // Reopen the "disk": only the first 10 bytes exist.
        assert_eq!(disk.len(), 10);
        let mut buf = [0u8; 10];
        disk.read_at(&mut buf, 0).unwrap();
        assert_eq!(&buf[..8], &[0xAAu8; 8]);
        assert_eq!(&buf[8..], &[0xBBu8; 2]);
        // The whole log is what the medium underneath holds.
        let whole = MemMedium::new();
        m.replay(u64::MAX, false, &whole).unwrap();
        assert_eq!(whole.len(), 4);
    }

    #[test]
    fn a_torn_replay_scribbles_the_torn_sector() {
        let m = RecordingMedium::new(MemMedium::new());
        m.write_at(&[0x00u8; 1024], 0).unwrap();
        let disk = MemMedium::new();
        m.replay(100, true, &disk).unwrap();
        assert_eq!(disk.len(), 512, "the scribble ends with the torn sector");
        let mut buf = [0u8; 512];
        disk.read_at(&mut buf, 0).unwrap();
        assert!(buf[..100].iter().all(|&b| b == 0x00), "prefix intact");
        assert!(buf[100..].iter().all(|&b| b == 0xA5), "tail scribbled");
        // A cut on a sector boundary has nothing to scribble.
        let clean = MemMedium::new();
        m.replay(512, true, &clean).unwrap();
        assert_eq!(clean.len(), 512);
    }

    #[test]
    fn replay_cuts_at_a_recorded_byte_position() {
        let m = RecordingMedium::new(MemMedium::new());
        m.write_at(&[7u8; 33], 0).unwrap();
        let barrier = m.position();
        m.write_at(&[9u8; 19], 33).unwrap();
        let (full, cut) = (MemMedium::new(), MemMedium::new());
        m.replay(u64::MAX, false, &full).unwrap();
        m.replay(barrier, false, &cut).unwrap();
        assert_eq!(full.len(), 52);
        assert_eq!(cut.len(), 33, "the cut lands exactly at the barrier");
    }
}
