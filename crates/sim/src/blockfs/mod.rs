//! Sprite-like block file layer over a simulated disk.
//!
//! §4.3 of the paper turns on a property of the Sprite file system that
//! this module reproduces exactly:
//!
//! > *"with the exception of the last block in a file, the file system
//! > enforces transfers in multiples of a whole file system block. If part
//! > of a block is written then the file system reads the old contents and
//! > overwrites the part just written before writing the whole block back
//! > to disk. In other words, if a page were compressed from 4 Kbytes to
//! > 2 Kbytes, a 2-Kbyte write would result in a 4-Kbyte read and a
//! > 4-Kbyte write rather than only the expected 2 Kbyte write! ...
//! > a request to read 2 Kbytes within a 4-Kbyte block would result in the
//! > file system reading all 4 Kbytes"*
//!
//! [`FileSystem::write_bytes`] therefore performs a read-modify-write for
//! any partially covered block, and [`FileSystem::read_bytes`] always reads
//! whole covering blocks, with both the extra I/O and its time charged to
//! the caller. These semantics are what make the compression cache's
//! backing-store interface (fragment packing, batched 32 KB writes)
//! worthwhile, and what limit it (every page-in is a full 4 KB read).
//!
//! The module also provides the Sprite **file buffer cache** substrate
//! ([`BufferCache`]): an LRU block cache drawing frames from the shared
//! [`mem::FramePool`](crate::mem::FramePool), so the simulator can trade physical memory
//! between VM pages, file blocks, and compressed pages by comparing LRU
//! ages — the §4.2 mechanism.

mod buffer_cache;

pub use buffer_cache::{read_block_through, BufferCache, CacheBlockKey, EvictedBlock};

use crate::disk::{Completion, Disk};
use cc_util::{Ns, Slab};

/// Identifier of a file within the [`FileSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileId(pub u32);

/// I/O accounting maintained by the file layer (over and above the disk's
/// own stats): how much work the whole-block rule induced.
#[derive(Debug, Clone, Default)]
pub struct FsStats {
    /// Reads issued only to complete a partial block write (§4.3's hidden
    /// 4 KB read behind a 2 KB write).
    pub rmw_reads: u64,
    /// Bytes the caller asked to read.
    pub logical_bytes_read: u64,
    /// Bytes the caller asked to write.
    pub logical_bytes_written: u64,
    /// Bytes actually moved from disk (block-rounded).
    pub physical_bytes_read: u64,
    /// Bytes actually moved to disk (block-rounded).
    pub physical_bytes_written: u64,
}

#[derive(Debug)]
struct FileMeta {
    #[allow(dead_code)] // Names exist for debugging and reports.
    name: String,
    /// First disk block of this file's contiguous extent.
    start_block: u64,
    /// Length in blocks.
    nblocks: u64,
    /// The file's real contents (the simulation keeps actual bytes
    /// end-to-end so data integrity through swap is testable).
    data: Vec<u8>,
}

/// A file system with contiguous per-file extents on one disk.
///
/// Files are created at a fixed block size, the way Sprite swap files are
/// sized to their segment. Extents are allocated sequentially, so offsets
/// that are close within a file are close on disk (the paper's "no seek
/// necessary if the pages are close to each other in the swap file").
#[derive(Debug)]
pub struct FileSystem {
    disk: Disk,
    files: Slab<FileMeta>,
    next_block: u64,
    stats: FsStats,
}

impl FileSystem {
    /// Create a file system on `disk`.
    pub fn new(disk: Disk) -> Self {
        FileSystem {
            disk,
            files: Slab::new(),
            next_block: 0,
            stats: FsStats::default(),
        }
    }

    /// Block size in bytes (the disk's addressable unit; 4 KB throughout
    /// the paper).
    pub fn block_bytes(&self) -> usize {
        self.disk.params().block_bytes as usize
    }

    /// Accumulated file-layer statistics.
    pub fn stats(&self) -> &FsStats {
        &self.stats
    }

    /// The underlying disk (for its stats and busy timeline).
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Create a file of `nblocks` blocks; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the disk has no room for the extent.
    pub fn create(&mut self, name: &str, nblocks: u64) -> FileId {
        assert!(
            self.next_block + nblocks <= self.disk.params().blocks,
            "disk full: cannot allocate {nblocks} blocks for {name}"
        );
        let start = self.next_block;
        self.next_block += nblocks;
        let bytes = (nblocks * self.block_bytes() as u64) as usize;
        let key = self.files.insert(FileMeta {
            name: name.to_string(),
            start_block: start,
            nblocks,
            data: vec![0; bytes],
        });
        FileId(key as u32)
    }

    /// File length in bytes.
    pub fn len_bytes(&self, file: FileId) -> u64 {
        let f = &self.files[file.0 as usize];
        f.nblocks * self.block_bytes() as u64
    }

    /// Read `out.len()` bytes at `offset`, waiting for the disk.
    ///
    /// The transfer is rounded out to whole blocks (both edges), exactly as
    /// Sprite would; the returned instant is when the data is available.
    /// One contiguous disk request covers all blocks.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range access.
    pub fn read_bytes(&mut self, now: Ns, file: FileId, offset: u64, out: &mut [u8]) -> Ns {
        if out.is_empty() {
            return now;
        }
        let bb = self.block_bytes() as u64;
        let f = &self.files[file.0 as usize];
        assert!(
            offset + out.len() as u64 <= f.nblocks * bb,
            "read past EOF: {offset}+{} > {}",
            out.len(),
            f.nblocks * bb
        );
        let first = offset / bb;
        let last = (offset + out.len() as u64 - 1) / bb;
        let nblocks = (last - first + 1) as u32;
        let completion = self.disk.read(now, f.start_block + first, nblocks);
        out.copy_from_slice(&f.data[offset as usize..offset as usize + out.len()]);
        self.stats.logical_bytes_read += out.len() as u64;
        self.stats.physical_bytes_read += nblocks as u64 * bb;
        completion.done
    }

    /// Write `data` at `offset`. Returns the disk completion; the caller
    /// chooses whether to wait (page-outs normally do not).
    ///
    /// Any partially covered block costs a blocking read-modify-write: the
    /// old block is read (the caller's clock should be treated as delayed
    /// until `Completion::start` of the write — we fold the read into the
    /// disk timeline, which serializes it before the write).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range access.
    pub fn write_bytes(&mut self, now: Ns, file: FileId, offset: u64, data: &[u8]) -> Completion {
        let bb = self.block_bytes() as u64;
        assert!(!data.is_empty(), "empty write");
        let f = &self.files[file.0 as usize];
        assert!(
            offset + data.len() as u64 <= f.nblocks * bb,
            "write past EOF: {offset}+{} > {}",
            data.len(),
            f.nblocks * bb
        );
        let first = offset / bb;
        let last = (offset + data.len() as u64 - 1) / bb;
        let nblocks = (last - first + 1) as u32;
        let start_block = f.start_block + first;

        // Read-modify-write for ragged edges: Sprite reads the old block
        // before overwriting part of it.
        let leading_partial = !offset.is_multiple_of(bb);
        let trailing_partial = !(offset + data.len() as u64).is_multiple_of(bb);
        let mut t = now;
        if leading_partial {
            let c = self.disk.read(t, start_block, 1);
            t = c.done;
            self.stats.rmw_reads += 1;
            self.stats.physical_bytes_read += bb;
        }
        if trailing_partial && (last > first || !leading_partial) {
            let c = self.disk.read(t, f.start_block + last, 1);
            t = c.done;
            self.stats.rmw_reads += 1;
            self.stats.physical_bytes_read += bb;
        }

        let completion = self.disk.write(t, start_block, nblocks);
        let f = &mut self.files[file.0 as usize];
        f.data[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        self.stats.logical_bytes_written += data.len() as u64;
        self.stats.physical_bytes_written += nblocks as u64 * bb;
        completion
    }

    /// Disk block address of a file block (for locality-aware callers like
    /// the swap layout code).
    pub fn disk_block_of(&self, file: FileId, file_block: u64) -> u64 {
        let f = &self.files[file.0 as usize];
        assert!(file_block < f.nblocks, "block {file_block} past EOF");
        f.start_block + file_block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskParams;

    fn fs() -> FileSystem {
        FileSystem::new(Disk::new(DiskParams::rz57()))
    }

    #[test]
    fn create_and_roundtrip_whole_blocks() {
        let mut fs = fs();
        let f = fs.create("swap0", 16);
        assert_eq!(fs.len_bytes(f), 16 * 4096);
        let page = vec![0xA5u8; 4096];
        let w = fs.write_bytes(Ns::ZERO, f, 4096, &page);
        let mut out = vec![0u8; 4096];
        let done = fs.read_bytes(w.done, f, 4096, &mut out);
        assert_eq!(out, page);
        assert!(done > w.done);
        assert_eq!(fs.stats().rmw_reads, 0, "aligned write needs no RMW");
    }

    #[test]
    fn partial_write_costs_a_read_modify_write() {
        let mut fs = fs();
        let f = fs.create("swap0", 4);
        // The paper's example: a 2 KB write inside a 4 KB block becomes a
        // 4 KB read plus a 4 KB write.
        let half = vec![0x11u8; 2048];
        fs.write_bytes(Ns::ZERO, f, 1024, &half);
        assert_eq!(fs.stats().rmw_reads, 1);
        assert_eq!(fs.stats().physical_bytes_read, 4096);
        assert_eq!(fs.stats().physical_bytes_written, 4096);
        assert_eq!(fs.stats().logical_bytes_written, 2048);
        assert_eq!(fs.disk().stats().reads, 1);
        assert_eq!(fs.disk().stats().writes, 1);
    }

    #[test]
    fn straddling_write_rmws_both_edges() {
        let mut fs = fs();
        let f = fs.create("swap0", 4);
        // 6 KB write starting 1 KB into block 0: partial head and tail.
        let data = vec![0x22u8; 6144];
        fs.write_bytes(Ns::ZERO, f, 1024, &data);
        assert_eq!(fs.stats().rmw_reads, 2);
        assert_eq!(fs.stats().physical_bytes_written, 2 * 4096);
        // Contents must be intact around the edges.
        let mut out = vec![0u8; 2 * 4096];
        fs.read_bytes(Ns::from_secs(1), f, 0, &mut out);
        assert!(out[..1024].iter().all(|&b| b == 0));
        assert!(out[1024..1024 + 6144].iter().all(|&b| b == 0x22));
        assert!(out[1024 + 6144..].iter().all(|&b| b == 0));
    }

    #[test]
    fn small_read_moves_a_whole_block() {
        let mut fs = fs();
        let f = fs.create("swap0", 2);
        let mut out = vec![0u8; 512];
        fs.read_bytes(Ns::ZERO, f, 100, &mut out);
        assert_eq!(fs.stats().logical_bytes_read, 512);
        assert_eq!(fs.stats().physical_bytes_read, 4096);
    }

    #[test]
    fn multi_block_read_is_one_disk_request() {
        let mut fs = fs();
        let f = fs.create("swap0", 16);
        let mut out = vec![0u8; 8 * 4096];
        fs.read_bytes(Ns::ZERO, f, 0, &mut out);
        assert_eq!(fs.disk().stats().reads, 1, "one contiguous request");
        assert_eq!(fs.stats().physical_bytes_read, 8 * 4096);
    }

    #[test]
    fn files_get_disjoint_extents() {
        let mut fs = fs();
        let a = fs.create("a", 8);
        let b = fs.create("b", 8);
        assert_eq!(fs.disk_block_of(a, 0), 0);
        assert_eq!(fs.disk_block_of(b, 0), 8);
        // Writes to one file never bleed into the other.
        fs.write_bytes(Ns::ZERO, a, 0, &vec![1u8; 8 * 4096]);
        let mut out = vec![9u8; 4096];
        fs.read_bytes(Ns::from_secs(1), b, 0, &mut out);
        assert!(out.iter().all(|&x| x == 0));
    }

    #[test]
    fn write_then_read_waits_for_disk() {
        let mut fs = fs();
        let f = fs.create("swap0", 64);
        let w = fs.write_bytes(Ns::ZERO, f, 0, &vec![3u8; 32 * 4096]);
        // A read issued "immediately" completes only after the write.
        let mut out = vec![0u8; 4096];
        let done = fs.read_bytes(Ns::ZERO, f, 60 * 4096, &mut out);
        assert!(done > w.done);
    }

    #[test]
    #[should_panic(expected = "read past EOF")]
    fn read_past_eof_panics() {
        let mut fs = fs();
        let f = fs.create("tiny", 1);
        let mut out = vec![0u8; 8192];
        fs.read_bytes(Ns::ZERO, f, 0, &mut out);
    }

    #[test]
    #[should_panic(expected = "disk full")]
    fn disk_exhaustion_panics() {
        let mut fs = fs();
        fs.create("huge", 262_145);
    }
}
