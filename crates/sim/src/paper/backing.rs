//! The cache's view of the backing store.
//!
//! The cache reads and writes byte ranges of one flat swap area; the
//! simulator implements this trait over [`FileSystem`](crate::blockfs::FileSystem) (which
//! enforces whole-block transfers and charges disk time), while unit tests
//! use [`MemBacking`], an in-memory implementation with a trivial cost
//! model, so the cache mechanism can be tested in isolation.

use crate::disk::Completion;
use cc_util::Ns;

/// Byte-addressed backing storage with virtual-time costs.
pub trait BackingStore {
    /// Write `data` at `offset`. Returns when the device accepted and when
    /// it will finish; the caller does not wait, but must not reuse the
    /// memory backing an entry until `done`.
    fn write(&mut self, now: Ns, offset: u64, data: &[u8]) -> Completion;

    /// Read into `out` from `offset`, blocking until the data is
    /// available; returns the completion instant.
    fn read(&mut self, now: Ns, offset: u64, out: &mut [u8]) -> Ns;

    /// Total capacity in bytes.
    fn capacity(&self) -> u64;
}

/// In-memory backing store for tests: fixed per-request latency plus a
/// bandwidth term, FIFO-serialized like a real device.
#[derive(Debug, Clone)]
pub struct MemBacking {
    data: Vec<u8>,
    /// Fixed cost per request.
    pub latency: Ns,
    /// Transfer bandwidth in bytes/sec.
    pub bandwidth: u64,
    busy_until: Ns,
    /// Number of writes accepted.
    pub writes: u64,
    /// Number of reads served.
    pub reads: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Bytes read.
    pub bytes_read: u64,
}

impl MemBacking {
    /// A store of `capacity` bytes with the given costs.
    pub fn new(capacity: usize, latency: Ns, bandwidth: u64) -> Self {
        MemBacking {
            data: vec![0; capacity],
            latency,
            bandwidth,
            busy_until: Ns::ZERO,
            writes: 0,
            reads: 0,
            bytes_written: 0,
            bytes_read: 0,
        }
    }

    /// A fast store for mechanism-only tests (1 µs latency, 100 MB/s).
    pub fn fast(capacity: usize) -> Self {
        Self::new(capacity, Ns::from_us(1), 100_000_000)
    }
}

impl BackingStore for MemBacking {
    fn write(&mut self, now: Ns, offset: u64, data: &[u8]) -> Completion {
        let start = now.max(self.busy_until);
        let done = start + self.latency + Ns::for_transfer(data.len() as u64, self.bandwidth);
        self.data[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        self.busy_until = done;
        self.writes += 1;
        self.bytes_written += data.len() as u64;
        Completion { start, done }
    }

    fn read(&mut self, now: Ns, offset: u64, out: &mut [u8]) -> Ns {
        let start = now.max(self.busy_until);
        let done = start + self.latency + Ns::for_transfer(out.len() as u64, self.bandwidth);
        out.copy_from_slice(&self.data[offset as usize..offset as usize + out.len()]);
        self.busy_until = done;
        self.reads += 1;
        self.bytes_read += out.len() as u64;
        done
    }

    fn capacity(&self) -> u64 {
        self.data.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_roundtrips() {
        let mut b = MemBacking::fast(1024);
        let w = b.write(Ns::ZERO, 100, &[1, 2, 3]);
        let mut out = [0u8; 3];
        let done = b.read(w.done, 100, &mut out);
        assert_eq!(out, [1, 2, 3]);
        assert!(done > w.done);
    }

    #[test]
    fn requests_serialize() {
        let mut b = MemBacking::new(4096, Ns::from_ms(1), 1_000_000);
        let w1 = b.write(Ns::ZERO, 0, &[0u8; 1000]);
        let w2 = b.write(Ns::ZERO, 1000, &[0u8; 1000]);
        assert_eq!(w2.start, w1.done);
        let mut buf = [0u8; 8];
        let r = b.read(Ns::ZERO, 0, &mut buf);
        assert!(r > w2.done);
        assert_eq!(b.writes, 2);
        assert_eq!(b.reads, 1);
    }
}
