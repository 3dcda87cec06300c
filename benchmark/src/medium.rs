//! A `SpillMedium` that counts: calls, bytes and busy time per operation,
//! and a span for one call in 64. The traced run passes it to
//! `CompressedStore::with_medium` over the real `FileMedium`; the
//! untraced run uses `StoreConfig::with_spill` exactly as shipped.

use crate::trace::Span;
use cc_core::SpillMedium;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Counters of one medium operation. They publish nothing but
/// themselves, so every access is `Relaxed`.
#[derive(Default)]
pub struct OpCount {
    calls: AtomicU64,
    bytes: AtomicU64,
    busy_ns: AtomicU64,
}

/// A consistent-enough copy of an [`OpCount`] (each field exact, read one
/// after another).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTotals {
    pub calls: u64,
    pub bytes: u64,
    pub busy_ns: u64,
}

impl OpTotals {
    /// What was added since `before` was read.
    pub fn since(self, before: OpTotals) -> OpTotals {
        OpTotals {
            calls: self.calls - before.calls,
            bytes: self.bytes - before.bytes,
            busy_ns: self.busy_ns - before.busy_ns,
        }
    }
}

impl OpCount {
    pub fn totals(&self) -> OpTotals {
        OpTotals {
            calls: self.calls.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }
}

/// One span per this many calls of each operation.
const SPAN_EVERY: u64 = 64;

/// Medium spans take ids from the top half of the id space, so they never
/// collide with the driver's.
const SPAN_ID_BASE: u32 = 1 << 31;

pub struct CountingMedium<M> {
    inner: M,
    epoch: Instant,
    pub read_at: OpCount,
    pub write_at: OpCount,
    pub flush: OpCount,
    pub set_len: OpCount,
    spans: Mutex<Vec<Span>>,
}

impl<M: SpillMedium> CountingMedium<M> {
    /// `epoch` is the tracer's, so both span logs share a time axis.
    pub fn new(inner: M, epoch: Instant) -> Self {
        CountingMedium {
            inner,
            epoch,
            read_at: OpCount::default(),
            write_at: OpCount::default(),
            flush: OpCount::default(),
            set_len: OpCount::default(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The background spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    fn timed<T>(
        &self,
        count: &OpCount,
        name: &'static str,
        bytes: usize,
        call: impl FnOnce(&M) -> io::Result<T>,
    ) -> io::Result<T> {
        let start = Instant::now();
        let result = call(&self.inner);
        let busy = start.elapsed().as_nanos() as u64;
        let nth = count.calls.fetch_add(1, Ordering::Relaxed);
        count.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        count.busy_ns.fetch_add(busy, Ordering::Relaxed);
        if nth.is_multiple_of(SPAN_EVERY) {
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            let mut spans = self.spans.lock().expect("span log poisoned");
            let id = SPAN_ID_BASE + spans.len() as u32;
            spans.push(Span {
                id,
                parent: 0,
                name,
                start_ns,
                end_ns: start_ns + busy,
                round: 0,
            });
        }
        result
    }
}

impl<M: SpillMedium> SpillMedium for CountingMedium<M> {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let n = buf.len();
        self.timed(&self.read_at, "medium.read_at", n, |m| {
            m.read_at(buf, offset)
        })
    }

    fn write_at(&self, data: &[u8], offset: u64) -> io::Result<()> {
        self.timed(&self.write_at, "medium.write_at", data.len(), |m| {
            m.write_at(data, offset)
        })
    }

    fn flush(&self) -> io::Result<()> {
        self.timed(&self.flush, "medium.flush", 0, |m| m.flush())
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.timed(&self.set_len, "medium.set_len", 0, |m| m.set_len(len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_core::MemMedium;

    #[test]
    fn counts_calls_bytes_and_samples_spans() {
        let m = CountingMedium::new(MemMedium::new(), Instant::now());
        for i in 0..130u64 {
            m.write_at(&[i as u8; 100], i * 100).unwrap();
        }
        let mut buf = [0u8; 50];
        m.read_at(&mut buf, 100).unwrap();
        assert_eq!(buf, [1u8; 50]);
        m.flush().unwrap();
        m.set_len(1000).unwrap();
        assert!(m.read_at(&mut buf, 990).is_err(), "errors pass through");

        let w = m.write_at.totals();
        assert_eq!((w.calls, w.bytes), (130, 13_000));
        assert_eq!(m.read_at.totals().calls, 2);
        assert_eq!(m.read_at.totals().bytes, 100);
        assert_eq!(m.flush.totals().calls, 1);
        assert_eq!(m.set_len.totals().calls, 1);

        let spans = m.spans();
        let writes = spans.iter().filter(|s| s.name == "medium.write_at").count();
        assert_eq!(writes, 3, "calls 0, 64 and 128");
        assert!(spans.iter().all(|s| s.parent == 0 && s.id >= SPAN_ID_BASE));
        let mut ids: Vec<u32> = spans.iter().map(|s| s.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), spans.len());
    }
}
