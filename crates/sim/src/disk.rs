//! Virtual-time backing-store device models.
//!
//! The paper pages to a DEC RZ57 SCSI disk on a DECstation 5000/200 and
//! argues (§3, §6) that the compression cache's value is set by the ratio
//! of compression speed to backing-store bandwidth — so the device model
//! must capture the first-order costs that ratio is built from:
//!
//! - **seeks**, proportional-ish to head travel distance (two seeks per
//!   fault is what makes the unmodified `std_rw` thrasher so slow);
//! - **rotational latency**, paid whenever the head moved;
//! - **transfer time**, linear in bytes;
//! - **queueing**: the device serves one request at a time. Writes are
//!   asynchronous (the paper's cleaner is a kernel thread that overlaps
//!   cleaning with computation); reads block the faulting process and queue
//!   behind any writes already issued.
//!
//! [`Disk::read`]/[`Disk::write`] advance a private `busy_until` timeline
//! and return the request's completion time; the caller (the simulator)
//! decides whether to wait on it. This gives correct overlap semantics
//! without a discrete-event core.
//!
//! Besides the RZ57, presets are provided for the mobile-computing devices
//! the paper's introduction motivates (a slow laptop drive, paging over
//! Ethernet, and a wireless link) so the benches can sweep the
//! compression-vs-I/O axis of Figure 1 with concrete hardware points.

use cc_util::Ns;

/// Geometry and timing parameters of a backing-store device.
///
/// A "disk" with zero seek and rotation plus a fixed per-request overhead
/// models a network backing store.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskParams {
    /// Human-readable model name.
    pub name: &'static str,
    /// Device capacity in addressable blocks (see `block_bytes`).
    pub blocks: u64,
    /// Bytes per addressable block.
    pub block_bytes: u32,
    /// Sustained media transfer rate, bytes/second.
    pub transfer_bps: u64,
    /// Shortest (track-to-track) seek.
    pub seek_min: Ns,
    /// Average seek as quoted on data sheets. The model does not use its
    /// value: [`DiskParams::seek_time`] interpolates from `seek_min` to
    /// `seek_max` by √distance, and reads `seek_avg` only to tell a seeking
    /// device (non-zero) from a network link (zero). For the RZ57 that
    /// model gives ~18.2 ms at 1/3 stroke, not the quoted 14.5 ms.
    pub seek_avg: Ns,
    /// Full-stroke seek.
    pub seek_max: Ns,
    /// Spindle speed in revolutions per minute (0 = no rotation, e.g. a
    /// network link).
    pub rpm: u32,
    /// Fixed controller/protocol overhead charged on every request.
    pub per_request_overhead: Ns,
}

impl DiskParams {
    /// The DEC RZ57: the 1.0 GB 5.25" SCSI drive the paper measured
    /// against. 14.5 ms quoted average seek, 3600 RPM, ~2.2 MB/s sustained.
    pub fn rz57() -> Self {
        DiskParams {
            name: "RZ57",
            blocks: 262_144, // 1 GiB of 4 KiB blocks
            block_bytes: 4096,
            transfer_bps: 2_200_000,
            seek_min: Ns::from_ms(2),
            seek_avg: Ns::from_us(14_500),
            seek_max: Ns::from_ms(30),
            rpm: 3600,
            per_request_overhead: Ns::from_us(500),
        }
    }

    /// A small, slow mobile drive (the paper's target environment has
    /// "small, slower local disks").
    pub fn mobile_hdd() -> Self {
        DiskParams {
            name: "mobile-hdd",
            blocks: 65_536, // 256 MiB
            block_bytes: 4096,
            transfer_bps: 900_000,
            seek_min: Ns::from_ms(4),
            seek_avg: Ns::from_ms(20),
            seek_max: Ns::from_ms(40),
            rpm: 3000,
            per_request_overhead: Ns::from_ms(1),
        }
    }

    /// Paging over a 10 Mb/s Ethernet to a file server (§3 footnote 2).
    pub fn ethernet_10mbps() -> Self {
        DiskParams {
            name: "ethernet-10mbps",
            blocks: 1 << 20,
            block_bytes: 4096,
            transfer_bps: 1_100_000, // ~10 Mb/s with protocol efficiency
            seek_min: Ns::ZERO,
            seek_avg: Ns::ZERO,
            seek_max: Ns::ZERO,
            rpm: 0,
            per_request_overhead: Ns::from_ms(2), // RPC round-trip
        }
    }

    /// A slow wireless link, the motivating worst case for mobile paging.
    pub fn wireless_2mbps() -> Self {
        DiskParams {
            name: "wireless-2mbps",
            blocks: 1 << 20,
            block_bytes: 4096,
            transfer_bps: 230_000, // ~2 Mb/s radio, ~92% efficiency
            seek_min: Ns::ZERO,
            seek_avg: Ns::ZERO,
            seek_max: Ns::ZERO,
            rpm: 0,
            per_request_overhead: Ns::from_ms(5),
        }
    }

    /// One full spindle rotation.
    pub fn rotation_time(&self) -> Ns {
        if self.rpm == 0 {
            Ns::ZERO
        } else {
            Ns(60_000_000_000 / self.rpm as u64)
        }
    }

    /// Raw transfer time for `bytes`.
    pub fn transfer_time(&self, bytes: u64) -> Ns {
        Ns::for_transfer(bytes, self.transfer_bps)
    }

    /// Seek time for a head movement of `distance` blocks.
    ///
    /// Uses the standard square-root-of-distance model anchored so a full
    /// stroke costs `seek_max`. A zero-distance move is free.
    pub fn seek_time(&self, distance: u64) -> Ns {
        if distance == 0 || self.seek_avg == Ns::ZERO {
            return Ns::ZERO;
        }
        let frac = (distance as f64 / self.blocks as f64).min(1.0);
        // sqrt model: t(frac) = min + (max - min) * sqrt(frac).
        let min = self.seek_min.as_ns() as f64;
        let max = self.seek_max.as_ns() as f64;
        Ns((min + (max - min) * frac.sqrt()) as u64)
    }
}

/// Counters describing everything a [`Disk`] did.
#[derive(Debug, Clone, Default)]
pub struct DiskStats {
    /// Number of read requests.
    pub reads: u64,
    /// Number of write requests.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Requests that required a head movement.
    pub seeks: u64,
}

impl DiskStats {
    /// Total requests of both kinds.
    pub fn requests(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total bytes moved in either direction.
    pub fn bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// A single simulated device with a FIFO service timeline.
#[derive(Debug, Clone)]
pub struct Disk {
    params: DiskParams,
    /// Block the head is positioned after, i.e. the next sequential block.
    head: u64,
    /// Time at which the device finishes its last accepted request.
    busy_until: Ns,
    stats: DiskStats,
}

/// Timing of an accepted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// When the device starts servicing the request.
    pub start: Ns,
    /// When the data is fully transferred.
    pub done: Ns,
}

impl Disk {
    /// Create a device from parameters, head parked at block 0.
    pub fn new(params: DiskParams) -> Self {
        Disk {
            params,
            head: 0,
            busy_until: Ns::ZERO,
            stats: DiskStats::default(),
        }
    }

    /// The device parameters.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// When the device will next be idle.
    pub fn busy_until(&self) -> Ns {
        self.busy_until
    }

    /// Submit a read of `nblocks` starting at `block`; returns start and
    /// completion times. The caller must advance its clock to `done` before
    /// using the data (reads block the faulting process).
    ///
    /// # Panics
    ///
    /// Panics if the request is empty or runs off the end of the device.
    pub fn read(&mut self, now: Ns, block: u64, nblocks: u32) -> Completion {
        let c = self.service(now, block, nblocks);
        self.stats.reads += 1;
        self.stats.bytes_read += nblocks as u64 * self.params.block_bytes as u64;
        c
    }

    /// Submit a write of `nblocks` starting at `block`; returns start and
    /// completion times. The caller normally does *not* wait (dirty-page
    /// cleaning overlaps computation), but any subsequent request queues
    /// behind it.
    ///
    /// # Panics
    ///
    /// Panics if the request is empty or runs off the end of the device.
    pub fn write(&mut self, now: Ns, block: u64, nblocks: u32) -> Completion {
        let c = self.service(now, block, nblocks);
        self.stats.writes += 1;
        self.stats.bytes_written += nblocks as u64 * self.params.block_bytes as u64;
        c
    }

    fn service(&mut self, now: Ns, block: u64, nblocks: u32) -> Completion {
        assert!(nblocks > 0, "zero-length disk request");
        assert!(
            block + nblocks as u64 <= self.params.blocks,
            "request [{block}, +{nblocks}) beyond device end {}",
            self.params.blocks
        );
        let start = now.max(self.busy_until);
        let distance = block.abs_diff(self.head);
        let seek = self.params.seek_time(distance);
        // Rotational latency: half a rotation on average whenever the head
        // moved; sequential continuation pays nothing.
        let rot = if distance == 0 {
            Ns::ZERO
        } else {
            self.params.rotation_time() / 2
        };
        let transfer = self
            .params
            .transfer_time(nblocks as u64 * self.params.block_bytes as u64);
        let service = self.params.per_request_overhead + seek + rot + transfer;
        let done = start + service;

        if distance > 0 {
            self.stats.seeks += 1;
        }

        self.head = block + nblocks as u64;
        self.busy_until = done;
        Completion { start, done }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> Disk {
        Disk::new(DiskParams::rz57())
    }

    #[test]
    fn sequential_reads_skip_seek_and_rotation() {
        let mut d = disk();
        let c1 = d.read(Ns::ZERO, 0, 1);
        let c2 = d.read(c1.done, 1, 1);
        // Second request is sequential: service time is overhead + transfer.
        let expected = d.params().per_request_overhead + d.params().transfer_time(4096);
        assert_eq!(c2.done - c2.start, expected);
        assert_eq!(d.stats().seeks, 0, "head starts at 0; no movement needed");
    }

    #[test]
    fn random_read_pays_seek_and_rotation() {
        let mut d = disk();
        let c = d.read(Ns::ZERO, 100_000, 1);
        let service = c.done - c.start;
        assert!(service > d.params().seek_min + d.params().rotation_time() / 2);
        assert_eq!(d.stats().seeks, 1);
    }

    #[test]
    fn seek_time_is_monotone_in_distance() {
        let p = DiskParams::rz57();
        let mut last = Ns::ZERO;
        for d in [0u64, 1, 10, 1000, 100_000, 262_143] {
            let t = p.seek_time(d);
            assert!(t >= last, "seek not monotone at distance {d}");
            last = t;
        }
        assert_eq!(p.seek_time(0), Ns::ZERO);
        // Full stroke should be near seek_max.
        let full = p.seek_time(p.blocks);
        assert!(full >= p.seek_max - Ns::from_ms(1));
    }

    #[test]
    fn writes_do_not_block_but_do_queue() {
        let mut d = disk();
        let w = d.write(Ns::ZERO, 50_000, 8);
        assert!(w.done > Ns::ZERO);
        // A read issued at time zero queues behind the write.
        let r = d.read(Ns::ZERO, 50_008, 1);
        assert_eq!(r.start, w.done);
        assert!(r.done > w.done);
    }

    #[test]
    fn idle_gap_resets_start_time() {
        let mut d = disk();
        let w = d.write(Ns::ZERO, 0, 1);
        let later = w.done + Ns::from_secs(1);
        let r = d.read(later, 1, 1);
        assert_eq!(r.start, later, "idle disk must start immediately");
    }

    #[test]
    fn batched_transfer_beats_per_block_requests() {
        // One 8-block transfer vs eight 1-block transfers at scattered
        // locations: batching must win by a wide margin (the §4.3 argument
        // for writing 32 KB of fragments at once).
        let mut batched = disk();
        let b = batched.read(Ns::ZERO, 10_000, 8);

        let mut scattered = disk();
        let mut t = Ns::ZERO;
        for i in 0..8u64 {
            let c = scattered.read(t, 10_000 + i * 5000, 1);
            t = c.done;
        }
        assert!(
            (b.done - b.start) * 3 < t,
            "batched {} vs scattered {}",
            b.done - b.start,
            t
        );
    }

    #[test]
    fn network_presets_have_no_seek() {
        for p in [DiskParams::ethernet_10mbps(), DiskParams::wireless_2mbps()] {
            assert_eq!(p.seek_time(100_000), Ns::ZERO, "{}", p.name);
            assert_eq!(p.rotation_time(), Ns::ZERO, "{}", p.name);
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut d = disk();
        d.read(Ns::ZERO, 0, 4);
        d.write(Ns::from_secs(1), 99_000, 8);
        let s = d.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes_read, 4 * 4096);
        assert_eq!(s.bytes_written, 8 * 4096);
        assert_eq!(s.requests(), 2);
        assert_eq!(s.bytes(), 12 * 4096);
    }

    #[test]
    #[should_panic(expected = "beyond device end")]
    fn out_of_range_request_panics() {
        disk().read(Ns::ZERO, 262_144, 1);
    }

    #[test]
    fn rz57_random_4k_io_is_on_the_order_of_20ms() {
        // Sanity-anchor the model against the paper's regime: a random
        // 4 KB I/O on the RZ57 should cost roughly 15-30 ms, which is what
        // makes std_rw thrashing cost ~50-75 ms per fault (two I/Os).
        let mut d = disk();
        let c = d.read(Ns::ZERO, 131_072, 1); // half-stroke away
        let ms = (c.done - c.start).as_ms_f64();
        assert!((10.0..35.0).contains(&ms), "random 4K IO took {ms}ms");
    }
}
