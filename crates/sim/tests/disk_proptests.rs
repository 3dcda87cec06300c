//! Property tests of the disk timeline model.

use cc_sim::disk::{Disk, DiskParams};
use cc_util::Ns;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Req {
    read: bool,
    block: u64,
    nblocks: u8,
    gap_us: u32,
}

fn req(max_block: u64) -> impl Strategy<Value = Req> {
    (any::<bool>(), 0..max_block, 1u8..16, 0u32..50_000).prop_map(
        |(read, block, nblocks, gap_us)| Req {
            read,
            block,
            nblocks,
            gap_us,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The device timeline is consistent: requests never overlap, never
    /// start before submission, completions are monotone, and the stats
    /// balance with the request stream.
    #[test]
    fn timeline_is_consistent(reqs in proptest::collection::vec(req(262_000), 1..100)) {
        let params = DiskParams::rz57();
        let mut disk = Disk::new(params.clone());
        let mut now = Ns::ZERO;
        let mut last_done = Ns::ZERO;
        let mut bytes = 0u64;
        for r in &reqs {
            now += Ns::from_us(r.gap_us as u64);
            let nb = r.nblocks.clamp(1, 8) as u32;
            let block = r.block.min(params.blocks - nb as u64);
            let c = if r.read {
                disk.read(now, block, nb)
            } else {
                disk.write(now, block, nb)
            };
            prop_assert!(c.start >= now, "started before submission");
            prop_assert!(c.start >= last_done, "overlapping service");
            prop_assert!(c.done > c.start, "zero-time service");
            // Service time is at least the raw transfer time.
            let min_service = params.transfer_time(nb as u64 * params.block_bytes as u64)
                + params.per_request_overhead;
            prop_assert!(c.done - c.start >= min_service);
            last_done = c.done;
            bytes += nb as u64 * params.block_bytes as u64;
        }
        let s = disk.stats();
        prop_assert_eq!(s.requests(), reqs.len() as u64);
        prop_assert_eq!(s.bytes(), bytes);
        prop_assert!(s.seeks <= s.requests());
        prop_assert_eq!(disk.busy_until(), last_done);
    }

    /// Sequential streams never seek after the first positioning request.
    #[test]
    fn sequential_stream_has_at_most_one_seek(start in 0u64..100_000, n in 1u32..60) {
        let mut disk = Disk::new(DiskParams::rz57());
        let mut now = Ns::ZERO;
        for i in 0..n as u64 {
            let c = disk.read(now, start + i, 1);
            now = c.done;
        }
        prop_assert!(disk.stats().seeks <= 1, "seeks: {}", disk.stats().seeks);
    }
}
