//! The invariant checker behind [`CompressedStore::check_invariants`]:
//! the in-memory bookkeeping and the segment table recomputed from the
//! entries themselves, and every spilled extent read back against the
//! file.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::MutexGuard;

use super::core::StoreCore;
use super::extent::verify_extent;
use super::shard::{Residence, Shard};
#[cfg(doc)]
use super::CompressedStore;
use crate::medium::SpillMedium;
use crate::persist::{walk_segment, SUPERBLOCK_RESERVED};

/// Reads the file read-back makes of an extent or a summary before it
/// reports it: a read that failed or came back damaged — a faulty
/// medium's, say — is not the file's last word.
const CHECK_READS: u32 = 8;

impl StoreCore {
    pub(super) fn check_invariants(&self) -> Result<(), String> {
        let shards: Vec<MutexGuard<'_, Shard>> = self
            .shards
            .iter()
            .map(|s| s.0.lock().expect("shard poisoned"))
            .collect();
        let (mut hot, mut warm, mut spilling) = (0usize, 0usize, 0usize);
        let (mut sealing, mut sealing_bytes) = (0usize, 0usize);
        let mut extents: Vec<(u64, u64)> = Vec::new();
        // `(key, offset, len, gen, codec)` of every `Spilled` entry.
        let mut spilled = Vec::new();
        for (i, shard) in shards.iter().enumerate() {
            // Index, arena and sets agree; what is left is the bytes.
            shard.check().map_err(|e| format!("shard {i}: {e}"))?;
            for e in shard.iter() {
                match &e.residence {
                    Residence::Hot { data, .. } => hot += data.len(),
                    Residence::Memory { data, .. } => warm += data.len(),
                    // A raw page, counted hot, in neither set.
                    Residence::Sealing { data } => {
                        hot += data.len();
                        sealing += 1;
                        sealing_bytes += data.len();
                    }
                    Residence::Spilling { data, .. } => spilling += data.len(),
                    Residence::Spilled { offset, len, gen } => {
                        if !e.journaled {
                            return Err(format!("shard {i}: spilled key {} not journaled", e.key));
                        }
                        extents.push((*offset, *offset + *len as u64));
                        spilled.push((e.key, *offset, *len, *gen, e.codec));
                    }
                    Residence::SameFilled { .. } => {}
                }
            }
        }
        let gauge = |a: &AtomicUsize| a.load(Ordering::Relaxed);
        let (resident, hot_g, warm_g) = (
            gauge(&self.resident),
            gauge(&self.hot_resident),
            gauge(&self.warm_resident),
        );
        if (resident, hot_g, warm_g) != (hot + warm, hot, warm) {
            return Err(format!(
                "resident {resident} (hot {hot_g} + warm {warm_g}) but entries hold hot {hot} + warm {warm}"
            ));
        }
        // The inbox, which holds the seal queue, is a leaf lock: taken
        // after every shard's.
        let (jobs, seal_orphaned) = (self.inbox().seals.outstanding, gauge(&self.seal_orphaned));
        let bound = self.seal_bound() * gauge(&self.page_size);
        if jobs != sealing + seal_orphaned || sealing_bytes > bound {
            return Err(format!(
                "{jobs} seal jobs outstanding but {sealing} Sealing entries of {sealing_bytes} bytes (bound {bound}) and {seal_orphaned} orphaned jobs"
            ));
        }
        let (inflight, orphaned) = (gauge(&self.spill_inflight), gauge(&self.spill_orphaned));
        if inflight != spilling + orphaned {
            return Err(format!(
                "spill_inflight_bytes {inflight} but Spilling entries hold {spilling} and orphaned jobs {orphaned}"
            ));
        }
        extents.sort_unstable();
        if let Some(w) = extents.windows(2).find(|w| w[0].1 > w[1].0) {
            return Err(format!(
                "spilled extents overlap: {:?} and {:?}",
                w[0], w[1]
            ));
        }
        // The segment table is a leaf lock: taken after every shard's.
        let segments = self.segments();
        let high_water = segments.high_water();
        if let Some(last) = extents.last().filter(|e| e.1 > high_water) {
            return Err(format!(
                "spilled extent {last:?} past the segments' end at {high_water}"
            ));
        }
        if resident > self.cfg.memory_budget && self.shedding.load(Ordering::SeqCst) == 0 {
            return Err(format!(
                "resident {resident} over the budget {} with no fallback being shed",
                self.cfg.memory_budget
            ));
        }
        // The on-file identities hold whenever no publish is pending: the
        // cleaner keeps them across every step it takes.
        if spilling != 0 || orphaned != 0 {
            return Ok(());
        }
        segments.check(&extents)?;
        let geometry = (segments.seg_bytes(), segments.high_water());
        // The extents stay where they are while every shard lock is
        // held: the writer moves or frees none without one.
        drop(segments);
        match self.medium.as_deref() {
            Some(medium) => self.check_file(medium, &spilled, geometry),
            None => Ok(()),
        }
    }

    /// Read back every spilled extent `(key, offset, len, gen, codec)`
    /// from the segments `(seg_bytes, high_water)`: it must verify, and
    /// a summary in its segment must name it there. Checked last, so an
    /// error that starts with "on the file" means every in-memory
    /// identity held — the one kind a medium that silently lost writes
    /// (a simulated power cut) can cause.
    fn check_file(
        &self,
        medium: &dyn SpillMedium,
        spilled: &[(u64, u64, u32, u64, u8)],
        (seg_bytes, high_water): (u64, u64),
    ) -> Result<(), String> {
        let sb = self.persist.superblock();
        let base = SUPERBLOCK_RESERVED;
        let mut named: HashMap<u64, HashSet<(u64, u64, u64, u32)>> = HashMap::new();
        let mut buf = Vec::new();
        for &(key, offset, len, gen, codec) in spilled {
            let start = base + (offset - base) / seg_bytes * seg_bytes;
            let names = named.entry(start).or_insert_with(|| {
                let room = high_water - start;
                let (batches, _) = walk_segment(medium, start, room, &sb, CHECK_READS);
                (batches.iter())
                    .flat_map(|(at, s)| {
                        (s.records.iter()).map(move |r| (r.key, r.gen, at + r.rel as u64, r.len))
                    })
                    .collect()
            });
            if !names.contains(&(key, gen, offset, len)) {
                return Err(format!(
                    "on the file: key {key}'s extent at {offset} (gen {gen}) is named by no summary in its segment"
                ));
            }
            buf.resize(len as usize, 0);
            let ok = (0..CHECK_READS).any(|_| {
                medium.read_at(&mut buf, offset).is_ok()
                    && verify_extent(&buf, gen, codec).is_some()
            });
            if !ok {
                return Err(format!(
                    "on the file: key {key}'s extent at {offset} (gen {gen}) does not verify"
                ));
            }
        }
        Ok(())
    }
}
