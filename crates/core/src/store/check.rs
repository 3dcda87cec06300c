//! The invariant checker behind [`CompressedStore::check_invariants`]:
//! the in-memory bookkeeping recomputed from the entries themselves.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::MutexGuard;

use super::core::StoreCore;
use super::shard::{Residence, Shard};
#[cfg(doc)]
use super::CompressedStore;

impl StoreCore {
    pub(super) fn check_invariants(&self) -> Result<(), String> {
        let shards: Vec<MutexGuard<'_, Shard>> = self
            .shards
            .iter()
            .map(|s| s.0.lock().expect("shard poisoned"))
            .collect();
        let (mut hot, mut warm, mut spilling) = (0usize, 0usize, 0usize);
        let mut extents: Vec<(u64, u64)> = Vec::new();
        for (i, shard) in shards.iter().enumerate() {
            let (mut n_hot, mut n_warm) = (0usize, 0usize);
            for (&key, e) in &shard.entries {
                if e.journaled && self.persist.is_none() {
                    return Err(format!(
                        "shard {i}: key {key} journaled on a non-persistent store"
                    ));
                }
                match &e.residence {
                    Residence::Hot { data, handle } => {
                        hot += data.len();
                        n_hot += 1;
                        if shard.lru_hot.get(*handle) != Some(&key) {
                            return Err(format!("shard {i}: hot key {key} not on the hot LRU"));
                        }
                    }
                    Residence::Memory { data, handle } => {
                        warm += data.len();
                        n_warm += 1;
                        if shard.lru.get(*handle) != Some(&key) {
                            return Err(format!("shard {i}: warm key {key} not on the warm LRU"));
                        }
                    }
                    Residence::Spilling { data, .. } => spilling += data.len(),
                    Residence::Spilled { offset, len, .. } => {
                        extents.push((*offset, *offset + *len as u64));
                    }
                    Residence::SameFilled { .. } => {}
                }
            }
            // Every Hot/Memory entry owns a distinct node of its list,
            // so equal lengths leave no room for a key of another kind.
            if shard.lru_hot.check_invariants() != n_hot || shard.lru.check_invariants() != n_warm {
                return Err(format!(
                    "shard {i}: LRU lengths hot {} warm {} but {n_hot} Hot and {n_warm} Memory entries",
                    shard.lru_hot.len(),
                    shard.lru.len()
                ));
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
        let file = self.spill_file_bytes.load(Ordering::Relaxed);
        if let Some(last) = extents.last().filter(|e| e.1 > file) {
            return Err(format!(
                "spilled extent {last:?} past the file's {file} bytes"
            ));
        }
        if resident > self.cfg.memory_budget && self.shedding.load(Ordering::SeqCst) == 0 {
            return Err(format!(
                "resident {resident} over the budget {} with no fallback being shed",
                self.cfg.memory_budget
            ));
        }
        Ok(())
    }
}
