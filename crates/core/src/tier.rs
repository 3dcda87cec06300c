//! Tier placement policies: hot (uncompressed-resident), warm
//! (compressed-in-memory), cold (spilled to the backing file).
//!
//! The paper trades memory between exactly two pools — uncompressed
//! pages and one compressed cache ahead of disk — using a fixed 4:3
//! benefit threshold and a biased global LRU. This module makes that
//! trade *per entry* and *online*: a [`TierPolicy`] looks at a page's
//! access recency (a generation-counter age, not wall-clock time), its
//! measured compressibility (the sampled BDI probe recorded at put
//! time), and current budget pressure, and decides where the page
//! should live right now. The store consults the policy at four points:
//!
//! - **admission** — after compressing a put, [`TierPolicy::admit`]
//!   picks hot or warm for the fresh bytes;
//! - **re-put** — [`TierPolicy::keep_hot`] lets an overwrite of a
//!   recently touched hot page skip the compressor entirely;
//! - **re-access** — [`TierPolicy::promote`] decides whether a warm or
//!   cold hit is decompressed back into the hot tier;
//! - **aging** — the background demoter uses [`TierPolicy::hot_idle`] /
//!   [`TierPolicy::warm_idle`] plus the pressure knobs to compress aged
//!   hot pages and spill aged warm pages.
//!
//! Ages are measured in store operations (every put and get bumps a
//! global clock), so policies behave identically under test, bench,
//! and replay — no timer flakiness.

use std::fmt::Debug;
use std::sync::Arc;

/// Where a freshly written page should live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierDecision {
    /// Keep the page uncompressed in memory; a get is a memcpy.
    Hot,
    /// Keep the sealed (compressed or stored-raw) bytes in memory.
    Warm,
}

/// Everything a policy may consult for one placement decision. Built by
/// the store from per-entry metadata it already tracks — policies never
/// touch the page bytes themselves.
#[derive(Debug, Clone, Copy)]
pub struct PlacementQuery {
    /// Key of the page being placed.
    pub key: u64,
    /// Uncompressed page size in bytes.
    pub page_len: usize,
    /// Sealed size in bytes (compressed form, or page size + 1 when the
    /// threshold rejected compression and the bytes are stored raw).
    pub sealed_len: usize,
    /// Whether the compression threshold admitted the compressed form.
    /// `false` means the page is effectively incompressible under the
    /// configured threshold — the probe-driven admission hint.
    pub admitted: bool,
    /// Operations since this key was last touched (`u64::MAX` for a key
    /// the store has never seen).
    pub age: u64,
    /// Gets served for this key since its last put, including the one
    /// being decided when called from the get path.
    pub gets: u32,
    /// Whether the key's previous residence was the hot tier.
    pub was_hot: bool,
    /// Current budget pressure: resident bytes as a percentage of the
    /// memory budget, saturated to 100.
    pub pressure_pct: u8,
}

/// A placement policy: the store asks it where pages should live and
/// when the background demoter should move them. Implementations must
/// be cheap — `admit`/`promote` run under the put/get hot path — and
/// stateless per call (all inputs arrive in the [`PlacementQuery`]).
pub trait TierPolicy: Send + Sync + Debug {
    /// Stable identifier used in benches and config (`kebab-case`).
    fn name(&self) -> &'static str;

    /// Tier for a freshly compressed put.
    fn admit(&self, q: &PlacementQuery) -> TierDecision;

    /// Whether an overwrite of an existing hot entry may keep the page
    /// hot *without* recompressing. Only consulted when
    /// [`TierPolicy::may_keep_hot`] is `true`.
    fn keep_hot(&self, _q: &PlacementQuery) -> bool {
        false
    }

    /// Capability flag: when `false` the put path skips the extra shard
    /// probe that `keep_hot` would need, keeping flat policies at
    /// exactly their pre-tiering cost.
    fn may_keep_hot(&self) -> bool {
        false
    }

    /// Whether a warm or cold hit should be decompressed back into the
    /// hot tier. Promotion never evicts: the store only honors it when
    /// the extra bytes fit the budget outright.
    fn promote(&self, _q: &PlacementQuery) -> bool {
        false
    }

    /// Age (in operations) past which the demoter compresses a hot
    /// page down to warm. `u64::MAX` disables hot aging.
    fn hot_idle(&self) -> u64 {
        u64::MAX
    }

    /// Age (in operations) past which the demoter spills a warm page
    /// to the cold tier. `u64::MAX` disables warm aging.
    fn warm_idle(&self) -> u64 {
        u64::MAX
    }

    /// Budget-pressure floor (percent) below which the demoter leaves
    /// hot pages alone: no point compressing when memory is plentiful.
    fn hot_demote_pressure_pct(&self) -> u8 {
        50
    }

    /// Budget-pressure floor (percent) below which the demoter leaves
    /// warm pages alone.
    fn warm_demote_pressure_pct(&self) -> u8 {
        85
    }

    /// Whether this policy needs the background demoter thread at all.
    /// Policies with both idles disabled never age anything, so the
    /// store skips spawning the thread.
    fn wants_demoter(&self) -> bool {
        self.hot_idle() != u64::MAX || self.warm_idle() != u64::MAX
    }
}

/// PR 1–8 behavior, verbatim: every admitted page lives compressed in
/// memory, nothing is ever hot, nothing is promoted, and no demoter
/// thread runs. The baseline arm for tier sweeps and the pinned policy
/// for codec-ratio benchmarks (where promotions would pollute the
/// measurement).
#[derive(Debug, Clone, Copy, Default)]
pub struct CompressAll;

impl TierPolicy for CompressAll {
    fn name(&self) -> &'static str {
        "compress-all"
    }

    fn admit(&self, _q: &PlacementQuery) -> TierDecision {
        TierDecision::Warm
    }
}

/// The paper's 4:3 rule made per-entry: a page whose compressed form
/// clears the configured benefit threshold lives compressed (warm); a
/// page that does not is kept uncompressed (hot) instead of paying
/// sealed-raw overhead for nothing. No recency, no promotion, no
/// background aging — placement is decided once, at put time, exactly
/// like the paper's admission test.
#[derive(Debug, Clone, Copy, Default)]
pub struct PaperThreshold;

impl TierPolicy for PaperThreshold {
    fn name(&self) -> &'static str {
        "paper-threshold"
    }

    fn admit(&self, q: &PlacementQuery) -> TierDecision {
        if q.admitted {
            TierDecision::Warm
        } else {
            TierDecision::Hot
        }
    }
}

/// The default adaptive policy: compressibility decides admission,
/// recency decides movement.
///
/// - Incompressible pages are admitted hot (as [`PaperThreshold`]);
///   compressible pages start warm.
/// - A warm or cold page re-accessed twice within [`promote_window`]
///   operations is promoted back to hot — unless memory pressure is
///   already past [`max_promote_pressure_pct`].
/// - An overwrite of a hot page touched within [`hot_idle`] stays hot
///   and skips the compressor.
/// - The background demoter compresses hot pages idle for
///   [`hot_idle`] operations once pressure reaches
///   [`hot_demote_pressure_pct`], and spills warm pages idle for
///   [`warm_idle`] once pressure reaches [`warm_demote_pressure_pct`].
///
/// [`promote_window`]: RecencyCompressibility::promote_window
/// [`max_promote_pressure_pct`]: RecencyCompressibility::max_promote_pressure_pct
/// [`hot_idle`]: RecencyCompressibility::hot_idle
/// [`hot_demote_pressure_pct`]: RecencyCompressibility::hot_demote_pressure_pct
/// [`warm_idle`]: RecencyCompressibility::warm_idle
/// [`warm_demote_pressure_pct`]: RecencyCompressibility::warm_demote_pressure_pct
#[derive(Debug, Clone, Copy)]
pub struct RecencyCompressibility {
    /// Hot pages idle this many operations are demoted to warm.
    pub hot_idle: u64,
    /// Warm pages idle this many operations are spilled cold.
    pub warm_idle: u64,
    /// A second access within this many operations promotes to hot.
    pub promote_window: u64,
    /// No promotions once pressure exceeds this percentage.
    pub max_promote_pressure_pct: u8,
    /// Demoter ignores hot pages below this pressure percentage.
    pub hot_demote_pressure_pct: u8,
    /// Demoter ignores warm pages below this pressure percentage.
    pub warm_demote_pressure_pct: u8,
}

impl Default for RecencyCompressibility {
    fn default() -> Self {
        RecencyCompressibility {
            hot_idle: 8192,
            warm_idle: 32768,
            promote_window: 4096,
            max_promote_pressure_pct: 90,
            hot_demote_pressure_pct: 50,
            warm_demote_pressure_pct: 85,
        }
    }
}

impl TierPolicy for RecencyCompressibility {
    fn name(&self) -> &'static str {
        "recency"
    }

    fn admit(&self, q: &PlacementQuery) -> TierDecision {
        if q.admitted {
            TierDecision::Warm
        } else {
            TierDecision::Hot
        }
    }

    fn keep_hot(&self, q: &PlacementQuery) -> bool {
        q.was_hot && q.age < self.hot_idle
    }

    fn may_keep_hot(&self) -> bool {
        true
    }

    fn promote(&self, q: &PlacementQuery) -> bool {
        q.gets >= 2 && q.age < self.promote_window && q.pressure_pct < self.max_promote_pressure_pct
    }

    fn hot_idle(&self) -> u64 {
        self.hot_idle
    }

    fn warm_idle(&self) -> u64 {
        self.warm_idle
    }

    fn hot_demote_pressure_pct(&self) -> u8 {
        self.hot_demote_pressure_pct
    }

    fn warm_demote_pressure_pct(&self) -> u8 {
        self.warm_demote_pressure_pct
    }
}

/// The default policy a store gets when none is configured.
pub fn default_policy() -> Arc<dyn TierPolicy> {
    Arc::new(RecencyCompressibility::default())
}

/// All sweepable policies at their default parameters, for benches.
pub fn all() -> Vec<Arc<dyn TierPolicy>> {
    vec![
        Arc::new(CompressAll),
        Arc::new(PaperThreshold),
        Arc::new(RecencyCompressibility::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query() -> PlacementQuery {
        PlacementQuery {
            key: 7,
            page_len: 4096,
            sealed_len: 1024,
            admitted: true,
            age: 10,
            gets: 0,
            was_hot: false,
            pressure_pct: 0,
        }
    }

    #[test]
    fn compress_all_reproduces_flat_store() {
        let p = CompressAll;
        let mut q = query();
        q.admitted = false;
        assert_eq!(p.admit(&q), TierDecision::Warm);
        q.gets = 100;
        assert!(!p.promote(&q));
        assert!(!p.keep_hot(&q) && !p.may_keep_hot());
        assert!(!p.wants_demoter());
    }

    #[test]
    fn paper_threshold_splits_on_admission_only() {
        let p = PaperThreshold;
        let mut q = query();
        assert_eq!(p.admit(&q), TierDecision::Warm);
        q.admitted = false;
        assert_eq!(p.admit(&q), TierDecision::Hot);
        q.gets = 100;
        assert!(!p.promote(&q));
        assert!(!p.wants_demoter());
    }

    #[test]
    fn recency_promotes_only_recent_reaccess_under_pressure_cap() {
        let p = RecencyCompressibility::default();
        let mut q = query();
        q.gets = 2;
        assert!(p.promote(&q));
        q.gets = 1;
        assert!(!p.promote(&q), "first get since put must not promote");
        q.gets = 2;
        q.age = p.promote_window;
        assert!(!p.promote(&q), "stale re-access must not promote");
        q.age = 10;
        q.pressure_pct = p.max_promote_pressure_pct;
        assert!(!p.promote(&q), "promotion must yield under pressure");
    }

    #[test]
    fn recency_keep_hot_respects_idle_window() {
        let p = RecencyCompressibility::default();
        let mut q = query();
        q.was_hot = true;
        q.age = p.hot_idle - 1;
        assert!(p.may_keep_hot() && p.keep_hot(&q));
        q.age = p.hot_idle;
        assert!(!p.keep_hot(&q));
        q.age = 1;
        q.was_hot = false;
        assert!(!p.keep_hot(&q), "only an existing hot entry stays hot");
        assert!(p.wants_demoter());
    }

    #[test]
    fn registry_names_round_trip() {
        let names: Vec<&str> = all().iter().map(|p| p.name()).collect();
        let mut distinct = names.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), names.len(), "{names:?}");
        assert_eq!(default_policy().name(), "recency");
    }
}
