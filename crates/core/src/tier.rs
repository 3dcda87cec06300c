//! Tier placement: hot (uncompressed-resident), warm
//! (compressed-in-memory), cold (spilled to the backing file).
//!
//! The paper trades memory between exactly two pools — uncompressed
//! pages and one compressed cache ahead of disk — using a fixed 4:3
//! benefit threshold and a biased global LRU. This module makes that
//! trade *per entry* and *online*: a [`TierPolicy`] is one set of
//! parameters over a page's access recency (a generation-counter age,
//! not wall-clock time), its measured compressibility (the threshold's
//! verdict at put time), and current budget pressure. The store asks it
//! three placement questions, and its background demoter reads its
//! aging fields:
//!
//! - **admission** — after compressing a put, [`TierPolicy::admit_hot`]
//!   picks hot or warm for the fresh bytes;
//! - **re-put** — [`TierPolicy::keep_hot`] lets an overwrite of a
//!   recently touched hot page skip the compressor entirely;
//! - **re-access** — [`TierPolicy::promote`] decides whether a warm or
//!   cold hit is decompressed back into the hot tier;
//! - **aging** — the demoter compresses hot pages idle for
//!   [`TierPolicy::hot_idle`] and spills warm pages idle for
//!   [`TierPolicy::warm_idle`], each above its pressure floor.
//!
//! Ages are measured in store operations (every put and get bumps a
//! global clock), so a policy behaves identically under test, bench,
//! and replay — no timer flakiness.

/// Where pages live and when they move: three placement rules and the
/// demoter's aging parameters, all plain values.
///
/// The three presets are points of this one rule:
/// [`COMPRESS_ALL`](TierPolicy::COMPRESS_ALL) is the flat store,
/// [`PAPER_THRESHOLD`](TierPolicy::PAPER_THRESHOLD) adds the paper's
/// 4:3 split at put time, and [`RECENCY`](TierPolicy::RECENCY) (the
/// default) adds recency windows and pressure floors.
///
/// - A page the threshold rejects is admitted hot when
///   [`rejects_hot`](TierPolicy::rejects_hot); any other page starts
///   warm.
/// - An overwrite of a hot page touched within
///   [`hot_idle`](TierPolicy::hot_idle) operations stays hot and skips
///   the compressor. `hot_idle == u64::MAX` turns this off, and with it
///   the extra shard probe the put path would need.
/// - A warm or cold page re-accessed twice within
///   [`promote_window`](TierPolicy::promote_window) operations is
///   promoted back to hot, unless pressure has reached
///   [`max_promote_pressure_pct`](TierPolicy::max_promote_pressure_pct).
///   Promotion never evicts: the store only honors it when the extra
///   bytes fit the budget outright.
/// - The background demoter compresses hot pages idle for `hot_idle`
///   operations once pressure reaches
///   [`hot_demote_pressure_pct`](TierPolicy::hot_demote_pressure_pct),
///   and spills warm pages idle for [`warm_idle`](TierPolicy::warm_idle)
///   once pressure reaches
///   [`warm_demote_pressure_pct`](TierPolicy::warm_demote_pressure_pct).
///   A `u64::MAX` idle disables that sweep; with both disabled the store
///   runs no demote pass, and no thread at all without a spill file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierPolicy {
    /// A page the compression threshold rejects is kept hot instead of
    /// being stored raw in the warm tier.
    pub rejects_hot: bool,
    /// Hot pages idle this many operations are demoted to warm; a
    /// re-put within it keeps a hot page hot. `u64::MAX` disables both.
    pub hot_idle: u64,
    /// Warm pages idle this many operations are spilled cold.
    /// `u64::MAX` disables warm aging.
    pub warm_idle: u64,
    /// A second access within this many operations promotes to hot.
    pub promote_window: u64,
    /// No promotions once pressure reaches this percentage.
    pub max_promote_pressure_pct: u8,
    /// Demoter ignores hot pages below this pressure percentage.
    pub hot_demote_pressure_pct: u8,
    /// Demoter ignores warm pages below this pressure percentage.
    pub warm_demote_pressure_pct: u8,
}

impl TierPolicy {
    /// Compressibility decides admission, recency decides movement.
    pub const RECENCY: TierPolicy = TierPolicy {
        rejects_hot: true,
        hot_idle: 8192,
        warm_idle: 32768,
        promote_window: 4096,
        max_promote_pressure_pct: 90,
        hot_demote_pressure_pct: 50,
        warm_demote_pressure_pct: 85,
    };

    /// Every admitted page lives compressed in memory, nothing is ever
    /// hot, nothing is promoted, and no demote pass runs: the flat
    /// store. The baseline arm for tier sweeps and the pinned policy for
    /// codec-ratio measurements (where promotions would pollute them).
    pub const COMPRESS_ALL: TierPolicy = TierPolicy {
        rejects_hot: false,
        hot_idle: u64::MAX,
        warm_idle: u64::MAX,
        promote_window: 0,
        ..TierPolicy::RECENCY
    };

    /// The paper's 4:3 rule made per-entry: a page whose compressed form
    /// clears the threshold lives warm, one that does not is kept hot
    /// instead of paying sealed-raw overhead for nothing. Placement is
    /// decided once, at put time, like the paper's admission test.
    pub const PAPER_THRESHOLD: TierPolicy = TierPolicy {
        rejects_hot: true,
        ..TierPolicy::COMPRESS_ALL
    };

    /// Whether a freshly compressed put is placed hot; `admitted` is the
    /// compression threshold's verdict.
    pub fn admit_hot(&self, admitted: bool) -> bool {
        self.rejects_hot && !admitted
    }

    /// Whether a re-put may keep a hot page hot at all. When `false` the
    /// put path skips the shard probe [`TierPolicy::keep_hot`] needs.
    pub fn may_keep_hot(&self) -> bool {
        self.hot_idle != u64::MAX
    }

    /// Whether an overwrite of a hot page last touched `age` operations
    /// ago stays hot without recompressing. Only consulted when
    /// [`TierPolicy::may_keep_hot`] holds.
    pub fn keep_hot(&self, age: u64) -> bool {
        age < self.hot_idle
    }

    /// Whether a warm or cold hit is promoted to hot: `gets` counts the
    /// gets since the last put including this one, `age` is the gap this
    /// get closed. `pressure_pct` is read only when the first two tests
    /// pass.
    pub fn promote(&self, gets: u32, age: u64, pressure_pct: impl FnOnce() -> u8) -> bool {
        gets >= 2 && age < self.promote_window && pressure_pct() < self.max_promote_pressure_pct
    }

    /// Whether the store runs demote passes at all (and so a background
    /// thread, spill file or not).
    pub fn wants_demoter(&self) -> bool {
        self.hot_idle != u64::MAX || self.warm_idle != u64::MAX
    }
}

impl Default for TierPolicy {
    fn default() -> Self {
        TierPolicy::RECENCY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compress_all_reproduces_flat_store() {
        let p = TierPolicy::COMPRESS_ALL;
        assert!(!p.admit_hot(false) && !p.admit_hot(true));
        assert!(!p.promote(100, 0, || 0));
        assert!(!p.may_keep_hot());
        assert!(!p.wants_demoter());
    }

    #[test]
    fn paper_threshold_splits_on_admission_only() {
        let p = TierPolicy::PAPER_THRESHOLD;
        assert!(!p.admit_hot(true));
        assert!(p.admit_hot(false));
        assert!(!p.promote(100, 0, || 0));
        assert!(!p.may_keep_hot(), "a re-put must reach admission again");
        assert!(!p.wants_demoter());
    }

    #[test]
    fn recency_promotes_only_recent_reaccess_under_pressure_cap() {
        let p = TierPolicy::RECENCY;
        assert_eq!(p, TierPolicy::default());
        assert!(p.admit_hot(false) && !p.admit_hot(true));
        assert!(p.promote(2, 10, || 0));
        assert!(
            !p.promote(1, 10, || 0),
            "first get since put must not promote"
        );
        assert!(
            !p.promote(2, p.promote_window, || 0),
            "stale re-access must not promote"
        );
        assert!(
            !p.promote(2, 10, || p.max_promote_pressure_pct),
            "promotion must yield under pressure"
        );
        assert!(
            !p.promote(1, 10, || unreachable!(
                "pressure read before the cheap tests"
            )),
            "pressure is read last"
        );
    }

    #[test]
    fn recency_keep_hot_respects_idle_window() {
        let p = TierPolicy::RECENCY;
        assert!(p.may_keep_hot());
        assert!(p.keep_hot(p.hot_idle - 1));
        assert!(!p.keep_hot(p.hot_idle));
        assert!(p.wants_demoter());
    }
}
