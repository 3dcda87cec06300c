//! The four workloads and the operation stream each one draws.

use crate::rng::{rank_to_key, SplitMix64, Zipf};

/// What the driver calls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// `CompressedStore` in memory, called directly.
    Store,
    /// `CompressedStore` over a real spill file, called directly.
    StoreSpill,
    /// `cc-server` (evented) over loopback, one pipelined `Client`.
    Wire,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub target: Target,
    /// Distinct keys, all prefilled; a power of two.
    pub keys: usize,
    /// `StoreConfig::memory_budget`.
    pub budget: usize,
    pub zipf_s: f64,
    /// GETs per 100 operations; the rest are PUTs of a new version.
    pub get_pct: u64,
    /// Operations in one round at the design run length
    /// ([`DESIGN_SECONDS`]), sized so a round takes about 0.15 s here.
    pub ops_per_round: u64,
    /// Times the untraced run sets up (about 3 s in all); `setup_s` is
    /// their median, the rounds run on the last.
    pub setups: usize,
}

/// The `--seconds` at which a run is [`ROUNDS`] rounds of `ops_per_round`.
/// Rounds are fixed work, not fixed time, so that the same seed always
/// attempts the same operations; `--seconds` scales the work instead.
pub const DESIGN_SECONDS: u64 = 16;

/// Rounds in a run. A run's value is read off the fast end of its rounds,
/// so they are many and short: the host's interference comes in bursts of
/// less than a second, and through a noisy minute only a short round still
/// finds a quiet stretch (README, "Evidence behind the method").
pub const ROUNDS: usize = 100;

/// `Pipeline` window of the wire workload.
pub const WINDOW: usize = 16;

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "store_hot_read",
        why: "1024 keys the tier policy keeps hot, zipf 0.99, 95% GET: hot-tier memcpys; shard lock, index, LRU and telemetry do the work, codecs almost none",
        target: Target::Store,
        keys: 1_024,
        budget: 256 << 20,
        zipf_s: 0.99,
        get_pct: 95,
        ops_per_round: 380_000,
        setups: 8,
    },
    Spec {
        name: "store_put_codec",
        why: "16384 keys in the same budget, zipf 0.6, 90% PUT of a new page version: probe plus BDI/LZRW1 compression is most of each op, GETs decompress",
        target: Target::Store,
        keys: 16_384,
        budget: 256 << 20,
        zipf_s: 0.6,
        get_pct: 10,
        ops_per_round: 20_000,
        setups: 5,
    },
    Spec {
        name: "store_spill_churn",
        why: "32768 keys against an 8 MiB budget over a real file, 50/50: every PUT evicts, GETs come back from the file, GC runs; spill writer and medium",
        target: Target::StoreSpill,
        keys: 32_768,
        budget: 8 << 20,
        zipf_s: 0.6,
        get_pct: 50,
        ops_per_round: 10_000,
        setups: 3,
    },
    Spec {
        name: "wire_pipelined",
        why: "evented cc-server over loopback, one client, window 16, 70/30: frame and proto codecs, reactor and syscalls dominate, the store barely shows",
        target: Target::Wire,
        keys: 8_192,
        budget: 256 << 20,
        zipf_s: 0.99,
        get_pct: 70,
        ops_per_round: 16_000,
        setups: 7,
    },
];

pub fn by_name(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub key: u64,
    pub is_get: bool,
}

/// The seeded operation stream of one workload, with a running hash of
/// everything it has drawn: two runs attempted the same operations iff
/// their hashes agree.
pub struct OpStream {
    rng: SplitMix64,
    zipf: Zipf,
    keys: usize,
    get_pct: u64,
    hash: u64,
}

impl OpStream {
    pub fn new(spec: &Spec, seed: u64) -> OpStream {
        assert!(spec.keys.is_power_of_two() && spec.keys <= crate::pages::MAX_KEYS);
        OpStream {
            rng: SplitMix64::new(seed),
            zipf: Zipf::new(spec.keys, spec.zipf_s),
            keys: spec.keys,
            get_pct: spec.get_pct,
            hash: 0xCBF2_9CE4_8422_2325,
        }
    }

    #[inline]
    pub fn next_op(&mut self) -> Op {
        let key = rank_to_key(self.zipf.rank(self.rng.unit_f64()), self.keys);
        let is_get = self.rng.next_u64() % 100 < self.get_pct;
        self.hash = (self.hash ^ (key << 1 | is_get as u64)).wrapping_mul(0x0100_0000_01B3);
        Op { key, is_get }
    }

    pub fn hash(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_op_stream_hash() {
        for spec in &WORKLOADS {
            let mut a = OpStream::new(spec, 42);
            let mut b = OpStream::new(spec, 42);
            let mut c = OpStream::new(spec, 43);
            for _ in 0..10_000 {
                assert_eq!(a.next_op(), b.next_op());
                c.next_op();
            }
            assert_eq!(a.hash(), b.hash());
            assert_ne!(a.hash(), c.hash());
        }
    }

    #[test]
    fn op_mix_and_key_range_match_the_spec() {
        for spec in &WORKLOADS {
            let mut s = OpStream::new(spec, 1);
            let n = 50_000;
            let mut gets = 0u64;
            for _ in 0..n {
                let op = s.next_op();
                assert!((op.key as usize) < spec.keys);
                gets += op.is_get as u64;
            }
            let share = gets as f64 * 100.0 / n as f64;
            assert!(
                (share - spec.get_pct as f64).abs() < 1.5,
                "{}: {share}",
                spec.name
            );
        }
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        for spec in &WORKLOADS {
            assert_eq!(by_name(spec.name).unwrap().name, spec.name);
            assert!(spec.why.len() <= 200);
        }
        assert!(by_name("nope").is_none());
    }
}
