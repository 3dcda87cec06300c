//! The store against the reference model (`support::model`) on every
//! arm: tier policy (the three presets and an aggressive recency policy)
//! × codec policy × medium (memory only, a spill file, a spill file whose
//! cleaner compacts constantly, memory behind a fault injector). Every
//! arm runs the same seeded scripts, with `check_invariants()` after
//! every op: the script is single-threaded, the spill writer, the
//! deferred seals and the demote passes are not, and the checker holds
//! every shard lock, so what it sees is one instant of their work. The
//! two tier tests and the aggressive policy park the background demoter
//! instead, so a script's `Demote` ops are their only passes. A failure
//! prints its arm, its `PROPTEST_SEED` and the script up to the failing
//! op.

mod support;

use cc_compress::CodecPolicy;
use cc_core::medium::{FaultInjector, FaultPlan, MemMedium};
use cc_core::store::{CompressedStore, StoreConfig, StoreStats};
use cc_core::tier::TierPolicy;
use proptest::prelude::*;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use support::model::{self, Arm, Class::*, Mix, Mode, Model, Op, Op::*};
use support::{TempPath, AGGRESSIVE};

const PAGE: usize = 1024; // small pages keep the cases fast

const POLICIES: [(&str, TierPolicy); 4] = [
    ("compress-all", TierPolicy::COMPRESS_ALL),
    ("paper-threshold", TierPolicy::PAPER_THRESHOLD),
    ("recency", TierPolicy::RECENCY),
    ("aggressive", AGGRESSIVE),
];

/// Where the store keeps what leaves memory.
#[derive(Clone, Copy)]
enum Medium {
    /// None: an in-memory store far larger than the key space.
    Memory,
    /// A spill file under ~4 compressed pages: constant spilling.
    SpillFile,
    /// The same in 2-page batches, cleaned once a fifth of the file is
    /// dead: the cleaner relocates extents constantly.
    Cleaner,
    /// Memory behind a seeded fault injector: reads fail or come back
    /// with a flipped bit, writes fail or tear; the model is lossy.
    Faults,
}
use Medium::*;

impl Medium {
    fn name(self) -> &'static str {
        ["memory", "spill-file", "cleaner", "faults"][self as usize]
    }

    /// The store's config on this medium, spilling to `path`.
    fn config(self, path: &Path) -> StoreConfig {
        match self {
            Memory => StoreConfig::in_memory(64 << 20),
            SpillFile => StoreConfig::with_spill(4 * PAGE, path),
            Cleaner => StoreConfig::with_spill(4 * PAGE, path)
                .with_spill_batch_bytes(2 * PAGE)
                .with_gc_dead_ratio(0.2),
            Faults => StoreConfig::in_memory(8 * PAGE).with_spill_retry(3, Duration::ZERO),
        }
    }

    /// The store of `cfg` on this medium. The fault plan is seeded by the
    /// script, so a script meets the same faults on replay (as far as the
    /// background thread's reads and writes interleave the same way).
    fn open(self, cfg: StoreConfig, seed: u64) -> CompressedStore {
        let Faults = self else {
            return CompressedStore::new(cfg);
        };
        let plan = FaultPlan {
            seed,
            read_error_1_in: 61,
            read_corrupt_1_in: 43,
            write_error_1_in: 127,
            short_write_1_in: 211,
            ..FaultPlan::default()
        };
        let medium = Arc::new(FaultInjector::new(MemMedium::new(), plan));
        CompressedStore::with_medium(cfg, medium)
    }
}

/// Whether the background demoter runs on its default interval or is
/// parked, so a script's `Demote` ops are the only passes.
#[derive(Clone, Copy, PartialEq)]
enum Demoter {
    Live,
    Parked,
}
use Demoter::*;

/// The scripts' op mix: every class (text twice as often), over 64 keys,
/// so removes and gets often find a page put a few ops before.
const MIX: Mix = Mix {
    keys: 0..64,
    weights: [12, 6, 4, 1, 1],
    classes: &[Text, Text, Noise, Same, Words, Pattern],
    shared: false,
};

/// Seeds per medium; each script runs on all eight policy × codec arms.
const CASES: u64 = 12;

/// Run `ops` on one arm and check the store at rest after it; the
/// store's stats at rest.
fn run_arm(
    medium: Medium,
    demoter: Demoter,
    (policy, tier): (&'static str, TierPolicy),
    codec: CodecPolicy,
    ops: &[Op],
    seed: &str,
) -> StoreStats {
    let arm = Arm::store(policy, codec.name(), medium.name());
    let path = TempPath::new(&format!("model-{}", medium.name()));
    let mut cfg = medium
        .config(&path)
        .with_tier_policy(tier)
        .with_codec_policy(codec);
    // The aggressive policy ages a page in one op and keeps no floor:
    // a live demoter would keep spilling pages while the at-rest flush
    // runs, so that policy always runs on the script's `Demote` ops.
    if demoter == Parked || tier == AGGRESSIVE {
        cfg = cfg.with_demote_interval(Duration::from_secs(3600));
    }
    let store = medium.open(cfg, ops.len() as u64);
    let exact = !matches!(medium, Faults);
    let mut model = Model::new(if exact { Mode::Exact } else { Mode::Lossy }, PAGE);
    let ran = model.run(&mut &store, ops, &arm, seed);
    ran.and_then(|()| model.verify_all(&mut &store, &arm, seed))
        .unwrap_or_else(|e| panic!("{e}"));
    // At rest: nothing lost, nothing in flight, the cleaned file bounded
    // by the live set plus slack for segments not yet dead enough to
    // clean.
    let flushed = store.flush();
    let s = store.stats();
    let at_rest = |ok: bool, what: &str| {
        let what = format!("at rest: {what}: {s:?}");
        assert!(
            ok,
            "{}",
            model::report(&arm, seed, ops, ops.len() - 1, &what)
        );
    };
    at_rest(!exact || store.len() == model.held.len(), "other keys");
    at_rest(!exact || flushed.is_ok(), "the flush failed");
    at_rest(store.check_invariants().is_ok(), "the checker fails");
    at_rest(!exact || s.spill_inflight_bytes == 0, "bytes in flight");
    let bound = (store.len() as u64 + 8) * PAGE as u64 * 6;
    at_rest(
        !matches!(medium, Cleaner) || s.bytes_on_spill <= bound,
        "file unbounded",
    );
    store.shutdown();
    s
}

/// The same seeded scripts on every `policies` × `codecs` arm of `medium`.
fn matches_model(
    medium: Medium,
    demoter: Demoter,
    policies: &[(&'static str, TierPolicy)],
    codecs: &[CodecPolicy],
) {
    let mut ops_checked = 0;
    for (seed, s) in model::cases("store_proptest", CASES) {
        let ops = model::script(s, 50 + (s % 200) as usize, &MIX);
        for &policy in policies {
            for &codec in codecs {
                run_arm(medium, demoter, policy, codec, &ops, &seed);
                ops_checked += ops.len();
            }
        }
    }
    println!("{}: {ops_checked} ops under the checker", medium.name());
}

#[test]
fn in_memory_matches_model() {
    matches_model(Memory, Live, &POLICIES, &CodecPolicy::all());
}

// The spill-file arms are split four ways; together they are every
// policy × codec arm once.

/// The default config: the default tier policy (recency) and codec.
#[test]
fn spilling_store_matches_model() {
    matches_model(SpillFile, Live, &POLICIES[2..3], &[CodecPolicy::default()]);
}

/// The default tier policy under every other codec policy.
#[test]
fn every_codec_policy_matches_model() {
    let others: Vec<_> = CodecPolicy::all()
        .into_iter()
        .filter(|&c| c != CodecPolicy::default())
        .collect();
    matches_model(SpillFile, Live, &POLICIES[2..3], &others);
}

/// The two other presets under every codec policy, demoter parked.
#[test]
fn any_policy_matches_model() {
    matches_model(SpillFile, Parked, &POLICIES[..2], &CodecPolicy::all());
}

/// The aggressive recency policy: a script's `Demote` passes drive its
/// pages hot → warm → cold → hot.
#[test]
fn aggressive_demotion_matches_model() {
    matches_model(SpillFile, Parked, &POLICIES[3..], &CodecPolicy::all());
}

#[test]
fn gc_churn_matches_model() {
    matches_model(Cleaner, Live, &POLICIES, &CodecPolicy::all());
}

#[test]
fn faulty_medium_matches_model() {
    matches_model(Faults, Live, &POLICIES, &CodecPolicy::all());
}

/// A script the property suite once shrank a failure to (kept from the
/// crate's proptest regressions: noisy pages are noise, the rest text,
/// the seed is the version), on every arm of every medium.
#[test]
fn pinned_script_matches_model() {
    for medium in [Memory, SpillFile, Cleaner, Faults] {
        for policy in POLICIES {
            for codec in CodecPolicy::all() {
                run_arm(medium, Live, policy, codec, PINNED, "pinned");
            }
        }
    }
}

/// A script that makes the cleaner work: ~190 noise pages fill three
/// segments, removes and overwrites leave the first two mostly dead, and
/// the puts after them write the batches the cleaning steps run between.
fn cleaning_script() -> Vec<Op> {
    let put = |ops: &mut Vec<Op>, key| {
        let version = ops.len() as u64 + 1;
        ops.push(Put {
            key,
            version,
            class: Noise,
        });
    };
    let mut ops = Vec::new();
    for key in 0..192 {
        put(&mut ops, key);
    }
    for key in (0..128).step_by(2) {
        ops.push(Remove { key });
    }
    for key in (1..128).step_by(4) {
        put(&mut ops, key);
    }
    for key in 192..320 {
        put(&mut ops, key);
    }
    ops
}

/// `gc_churn_matches_model`'s file bound holds whether or not the
/// cleaner ever runs. On this script it must run on every arm, and
/// relocate survivors of the segments it takes.
#[test]
fn the_cleaner_relocates_survivors() {
    let ops = cleaning_script();
    for policy in POLICIES {
        for codec in CodecPolicy::all() {
            let s = run_arm(Cleaner, Live, policy, codec, &ops, "cleaning");
            let ran = s.gc_runs > 0 && s.gc_bytes_relocated > 0;
            assert!(
                ran,
                "{} / {}: the cleaner did not run: {s:?}",
                policy.0,
                codec.name()
            );
        }
    }
}

#[rustfmt::skip]
const PINNED: &[Op] = &[
    Get { key: 31 }, Put { key: 217, version: 60984, class: Text }, Get { key: 247 },
    Put { key: 14, version: 63609, class: Text }, Put { key: 89, version: 39821, class: Noise },
    Put { key: 96, version: 386, class: Noise }, Remove { key: 103 }, Remove { key: 0 },
    Get { key: 166 }, Get { key: 179 }, Put { key: 47, version: 53884, class: Noise },
    Put { key: 132, version: 7025, class: Noise }, Remove { key: 37 }, Get { key: 85 },
    Put { key: 213, version: 11664, class: Text }, Get { key: 87 }, Remove { key: 245 },
    Remove { key: 144 }, Remove { key: 39 }, Get { key: 182 },
    Put { key: 51, version: 62156, class: Text }, Put { key: 113, version: 17331, class: Text },
    Get { key: 156 }, Remove { key: 54 }, Remove { key: 99 }, Get { key: 19 },
    Put { key: 59, version: 12248, class: Noise }, Remove { key: 68 },
    Put { key: 187, version: 64725, class: Text }, Get { key: 43 },
    Put { key: 205, version: 33891, class: Noise }, Remove { key: 186 }, Remove { key: 198 },
    Put { key: 145, version: 54256, class: Noise }, Get { key: 128 }, Remove { key: 199 },
    Get { key: 51 }, Get { key: 220 }, Put { key: 44, version: 28717, class: Noise },
    Put { key: 87, version: 2413, class: Noise }, Remove { key: 62 }, Remove { key: 210 },
    Put { key: 210, version: 50308, class: Noise }, Get { key: 238 },
    Put { key: 103, version: 23102, class: Text }, Get { key: 203 }, Remove { key: 19 },
    Remove { key: 122 }, Remove { key: 111 }, Remove { key: 241 }, Remove { key: 35 },
    Get { key: 120 }, Put { key: 37, version: 63101, class: Noise },
    Put { key: 132, version: 12766, class: Text }, Remove { key: 189 }, Get { key: 117 },
    Put { key: 29, version: 4890, class: Text }, Put { key: 93, version: 24760, class: Text },
    Remove { key: 229 }, Put { key: 57, version: 35410, class: Text },
    Put { key: 130, version: 26662, class: Text }, Get { key: 52 }, Remove { key: 254 },
    Remove { key: 34 }, Get { key: 191 }, Get { key: 203 },
    Put { key: 36, version: 10041, class: Text }, Remove { key: 23 },
    Put { key: 223, version: 14885, class: Noise }, Remove { key: 17 }, Get { key: 137 },
    Put { key: 33, version: 36533, class: Text }, Remove { key: 93 },
    Put { key: 110, version: 53559, class: Noise }, Put { key: 85, version: 12856, class: Noise },
    Get { key: 240 }, Remove { key: 121 }, Remove { key: 76 }, Get { key: 176 },
    Put { key: 39, version: 64964, class: Noise }, Remove { key: 63 },
    Put { key: 194, version: 55003, class: Noise }, Remove { key: 66 }, Get { key: 116 },
    Get { key: 95 }, Remove { key: 91 }, Remove { key: 117 }, Remove { key: 252 }, Get { key: 85 },
    Remove { key: 101 }, Remove { key: 61 }, Get { key: 15 },
    Put { key: 108, version: 16124, class: Text }, Remove { key: 115 }, Remove { key: 119 },
    Remove { key: 3 }, Get { key: 197 }, Get { key: 138 }, Get { key: 221 }, Remove { key: 251 },
    Put { key: 207, version: 35126, class: Noise }, Remove { key: 3 }, Get { key: 6 },
    Put { key: 38, version: 5771, class: Text }, Remove { key: 95 }, Remove { key: 30 },
    Remove { key: 128 }, Get { key: 38 }, Remove { key: 250 }, Get { key: 195 }, Get { key: 190 },
    Put { key: 226, version: 3684, class: Noise }, Remove { key: 63 }, Get { key: 249 },
    Get { key: 4 }, Get { key: 41 }, Remove { key: 10 },
    Put { key: 37, version: 21255, class: Text }, Get { key: 242 }, Remove { key: 211 },
    Get { key: 45 }, Get { key: 33 }, Remove { key: 206 }, Remove { key: 150 },
    Put { key: 204, version: 56858, class: Text }, Get { key: 71 }, Remove { key: 224 },
    Put { key: 174, version: 57434, class: Text }, Get { key: 147 },
    Put { key: 78, version: 32876, class: Text }, Put { key: 93, version: 17019, class: Noise },
    Put { key: 135, version: 42592, class: Text }, Get { key: 149 }, Get { key: 192 },
    Put { key: 83, version: 31793, class: Text }, Remove { key: 117 },
    Put { key: 17, version: 5552, class: Noise }, Put { key: 172, version: 16682, class: Text },
    Remove { key: 207 }, Get { key: 233 }, Remove { key: 142 }, Remove { key: 164 },
    Remove { key: 217 }, Remove { key: 155 }, Remove { key: 178 }, Remove { key: 108 },
    Remove { key: 243 },
];

/// A failure names the arm, the seed and the op, and prints the script
/// up to that op in the form it is written in a fixed-script test.
#[test]
fn a_failure_prints_its_arm_seed_op_and_script() {
    #[rustfmt::skip]
    const SCRIPT: &[Op] = &[
        Put { key: 8, version: 1, class: Words },
        Get { key: 7 },
        Get { key: 8 },
    ];
    let store = CompressedStore::new(StoreConfig::in_memory(1 << 20));
    // Behind the model's back: its get is a phantom to the model.
    store.put(7, &Text.page(7, 1, PAGE)).unwrap();
    let arm = Arm::store("recency", "adaptive", "memory");
    let err =
        Model::new(Mode::Exact, PAGE).run(&mut &store, SCRIPT, &arm, "PROPTEST_SEED=5 case 1");
    assert_eq!(
        err.unwrap_err(),
        r#"model failure
Arm { policy: "recency", codec: "adaptive", medium: "memory", target: "store", window: 0 }
seed: PROPTEST_SEED=5 case 1
op 1: get of key 7 hit, but the model holds no page for it (no version put)
script up to op 1:
&[
    Put { key: 8, version: 1, class: Words },
    Get { key: 7 },
]"#
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same-filled detection is exact: a page is stored via the pattern
    /// path iff it is one repeated 8-byte word, and either way it
    /// round-trips. Pages are deliberately *not* word-multiples here
    /// (PAGE-3) and near-patterns flip one byte at a random offset.
    #[test]
    fn same_filled_edge_cases(
        word in any::<u64>(),
        flip in proptest::option::of(0..(PAGE - 3)),
    ) {
        const ODD: usize = PAGE - 3;
        let mut page: Vec<u8> = word.to_ne_bytes().into_iter().cycle().take(ODD).collect();
        // One flipped byte always breaks the pattern: the base is exactly
        // repeating, so the flipped word (or tail) no longer matches.
        if let Some(i) = flip {
            page[i] ^= 0x40;
        }
        let store = CompressedStore::new(StoreConfig::in_memory(64 << 20));
        store.put(1, &page).unwrap();
        store.flush().unwrap();
        let s = store.stats();
        if flip.is_some() {
            prop_assert_eq!(s.same_filled, 0, "near-pattern wrongly elided");
            prop_assert_eq!(s.compressed + s.stored_raw, 1);
        } else {
            prop_assert_eq!(s.same_filled, 1, "repeated word not detected");
            prop_assert_eq!(s.compressed + s.stored_raw, 0);
            prop_assert_eq!(s.resident_bytes, 0);
        }
        let mut out = vec![0u8; ODD];
        prop_assert!(store.get(1, &mut out).unwrap());
        prop_assert_eq!(&out, &page);
    }
}
