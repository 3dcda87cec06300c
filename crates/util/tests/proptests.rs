//! Property test of the slab against a reference model.
//!
//! The slab underpins the simulator's LRU list, page tables and file
//! table, the server's connection table and every shard's entries in the
//! store; a subtle key-reuse bug would hand one entry's slot to another.
//! This test pins the exact semantics against an ordered map and a stack
//! of vacated keys, over scripts long enough to fill three chunks: after
//! every op the slab's own checker passes, the key an insert took was the
//! last one vacated (or else the next unused one), and no live value has
//! moved, through a new chunk or a reused slot.

use std::collections::BTreeMap;

use cc_util::slab::CHUNK;
use cc_util::{Slab, SplitMix64};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The slab behaves like a map keyed by its returned keys.
    #[test]
    fn slab_matches_model(ops in proptest::collection::vec(
        prop_oneof![
            7 => any::<u64>().prop_map(Some), // insert value
            1 => Just(None),                  // remove a random live key
        ],
        3 * CHUNK..4 * CHUNK,
    )) {
        let mut slab: Slab<u64> = Slab::new();
        // Each live key's value and the address it was stored at.
        let mut model: BTreeMap<usize, (u64, *const u64)> = BTreeMap::new();
        // Vacated keys, the last on top, and the next key never used.
        let (mut vacated, mut unused) = (Vec::new(), 0);
        let mut rng = SplitMix64::new(1);
        for op in ops {
            match op {
                Some(v) => {
                    let k = slab.insert(v);
                    let want = vacated.pop().unwrap_or_else(|| {
                        unused += 1;
                        unused - 1
                    });
                    prop_assert_eq!(k, want, "not the last vacated key");
                    prop_assert!(model.insert(k, (v, &slab[k])).is_none(), "reused live key {}", k);
                }
                None => {
                    if model.is_empty() {
                        continue;
                    }
                    let nth = rng.gen_index(model.len());
                    let k = *model.keys().nth(nth).unwrap();
                    prop_assert_eq!(slab.remove(k), model.remove(&k).unwrap().0);
                    vacated.push(k);
                }
            }
            prop_assert_eq!(slab.check(), Ok(()));
            prop_assert_eq!(slab.len(), model.len());
            for (&k, &(v, at)) in &model {
                let got = slab.get(k);
                prop_assert_eq!(got.copied(), Some(v));
                prop_assert!(got.is_some_and(|g| std::ptr::eq(g, at)), "key {}'s value moved", k);
            }
        }
        prop_assert!(unused > 2 * CHUNK, "only {} slots used, under three chunks", unused);
        let slab_pairs: Vec<(usize, u64)> = slab.iter().map(|(k, &v)| (k, v)).collect();
        let model_pairs: Vec<(usize, u64)> = model.iter().map(|(&k, &(v, _))| (k, v)).collect();
        prop_assert_eq!(slab_pairs, model_pairs, "iteration is not in key order");
    }
}
