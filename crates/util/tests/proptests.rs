//! Property test of the slab against a reference model.
//!
//! The slab underpins the simulator's LRU list and page tables and the
//! server's connection table; a subtle key-reuse bug would hand one
//! entry's slot to another. This test pins the exact semantics against a
//! `HashMap`.

use cc_util::{Slab, SplitMix64};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The slab behaves like a HashMap keyed by its returned keys.
    #[test]
    fn slab_matches_model(ops in proptest::collection::vec(
        prop_oneof![
            any::<u64>().prop_map(Some),   // insert value
            Just(None),                    // remove a random live key
        ],
        1..200,
    )) {
        let mut slab: Slab<u64> = Slab::new();
        let mut model: std::collections::HashMap<usize, u64> = Default::default();
        let mut rng = SplitMix64::new(1);
        for op in ops {
            match op {
                Some(v) => {
                    let k = slab.insert(v);
                    prop_assert!(!model.contains_key(&k), "slab reused a live key");
                    model.insert(k, v);
                }
                None => {
                    if model.is_empty() {
                        continue;
                    }
                    let keys: Vec<usize> = model.keys().copied().collect();
                    let k = keys[rng.gen_index(keys.len())];
                    let expect = model.remove(&k).unwrap();
                    prop_assert_eq!(slab.remove(k), expect);
                }
            }
            prop_assert_eq!(slab.len(), model.len());
            for (&k, &v) in &model {
                prop_assert_eq!(slab.get(k).copied(), Some(v));
            }
        }
    }
}
