//! Property test of the LRU list against a `VecDeque` model.
//!
//! The list keeps the VM resident set and the buffer cache in exact LRU
//! order; a subtle linking bug would surface as wrong eviction *order* —
//! data would stay intact while every performance result silently skewed.

use cc_sim::lru::{LruHandle, LruList};
use proptest::prelude::*;
use std::collections::VecDeque;

#[derive(Debug, Clone)]
enum LruOp {
    Push(u32),
    Touch(usize),
    Remove(usize),
    PopLru,
}

fn lru_op() -> impl Strategy<Value = LruOp> {
    prop_oneof![
        any::<u32>().prop_map(LruOp::Push),
        (0usize..64).prop_map(LruOp::Touch),
        (0usize..64).prop_map(LruOp::Remove),
        Just(LruOp::PopLru),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The LRU list behaves exactly like a VecDeque model (front = MRU).
    #[test]
    fn lru_matches_model(ops in proptest::collection::vec(lru_op(), 1..200)) {
        let mut lru: LruList<u32> = LruList::new();
        let mut handles: Vec<LruHandle> = Vec::new();
        // Model: deque of (handle index, value), front = most recent.
        let mut model: VecDeque<(usize, u32)> = VecDeque::new();

        for op in ops {
            match op {
                LruOp::Push(v) => {
                    let h = lru.push_mru(v);
                    handles.push(h);
                    model.push_front((handles.len() - 1, v));
                }
                LruOp::Touch(i) => {
                    if let Some(pos) = model.iter().position(|&(hi, _)| hi == i) {
                        let item = model.remove(pos).unwrap();
                        model.push_front(item);
                        lru.touch(handles[i]);
                    }
                }
                LruOp::Remove(i) => {
                    if let Some(pos) = model.iter().position(|&(hi, _)| hi == i) {
                        let (_, v) = model.remove(pos).unwrap();
                        let got = lru.remove(handles[i]);
                        prop_assert_eq!(got, v);
                    }
                }
                LruOp::PopLru => {
                    let expect = model.pop_back().map(|(_, v)| v);
                    prop_assert_eq!(lru.pop_lru(), expect);
                }
            }
            prop_assert_eq!(lru.len(), model.len());
            lru.check_invariants();
        }
        // Full eviction order must match.
        let mut order = Vec::new();
        while let Some(v) = lru.pop_lru() {
            order.push(v);
        }
        let expect: Vec<u32> = model.iter().rev().map(|&(_, v)| v).collect();
        prop_assert_eq!(order, expect);
    }
}
