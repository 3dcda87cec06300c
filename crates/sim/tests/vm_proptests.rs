//! Property tests of the VM page tables and resident LRU against a model.

use cc_sim::mem::FrameId;
use cc_sim::vm::{AccessResult, FaultKind, PageState, VPage, Vm};
use cc_util::Ns;
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    /// Access page (read or write); faults are serviced by installing the
    /// next free "frame".
    Access { page: u8, write: bool },
    /// Evict the LRU resident page to compressed or swapped.
    EvictOldest { to_compressed: bool },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..32, any::<bool>()).prop_map(|(page, write)| Op::Access { page, write }),
        any::<bool>().prop_map(|to_compressed| Op::EvictOldest { to_compressed }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn vm_state_machine_matches_model(ops in proptest::collection::vec(op(), 1..300)) {
        let mut vm = Vm::new();
        let seg = vm.create_segment(32);
        // Model: page -> (resident?, dirty), plus LRU order of residents.
        let mut dirty: HashMap<u8, bool> = HashMap::new();
        let mut lru: Vec<u8> = Vec::new(); // front = LRU
        let mut touched: HashMap<u8, PageState> = HashMap::new();
        let mut next_frame = 0u32;
        let mut clock = 0u64;

        for op in ops {
            clock += 1;
            match op {
                Op::Access { page, write } => {
                    let vp = VPage { seg, page: page as u32 };
                    match vm.access(vp, write, Ns(clock)) {
                        AccessResult::Hit { .. } => {
                            prop_assert!(lru.contains(&page), "hit on non-resident");
                            lru.retain(|&p| p != page);
                            lru.push(page);
                            if write {
                                dirty.insert(page, true);
                            }
                        }
                        AccessResult::Fault { kind } => {
                            // Model agreement on fault kind.
                            let expect = match touched.get(&page) {
                                None => FaultKind::ZeroFill,
                                Some(PageState::Compressed) => FaultKind::Compressed,
                                Some(PageState::Swapped) => FaultKind::Swapped,
                                Some(other) => {
                                    return Err(TestCaseError::fail(format!(
                                        "model out of sync: {other:?}"
                                    )))
                                }
                            };
                            prop_assert_eq!(kind, expect);
                            let zero_fill = matches!(kind, FaultKind::ZeroFill);
                            vm.install(vp, FrameId(next_frame), zero_fill, Ns(clock));
                            if write {
                                vm.mark_dirty(vp);
                            }
                            next_frame += 1;
                            lru.push(page);
                            dirty.insert(page, zero_fill || write);
                            touched.insert(page, PageState::Untouched); // placeholder: resident
                        }
                    }
                }
                Op::EvictOldest { to_compressed } => {
                    match vm.take_oldest_resident() {
                        Some((vp, _frame, was_dirty)) => {
                            prop_assert!(!lru.is_empty());
                            let expect_page = lru.remove(0);
                            prop_assert_eq!(vp.page as u8, expect_page, "LRU order diverged");
                            prop_assert_eq!(
                                was_dirty,
                                dirty.get(&expect_page).copied().unwrap_or(false),
                                "dirty bit diverged"
                            );
                            let new_state = if to_compressed {
                                vm.set_compressed(vp);
                                PageState::Compressed
                            } else {
                                vm.set_swapped(vp);
                                PageState::Swapped
                            };
                            touched.insert(expect_page, new_state);
                            dirty.remove(&expect_page);
                        }
                        None => prop_assert!(lru.is_empty()),
                    }
                }
            }
            prop_assert_eq!(vm.resident_count(), lru.len());
        }
        vm.check_invariants();
    }
}
