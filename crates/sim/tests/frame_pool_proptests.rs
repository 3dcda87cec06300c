//! Property test of the frame pool against a `HashMap` model: random
//! alloc / free / write / zero / read sequences, with the per-owner counts,
//! the free count and every frame's bytes checked after each step.

use cc_sim::mem::{FrameId, FrameOwner, FramePool};
use proptest::prelude::*;
use std::collections::HashMap;

const FRAMES: usize = 12;
const PAGE: usize = 64;

#[derive(Debug, Clone)]
enum Op {
    /// Allocate for owner class `class % 3` with `tag`.
    Alloc { class: u8, tag: u64 },
    /// Free the `i % live`-th live frame.
    Free(usize),
    /// Fill `len` bytes at `off` of the `i % live`-th live frame.
    Write {
        i: usize,
        off: u8,
        len: u8,
        byte: u8,
    },
    /// Zero the `i % live`-th live frame.
    Zero(usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..3, any::<u64>()).prop_map(|(class, tag)| Op::Alloc { class, tag }),
        2 => any::<usize>().prop_map(Op::Free),
        3 => (any::<usize>(), 0u8..PAGE as u8, 1u8..PAGE as u8, any::<u8>())
            .prop_map(|(i, off, len, byte)| Op::Write { i, off, len, byte }),
        1 => any::<usize>().prop_map(Op::Zero),
    ]
}

fn owner(class: u8, tag: u64) -> FrameOwner {
    match class % 3 {
        0 => FrameOwner::Vm { tag },
        1 => FrameOwner::FileCache { tag },
        _ => FrameOwner::CompressionCache { tag },
    }
}

/// The `i % live`-th live frame, in a stable order.
fn pick(live: &HashMap<FrameId, u8>, i: usize) -> Option<FrameId> {
    let mut ids: Vec<FrameId> = live.keys().copied().collect();
    ids.sort();
    (!ids.is_empty()).then(|| ids[i % ids.len()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn frame_pool_matches_model(ops in proptest::collection::vec(op(), 1..200)) {
        let mut pool = FramePool::new(FRAMES, PAGE);
        // The owner class of each allocated frame, and the bytes of every
        // frame touched so far (a frame keeps its bytes across free and
        // re-alloc).
        let mut live: HashMap<FrameId, u8> = HashMap::new();
        let mut bytes: HashMap<FrameId, Vec<u8>> = HashMap::new();

        for o in ops {
            match o {
                Op::Alloc { class, tag } => {
                    let got = pool.alloc(owner(class, tag));
                    prop_assert_eq!(got.is_none(), live.len() == FRAMES);
                    if let Some(id) = got {
                        prop_assert!((id.0 as usize) < FRAMES, "frame {:?} out of range", id);
                        prop_assert!(live.insert(id, class % 3).is_none(), "live frame reallocated");
                    }
                }
                Op::Free(i) => {
                    if let Some(id) = pick(&live, i) {
                        pool.free(id);
                        live.remove(&id);
                    }
                }
                Op::Write { i, off, len, byte } => {
                    if let Some(id) = pick(&live, i) {
                        let (off, end) = (off as usize, (off as usize + len as usize).min(PAGE));
                        pool.data_mut(id)[off..end].fill(byte);
                        bytes.entry(id).or_insert_with(|| vec![0; PAGE])[off..end].fill(byte);
                    }
                }
                Op::Zero(i) => {
                    if let Some(id) = pick(&live, i) {
                        pool.zero(id);
                        bytes.insert(id, vec![0; PAGE]);
                    }
                }
            }

            let c = pool.counts();
            let held = |k: u8| live.values().filter(|&&c| c == k).count();
            prop_assert_eq!(c.vm, held(0));
            prop_assert_eq!(c.file_cache, held(1));
            prop_assert_eq!(c.compression_cache, held(2));
            prop_assert_eq!(c.free, FRAMES - live.len());
            prop_assert_eq!(pool.free_frames(), c.free);
            prop_assert_eq!(pool.total_frames(), FRAMES);
            for f in 0..FRAMES as u32 {
                let id = FrameId(f);
                let want = bytes.get(&id).map_or(&[0u8; PAGE][..], |b| &b[..]);
                prop_assert_eq!(pool.data(id), want, "frame {} bytes", f);
            }
        }
    }
}
