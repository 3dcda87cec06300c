//! Property tests of the block file layer: contents and I/O accounting
//! against a byte-array model, including the §4.3 read-modify-write rule.

use cc_sim::blockfs::FileSystem;
use cc_sim::disk::{Disk, DiskParams};
use cc_util::Ns;
use proptest::prelude::*;

const BLOCK: usize = 4096;

#[derive(Debug, Clone)]
enum Op {
    Write { off: u16, len: u16, byte: u8 },
    Read { off: u16, len: u16 },
}

fn op(file_bytes: usize) -> impl Strategy<Value = Op> {
    let max = (file_bytes - 1) as u16;
    prop_oneof![
        (0..max, 1u16..5000, any::<u8>()).prop_map(|(off, len, byte)| Op::Write { off, len, byte }),
        (0..max, 1u16..5000).prop_map(|(off, len)| Op::Read { off, len }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn contents_and_accounting_match_model(
        ops in proptest::collection::vec(op(16 * BLOCK), 1..60)
    ) {
        let mut fs = FileSystem::new(Disk::new(DiskParams::rz57()));
        let file = fs.create("f", 16);
        let mut model = vec![0u8; 16 * BLOCK];
        let mut now = Ns::ZERO;
        for o in ops {
            match o {
                Op::Write { off, len, byte } => {
                    let off = off as usize;
                    let len = (len as usize).min(model.len() - off);
                    let data = vec![byte; len];
                    let before = fs.stats().physical_bytes_written;
                    let c = fs.write_bytes(now, file, off as u64, &data);
                    now = now.max(c.done);
                    model[off..off + len].copy_from_slice(&data);
                    // §4.3: the physical write covers whole blocks around
                    // the logical range.
                    let blocks = (off + len - 1) / BLOCK - off / BLOCK + 1;
                    prop_assert_eq!(
                        fs.stats().physical_bytes_written - before,
                        (blocks * BLOCK) as u64
                    );
                }
                Op::Read { off, len } => {
                    let off = off as usize;
                    let len = (len as usize).min(model.len() - off);
                    if len == 0 {
                        continue;
                    }
                    let mut out = vec![0u8; len];
                    let before = fs.stats().physical_bytes_read;
                    now = fs.read_bytes(now, file, off as u64, &mut out);
                    prop_assert_eq!(&out, &model[off..off + len]);
                    // Reads are always whole covering blocks.
                    let blocks = (off + len - 1) / BLOCK - off / BLOCK + 1;
                    prop_assert_eq!(
                        fs.stats().physical_bytes_read - before,
                        (blocks * BLOCK) as u64
                    );
                }
            }
        }
        // Every partial-edge write must have induced RMW reads.
        prop_assert!(fs.stats().physical_bytes_read.is_multiple_of(BLOCK as u64));
    }
}
