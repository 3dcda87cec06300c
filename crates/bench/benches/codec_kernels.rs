//! ns per 4 KiB page of each codec kernel, per page class.
//!
//! The inner loop for work on `cc-compress`'s hot paths: `probe_bdi` and
//! the whole `classify` it starts (on noise, the trigram reject test
//! runs to the end; it has to stay a small fraction of the bounded LZRW1
//! pass it saves), BDI encode/decode on the build the CPU runs
//! (`bdi::kernel()`) and (`bdi_*_portable`) on the portable one, LZRW1
//! encode (unbounded, bounded at the 4:3 admit bound the store passes,
//! and unbounded on the 16 384-entry table `ablation` uses — the width
//! whose hash pass needs the high half of each product as well), LZRW1
//! decode, and each decoder through its `Vec` API against its slice
//! form, and `crc32` — the checksum that guards every spilled extent —
//! in ns per extent at three extent sizes
//! (a BDI block, the mean spilled extent, a raw page), on the kernel the
//! CPU runs and (`crc32_portable`) on the portable one. The simulator's
//! comparator codecs, LZSS and RLE, get encode and decode rows too: their
//! speed relative to LZRW1 is the basis of the `CostProfile` scale
//! factors in `cc-compress`. The classes are ccbench's
//! (`benchmark/src/pages.rs`, re-created here because that package stands
//! alone): near-zero, 16-bit counters, base+delta, text, noise. Every
//! measurement cycles through 64 different pages of its class — one page
//! compressed over and over teaches the branch predictor that page, and
//! mispredicted branches are most of what these kernels used to cost.
//!
//! It gates nothing; end-to-end claims are made with ccbench.

use cc_compress::{bdi, classify, probe_bdi, Bdi, Compressor, Lzrw1, Lzss, Rle, ThresholdPolicy};
use cc_util::crc::crc32_portable;
use cc_util::{crc32, SplitMix64};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const PAGE: usize = 4096;
const VARIANTS: usize = 64;

#[rustfmt::skip]
const VOCABULARY: [&str; 32] = [
    "page", "cache", "memory", "compress", "disk", "fault", "the", "of", "and", "to", "in", "is",
    "that", "for", "system", "sprite", "kernel", "buffer", "write", "read", "clean", "dirty",
    "threshold", "ratio", "backing", "store", "swap", "frame", "segment", "virtual", "physical",
    "bandwidth",
];

const CLASSES: [&str; 5] = ["near_zero", "counters16", "base_delta", "text", "noise"];

fn fill(class: &str, rng: &mut SplitMix64, page: &mut [u8]) {
    match class {
        "near_zero" => {
            for w in page.chunks_exact_mut(8).step_by(64) {
                w.copy_from_slice(&(1 + rng.next_u64() % 1000).to_le_bytes());
            }
        }
        "counters16" => {
            for w in page.chunks_exact_mut(8) {
                w.copy_from_slice(&(256 + rng.next_u64() % 30_000).to_le_bytes());
            }
        }
        "base_delta" => {
            let base = 0x7F00_0000_0000u64 | (rng.next_u64() & 0xFFFF_F000);
            for w in page.chunks_exact_mut(8) {
                w.copy_from_slice(&(base + rng.next_u64() % 100).to_le_bytes());
            }
        }
        "text" => {
            let mut at = 0;
            while at < page.len() {
                let word = VOCABULARY[(rng.next_u64() % VOCABULARY.len() as u64) as usize];
                for &b in word.as_bytes().iter().chain(b" ") {
                    if at < page.len() {
                        page[at] = b;
                        at += 1;
                    }
                }
            }
        }
        _ => page.fill_with(|| rng.next_u64() as u8),
    }
}

fn pages(class: &str) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(0x6B65_726E);
    (0..VARIANTS)
        .map(|_| {
            let mut page = vec![0u8; PAGE];
            fill(class, &mut rng, &mut page);
            page
        })
        .collect()
}

/// Time `f` over `inputs` in rotation, one input per iteration.
fn rotate<T>(
    group: &mut criterion::BenchmarkGroup<'_>,
    kernel: &str,
    class: &str,
    inputs: &[T],
    mut f: impl FnMut(&T),
) {
    let mut next = 0;
    group.bench_function(BenchmarkId::new(kernel, class), |b| {
        b.iter(|| {
            f(black_box(&inputs[next % inputs.len()]));
            next += 1;
        })
    });
}

fn bench_kernels(c: &mut Criterion) {
    let admit = ThresholdPolicy::default().max_compressed_len(PAGE);
    let mut group = c.benchmark_group("codec_kernels");
    group.throughput(Throughput::Bytes(PAGE as u64));
    for class in CLASSES {
        let pages = pages(class);
        let (mut bdi, mut lz) = (Bdi::new(), Lzrw1::new());
        let mut lz_wide = Lzrw1::with_entries(16_384);
        let (mut lzss, mut rle) = (Lzss::new(), Rle::new());
        let mut sealed = Vec::new();
        let mut plain = vec![0u8; PAGE];

        rotate(&mut group, "probe_bdi", class, &pages, |p| {
            black_box(probe_bdi(p, admit));
        });
        rotate(&mut group, "classify", class, &pages, |p| {
            black_box(classify(p, admit));
        });
        rotate(&mut group, "bdi_encode", class, &pages, |p| {
            black_box(bdi.compress(p, &mut sealed));
        });
        rotate(&mut group, "bdi_encode_portable", class, &pages, |p| {
            black_box(bdi::compress_portable(p, &mut sealed));
        });
        rotate(&mut group, "lzrw1_encode", class, &pages, |p| {
            black_box(lz.compress(p, &mut sealed));
        });
        rotate(&mut group, "lzrw1_encode_bounded", class, &pages, |p| {
            black_box(lz.compress_bounded(p, &mut sealed, admit));
        });
        rotate(&mut group, "lzrw1_encode_wide", class, &pages, |p| {
            black_box(lz_wide.compress(p, &mut sealed));
        });
        rotate(&mut group, "lzss_encode", class, &pages, |p| {
            black_box(lzss.compress(p, &mut sealed));
        });
        rotate(&mut group, "rle_encode", class, &pages, |p| {
            black_box(rle.compress(p, &mut sealed));
        });

        let seal = |codec: &mut dyn Compressor| -> Vec<Vec<u8>> {
            let mut out = Vec::new();
            pages
                .iter()
                .map(|p| {
                    codec.compress(p, &mut out);
                    out.clone()
                })
                .collect()
        };
        let (bdi_blocks, lz_blocks) = (seal(&mut bdi), seal(&mut lz));
        let (lzss_blocks, rle_blocks) = (seal(&mut lzss), seal(&mut rle));
        rotate(&mut group, "bdi_decode_vec", class, &bdi_blocks, |b| {
            bdi.decompress(b, &mut sealed, PAGE).expect("own block");
        });
        rotate(&mut group, "bdi_decode_slice", class, &bdi_blocks, |b| {
            Bdi::decode_into(b, &mut plain).expect("own block");
        });
        rotate(&mut group, "bdi_decode_portable", class, &bdi_blocks, |b| {
            bdi::decode_into_portable(b, &mut plain).expect("own block");
        });
        rotate(&mut group, "lzrw1_decode_vec", class, &lz_blocks, |b| {
            lz.decompress(b, &mut sealed, PAGE).expect("own block");
        });
        rotate(&mut group, "lzrw1_decode_slice", class, &lz_blocks, |b| {
            Lzrw1::decode_into(b, &mut plain).expect("own block");
        });
        rotate(&mut group, "lzss_decode_vec", class, &lzss_blocks, |b| {
            lzss.decompress(b, &mut sealed, PAGE).expect("own block");
        });
        rotate(&mut group, "rle_decode_vec", class, &rle_blocks, |b| {
            rle.decompress(b, &mut sealed, PAGE).expect("own block");
        });
    }
    // A CRC costs the same on any bytes; noise keeps the portable
    // kernel's sixteen tables' lines all in play. Starts rotate over the
    // 16 alignments a payload can have inside a batch buffer. `crc32` is
    // the kernel the store runs on this CPU, `crc32_portable` the
    // slice-by-16 fallback beside it.
    let noise: Vec<u8> = pages("noise").concat();
    let starts: Vec<usize> = (0..VARIANTS).map(|i| i * PAGE / 2 + i % 16).collect();
    for extent in [600usize, 1500, 4097] {
        group.throughput(Throughput::Bytes(extent as u64));
        rotate(&mut group, "crc32", &extent.to_string(), &starts, |&at| {
            black_box(crc32(&noise[at..at + extent]));
        });
        rotate(
            &mut group,
            "crc32_portable",
            &extent.to_string(),
            &starts,
            |&at| {
                black_box(crc32_portable(&noise[at..at + extent]));
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15).warm_up_time(std::time::Duration::from_millis(100)).measurement_time(std::time::Duration::from_millis(450));
    targets = bench_kernels
}
criterion_main!(benches);
