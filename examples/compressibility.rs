//! What compresses, what doesn't, and why it decides everything.
//!
//! §5.2's Table 1 comes down to two per-application numbers: how well
//! pages compress under LZRW1, and how many fail the 4:3 keep-compressed
//! threshold. This example runs the real codecs over the data classes the
//! workloads generate and prints both — the same measurement the
//! simulator makes on every eviction.
//!
//! ```sh
//! cargo run --release --example compressibility
//! ```

use compression_cache::compress::{
    compression_fraction, CompressDecision, Compressor, Lzrw1, Lzss, Rle, ThresholdPolicy,
};
use compression_cache::sim::workloads::datagen;
use compression_cache::util::SplitMix64;

const PAGE: usize = 4096;

fn classes() -> Vec<(&'static str, &'static str, Vec<u8>)> {
    let mut four_to_one = vec![0u8; 16 * PAGE];
    for (i, chunk) in four_to_one.chunks_mut(PAGE).enumerate() {
        datagen::fill_4to1(chunk, i as u64);
    }
    let mut dp = vec![0u8; 16 * PAGE];
    datagen::fill_dp_values(&mut dp, 3);
    let mut rng = SplitMix64::new(1);
    let noise: Vec<u8> = (0..16 * PAGE).map(|_| rng.next_u64() as u8).collect();
    vec![
        (
            "zero pages",
            "(fresh zero-fill memory)",
            vec![0u8; 16 * PAGE],
        ),
        ("thrasher fill", "(paper: ~4:1)", four_to_one),
        ("DP stripe", "(compare; paper: ~3:1)", dp),
        (
            "sorted words",
            "(sort partial; paper: ~3:1)",
            datagen::repetitive_text(16 * PAGE, 7),
        ),
        (
            "shuffled words",
            "(sort random; paper: 98% fail 4:3)",
            datagen::shuffled_text(16 * PAGE, 7),
        ),
        ("random bytes", "(worst case)", noise),
    ]
}

fn main() {
    let threshold = ThresholdPolicy::default();
    println!(
        "{:<16} {:<30} {:>10} {:>10} {:>10} {:>12}",
        "data class", "", "lzrw1", "lzss", "rle", "fail 4:3"
    );
    for (name, note, data) in classes() {
        let mut lzrw1 = Lzrw1::new();
        let mut lzss = Lzss::new();
        let mut rle = Rle::new();
        let mut rejected = 0;
        let mut pages = 0;
        let mut buf = Vec::new();
        for page in data.chunks(PAGE) {
            pages += 1;
            let n = lzrw1.compress(page, &mut buf);
            if threshold.evaluate(page.len(), n) == CompressDecision::Reject {
                rejected += 1;
            }
        }
        println!(
            "{:<16} {:<30} {:>9.1}% {:>9.1}% {:>9.1}% {:>10.1}%",
            name,
            note,
            compression_fraction(&mut lzrw1, &data) * 100.0,
            compression_fraction(&mut lzss, &data) * 100.0,
            compression_fraction(&mut rle, &data) * 100.0,
            100.0 * rejected as f64 / pages as f64,
        );
    }
    println!(
        "\n(Numbers are compressed size as % of original — lower is better.\n\
         Pages over 75% are not worth keeping compressed: the 4:3 rule.)"
    );
}
