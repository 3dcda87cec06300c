//! The §4.2 bias knob is application-dependent — demonstrated.
//!
//! *"Interestingly, although a single penalty between VM and the file
//! system works well across a wide range of applications, the optimal
//! penalty for the compression cache is application-dependent."*
//!
//! Two applications, one knob (`cc_age_scale`; lower = the cache defends
//! its memory harder):
//!
//! - a **cyclic sweeper** (thrasher-like, zero reuse locality) wants the
//!   cache as large as possible — every fault can be a decompression;
//! - a **skewed reader** (90% of accesses to an eighth of its pages)
//!   wants its hot set left *uncompressed* — an over-aggressive cache
//!   steals frames from it and turns hot hits into decompressions.
//!
//! ```sh
//! cargo run --release --example tuning_bias
//! ```

use compression_cache::sim::{Mode, SimConfig, System};
use compression_cache::util::SplitMix64;

const MB: u64 = 1024 * 1024;

fn cyclic_secs(scale: f64) -> f64 {
    let mut cfg = SimConfig::decstation(2 * MB as usize, Mode::Cc);
    cfg.cc.cc_age_scale = scale;
    let mut sys = System::new(cfg);
    let seg = sys.create_segment(4 * MB);
    let pages = 4 * MB / 4096;
    for pass in 0..4u32 {
        for p in 0..pages {
            let v = sys.read_u32(seg, p * 4096);
            sys.write_u32(seg, p * 4096, v + pass);
        }
    }
    sys.now().as_secs_f64()
}

fn skewed_secs(scale: f64) -> f64 {
    let mut cfg = SimConfig::decstation(2 * MB as usize, Mode::Cc);
    cfg.cc.cc_age_scale = scale;
    let mem_pages = (cfg.user_memory_bytes / 4096) as u64;
    let mut sys = System::new(cfg);
    // A 8 MB heap of ~2:1 pages with a hot set sized to ~95% of memory:
    // any frames the cache hoards come straight out of the hot set.
    let seg = sys.create_segment(8 * MB);
    let pages = 8 * MB / 4096;
    let mut page = vec![0u8; 4096];
    for p in 0..pages {
        compression_cache::sim::workloads::datagen::fill_2to1(&mut page, p);
        sys.write_slice(seg, p * 4096, &page);
    }
    let hot = mem_pages * 95 / 100;
    let mut rng = SplitMix64::new(55);
    for _ in 0..100_000 {
        let p = if rng.gen_bool(0.99) {
            rng.gen_range(hot)
        } else {
            hot + rng.gen_range(pages - hot)
        };
        let _ = sys.read_u32(seg, p * 4096);
    }
    sys.now().as_secs_f64()
}

fn main() {
    println!(
        "{:>12} {:>16} {:>16}",
        "cc_age_scale", "cyclic sweep (s)", "skewed reader (s)"
    );
    let mut best_cyclic = (f64::INFINITY, 0.0);
    let mut best_skewed = (f64::INFINITY, 0.0);
    for scale in [4.0, 1.0, 0.25, 0.05, 0.01] {
        let c = cyclic_secs(scale);
        let s = skewed_secs(scale);
        if c < best_cyclic.0 {
            best_cyclic = (c, scale);
        }
        if s < best_skewed.0 {
            best_skewed = (s, scale);
        }
        println!("{scale:>12.2} {c:>16.2} {s:>16.2}");
    }
    println!(
        "\nBest for the cyclic sweep: scale = {}; best for the skewed reader: scale = {}.",
        best_cyclic.1, best_skewed.1
    );
    println!("One knob, two winners — the paper's point about application-dependent bias.");
}
