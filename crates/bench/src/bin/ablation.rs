//! Ablation sweeps over the design choices DESIGN.md calls out.
//!
//! 1. **§4.2 bias** (`cc_age_scale`): the paper: *"although a single
//!    penalty between VM and the file system works well across a wide
//!    range of applications, the optimal penalty for the compression
//!    cache is application-dependent."* Swept on thrasher (loves a big
//!    cache) and on an over-committed random-access reader (hurt by one).
//! 2. **§4.3 spanning** (`allow_span`): fragmentation vs read size.
//! 3. **Threshold**: the 4:3 keep-compressed rule vs keep-everything and
//!    stricter variants, on incompressible input.
//! 4. **Codec**: LZRW1 table sizes, RLE, LZSS (speed/ratio axis of §3).
//! 5. **Adaptive disable** (§5.2/§6 future work) on incompressible input.
//! 6. **Backing stores** (§6): disk vs Ethernet vs wireless.
//!
//! Run with `--quick` for 1/8 scale.

use cc_bench::scaled;
use cc_sim::disk::DiskParams;
use cc_sim::workloads::thrasher::{measure_cycle_access_time, Thrasher};
use cc_sim::{CodecKind, Mode, SimConfig, System};
use cc_util::SplitMix64;

const MB: u64 = 1024 * 1024;

fn base_config(mode: Mode) -> SimConfig {
    SimConfig::decstation(scaled(6 * MB) as usize, mode)
}

/// Thrasher cycle-time with a given configuration tweak.
fn thrash_ms(space: u64, write: bool, tweak: impl Fn(&mut SimConfig)) -> f64 {
    let mut cfg = base_config(Mode::Cc);
    tweak(&mut cfg);
    let mut sys = System::new(cfg);
    let t = Thrasher::figure3(space, write);
    measure_cycle_access_time(&mut sys, &t).0
}

/// A hot/cold reader in the gold regime: a hot set that nearly fills
/// memory plus a cold tail of ~2:1 pages. Favoring the cache too hard
/// squeezes the hot set and turns cheap hits into decompressions — the
/// application the §4.2 bias knob can hurt.
fn skewed_reader_secs(cc_age_scale: f64) -> f64 {
    let mut cfg = base_config(Mode::Cc);
    cfg.cc.cc_age_scale = cc_age_scale;
    let mem_pages = (cfg.user_memory_bytes / 4096) as u64;
    let mut sys = System::new(cfg);
    let space = scaled(20 * MB);
    let seg = sys.create_segment(space);
    let npages = space / 4096;
    let mut page = vec![0u8; 4096];
    for p in 0..npages {
        cc_sim::workloads::datagen::fill_2to1(&mut page, p);
        sys.write_slice(seg, p * 4096, &page);
    }
    let mut rng = SplitMix64::new(77);
    let hot = (mem_pages * 95 / 100).min(npages);
    let start = sys.now();
    for _ in 0..scaled(200_000) {
        let p = if rng.gen_bool(0.99) {
            rng.gen_range(hot)
        } else {
            hot + rng.gen_range(npages - hot)
        };
        let _ = sys.read_u32(seg, p * 4096);
    }
    (sys.now() - start).as_secs_f64()
}

fn main() {
    println!("== Ablations ==\n");

    // ------------------------------------------------------------------
    println!("--- 1. §4.2 bias sweep (cc_age_scale; lower = cache holds memory harder) ---");
    println!(
        "{:>10} {:>16} {:>18}",
        "scale", "thrasher ms/acc", "skewed-reader s"
    );
    let space = scaled(12 * MB);
    for scale in [2.0, 1.0, 0.5, 0.2, 0.05, 0.01] {
        let t = thrash_ms(space, true, |c| c.cc.cc_age_scale = scale);
        let s = skewed_reader_secs(scale);
        println!("{scale:>10.2} {t:>16.3} {s:>18.2}");
    }
    println!("  (expected: thrasher improves as the cache is favored more;");
    println!("   the skewed reader is best at moderate bias — application-dependent, §4.2)\n");

    // ------------------------------------------------------------------
    println!("--- 2. §4.3 fragment spanning (thrasher beyond compressed fit) ---");
    let big = scaled(30 * MB);
    for (label, span) in [("span", true), ("no-span", false)] {
        let mut frag_stats = (0u64, 0u64);
        let ms = {
            let mut cfg = base_config(Mode::Cc);
            cfg.cc.allow_span = span;
            let mut sys = System::new(cfg);
            let t = Thrasher::figure3(big, true);
            let v = measure_cycle_access_time(&mut sys, &t).0;
            let core = sys.core_stats().unwrap();
            let _ = core;
            if let Some(c) = sys.core_stats() {
                frag_stats = (c.cleaner_pages, 0);
            }
            let disk = sys.disk_stats();
            println!(
                "  {label:>8}: {v:.3} ms/access, disk {} moved in {} requests",
                cc_util::fmt::bytes(disk.bytes()),
                disk.requests()
            );
            v
        };
        let _ = (ms, frag_stats);
    }
    println!("  (no-span pads fragments to block boundaries: more bytes, bounded reads)\n");

    // ------------------------------------------------------------------
    println!("--- 3. keep-compressed threshold on incompressible input ---");
    for (label, threshold) in [
        ("any-shrink", cc_compress::ThresholdPolicy::any_shrink()),
        ("4:3 (paper)", cc_compress::ThresholdPolicy::new(4, 3)),
        ("2:1", cc_compress::ThresholdPolicy::new(2, 1)),
        ("3:1", cc_compress::ThresholdPolicy::new(3, 1)),
    ] {
        let mut cfg = base_config(Mode::Cc);
        cfg.cc.threshold = threshold;
        let mut sys = System::new(cfg);
        let space = scaled(10 * MB);
        let seg = sys.create_segment(space);
        let mut rng = SplitMix64::new(5);
        let mut page = vec![0u8; 4096];
        // A four-way mix: noise, marginal ~85% pages (kept only by
        // any-shrink), ~2:1 (kept by 4:3, rejected by 2:1), and ~4:1
        // (kept by everyone).
        for p in 0..space / 4096 {
            match p % 4 {
                0 => {
                    for b in page.iter_mut() {
                        *b = rng.next_u64() as u8;
                    }
                }
                1 => {
                    // ~88%: noise with short structured runs — shrinks a
                    // little (kept by any-shrink) but fails 4:3.
                    for (i, b) in page.iter_mut().enumerate() {
                        *b = if i % 48 < 8 {
                            b'='
                        } else {
                            rng.next_u64() as u8
                        };
                    }
                }
                2 => cc_sim::workloads::datagen::fill_2to1(&mut page, p),
                _ => cc_sim::workloads::datagen::fill_4to1(&mut page, p),
            }
            sys.write_slice(seg, p * 4096, &page);
        }
        // One read pass.
        for p in 0..space / 4096 {
            let _ = sys.read_u32(seg, p * 4096);
        }
        let core = sys.core_stats().unwrap();
        println!(
            "  {label:>12}: {:>8.2}s, rejected {:>5.1}%, cache held {:.1}MB peak",
            sys.now().as_secs_f64(),
            core.rejected_fraction() * 100.0,
            core.peak_mapped_frames as f64 * 4096.0 / MB as f64,
        );
    }
    println!();

    // ------------------------------------------------------------------
    println!("--- 4. codec sweep on compressible thrash (speed vs ratio, §3) ---");
    for (label, codec) in [
        (
            "lzrw1-16K",
            CodecKind::Lzrw1 {
                table_bytes: 16 * 1024,
            },
        ),
        (
            "lzrw1-64K",
            CodecKind::Lzrw1 {
                table_bytes: 64 * 1024,
            },
        ),
        ("lzss", CodecKind::Lzss),
        ("rle", CodecKind::Rle),
        ("null", CodecKind::Null),
    ] {
        let mut cfg = base_config(Mode::Cc);
        cfg.cc.codec = codec;
        let mut sys = System::new(cfg);
        let t = Thrasher::figure3(scaled(12 * MB), true);
        let ms = measure_cycle_access_time(&mut sys, &t).0;
        let core = sys.core_stats().unwrap();
        println!(
            "  {label:>10}: {ms:>7.3} ms/access, kept ratio {:>5.1}%, rejected {:>5.1}%",
            core.mean_kept_fraction() * 100.0,
            core.rejected_fraction() * 100.0
        );
    }
    println!();

    // ------------------------------------------------------------------
    println!("--- 5. adaptive disable on incompressible stream (§5.2/§6) ---");
    for (label, after) in [("off (paper)", 0u32), ("after 8 rejects", 8)] {
        let mut cfg = base_config(Mode::Cc);
        cfg.cc.adaptive_disable_after = after;
        let mut sys = System::new(cfg);
        let space = scaled(12 * MB);
        let seg = sys.create_segment(space);
        let mut rng = SplitMix64::new(9);
        let mut page = vec![0u8; 4096];
        for p in 0..space / 4096 {
            for b in page.iter_mut() {
                *b = rng.next_u64() as u8;
            }
            sys.write_slice(seg, p * 4096, &page);
        }
        let core = sys.core_stats().unwrap();
        println!(
            "  {label:>16}: {:>7.2}s, {} compressions attempted",
            sys.now().as_secs_f64(),
            core.compress_attempts
        );
    }
    println!();

    // ------------------------------------------------------------------
    println!("--- 6. backing stores (§6: slower stores favor compression more) ---");
    println!(
        "{:>16} {:>12} {:>12} {:>9}",
        "device", "std ms/acc", "cc ms/acc", "speedup"
    );
    for disk in [
        DiskParams::rz57(),
        DiskParams::mobile_hdd(),
        DiskParams::ethernet_10mbps(),
        DiskParams::wireless_2mbps(),
    ] {
        // Sized to the fits-compressed regime: the cache removes the
        // I/O entirely, so the speedup tracks how expensive each
        // device's I/O would have been.
        let space = scaled(12 * MB);
        let run = |mode| {
            let mut cfg = base_config(mode);
            cfg.disk = disk.clone();
            let mut sys = System::new(cfg);
            let t = Thrasher::figure3(space, true);
            measure_cycle_access_time(&mut sys, &t).0
        };
        let s = run(Mode::Std);
        let c = run(Mode::Cc);
        println!("{:>16} {s:>12.3} {c:>12.3} {:>9.2}", disk.name, s / c);
    }
    println!("\nDone.");
}
