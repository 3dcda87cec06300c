//! The paper's motivating scenario: paging on a mobile computer.
//!
//! §1: *"mobile computers may communicate over slower wireless networks
//! and run either diskless or with small, slower local disks. At the same
//! time, the processors on mobile computers are steadily improving in
//! speed."* — so the compression cache should help *more* as the backing
//! store gets slower (§6).
//!
//! This example runs the same over-committed workload against four
//! backing stores — the paper's RZ57, a small mobile drive, a 10 Mb/s
//! Ethernet file server, and a 2 Mb/s wireless link — and reports the
//! std-vs-cc speedup for each.
//!
//! ```sh
//! cargo run --release --example mobile_paging
//! ```

use compression_cache::sim::disk::DiskParams;
use compression_cache::sim::{Mode, SimConfig, System};
use compression_cache::util::SplitMix64;

const MB: u64 = 1024 * 1024;

/// A small interactive-application mix: a hot working set plus periodic
/// sweeps over a larger heap (e.g. a mail reader re-sorting folders).
fn run_app(mut sys: System) -> f64 {
    let heap = 5 * MB;
    let seg = sys.create_segment(heap);
    let pages = heap / 4096;
    let mut rng = SplitMix64::new(2024);
    // Build the heap.
    for p in 0..pages {
        sys.write_u32(seg, p * 4096, p as u32);
    }
    // Interactive phase: 90% hits a hot eighth, 10% sweeps cold pages.
    for _ in 0..60_000 {
        let p = if rng.gen_bool(0.9) {
            rng.gen_range(pages / 8)
        } else {
            rng.gen_range(pages)
        };
        let v = sys.read_u32(seg, p * 4096);
        sys.write_u32(seg, p * 4096, v.wrapping_add(1));
    }
    sys.now().as_secs_f64()
}

fn main() {
    println!("5 MB application on a 2 MB mobile computer, by backing store:\n");
    println!(
        "{:<18} {:>10} {:>10} {:>9}",
        "backing store", "std (s)", "cc (s)", "speedup"
    );
    for disk in [
        DiskParams::rz57(),
        DiskParams::mobile_hdd(),
        DiskParams::ethernet_10mbps(),
        DiskParams::wireless_2mbps(),
    ] {
        let mut secs = Vec::new();
        for mode in [Mode::Std, Mode::Cc] {
            let mut cfg = SimConfig::decstation(2 * MB as usize, mode);
            cfg.disk = disk.clone();
            secs.push(run_app(System::new(cfg)));
        }
        println!(
            "{:<18} {:>10.1} {:>10.1} {:>8.2}x",
            disk.name,
            secs[0],
            secs[1],
            secs[0] / secs[1]
        );
    }
    println!(
        "\nThe slower the backing store, the more each avoided I/O is worth —\n\
         the §6 trend that motivated compressed paging for mobile machines."
    );
}
