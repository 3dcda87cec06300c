//! The §4.2 dynamic-sizing exhibit: cache size over time under a
//! phase-shifting workload.
//!
//! *"the system can dynamically vary the amount of memory used for
//! uncompressed pages, compressed pages, and file blocks"* — this harness
//! drives four phases (big compressible sweep, hot incompressible set,
//! file streaming, back to the sweep) and plots the compression cache's
//! frame count over virtual time.

use cc_bench::plot;
use cc_sim::{Mode, SimConfig, System};
use cc_util::SplitMix64;

const MB: u64 = 1024 * 1024;

fn main() {
    let mut cfg = SimConfig::decstation(4 * MB as usize, Mode::Cc);
    cfg.cc.compress_file_cache = false;
    let mut sys = System::new(cfg);
    sys.enable_size_trace();
    let mut marks: Vec<(&str, f64)> = Vec::new();

    // Phase 1: an 8 MB compressible sweep (cache should grow large).
    marks.push(("sweep", sys.now().as_secs_f64()));
    let sweep = sys.create_segment(8 * MB);
    let mut page = vec![0u8; 4096];
    for p in 0..(8 * MB / 4096) {
        cc_sim::workloads::datagen::fill_4to1(&mut page, p);
        sys.write_slice(sweep, p * 4096, &page);
    }
    for pass in 0..3u64 {
        for p in 0..(8 * MB / 4096) {
            let v = sys.read_u32(sweep, p * 4096);
            sys.write_u32(sweep, p * 4096, v.wrapping_add(pass as u32));
        }
    }

    // Phase 2: a hot incompressible working set (cache must yield).
    marks.push(("hot-noise", sys.now().as_secs_f64()));
    let hot_bytes = 3 * MB + MB / 2;
    let hot = sys.create_segment(hot_bytes);
    let mut rng = SplitMix64::new(3);
    let mut noise = vec![0u8; 4096];
    for p in 0..(hot_bytes / 4096) {
        for b in noise.iter_mut() {
            *b = rng.next_u64() as u8;
        }
        sys.write_slice(hot, p * 4096, &noise);
    }
    for _ in 0..10 {
        for p in 0..(hot_bytes / 4096) {
            let _ = sys.read_u32(hot, p * 4096);
        }
    }

    // Phase 3: stream a file (buffer cache joins the contest).
    marks.push(("file-stream", sys.now().as_secs_f64()));
    let file = sys.file_create("stream", 1024);
    let mut buf = vec![0u8; 4096];
    for _ in 0..3 {
        for b in 0..1024u64 {
            sys.file_read(file, b * 4096, &mut buf);
        }
    }

    // Phase 4: back to the sweep (cache grows again).
    marks.push(("sweep-again", sys.now().as_secs_f64()));
    for pass in 0..3u64 {
        for p in 0..(8 * MB / 4096) {
            let v = sys.read_u32(sweep, p * 4096);
            sys.write_u32(sweep, p * 4096, v.wrapping_add(pass as u32));
        }
    }
    marks.push(("end", sys.now().as_secs_f64()));

    // Downsample the trace for plotting.
    let trace = sys.size_trace();
    assert!(!trace.is_empty(), "no samples recorded");
    let step = (trace.len() / 512).max(1);
    let xs: Vec<f64> = trace
        .iter()
        .step_by(step)
        .map(|(t, _)| t.as_secs_f64())
        .collect();
    let ys: Vec<f64> = trace
        .iter()
        .step_by(step)
        .map(|(_, f)| *f as f64 * 4096.0 / MB as f64)
        .collect();

    println!("== Compression-cache size over time (4 MB machine) ==\n");
    println!(
        "{}",
        plot::line_chart(
            "cache size (MB) vs time (s)",
            &xs,
            &[("cc", ys.clone())],
            72,
            18
        )
    );
    println!("phases:");
    for w in marks.windows(2) {
        let (name, start) = w[0];
        let (_, end) = w[1];
        // Mean size within the phase.
        let vals: Vec<f64> = trace
            .iter()
            .filter(|(t, _)| {
                let s = t.as_secs_f64();
                s >= start && s < end
            })
            .map(|(_, f)| *f as f64 * 4096.0 / MB as f64)
            .collect();
        let mean = if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        println!("  {name:<12} {start:>8.1}s..{end:>8.1}s   mean cache {mean:>5.2} MB");
    }

    // Shape checks: grows in sweeps, yields under hot noise. Phase means
    // are taken over the *last third* of each phase so fill-transition
    // effects (the previous phase's pages draining into the cache) don't
    // mask the equilibrium.
    let phase_mean = |i: usize| -> f64 {
        let (_, start) = marks[i];
        let (_, end) = marks[i + 1];
        let tail_start = start + (end - start) * 2.0 / 3.0;
        let vals: Vec<f64> = trace
            .iter()
            .filter(|(t, _)| {
                let s = t.as_secs_f64();
                s >= tail_start && s < end
            })
            .map(|(_, f)| *f as f64)
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    };
    let sweep1 = phase_mean(0);
    let hot = phase_mean(1);
    let sweep2 = phase_mean(3);
    println!("\nPaper-shape checks:");
    println!("  sweep {sweep1:.0} frames -> hot-noise {hot:.0} -> sweep again {sweep2:.0}");
    assert!(sweep1 > 1.5 * hot, "cache must yield under the hot set");
    assert!(sweep2 > 1.5 * hot, "cache must regrow for the sweep");
    println!("  OK: the cache grows under compressible paging and yields to");
    println!("      an incompressible working set — §4.2's dynamic sizing.");
}
