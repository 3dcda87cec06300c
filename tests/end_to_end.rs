//! Cross-crate integration tests: the paper's claims as executable
//! assertions against the full system.

use compression_cache::sim::workloads::{
    compare::CompareApp,
    sortapp::{SortApp, SortInput},
    thrasher::{measure_cycle_access_time, Thrasher},
    Workload,
};
use compression_cache::sim::{Mode, SimConfig, System};
use compression_cache::util::{Ns, SplitMix64};

const MB: u64 = 1024 * 1024;

/// Abstract: "some memory-intensive applications running with a
/// compression cache can run two to three times faster than on an
/// unmodified system."
#[test]
fn headline_claim_two_to_three_times() {
    // A memory-intensive cyclic application at 2x memory, plus the
    // compare DP app: at least one must clear 2x, and both must win.
    let thrash = |mode| {
        let mut sys = System::new(SimConfig::decstation(MB as usize, mode));
        let t = Thrasher::figure3(2 * MB, true);
        measure_cycle_access_time(&mut sys, &t).0
    };
    let thrash_speedup = thrash(Mode::Std) / thrash(Mode::Cc);
    assert!(
        thrash_speedup > 2.0,
        "memory-intensive app should be >2x faster: got {thrash_speedup:.2}"
    );

    let compare = |mode| {
        let mut sys = System::new(SimConfig::decstation(512 * 1024, mode));
        let mut app = CompareApp {
            text_len: 6000,
            band: 24,
            seed: 5,
        };
        app.run(&mut sys);
        sys.now().as_secs_f64()
    };
    let compare_speedup = compare(Mode::Std) / compare(Mode::Cc);
    assert!(
        compare_speedup > 1.25,
        "compare should win at this scale too: got {compare_speedup:.2}"
    );
}

/// §3: if the working set fits in memory, the compression cache must
/// change nothing at all.
#[test]
fn fits_in_memory_identical_behavior() {
    let mut reports = Vec::new();
    for mode in [Mode::Std, Mode::Cc] {
        let mut sys = System::new(SimConfig::decstation(4 * MB as usize, mode));
        let t = Thrasher::figure3(MB, true);
        let (ms, _) = measure_cycle_access_time(&mut sys, &t);
        reports.push((ms, sys.disk_stats().requests()));
    }
    assert_eq!(reports[0].1, 0, "std: no I/O");
    assert_eq!(reports[1].1, 0, "cc: no I/O");
    assert!((reports[0].0 - reports[1].0).abs() < 1e-9);
}

/// §4.1: "If the pages touched by a process could not normally fit in
/// memory, but could fit into memory when some were stored in the
/// compression cache, then the processor would never have to write a
/// page to backing store."
#[test]
fn no_backing_store_writes_when_fitting_compressed() {
    let mut sys = System::new(SimConfig::decstation(2 * MB as usize, Mode::Cc));
    let t = Thrasher::figure3(3 * MB, true); // 1.5x memory, ~4:1 pages
    let _ = measure_cycle_access_time(&mut sys, &t);
    let disk = sys.disk_stats();
    // The fill phase may spill a little before the cache grows; the
    // steady-state cycling must be disk-free, so total traffic stays
    // tiny compared to the 2.3 MB-per-pass the std system would write.
    assert!(
        disk.bytes_written < MB,
        "fit-compressed thrashing wrote {} to disk",
        cc_util::fmt::bytes(disk.bytes_written)
    );
    assert_eq!(disk.reads, 0, "nothing should ever be read back");
}

/// §5.2: the same sort program wins or loses purely on the
/// compressibility of its input.
#[test]
fn sort_outcome_depends_on_compressibility() {
    let measure = |input: SortInput, mode: Mode| {
        let mut sys = System::new(SimConfig::decstation(512 * 1024, mode));
        let mut app = SortApp {
            input,
            text_bytes: 1024 * 1024 + 512 * 1024,
            seed: 4,
            cmp_cost: Ns::from_us(10),
        };
        app.run(&mut sys);
        sys.now().as_ns() as f64
    };
    let partial_speedup =
        measure(SortInput::Partial, Mode::Std) / measure(SortInput::Partial, Mode::Cc);
    let random_speedup =
        measure(SortInput::Random, Mode::Std) / measure(SortInput::Random, Mode::Cc);
    assert!(
        partial_speedup > 1.02,
        "partial-sorted input should win: {partial_speedup:.2}"
    );
    assert!(
        random_speedup < 1.02,
        "shuffled input must not win: {random_speedup:.2}"
    );
    assert!(partial_speedup > random_speedup + 0.05);
}

/// Everything the system writes comes back bit-exact, under a mixed
/// VM-plus-file workload crossing both caches.
#[test]
fn mixed_vm_and_file_integrity() {
    let mut sys = System::new(SimConfig::decstation(MB as usize, Mode::Cc));
    let seg = sys.create_segment(2 * MB);
    let file = sys.file_create("scratch", 256);
    let mut rng = SplitMix64::new(31337);

    let mut vm_model = vec![0u32; (2 * MB / 4096) as usize];
    let mut file_model = vec![0u8; 256 * 4096];
    for step in 0..4000 {
        match rng.gen_range(4) {
            0 => {
                let p = rng.gen_index(vm_model.len());
                let v = rng.next_u32();
                sys.write_u32(seg, p as u64 * 4096, v);
                vm_model[p] = v;
            }
            1 => {
                let p = rng.gen_index(vm_model.len());
                assert_eq!(
                    sys.read_u32(seg, p as u64 * 4096),
                    vm_model[p],
                    "vm mismatch at step {step}"
                );
            }
            2 => {
                let off = rng.gen_index(file_model.len() - 64);
                let data: Vec<u8> = (0..64).map(|_| rng.next_u64() as u8).collect();
                sys.file_write(file, off as u64, &data);
                file_model[off..off + 64].copy_from_slice(&data);
            }
            _ => {
                let off = rng.gen_index(file_model.len() - 64);
                let mut out = [0u8; 64];
                sys.file_read(file, off as u64, &mut out);
                assert_eq!(
                    &out[..],
                    &file_model[off..off + 64],
                    "file mismatch at step {step}"
                );
            }
        }
        if step % 1000 == 0 {
            sys.check_invariants();
        }
    }
    sys.check_invariants();
}

/// Determinism across the whole stack: identical seeds give identical
/// virtual timelines, fault counts, and disk traffic.
#[test]
fn full_stack_determinism() {
    let run = || {
        let mut sys = System::new(SimConfig::decstation(MB as usize, Mode::Cc));
        let mut app = SortApp {
            input: SortInput::Partial,
            text_bytes: 768 * 1024,
            seed: 9,
            cmp_cost: Ns::ZERO,
        };
        let sum = app.run(&mut sys).checksum;
        (
            sum,
            sys.now(),
            sys.vm_stats().faults(),
            sys.disk_stats().bytes(),
            sys.core_stats().unwrap().compress_attempts,
        )
    };
    assert_eq!(run(), run());
}

/// The §4.2 sizing claim: the cache grows under paging pressure and
/// shrinks back when the pressure moves elsewhere.
#[test]
fn cache_grows_and_shrinks() {
    let mut sys = System::new(SimConfig::decstation(2 * MB as usize, Mode::Cc));
    let big = sys.create_segment(4 * MB);
    for p in 0..(4 * MB / 4096) {
        sys.write_u32(big, p * 4096, p as u32);
    }
    let grown = sys.frame_counts().compression_cache;
    assert!(
        grown > 64,
        "cache should hold a large share: {grown} frames"
    );

    // Pressure moves to a nearly memory-sized hot segment of
    // *incompressible* pages (they cannot live in the cache), touched
    // repeatedly: the arbiter must hand the cache's frames back.
    let hot_bytes = 2 * MB - 256 * 1024;
    let hot = sys.create_segment(hot_bytes);
    let mut rng = SplitMix64::new(3);
    let mut noise = vec![0u8; 4096];
    for p in 0..(hot_bytes / 4096) {
        for b in noise.iter_mut() {
            *b = rng.next_u64() as u8;
        }
        sys.write_slice(hot, p * 4096, &noise);
    }
    for _ in 0..20 {
        for p in 0..(hot_bytes / 4096) {
            let _ = sys.read_u32(hot, p * 4096);
        }
    }
    // Equilibrium: the incompressible hot set ends fully resident, the
    // cache having yielded exactly the frames it had to.
    let counts = sys.frame_counts();
    let hot_pages = (hot_bytes / 4096) as usize;
    assert!(
        counts.vm >= hot_pages,
        "hot set not fully resident: {} < {hot_pages}",
        counts.vm
    );
    let shrunk = counts.compression_cache;
    assert!(
        shrunk < grown,
        "cache must yield memory to the new working set: {grown} -> {shrunk}"
    );
    sys.check_invariants();
}
