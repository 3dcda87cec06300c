//! One Criterion bench per paper exhibit, at reduced scale.
//!
//! The full-fidelity reproductions are the `src/bin/{fig1a,fig1b,fig3,
//! table1}` harnesses (see EXPERIMENTS.md); these benches keep a smaller
//! version of each exhibit runnable under plain `cargo bench`, so every
//! table and figure has a bench target and regressions in any experiment
//! path are caught.

use cc_sim::analytic::{bandwidth_speedup, grid, ratio_axis, reference_speedup, speed_axis};
use cc_sim::workloads::{
    compare::CompareApp,
    gold::{GoldApp, GoldPhase, GoldWorkload},
    isca::IscaApp,
    sortapp::{SortApp, SortInput},
    thrasher::{measure_cycle_access_time, Thrasher},
    Workload,
};
use cc_sim::{Mode, SimConfig, System};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const MB: u64 = 1024 * 1024;

fn fig1_models(c: &mut Criterion) {
    let ratios = ratio_axis(0.05, 1.0, 40);
    let speeds = speed_axis(0.25, 16.0, 40);
    c.bench_function("fig1a_surface", |b| {
        b.iter(|| grid(bandwidth_speedup, &ratios, &speeds))
    });
    c.bench_function("fig1b_surface", |b| {
        b.iter(|| grid(reference_speedup, &ratios, &speeds))
    });
}

fn fig3_points(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_point");
    group.sample_size(10);
    for (label, mode, write) in [
        ("std_rw", Mode::Std, true),
        ("cc_rw", Mode::Cc, true),
        ("std_ro", Mode::Std, false),
        ("cc_ro", Mode::Cc, false),
    ] {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let mut sys = System::new(SimConfig::decstation(MB as usize, mode));
                let mut t = Thrasher::figure3(2 * MB, write);
                t.passes = 2;
                measure_cycle_access_time(&mut sys, &t)
            })
        });
    }
    group.finish();
}

fn table1_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_row");
    group.sample_size(10);
    let mem = 512 * 1024;

    group.bench_function("compare", |b| {
        b.iter(|| {
            let mut sys = System::new(SimConfig::decstation(mem, Mode::Cc));
            CompareApp {
                text_len: 1200,
                band: 16,
                seed: 3,
            }
            .run(&mut sys)
        })
    });
    group.bench_function("isca", |b| {
        b.iter(|| {
            let mut sys = System::new(SimConfig::decstation(mem, Mode::Cc));
            IscaApp {
                processors: 4,
                memory_blocks: 100_000,
                cache_sets: 256,
                ways: 2,
                references: 10_000,
                seed: 9,
                think: cc_util::Ns::ZERO,
            }
            .run(&mut sys)
        })
    });
    group.bench_function("sort_partial", |b| {
        b.iter(|| {
            let mut sys = System::new(SimConfig::decstation(mem, Mode::Cc));
            SortApp {
                input: SortInput::Partial,
                text_bytes: 96 * 1024,
                seed: 4,
                cmp_cost: cc_util::Ns::ZERO,
            }
            .run(&mut sys)
        })
    });
    group.bench_function("sort_random", |b| {
        b.iter(|| {
            let mut sys = System::new(SimConfig::decstation(mem, Mode::Cc));
            SortApp {
                input: SortInput::Random,
                text_bytes: 96 * 1024,
                seed: 4,
                cmp_cost: cc_util::Ns::ZERO,
            }
            .run(&mut sys)
        })
    });
    group.bench_function("gold_create", |b| {
        b.iter(|| {
            let mut sys = System::new(SimConfig::decstation(mem, Mode::Cc));
            GoldWorkload {
                app: GoldApp {
                    messages: 400,
                    words_per_message: 30,
                    vocabulary: 1000,
                    buckets: 256,
                    queries: 500,
                    seed: 6,
                    parse_cost: cc_util::Ns::ZERO,
                    query_cost: cc_util::Ns::ZERO,
                },
                phase: GoldPhase::Create,
            }
            .run(&mut sys)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_millis(1500));
    targets = fig1_models, fig3_points, table1_rows
}
criterion_main!(benches);
