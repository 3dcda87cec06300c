//! A vendored, dependency-free stand-in for the `criterion` crate.
//!
//! This workspace builds in a container without a crates registry, so the
//! real `criterion` cannot be fetched. The benches use a small subset of
//! its API; this shim implements that subset with a straightforward
//! warmup + timed-samples loop and plain-text reporting (median ns/iter,
//! plus MiB/s when a [`Throughput`] is set). There are no HTML reports,
//! statistics beyond min/median/mean, or baseline comparisons.
//!
//! As with the real crate, the first non-flag argument on the command
//! line filters the run: `cargo bench --bench codec_kernels --
//! lzrw1_encode` runs only the benchmarks whose full name (`group/id`)
//! contains `lzrw1_encode`. Flags, among them the `--bench` that cargo
//! passes, are ignored.

#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// Re-export-compatible `black_box`.
pub use std::hint::black_box;

/// Top-level benchmark driver.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    /// Only benchmarks whose full name contains this run.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_millis(1200),
            filter: None,
        }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Time spent warming up before sampling.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Total time budget for the timed samples.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Take the name filter from the command line: the first argument
    /// that is not a flag (see the crate docs). [`criterion_group!`] calls
    /// this on its configuration, as the real macro does.
    pub fn configure_from_args(mut self) -> Self {
        self.filter = filter_from_args(std::env::args().skip(1));
        self
    }

    /// Start a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Benchmark a single function outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let cfg = self.clone();
        run_one(&cfg, &id.0, None, f);
        self
    }
}

/// Throughput annotation: converts per-iteration time into a rate.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `function_name/parameter` form.
    pub fn new(function: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{function}/{parameter}"))
    }

    /// Parameter-only form.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

/// How [`Bencher::iter_batched`] amortizes setup; the shim treats all
/// variants identically (setup runs outside the timed region).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// A group of related benchmarks sharing a throughput annotation.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Set the per-iteration throughput used in reports.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Override the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.criterion.sample_size = n.max(2);
        self
    }

    /// Override the measurement time for this group.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.criterion.measurement_time = d;
        self
    }

    /// Benchmark a closure.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let full = format!("{}/{}", self.name, id.0);
        let cfg = self.criterion.clone();
        run_one(&cfg, &full, self.throughput, f);
        self
    }

    /// Benchmark a closure given a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// End the group (reporting already happened per-benchmark).
    pub fn finish(self) {}
}

/// Passed to each benchmark closure; runs and times the payload.
pub struct Bencher {
    /// Iterations to run in the current sample.
    iters: u64,
    /// Measured duration of the current sample.
    elapsed: Duration,
}

impl Bencher {
    /// Time `f`, called `self.iters` times.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }

    /// Time `routine` over inputs produced (untimed) by `setup`.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }

    /// Like [`Bencher::iter_batched`] but the routine borrows the input.
    pub fn iter_batched_ref<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(&mut I) -> O,
    {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let mut input = setup();
            let start = Instant::now();
            black_box(routine(&mut input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }
}

/// The first argument that is not a flag.
fn filter_from_args(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().find(|arg| !arg.starts_with('-'))
}

fn run_one<F>(cfg: &Criterion, name: &str, throughput: Option<Throughput>, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    if cfg
        .filter
        .as_ref()
        .is_some_and(|filter| !name.contains(filter))
    {
        return;
    }
    // Warmup: discover a per-sample iteration count while warming caches.
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    let warm_start = Instant::now();
    let mut per_iter = Duration::from_nanos(1);
    while warm_start.elapsed() < cfg.warm_up_time {
        f(&mut b);
        if b.elapsed > Duration::ZERO {
            per_iter = b.elapsed / b.iters as u32;
        }
        b.iters = (b.iters * 2).min(1 << 30);
    }
    let sample_budget = cfg.measurement_time / cfg.sample_size as u32;
    let iters_per_sample =
        (sample_budget.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1 << 30) as u64;

    let mut samples_ns: Vec<f64> = Vec::with_capacity(cfg.sample_size);
    for _ in 0..cfg.sample_size {
        b.iters = iters_per_sample;
        f(&mut b);
        samples_ns.push(b.elapsed.as_nanos() as f64 / b.iters as f64);
    }
    samples_ns.sort_by(|a, b| a.total_cmp(b));
    let median = samples_ns[samples_ns.len() / 2];
    let min = samples_ns[0];
    let mean = samples_ns.iter().sum::<f64>() / samples_ns.len() as f64;

    let rate = match throughput {
        Some(Throughput::Bytes(n)) => {
            format!(
                "  {:10.1} MiB/s",
                n as f64 / (1 << 20) as f64 / (median * 1e-9)
            )
        }
        Some(Throughput::Elements(n)) => {
            format!("  {:10.1} Melem/s", n as f64 / 1e6 / (median * 1e-9))
        }
        None => String::new(),
    };
    println!(
        "{name:<48} time: [min {min:>12.1} ns  median {median:>12.1} ns  mean {mean:>12.1} ns]{rate}"
    );
}

/// Declare a group of benchmark functions, with an optional configured
/// `Criterion` (mirrors the real macro's two grammars).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $cfg.configure_from_args();
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Emit `main` running each declared group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_first_non_flag_argument_is_the_filter() {
        assert_eq!(filter_from_args(args(&[])), None);
        assert_eq!(filter_from_args(args(&["--bench"])), None);
        assert_eq!(
            filter_from_args(args(&["lzrw1_encode", "--bench"])),
            Some("lzrw1_encode".to_string())
        );
        assert_eq!(
            filter_from_args(args(&["--bench", "crc32", "text"])),
            Some("crc32".to_string())
        );
    }

    #[test]
    fn only_names_containing_the_filter_run() {
        let mut c = Criterion::default()
            .warm_up_time(Duration::ZERO)
            .measurement_time(Duration::from_millis(1))
            .sample_size(2);
        c.filter = Some("encode".to_string());
        let mut ran = Vec::new();
        let mut group = c.benchmark_group("codec_kernels");
        for id in ["lzrw1_encode/text", "lzrw1_decode/text", "bdi_encode/noise"] {
            group.bench_function(id, |b| {
                ran.push(id);
                b.iter(|| ());
            });
        }
        group.finish();
        ran.dedup();
        assert_eq!(ran, ["lzrw1_encode/text", "bdi_encode/noise"]);
    }
}
