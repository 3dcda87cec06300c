//! A workload set up and ready to run: the store or server under test,
//! the driver with its shadow, and the measurement taken around each
//! round of fixed work.

use crate::driver::{Driver, StubStore, TIER_COLD, TIER_HOT, TIER_WARM};
use crate::medium::CountingMedium;
use crate::rng::SplitMix64;
use crate::stats::{fast_quantile, Better, Lat};
use crate::sys;
use crate::workload::{Spec, Target};
use cc_core::{CompressedStore, FileMedium, StoreConfig};
use cc_server::{Client, Pipeline, Server, ServerBackend, ServerConfig};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Where the benchmark writes: the spill file and the trace. Inside the
/// package directory whether run from the repository root (as
/// `BENCHMARK.json` does) or from `benchmark/` itself.
pub fn out_dir() -> PathBuf {
    let from_root = Path::new("benchmark");
    if from_root.join("Cargo.toml").is_file() {
        from_root.join("out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// How a [`Bench`] differs from the shipped configuration.
#[derive(Clone, Copy)]
pub struct Options {
    /// Put the counting wrapper between the store and its spill file.
    pub count_medium: bool,
    /// `StoreConfig::with_telemetry`; `true` is the shipped default.
    pub telemetry: bool,
    /// Force the in-memory direct-call target, whatever the spec says:
    /// the wire workload's stream replayed on a bare store.
    pub bare_store: bool,
}

impl Options {
    pub const SHIPPED: Options = Options {
        count_medium: false,
        telemetry: true,
        bare_store: false,
    };
}

pub struct Wire {
    pub server: Server,
    pub client: Client,
    pub pipe: Pipeline,
    pub connect_ns: u64,
}

pub struct Bench {
    pub driver: Driver,
    pub store: Arc<CompressedStore>,
    pub wire: Option<Wire>,
    pub medium: Option<Arc<CountingMedium<FileMedium>>>,
    /// What the store (and server) added to the resident set, beyond the
    /// bytes it accounts for, per key, once every key is stored once.
    pub rss_overhead_bytes_per_entry: f64,
    spill_path: Option<PathBuf>,
    calib: Calibration,
}

impl Bench {
    /// Everything `setup_s` covers: page pool, store (and server and
    /// client), a PUT of every key, and `warmup_ops` operations.
    pub fn set_up(spec: &'static Spec, seed: u64, warmup_ops: u64, opts: Options) -> Bench {
        let driver = Driver::new(spec, seed);
        let rss_before_store = sys::rss_bytes();
        let target = if opts.bare_store {
            Target::Store
        } else {
            spec.target
        };
        let mut cfg = StoreConfig::in_memory(spec.budget).with_telemetry(opts.telemetry);
        let (mut medium, mut spill_path) = (None, None);
        let store = if target == Target::StoreSpill {
            let dir = out_dir();
            std::fs::create_dir_all(&dir).expect("create benchmark/out");
            let path = dir.join(format!("spill-{}-{}.dat", spec.name, std::process::id()));
            spill_path = Some(path.clone());
            if opts.count_medium {
                let file = FileMedium::create(&path).expect("create spill file");
                let counting = Arc::new(CountingMedium::new(file, driver.tracer.epoch));
                medium = Some(Arc::clone(&counting));
                CompressedStore::with_medium(cfg, counting)
            } else {
                cfg.spill_path = Some(path);
                CompressedStore::new(cfg)
            }
        } else {
            CompressedStore::new(cfg)
        };
        let store = Arc::new(store);

        let wire = (target == Target::Wire).then(|| {
            let cfg = ServerConfig::default().with_backend(ServerBackend::Evented);
            let server =
                Server::spawn(Arc::clone(&store), "127.0.0.1:0", cfg).expect("bind loopback");
            let t = Instant::now();
            let client = Client::connect(server.local_addr()).expect("connect to own server");
            Wire {
                server,
                client,
                pipe: Pipeline::new(),
                connect_ns: t.elapsed().as_nanos() as u64,
            }
        });

        let mut bench = Bench {
            driver,
            store,
            wire,
            medium,
            rss_overhead_bytes_per_entry: 0.0,
            spill_path,
            calib: Calibration::new(),
        };
        match &mut bench.wire {
            Some(w) => bench
                .driver
                .prefill_wire(&mut w.client, &mut w.pipe)
                .expect("prefill over the wire"),
            None => bench.driver.prefill_store(&*bench.store),
        }
        let grown = sys::rss_bytes() as f64 - rss_before_store as f64;
        bench.rss_overhead_bytes_per_entry =
            (grown - bench.store.stats().resident_bytes as f64) / spec.keys as f64;
        bench.run_ops(warmup_ops, None);
        bench
    }

    /// `n` operations against the target, untimed here.
    fn run_ops(&mut self, n: u64, trace_round: Option<u32>) {
        match &mut self.wire {
            Some(w) => self
                .driver
                .run_wire(&mut w.client, &mut w.pipe, n, trace_round)
                .expect("wire round"),
            None => self.driver.run_store(&*self.store, n, trace_round),
        }
    }

    /// One measured round of `n` operations: the calibration kernel, the
    /// clocks, the operations, the clocks again.
    pub fn round(&mut self, n: u64, trace_round: Option<u32>) -> Round {
        let calib_ns = self.calib.run();
        self.driver.begin_round();
        let (switches, cpu, driver_cpu, start) = (
            sys::thread_ctx_switches(),
            sys::process_cpu_ns(),
            sys::thread_cpu_ns(),
            Instant::now(),
        );
        self.run_ops(n, trace_round);
        let wall_ns = start.elapsed().as_nanos() as u64;
        let (cpu_ns, driver_cpu_ns) = (
            sys::process_cpu_ns() - cpu,
            sys::thread_cpu_ns() - driver_cpu,
        );
        let ctx_switches = sys::thread_ctx_switches() - switches;

        let d = &mut self.driver;
        let mut all: Vec<u32> = d.get_ns.iter().map(|&(ns, _)| ns).collect();
        let by_tier = |tag: u8| {
            let mut v: Vec<u32> = d
                .get_ns
                .iter()
                .filter(|s| s.1 == tag)
                .map(|s| s.0)
                .collect();
            Lat::of(&mut v)
        };
        Round {
            traced: trace_round.is_some(),
            ops: n,
            gets: d.gets,
            puts: d.puts,
            wall_ns,
            cpu_ns,
            driver_cpu_ns,
            ctx_switches,
            calib_ns,
            get_hot: by_tier(TIER_HOT),
            get_warm: by_tier(TIER_WARM),
            get_cold: by_tier(TIER_COLD),
            get: Lat::of(&mut all),
            put: Lat::of(&mut d.put_ns),
            resident_bytes: self.store.stats().resident_bytes,
        }
    }

    /// A store with this workload's budget and `telemetry`, driven by the
    /// same seeded stream, for `n` operations after set-up: ns per op.
    pub fn replay_ns_per_op(spec: &'static Spec, seed: u64, n: u64, opts: Options) -> f64 {
        let mut b = Bench::set_up(spec, seed, n / 4, opts);
        b.round(n, None).ns_per_op()
    }

    /// The driver's own share of an operation: the same stream with the
    /// store call replaced by a stand-in that does nothing.
    pub fn driver_ns_per_op(spec: &'static Spec, seed: u64, n: u64) -> f64 {
        let mut d = Driver::new(spec, seed);
        d.prefill_store(&StubStore);
        d.run_store(&StubStore, n / 4, None);
        let t = Instant::now();
        d.run_store(&StubStore, n, None);
        let ns = t.elapsed().as_nanos() as f64 / n as f64;
        assert_eq!(d.failed, 0, "the stand-in store cannot fail a check");
        ns
    }

    /// Stop the server (if any), timed. The store stays readable.
    pub fn shut_down_server(&mut self) -> u64 {
        match self.wire.take() {
            Some(w) => {
                drop(w.client);
                let t = Instant::now();
                w.server.shutdown();
                t.elapsed().as_nanos() as u64
            }
            None => 0,
        }
    }
}

impl Drop for Bench {
    fn drop(&mut self) {
        // The store still holds the file open; unlinking it now is fine
        // on Linux and leaves nothing behind whatever happens next.
        if let Some(p) = &self.spill_path {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// What one round of fixed work measured.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub traced: bool,
    pub ops: u64,
    pub gets: u64,
    pub puts: u64,
    pub wall_ns: u64,
    /// CPU time of every thread of the process over the round.
    pub cpu_ns: u64,
    /// CPU time of the driver thread alone.
    pub driver_cpu_ns: u64,
    pub ctx_switches: u64,
    /// The calibration kernel, timed just before the round.
    pub calib_ns: u64,
    pub get: Lat,
    pub put: Lat,
    pub get_hot: Lat,
    pub get_warm: Lat,
    pub get_cold: Lat,
    /// `StoreStats::resident_bytes` at the round's end, for the budget.
    pub resident_bytes: u64,
}

impl Round {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 * 1e9 / self.wall_ns as f64
    }
    pub fn ns_per_op(&self) -> f64 {
        self.wall_ns as f64 / self.ops as f64
    }
    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.ops as f64
    }
}

/// A fixed integer-and-memory kernel: half a million dependent loads
/// through a 256 KiB table. It does the same work every time, so when it
/// runs slow the host is slow, and a round that follows it is suspect.
pub struct Calibration {
    table: Vec<u64>,
}

impl Calibration {
    const WORDS: usize = 32 * 1024;
    const STEPS: usize = 512 * 1024;

    pub fn new() -> Calibration {
        let mut rng = SplitMix64::new(0xCA11_B8A7E);
        Calibration {
            table: (0..Self::WORDS).map(|_| rng.next_u64()).collect(),
        }
    }

    /// Run the kernel once; ns taken.
    pub fn run(&self) -> u64 {
        let t = Instant::now();
        let mut x = 1u64;
        for _ in 0..Self::STEPS {
            x = (x ^ self.table[x as usize % Self::WORDS]).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7;
        }
        black_box(x);
        t.elapsed().as_nanos() as u64
    }
}

/// Whether the host slowed during the run: the calibration kernel's fast
/// quartile sits more than 10 % above its fastest.
pub fn disturbed(calib_ns: &[f64]) -> bool {
    let min = calib_ns.iter().copied().fold(f64::INFINITY, f64::min);
    fast_quantile(calib_ns, Better::Lower, 4) > min * 1.10
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn calibration_is_fixed_work() {
        let c = Calibration::new();
        assert!(c.run() > 0);
        assert!(!disturbed(&[100.0, 101.0, 102.0, 150.0, 103.0]));
        assert!(disturbed(&[100.0, 130.0, 131.0, 150.0, 129.0]));
    }

    #[test]
    fn a_small_round_measures_and_stays_correct() {
        let spec = &WORKLOADS[0];
        let mut b = Bench::set_up(spec, 1, 8_000, Options::SHIPPED);
        let r = b.round(8_000, None);
        assert_eq!(r.ops, 8_000);
        assert_eq!(r.gets + r.puts, 8_000);
        assert_eq!(r.get.n + r.put.n, 8_000 / crate::driver::LAT_EVERY);
        assert!(r.wall_ns > 0 && r.cpu_ns > 0 && r.driver_cpu_ns > 0);
        assert!(r.get.n > 0 && r.get.p50_ns <= r.get.p99_ns && r.get.p99_ns <= r.get.max_ns);
        assert!(r.resident_bytes <= spec.budget as u64);
        assert_eq!(b.driver.failed, 0);
        assert_eq!(b.driver.live_keys(), spec.keys as u64);
    }

    #[test]
    fn the_wire_target_round_trips_and_shuts_down() {
        let spec = &WORKLOADS[3];
        let mut b = Bench::set_up(spec, 2, 4_000, Options::SHIPPED);
        let r = b.round(4_000, Some(1));
        assert_eq!(r.get.n + r.put.n, 4_000 / crate::driver::LAT_EVERY);
        assert_eq!(
            r.get_hot.n + r.get_warm.n + r.get_cold.n,
            0,
            "the wire hides the tier"
        );
        assert_eq!(b.driver.failed, 0);
        assert!(b
            .driver
            .tracer
            .spans
            .iter()
            .any(|s| s.name == "client.recv"));
        assert!(b.shut_down_server() > 0);
        assert!(b.wire.is_none());
    }
}
