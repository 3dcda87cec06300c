//! `loadgen` — closed-loop load generator and integrity checker for
//! `cc-server`.
//!
//! Spins up an in-process server (ephemeral loopback port, spill-backed
//! store with a budget ~10× under the working set so both tiers serve
//! traffic), then drives it with `N` client threads issuing a zipfian
//! 50/40/10 PUT/GET/DEL mix over reused connections. Each thread owns a
//! disjoint key partition and a shadow `HashMap` of what it has stored,
//! so **every GET is verified byte-for-byte** against the shadow model
//! and every DEL's existed/missing answer is checked — any disagreement
//! is an integrity error.
//!
//! The engine under test is selectable: `--backend threaded` (the
//! blocking worker pool) or `--backend evented` (the nonblocking
//! readiness reactor; `evented-poll` forces the poll(2) fallback).
//! `--pipeline W` switches the clients to the pipelined protocol — a
//! window of `W` tagged requests in flight per connection, responses
//! reaped by tag — with the same shadow verification (expectations are
//! pinned at send time; the server executes each connection's requests
//! in order) plus an exactly-once tag check.
//!
//! `--conns N` adds a **connection-count A/B sweep**: for each backend,
//! levels of total connections (a few hot, the rest idle-but-open) up
//! to `N`, measuring hot-path throughput and client-observed p99 at
//! each level. A level is *sustained* if every connection is admitted
//! (PING answered) and the hot traffic runs error-free. The per-backend
//! curves and a threaded-vs-evented verdict land in the output JSON —
//! this is the experiment showing the reactor holding an order of
//! magnitude more connections than the thread-per-connection pool at
//! equal or better tail latency.
//!
//! After the run one extra connection FLUSHes, fetches STATS, and probes
//! saturation (full mode only): it parks `workers` idle connections so
//! the pool is fully occupied, then connects once more and asserts the
//! server answers `BUSY` — bounded admission observable on the wire.
//!
//! Results land in `BENCH_server.json`: client-side throughput, the
//! server's per-opcode latency histograms (p50/p99 straight from the
//! wire telemetry), the wire counters, the store's memory/spill tier
//! split parsed back out of the STATS payload, and (with `--conns`) the
//! `ab_sweep` section.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p cc-bench --bin loadgen [-- --threads N --ops N \
//!     --backend threaded|evented|evented-poll --pipeline W --conns N --out PATH]
//! cargo run --release -p cc-bench --bin loadgen -- --smoke [--backend evented] [--conns 64]
//! ```
//!
//! `--smoke` runs a reduced-ops pass and exits nonzero on any integrity
//! error, any response-tag mismatch, any malformed or BUSY-rejected
//! frame, a latency histogram that is empty or disordered, ring events
//! that disagree with the counters they shadow, a STATS payload that
//! fails Prometheus parsing — or, when `--conns` is given, an evented
//! p99 worse than 2× the threaded p99 at equal connection count. CI
//! runs it on every push next to `storebench --smoke`.

use cc_bench::smoke;
use cc_core::medium::{Fault, FaultInjector, FaultPlan, FileMedium};
use cc_core::store::{CompressedStore, StoreConfig};
use cc_server::proto::Request;
use cc_server::{Client, ClientError, Pipeline, Server, ServerBackend, ServerConfig};
use cc_telemetry::trace::{orphan_spans, Tracer};
use cc_telemetry::Snapshot;
use cc_util::SplitMix64;
use std::collections::HashMap;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PAGE: usize = 4096;
/// Keys per client thread; partitions are disjoint so shadow-model
/// verification needs no cross-thread coordination.
const KEYS_PER_THREAD: u64 = 1024;
const ZIPF_S: f64 = 0.99;
/// Store budget: far under the compressed working set, so most of the
/// key space lives on the spill file and GETs split across tiers.
const BUDGET: usize = 1 << 20;

/// Zipfian sampler: precomputed CDF + binary search.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: u64, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cdf.push(total);
        }
        for v in cdf.iter_mut() {
            *v /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

/// Deterministic page content for `(key, version)`: mostly ~2:1
/// compressible filler, every fifth version incompressible noise, so
/// the store's threshold path is exercised too. The shadow model stores
/// only the version and regenerates the page to verify GETs.
fn fill_page(key: u64, version: u64, buf: &mut [u8]) {
    let salt = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ version;
    if version.is_multiple_of(5) {
        let mut rng = SplitMix64::new(salt | 1);
        for b in buf.iter_mut() {
            *b = rng.next_u64() as u8;
        }
    } else {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = ((salt as usize + i / 13) % 64) as u8 + b' ';
        }
    }
}

/// One client thread's tally.
#[derive(Default)]
struct ThreadResult {
    ops: u64,
    /// GET payload or DEL existed-bit disagreed with the shadow model.
    integrity_mismatches: u64,
    /// A pipelined response carried a tag that was duplicate, unknown,
    /// or already reaped.
    tag_mismatches: u64,
    /// Transport/protocol/server errors (any is a failure).
    hard_errors: u64,
    gets_hit: u64,
    gets_miss: u64,
}

impl ThreadResult {
    fn absorb(&mut self, r: ThreadResult) {
        self.ops += r.ops;
        self.integrity_mismatches += r.integrity_mismatches;
        self.tag_mismatches += r.tag_mismatches;
        self.hard_errors += r.hard_errors;
        self.gets_hit += r.gets_hit;
        self.gets_miss += r.gets_miss;
    }
}

fn run_client(
    addr: std::net::SocketAddr,
    thread: usize,
    ops: u64,
    zipf: &Zipf,
) -> Result<ThreadResult, ClientError> {
    let mut client = Client::connect(addr)?;
    client.set_timeout(Some(Duration::from_secs(30)))?;
    client.ping()?;
    let base = thread as u64 * KEYS_PER_THREAD;
    let mut shadow: HashMap<u64, u64> = HashMap::new();
    let mut versions: u64 = 0;
    let mut rng = SplitMix64::new(0xF00D + thread as u64);
    let mut page = vec![0u8; PAGE];
    let mut expect = vec![0u8; PAGE];
    let mut out = Vec::with_capacity(PAGE);
    let mut r = ThreadResult::default();
    for _ in 0..ops {
        let key = base + zipf.sample(&mut rng);
        r.ops += 1;
        match rng.next_u64() % 10 {
            0..=4 => {
                versions += 1;
                fill_page(key, versions, &mut page);
                match client.put(key, &page) {
                    Ok(()) => {
                        shadow.insert(key, versions);
                    }
                    Err(_) => r.hard_errors += 1,
                }
            }
            5..=8 => match client.get(key, &mut out) {
                Ok(hit) => {
                    let expected = shadow.get(&key).copied();
                    match (hit, expected) {
                        (true, Some(v)) => {
                            r.gets_hit += 1;
                            fill_page(key, v, &mut expect);
                            if out != expect {
                                r.integrity_mismatches += 1;
                            }
                        }
                        (false, None) => r.gets_miss += 1,
                        // Hit without a shadow entry, or a miss on a key
                        // we stored: the server lost or invented data.
                        _ => r.integrity_mismatches += 1,
                    }
                }
                Err(_) => r.hard_errors += 1,
            },
            _ => match client.del(key) {
                Ok(existed) => {
                    if existed != shadow.remove(&key).is_some() {
                        r.integrity_mismatches += 1;
                    }
                }
                Err(_) => r.hard_errors += 1,
            },
        }
    }
    Ok(r)
}

/// What a pipelined request promised at send time. The server executes
/// each connection's requests in submission order, so expectations
/// pinned against the shadow model *when the request is written* are
/// exact at execution time — even with `W` requests in flight.
enum Pending {
    Put,
    Get {
        key: u64,
        expect_version: Option<u64>,
    },
    Del {
        expect_existed: bool,
    },
}

/// The same zipfian 50/40/10 mix, driven through the pipelined protocol
/// with a window of `window` tagged requests in flight.
fn run_client_pipelined(
    addr: std::net::SocketAddr,
    thread: usize,
    ops: u64,
    zipf: &Zipf,
    window: usize,
) -> Result<ThreadResult, ClientError> {
    let mut client = Client::connect(addr)?;
    client.set_timeout(Some(Duration::from_secs(30)))?;
    client.ping()?;
    let base = thread as u64 * KEYS_PER_THREAD;
    let mut shadow: HashMap<u64, u64> = HashMap::new();
    let mut versions: u64 = 0;
    let mut rng = SplitMix64::new(0xF00D + thread as u64);
    let mut page = vec![0u8; PAGE];
    let mut expect = vec![0u8; PAGE];
    let mut out = Vec::with_capacity(PAGE);
    let mut pipe = Pipeline::new();
    let mut pending: HashMap<u32, Pending> = HashMap::new();
    let mut r = ThreadResult::default();

    let reap = |client: &mut Client,
                pipe: &mut Pipeline,
                pending: &mut HashMap<u32, Pending>,
                out: &mut Vec<u8>,
                expect: &mut Vec<u8>,
                r: &mut ThreadResult|
     -> Result<(), ClientError> {
        use cc_server::Status;
        let (seq, status) = match pipe.recv(client, out) {
            Ok(v) => v,
            Err(ClientError::Protocol(_)) => {
                // Duplicate/unknown tag: the exactly-once window caught
                // a protocol violation.
                r.tag_mismatches += 1;
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let Some(meta) = pending.remove(&seq) else {
            r.tag_mismatches += 1;
            return Ok(());
        };
        match (meta, status) {
            (Pending::Put, Status::Ok) => {}
            (Pending::Put, _) => r.hard_errors += 1,
            (
                Pending::Get {
                    key,
                    expect_version,
                },
                status,
            ) => match (status, expect_version) {
                (Status::Ok, Some(v)) => {
                    r.gets_hit += 1;
                    fill_page(key, v, expect);
                    if out != expect {
                        r.integrity_mismatches += 1;
                    }
                }
                (Status::NotFound, None) => r.gets_miss += 1,
                (Status::Ok, None) | (Status::NotFound, Some(_)) => r.integrity_mismatches += 1,
                _ => r.hard_errors += 1,
            },
            (Pending::Del { expect_existed }, status) => match status {
                Status::Ok if expect_existed => {}
                Status::NotFound if !expect_existed => {}
                Status::Ok | Status::NotFound => r.integrity_mismatches += 1,
                _ => r.hard_errors += 1,
            },
        }
        Ok(())
    };

    for _ in 0..ops {
        let key = base + zipf.sample(&mut rng);
        r.ops += 1;
        // Expectations and the shadow update happen at *send* time:
        // in-order execution per connection makes them exact.
        let seq = match rng.next_u64() % 10 {
            0..=4 => {
                versions += 1;
                fill_page(key, versions, &mut page);
                let seq = pipe.send(&mut client, &Request::Put { key, page: &page })?;
                shadow.insert(key, versions);
                pending.insert(seq, Pending::Put);
                seq
            }
            5..=8 => {
                let seq = pipe.send(&mut client, &Request::Get { key })?;
                pending.insert(
                    seq,
                    Pending::Get {
                        key,
                        expect_version: shadow.get(&key).copied(),
                    },
                );
                seq
            }
            _ => {
                let seq = pipe.send(&mut client, &Request::Del { key })?;
                pending.insert(
                    seq,
                    Pending::Del {
                        expect_existed: shadow.remove(&key).is_some(),
                    },
                );
                seq
            }
        };
        let _ = seq;
        while pipe.in_flight() >= window {
            reap(
                &mut client,
                &mut pipe,
                &mut pending,
                &mut out,
                &mut expect,
                &mut r,
            )?;
        }
    }
    while pipe.in_flight() > 0 {
        reap(
            &mut client,
            &mut pipe,
            &mut pending,
            &mut out,
            &mut expect,
            &mut r,
        )?;
    }
    if !pending.is_empty() {
        // Requests sent but never answered: every one is a lost
        // response.
        r.tag_mismatches += pending.len() as u64;
    }
    Ok(r)
}

/// Park `workers` idle connections so every worker is occupied, then
/// connect once more: the admission queue is full and the server must
/// answer `BUSY`. Returns whether the extra connection was rejected.
/// The probe reads the unsolicited BUSY frame directly (sending nothing
/// first), because the server closes right after writing it.
fn saturation_probe(addr: std::net::SocketAddr, workers: usize) -> bool {
    use cc_server::{frame, Response, Status};
    let holders: Vec<Client> = (0..workers)
        .filter_map(|_| Client::connect(addr).ok())
        .collect();
    if holders.len() < workers {
        return false;
    }
    // The holders occupy workers as soon as the pool hands them over;
    // give the rendezvous a moment so the probe races nothing.
    std::thread::sleep(Duration::from_millis(50));
    let rejected = match std::net::TcpStream::connect(addr) {
        Ok(mut extra) => {
            let _ = extra.set_read_timeout(Some(Duration::from_secs(5)));
            let mut body = Vec::new();
            match frame::read_frame(&mut extra, &mut body, frame::DEFAULT_MAX_FRAME) {
                Ok(_seq) => matches!(
                    Response::decode(&body),
                    Ok(Response {
                        status: Status::Busy,
                        ..
                    })
                ),
                Err(_) => false,
            }
        }
        Err(_) => false,
    };
    drop(holders);
    rejected
}

// ---------------------------------------------------------------------
// Connection-count A/B sweep
// ---------------------------------------------------------------------

/// Hot connections driving traffic at every sweep level; the rest of
/// the level's connections are open-and-idle.
const SWEEP_HOT: usize = 2;
/// Worker threads for the threaded backend under sweep: its
/// connection-count ceiling, chosen so the A/B is a fair
/// "thread-per-connection at its configured capacity" baseline rather
/// than an artificially tiny pool.
const SWEEP_WORKERS: usize = 16;
/// Keys per hot connection in the sweep (small: the sweep measures the
/// service path, not the store tiers).
const SWEEP_KEYS: u64 = 256;

/// One measured level of the sweep.
struct LevelResult {
    conns: usize,
    admitted: usize,
    sustained: bool,
    ops_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
}

struct BackendSweep {
    levels: Vec<LevelResult>,
}

impl BackendSweep {
    /// The largest connection count this backend held with every
    /// connection admitted and the hot path clean.
    fn max_sustained(&self) -> usize {
        self.levels
            .iter()
            .filter(|l| l.sustained)
            .map(|l| l.conns)
            .max()
            .unwrap_or(0)
    }

    fn level(&self, conns: usize) -> Option<&LevelResult> {
        self.levels.iter().find(|l| l.conns == conns)
    }
}

/// Sequential PUT/GET hot loop with per-op client-side latency capture.
/// Returns `(latencies_ns, result)`.
fn run_hot(
    addr: std::net::SocketAddr,
    thread: usize,
    ops: u64,
) -> Result<(Vec<u64>, ThreadResult), ClientError> {
    let mut client = Client::connect(addr)?;
    client.set_timeout(Some(Duration::from_secs(30)))?;
    client.ping()?;
    let base = thread as u64 * SWEEP_KEYS;
    let mut shadow: HashMap<u64, u64> = HashMap::new();
    let mut versions = 0u64;
    let mut rng = SplitMix64::new(0xBEEF + thread as u64);
    let mut page = vec![0u8; PAGE];
    let mut expect = vec![0u8; PAGE];
    let mut out = Vec::with_capacity(PAGE);
    let mut lat = Vec::with_capacity(ops as usize);
    let mut r = ThreadResult::default();
    for _ in 0..ops {
        let key = base + rng.next_u64() % SWEEP_KEYS;
        r.ops += 1;
        let t0 = Instant::now();
        if rng.next_u64().is_multiple_of(2) {
            versions += 1;
            fill_page(key, versions, &mut page);
            match client.put(key, &page) {
                Ok(()) => {
                    shadow.insert(key, versions);
                }
                Err(_) => r.hard_errors += 1,
            }
        } else {
            match client.get(key, &mut out) {
                Ok(hit) => match (hit, shadow.get(&key).copied()) {
                    (true, Some(v)) => {
                        r.gets_hit += 1;
                        fill_page(key, v, &mut expect);
                        if out != expect {
                            r.integrity_mismatches += 1;
                        }
                    }
                    (false, None) => r.gets_miss += 1,
                    _ => r.integrity_mismatches += 1,
                },
                Err(_) => r.hard_errors += 1,
            }
        }
        lat.push(t0.elapsed().as_nanos() as u64);
    }
    Ok((lat, r))
}

fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 * p).ceil() as usize).clamp(1, sorted_ns.len()) - 1;
    sorted_ns[idx] as f64 / 1_000.0
}

/// One sweep level against a fresh server: `conns - SWEEP_HOT` idle
/// connections held open, `SWEEP_HOT` hot connections measured.
fn sweep_level(backend: ServerBackend, conns: usize, ops_per_hot: u64) -> LevelResult {
    let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(64 << 20)));
    let mut cfg = ServerConfig::default()
        .with_backend(backend)
        .with_idle_timeout(Duration::from_secs(120));
    cfg = match backend {
        // The pool's connection capacity IS the contended resource: cap
        // it crisply at the worker count (no backlog grace).
        ServerBackend::Threaded => cfg.with_workers(SWEEP_WORKERS).with_backlog(0),
        // The reactor is capacity-limited only by its admission cap.
        ServerBackend::Evented | ServerBackend::EventedPoll => cfg.with_max_conns(4096),
    };
    let server = Server::spawn(store, "127.0.0.1:0", cfg).expect("spawn sweep server");
    let addr = server.local_addr();

    // Idle holders first, then the hot connections claim the remaining
    // capacity — at a backend's exact capacity the level only fits in
    // this order. A connection counts as admitted once a PING
    // round-trips on it.
    let idle_target = conns.saturating_sub(SWEEP_HOT);
    let mut admitted = 0usize;
    let mut idle_holders = Vec::with_capacity(idle_target);
    for _ in 0..idle_target {
        let ok = Client::connect(addr).ok().and_then(|mut c| {
            c.set_timeout(Some(Duration::from_secs(3))).ok()?;
            c.ping().ok()?;
            Some(c)
        });
        match ok {
            Some(c) => {
                idle_holders.push(c);
                admitted += 1;
            }
            None => break,
        }
    }

    let start = Instant::now();
    let hot: Vec<_> = (0..SWEEP_HOT)
        .map(|t| std::thread::spawn(move || run_hot(addr, t, ops_per_hot)))
        .collect();
    let mut lat: Vec<u64> = Vec::new();
    let mut tally = ThreadResult::default();
    let mut hot_admitted = 0usize;
    for h in hot {
        if let Ok((l, r)) = h.join().expect("hot thread panicked") {
            lat.extend(l);
            tally.absorb(r);
            hot_admitted += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    drop(idle_holders);
    server.shutdown();

    lat.sort_unstable();
    let sustained = hot_admitted == SWEEP_HOT
        && admitted == idle_target
        && tally.hard_errors == 0
        && tally.integrity_mismatches == 0;
    LevelResult {
        conns,
        admitted: admitted + hot_admitted,
        sustained,
        ops_per_sec: tally.ops as f64 / elapsed.max(1e-9),
        p50_us: percentile_us(&lat, 0.50),
        p99_us: percentile_us(&lat, 0.99),
    }
}

/// Run the level ladder for one backend, stopping after the first level
/// it fails to sustain (higher levels cannot do better).
fn sweep_backend(backend: ServerBackend, levels: &[usize], ops_per_hot: u64) -> BackendSweep {
    let mut out = BackendSweep { levels: Vec::new() };
    for &conns in levels {
        eprintln!("  sweep {}: {} conns ...", backend.name(), conns);
        let level = sweep_level(backend, conns, ops_per_hot);
        eprintln!(
            "    admitted {}/{}, {}, {:.0} ops/s, p50 {:.0} us, p99 {:.0} us",
            level.admitted,
            conns,
            if level.sustained {
                "sustained"
            } else {
                "NOT sustained"
            },
            level.ops_per_sec,
            level.p50_us,
            level.p99_us,
        );
        let stop = !level.sustained;
        out.levels.push(level);
        if stop {
            break;
        }
    }
    out
}

fn sweep_json(s: &BackendSweep) -> String {
    let levels: Vec<String> = s
        .levels
        .iter()
        .map(|l| {
            format!(
                "{{\"conns\": {}, \"admitted\": {}, \"sustained\": {}, \"ops_per_sec\": {:.0}, \"p50_us\": {:.1}, \"p99_us\": {:.1}}}",
                l.conns, l.admitted, l.sustained, l.ops_per_sec, l.p50_us, l.p99_us
            )
        })
        .collect();
    format!(
        "{{\"levels\": [{}], \"max_sustained_conns\": {}}}",
        levels.join(", "),
        s.max_sustained()
    )
}

fn op_json(snap: &Snapshot, op: &str) -> String {
    match snap.op(op) {
        Some(s) => format!(
            "{{\"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
            s.count, s.p50, s.p99, s.max
        ),
        None => "{\"count\": 0}".into(),
    }
}

/// Pull `cc_store_<name>_total` back out of the STATS payload — the
/// tier split is reported from the wire text itself, proving STATS is
/// scrapeable, not just present.
fn stats_counter(stats: &str, name: &str) -> u64 {
    let needle = format!("cc_store_{name}_total ");
    stats
        .lines()
        .find_map(|l| l.strip_prefix(&needle))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// Request tracing (`--trace`)
// ---------------------------------------------------------------------

/// What the `--trace` run measured, for the JSON `trace` section and
/// the smoke gates.
struct TraceInfo {
    sample_every: u64,
    sampled_spans: u64,
    wrapped: bool,
    orphans: usize,
    dumps_auto: u64,
    /// The on-demand DUMP fetched over the wire parsed as a recorder
    /// document.
    wire_dump_ok: bool,
    overhead: TraceOverhead,
    /// Automatic dumps produced by the injected-fault trial.
    fault_dumps: u64,
    /// Trace id on the dedicated exemplar trial's GET max.
    max_exemplar_trace: u64,
    /// That trace id appeared as a dumped trace in the DUMP payload.
    exemplar_resolved: bool,
}

/// Throughput cost of tracing at the default sampling rate: interleaved
/// best-of-3, so machine noise hits both configurations alike.
struct TraceOverhead {
    ops_per_sec_on: f64,
    ops_per_sec_off: f64,
    overhead_pct: f64,
}

/// One probe trial: a fresh single-worker server (traced or not), one
/// closed-loop client, client-observed throughput.
fn trace_probe_trial(ops: u64, zipf: &Zipf, traced: bool) -> f64 {
    let mut cfg = StoreConfig::in_memory(BUDGET);
    if traced {
        // Default sampling (1-in-64) — the rate the overhead budget is
        // defined at.
        cfg = cfg.with_tracer(Arc::new(
            Tracer::builder()
                .ring_capacity(1 << 13)
                .sink_memory()
                .build(),
        ));
    }
    let store = Arc::new(CompressedStore::new(cfg));
    let server = Server::spawn(
        store,
        "127.0.0.1:0",
        ServerConfig::default().with_workers(1),
    )
    .expect("spawn probe server");
    let addr = server.local_addr();
    let start = Instant::now();
    let r = run_client(addr, 0, ops, zipf).expect("probe client");
    let rate = r.ops as f64 / start.elapsed().as_secs_f64().max(1e-9);
    server.shutdown();
    rate
}

fn run_trace_overhead_probe(ops: u64, zipf: &Zipf) -> TraceOverhead {
    let mut best_on = 0.0f64;
    let mut best_off = 0.0f64;
    for _ in 0..3 {
        best_off = best_off.max(trace_probe_trial(ops, zipf, false));
        best_on = best_on.max(trace_probe_trial(ops, zipf, true));
    }
    TraceOverhead {
        ops_per_sec_on: best_on,
        ops_per_sec_off: best_off,
        overhead_pct: ((1.0 - best_on / best_off.max(1.0)) * 100.0).max(0.0),
    }
}

/// Injected-fault trial: a store whose medium corrupts every spill
/// read must trip the flight recorder — the anomaly fires at the CRC
/// failure and auto-dumps. Returns the number of dumps written. The
/// fault script keys on the global medium-operation index (read faults
/// at write indices pass through harmlessly), so the trial is
/// deterministic regardless of writer scheduling.
fn trace_fault_trial() -> u64 {
    let tracer = Arc::new(Tracer::builder().sample_every(1).sink_memory().build());
    let path = std::env::temp_dir().join(format!("loadgen-trace-fault-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let plan = FaultPlan {
        script: (0..4096).map(|i| (i, Fault::ReadCorrupt)).collect(),
        ..FaultPlan::quiet()
    };
    let medium = FaultInjector::new(FileMedium::create(&path).expect("spill file"), plan);
    let store = CompressedStore::with_medium(
        StoreConfig::with_spill(16 << 10, &path).with_tracer(Arc::clone(&tracer)),
        Arc::new(medium),
    );
    let mut page = vec![0u8; PAGE];
    for key in 0..64u64 {
        fill_page(key, 1, &mut page);
        store
            .put_traced(key, &page, tracer.sample())
            .expect("fault-trial put");
    }
    store.flush().expect("fault-trial flush");
    let mut out = vec![0u8; PAGE];
    for key in 0..64u64 {
        // The first spilled entry surfaces the corruption; stop there.
        if store.get_traced(key, &mut out, tracer.sample()).is_err() {
            break;
        }
    }
    store.shutdown();
    let _ = std::fs::remove_file(&path);
    tracer.dumps_written()
}

/// Exemplar trial: every request sampled and the rings sized to hold
/// the whole run, so the wire GET histogram's max exemplar must carry a
/// trace id that resolves inside the DUMP payload fetched over the
/// wire. Returns `(max_trace, resolved)`.
fn trace_exemplar_trial() -> (u64, bool) {
    let tracer = Arc::new(
        Tracer::builder()
            .sample_every(1)
            .ring_capacity(1 << 13)
            .sink_memory()
            .build(),
    );
    let store = Arc::new(CompressedStore::new(
        StoreConfig::in_memory(8 << 20).with_tracer(Arc::clone(&tracer)),
    ));
    let server = Server::spawn(
        Arc::clone(&store),
        "127.0.0.1:0",
        ServerConfig::default().with_workers(2),
    )
    .expect("spawn exemplar server");
    let mut client = Client::connect(server.local_addr()).expect("exemplar connect");
    let mut page = vec![0u8; PAGE];
    let mut out = Vec::with_capacity(PAGE);
    for key in 0..256u64 {
        fill_page(key, 1, &mut page);
        client.put(key, &page).expect("exemplar put");
        client.get(key, &mut out).expect("exemplar get");
    }
    let dump = client.dump().expect("exemplar DUMP");
    let snap = server.service().snapshot();
    server.shutdown();
    let max_trace = snap.op("get").map_or(0, |s| s.max_trace);
    let resolved = max_trace != 0 && dump.contains(&format!("\"trace_id\": {max_trace}"));
    (max_trace, resolved)
}

fn main() {
    let mut threads: usize = 4;
    let mut ops_per_thread: u64 = 50_000;
    let mut out_path = String::from("BENCH_server.json");
    let mut smoke_mode = false;
    let mut backend = ServerBackend::Threaded;
    let mut pipeline_window: usize = 0;
    let mut sweep_conns: usize = 0;
    let mut trace_mode = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => {
                threads = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--threads expects a count");
                    std::process::exit(2);
                })
            }
            "--ops" => {
                ops_per_thread = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--ops expects a number of operations per thread");
                    std::process::exit(2);
                })
            }
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("--out expects a file path");
                    std::process::exit(2);
                })
            }
            "--backend" => {
                let name = args.next().unwrap_or_default();
                backend = ServerBackend::parse(&name).unwrap_or_else(|| {
                    eprintln!("--backend expects threaded|evented|evented-poll, got {name:?}");
                    std::process::exit(2);
                })
            }
            "--pipeline" => {
                pipeline_window = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--pipeline expects a window size (0 disables)");
                    std::process::exit(2);
                })
            }
            "--conns" => {
                sweep_conns = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--conns expects a connection count for the A/B sweep");
                    std::process::exit(2);
                })
            }
            "--smoke" => {
                smoke_mode = true;
                threads = 4;
                ops_per_thread = 10_000;
            }
            "--trace" => trace_mode = true,
            other => {
                eprintln!(
                    "unknown arg: {other}\nusage: loadgen [--threads N] [--ops N] [--backend threaded|evented|evented-poll] [--pipeline W] [--conns N] [--trace] [--out PATH] [--smoke]"
                );
                std::process::exit(2);
            }
        }
    }
    let threads = threads.max(1);

    let spill_path = std::env::temp_dir().join(format!("loadgen-spill-{}.bin", std::process::id()));
    // `--trace`: the store (and through it the server) samples requests
    // into the flight recorder at the default 1-in-64 rate; stripes
    // match the worker count so span recording stays uncontended.
    let tracer = trace_mode.then(|| {
        Arc::new(
            Tracer::builder()
                .stripes(threads + 1)
                .ring_capacity(1 << 13)
                .sink_memory()
                .build(),
        )
    });
    let mut store_cfg = StoreConfig::with_spill(BUDGET, &spill_path);
    if let Some(t) = &tracer {
        store_cfg = store_cfg.with_tracer(Arc::clone(t));
    }
    let store = Arc::new(CompressedStore::new(store_cfg));
    let server = Server::spawn(
        Arc::clone(&store),
        "127.0.0.1:0",
        ServerConfig::default()
            .with_backend(backend)
            .with_workers(threads),
    )
    .expect("spawn server");
    let addr = server.local_addr();
    let service = Arc::clone(server.service());
    eprintln!(
        "loadgen: {threads} clients x {ops_per_thread} ops, {KEYS_PER_THREAD} zipfian(s={ZIPF_S}) keys/thread, mixed 50/40/10 put/get/del, server {addr} (backend {}, {threads} workers, budget {BUDGET}{})",
        backend.name(),
        if pipeline_window > 0 {
            format!(", pipeline window {pipeline_window}")
        } else {
            String::new()
        }
    );

    let zipf = Arc::new(Zipf::new(KEYS_PER_THREAD, ZIPF_S));
    let start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let zipf = Arc::clone(&zipf);
            std::thread::spawn(move || {
                if pipeline_window > 0 {
                    run_client_pipelined(addr, t, ops_per_thread, &zipf, pipeline_window)
                } else {
                    run_client(addr, t, ops_per_thread, &zipf)
                }
            })
        })
        .collect();
    let mut total = ThreadResult::default();
    let mut connect_failures = 0u64;
    for h in handles {
        match h.join().expect("client thread panicked") {
            Ok(r) => total.absorb(r),
            Err(e) => {
                eprintln!("  client setup failed: {e}");
                connect_failures += 1;
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let ops_per_sec = total.ops as f64 / elapsed.max(1e-9);

    // A final connection: drain the spill writer, then fetch STATS over
    // the wire so the tier split below comes from the scrape payload.
    let stats_text = {
        let mut c = Client::connect(addr).expect("stats connection");
        c.flush().expect("flush");
        c.stats().expect("stats")
    };

    // With tracing on, also pull the flight recorder over the wire: the
    // DUMP opcode must answer a recorder document mid-run.
    let wire_dump = tracer.as_ref().map(|_| {
        let mut c = Client::connect(addr).expect("dump connection");
        c.dump().expect("DUMP")
    });

    let busy_seen = if smoke_mode || backend != ServerBackend::Threaded {
        // The smoke gate requires zero rejected frames, so the probe
        // (which manufactures one) only runs in full mode; the probe's
        // park-the-workers construction is also specific to the
        // threaded pool. BUSY-path coverage for the reactor lives in
        // the server integration tests and the sweep below.
        false
    } else {
        saturation_probe(addr, threads)
    };

    server.shutdown();
    let snap = service.snapshot();
    let store_snap = store.telemetry_snapshot();
    drop(store);
    let _ = std::fs::remove_file(&spill_path);

    let wire = |name: &str| snap.counter(name).unwrap_or(0);
    let (hits_memory, hits_spill, misses) = (
        stats_counter(&stats_text, "hits_memory"),
        stats_counter(&stats_text, "hits_spill"),
        stats_counter(&stats_text, "misses"),
    );
    eprintln!(
        "  {:.0} ops/s over {:.2}s; {} get hits / {} misses; integrity mismatches {}, tag mismatches {}, hard errors {}",
        ops_per_sec, elapsed, total.gets_hit, total.gets_miss, total.integrity_mismatches, total.tag_mismatches, total.hard_errors,
    );
    eprintln!(
        "  wire: put p50 {} ns / get p50 {} ns / del p50 {} ns; conns {} opened / {} closed; busy {} malformed {}",
        snap.op("put").map_or(0, |s| s.p50),
        snap.op("get").map_or(0, |s| s.p50),
        snap.op("del").map_or(0, |s| s.p50),
        wire("conns_opened"),
        wire("conns_closed"),
        wire("busy_rejected"),
        wire("malformed_frames"),
    );
    eprintln!("  store tiers (from STATS): {hits_memory} memory hits, {hits_spill} spill hits, {misses} misses");
    if !smoke_mode && backend == ServerBackend::Threaded {
        eprintln!(
            "  saturation probe: extra connection {}",
            if busy_seen {
                "rejected BUSY (bounded admission)"
            } else {
                "NOT rejected"
            }
        );
    }

    // Trace plane: span accounting from the main run, then the three
    // dedicated trials (overhead probe, injected-fault dump, exemplar
    // resolution) on their own fresh servers.
    let trace_info = tracer.as_ref().map(|t| {
        let spans = t.spans();
        let wrapped = t.wrapped();
        let orphans = if wrapped { 0 } else { orphan_spans(&spans) };
        let wire_dump_ok = wire_dump
            .as_deref()
            .is_some_and(|d| d.contains("\"reason\": \"on-demand\""));
        eprintln!(
            "  trace: 1-in-{} sampling, {} spans recorded{}, {} orphan(s), {} auto dump(s), wire DUMP {}",
            t.sample_rate(),
            t.spans_recorded(),
            if wrapped { " (rings wrapped)" } else { "" },
            orphans,
            t.dumps_written(),
            if wire_dump_ok { "ok" } else { "BAD" },
        );
        let probe_ops = (ops_per_thread / 2).max(2_000);
        let overhead = run_trace_overhead_probe(probe_ops, &zipf);
        eprintln!(
            "  trace overhead: {:.2}% ({:.0} ops/s traced vs {:.0} ops/s untraced, interleaved best-of-3)",
            overhead.overhead_pct, overhead.ops_per_sec_on, overhead.ops_per_sec_off,
        );
        let fault_dumps = trace_fault_trial();
        let (max_exemplar_trace, exemplar_resolved) = trace_exemplar_trial();
        eprintln!(
            "  trace trials: injected corruption wrote {} dump(s); GET max exemplar trace {:#x} {}",
            fault_dumps,
            max_exemplar_trace,
            if exemplar_resolved {
                "resolved in the wire DUMP"
            } else {
                "NOT resolved"
            },
        );
        TraceInfo {
            sample_every: t.sample_rate(),
            sampled_spans: t.spans_recorded(),
            wrapped,
            orphans,
            dumps_auto: t.dumps_written(),
            wire_dump_ok,
            overhead,
            fault_dumps,
            max_exemplar_trace,
            exemplar_resolved,
        }
    });

    // Connection-count A/B sweep: threaded vs evented at increasing
    // open-connection levels.
    let sweep = if sweep_conns > 0 {
        let mut levels: Vec<usize> = Vec::new();
        let mut c = 4usize;
        while c < sweep_conns {
            levels.push(c);
            c *= 4;
        }
        levels.push(sweep_conns);
        let ops_per_hot: u64 = if smoke_mode { 600 } else { 3_000 };
        eprintln!(
            "ab sweep: levels {:?}, {} hot conns x {} ops each, threaded workers {}",
            levels, SWEEP_HOT, ops_per_hot, SWEEP_WORKERS
        );
        let threaded = sweep_backend(ServerBackend::Threaded, &levels, ops_per_hot);
        let evented = sweep_backend(ServerBackend::Evented, &levels, ops_per_hot);
        let (t_max, e_max) = (threaded.max_sustained(), evented.max_sustained());
        let ratio = if t_max > 0 {
            e_max as f64 / t_max as f64
        } else {
            0.0
        };
        // Tail-latency comparison at the largest level both backends
        // sustain: "equal concurrency".
        let equal = threaded
            .levels
            .iter()
            .filter(|l| l.sustained)
            .filter_map(|l| {
                evented
                    .level(l.conns)
                    .filter(|e| e.sustained)
                    .map(|e| (l, e))
            })
            .max_by_key(|(l, _)| l.conns);
        let p99_ratio = equal
            .map(|(t, e)| e.p99_us / t.p99_us.max(1e-9))
            .unwrap_or(f64::NAN);
        eprintln!(
            "  verdict: threaded sustains {t_max} conns, evented {e_max} ({ratio:.1}x); p99 evented/threaded at {} conns = {:.2}",
            equal.map(|(l, _)| l.conns).unwrap_or(0),
            p99_ratio,
        );
        Some((threaded, evented, t_max, e_max, ratio, p99_ratio))
    } else {
        None
    };

    let ab_json = match &sweep {
        Some((t, e, t_max, e_max, ratio, p99_ratio)) => format!(
            ",\n  \"ab_sweep\": {{\n    \"hot_conns\": {SWEEP_HOT},\n    \"threaded_workers\": {SWEEP_WORKERS},\n    \"threaded\": {},\n    \"evented\": {},\n    \"verdict\": {{\"threaded_max_conns\": {t_max}, \"evented_max_conns\": {e_max}, \"conn_ratio\": {ratio:.1}, \"equal_conns_p99_ratio\": {p99_ratio:.3}}}\n  }}",
            sweep_json(t),
            sweep_json(e),
        ),
        None => String::new(),
    };
    let trace_json = match &trace_info {
        Some(ti) => format!(
            ",\n  \"trace\": {{\n    \"sample_every\": {},\n    \"sampled_spans\": {},\n    \"rings_wrapped\": {},\n    \"orphan_spans\": {},\n    \"dumps_auto\": {},\n    \"wire_dump_ok\": {},\n    \"overhead\": {{\"ops_per_sec_traced\": {:.0}, \"ops_per_sec_untraced\": {:.0}, \"overhead_pct\": {:.2}}},\n    \"fault_trial_dumps\": {},\n    \"max_exemplar_trace\": {},\n    \"exemplar_resolved\": {}\n  }}",
            ti.sample_every,
            ti.sampled_spans,
            ti.wrapped,
            ti.orphans,
            ti.dumps_auto,
            ti.wire_dump_ok,
            ti.overhead.ops_per_sec_on,
            ti.overhead.ops_per_sec_off,
            ti.overhead.overhead_pct,
            ti.fault_dumps,
            ti.max_exemplar_trace,
            ti.exemplar_resolved,
        ),
        None => String::new(),
    };
    let json = format!(
        "{{\n  \"benchmark\": \"loadgen\",\n  \"backend\": \"{}\",\n  \"pipeline_window\": {pipeline_window},\n  \"threads\": {threads},\n  \"ops_per_thread\": {ops_per_thread},\n  \"keys_per_thread\": {KEYS_PER_THREAD},\n  \"zipf_s\": {ZIPF_S},\n  \"page_size\": {PAGE},\n  \"budget_bytes\": {BUDGET},\n  \"mix\": \"50% put / 40% get / 10% del\",\n  \"elapsed_s\": {elapsed:.3},\n  \"ops_per_sec\": {ops_per_sec:.0},\n  \"gets_hit\": {},\n  \"gets_miss\": {},\n  \"integrity_mismatches\": {},\n  \"tag_mismatches\": {},\n  \"hard_errors\": {},\n  \"ops\": {{\n    \"put\": {},\n    \"get\": {},\n    \"del\": {},\n    \"flush\": {},\n    \"stats\": {},\n    \"ping\": {}\n  }},\n  \"wire\": {{\n    \"req_put\": {},\n    \"req_get\": {},\n    \"req_del\": {},\n    \"conns_opened\": {},\n    \"conns_closed\": {},\n    \"busy_rejected\": {},\n    \"malformed_frames\": {},\n    \"idle_timeouts\": {}\n  }},\n  \"tier_split\": {{\"hits_memory\": {hits_memory}, \"hits_spill\": {hits_spill}, \"misses\": {misses}}},\n  \"saturation_probe_busy\": {}{ab_json}{trace_json},\n  \"note\": \"closed-loop loopback load against the in-process cc-server; every GET verified byte-for-byte against a per-thread shadow model (integrity_mismatches must be 0; tag_mismatches counts pipelined responses whose tag was duplicate, unknown, or lost). ops.* are the server's own per-opcode wire latency histograms in nanoseconds; tier_split is parsed from the STATS Prometheus payload fetched over the wire; saturation_probe_busy records whether an extra connection beyond the worker pool was answered BUSY (threaded full mode only); ab_sweep (when present) holds the per-backend connection-count ladder — client-observed hot-path latency with the remaining connections open-and-idle — and the threaded-vs-evented verdict; trace (when present, from --trace) holds the flight-recorder accounting — main-run span sampling, the interleaved traced-vs-untraced overhead probe, the injected-corruption dump trial, and whether the GET max-latency exemplar's trace id resolved inside the on-wire DUMP payload.\"\n}}\n",
        backend.name(),
        total.gets_hit,
        total.gets_miss,
        total.integrity_mismatches,
        total.tag_mismatches,
        total.hard_errors,
        op_json(&snap, "put"),
        op_json(&snap, "get"),
        op_json(&snap, "del"),
        op_json(&snap, "flush"),
        op_json(&snap, "stats"),
        op_json(&snap, "ping"),
        wire("req_put"),
        wire("req_get"),
        wire("req_del"),
        wire("conns_opened"),
        wire("conns_closed"),
        wire("busy_rejected"),
        wire("malformed_frames"),
        wire("idle_timeouts"),
        busy_seen,
    );
    let mut f = std::fs::File::create(&out_path).expect("create output");
    f.write_all(json.as_bytes()).expect("write output");
    eprintln!("wrote {out_path}");

    if smoke_mode {
        let mut failures = Vec::new();
        if connect_failures > 0 {
            failures.push(format!("{connect_failures} client thread(s) failed to run"));
        }
        if total.integrity_mismatches > 0 {
            failures.push(format!(
                "{} GET/DEL responses disagreed with the shadow model",
                total.integrity_mismatches
            ));
        }
        if total.tag_mismatches > 0 {
            failures.push(format!(
                "{} pipelined response tags were duplicate, unknown, or lost",
                total.tag_mismatches
            ));
        }
        if total.hard_errors > 0 {
            failures.push(format!("{} transport/server errors", total.hard_errors));
        }
        if total.gets_hit == 0 {
            failures.push("no GET ever hit: the workload exercised nothing".into());
        }
        for name in ["busy_rejected", "malformed_frames", "idle_timeouts"] {
            let v = wire(name);
            if v > 0 {
                failures.push(format!("{name} is {v}, expected 0"));
            }
        }
        // Every opcode the run issues must have a sane wire histogram.
        for op in ["put", "get", "del", "flush", "stats", "ping"] {
            if let Some(f) = smoke::check_hist(&snap, op) {
                failures.push(f);
            }
        }
        // Ring events must agree with the counters they shadow.
        for (event, counter) in [
            ("conn_open", "conns_opened"),
            ("conn_close", "conns_closed"),
        ] {
            if let Some(f) = smoke::check_event_agrees(&snap, event, counter, wire(counter)) {
                failures.push(f);
            }
        }
        // The STATS payload must be a parseable Prometheus exposition
        // carrying both the store's and the server's metric families,
        // and must match the schema the in-process snapshots render.
        if let Some(f) = smoke::check_prometheus(
            &stats_text,
            &["cc_store_compressed_total", "cc_server_req_put_total"],
        ) {
            failures.push(f);
        }
        let expected = {
            let mut t = store_snap.to_prometheus("cc_store");
            // STATS was fetched mid-run, so values differ; schema
            // equality means the same metric names in the same order.
            t.push_str(&snap.to_prometheus("cc_server"));
            let names = |text: &str| {
                text.lines()
                    .filter(|l| !l.starts_with('#') && !l.is_empty())
                    .filter_map(|l| l.split_whitespace().next().map(str::to_owned))
                    .collect::<Vec<_>>()
            };
            (names(&t), names(&stats_text))
        };
        if expected.0 != expected.1 {
            failures.push("STATS metric names/order differ from the Exporter schema".into());
        }
        // Sweep gates: both backends must sustain at least the smallest
        // level, and the reactor's tail latency must stay within 2x of
        // the pool's at equal connection count.
        if let Some((_, _, t_max, e_max, _, p99_ratio)) = &sweep {
            if *t_max == 0 {
                failures.push("sweep: threaded backend sustained no level".into());
            }
            if *e_max == 0 {
                failures.push("sweep: evented backend sustained no level".into());
            }
            if *e_max < *t_max {
                failures.push(format!(
                    "sweep: evented sustained fewer conns ({e_max}) than threaded ({t_max})"
                ));
            }
            if !p99_ratio.is_nan() && *p99_ratio > 2.0 {
                failures.push(format!(
                    "sweep: evented p99 is {p99_ratio:.2}x threaded at equal connection count (gate: 2x)"
                ));
            }
        }
        // Trace gates: sampling must stay within its overhead budget,
        // every sampled span must resolve its parent, anomalies must
        // dump, and the tail exemplar must name a dumped trace.
        if let Some(ti) = &trace_info {
            if !ti.wrapped && ti.orphans > 0 {
                failures.push(format!(
                    "trace: {} orphan span(s) — sampled requests lost part of their tree",
                    ti.orphans
                ));
            }
            if ti.sampled_spans == 0 {
                failures.push("trace: the run recorded no spans at all".into());
            }
            if !ti.wire_dump_ok {
                failures.push("trace: the DUMP opcode did not answer a recorder document".into());
            }
            if ti.overhead.overhead_pct > 5.0 {
                failures.push(format!(
                    "trace: overhead {:.2}% exceeds the 5% budget ({:.0} ops/s traced vs {:.0} ops/s untraced)",
                    ti.overhead.overhead_pct,
                    ti.overhead.ops_per_sec_on,
                    ti.overhead.ops_per_sec_off
                ));
            }
            if ti.fault_dumps == 0 {
                failures.push(
                    "trace: injected spill corruption produced no flight-recorder dump".into(),
                );
            }
            if !ti.exemplar_resolved {
                failures.push(format!(
                    "trace: GET max exemplar trace {:#x} did not resolve to a dumped trace",
                    ti.max_exemplar_trace
                ));
            }
        }
        std::process::exit(smoke::report("loadgen", &failures));
    }
}
