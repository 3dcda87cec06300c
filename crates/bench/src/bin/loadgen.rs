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
//! `--pipeline W` switches the clients to the pipelined protocol — a
//! window of `W` tagged requests in flight per connection, responses
//! reaped by tag — with the same shadow verification (expectations are
//! pinned at send time; the server executes each connection's requests
//! in order) plus an exactly-once tag check.
//!
//! After the run one extra connection FLUSHes and fetches STATS. The
//! summary goes to stderr: client-side throughput, the server's
//! per-opcode wire latency (p50 straight from the wire telemetry), the
//! wire counters, the reactor's socket reads, socket writes and polls
//! per request, and the store's memory/spill tier split parsed back
//! out of the STATS payload. No report file is written; ccbench
//! (`benchmark/`) is where the server's speed is measured.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p cc-bench --bin loadgen [-- --threads N --ops N --pipeline W]
//! cargo run --release -p cc-bench --bin loadgen -- --smoke [--pipeline 8] [--trace]
//! ```
//!
//! `--smoke` runs a reduced-ops pass and exits nonzero on any integrity
//! error, any response-tag mismatch, any malformed or BUSY-rejected
//! frame, a latency histogram that is empty or disordered, a syscall
//! counter left at 0, or a STATS payload that fails Prometheus parsing
//! or names other metrics than the in-process renderers; `--trace`
//! adds the flight-recorder gates.
//! CI runs it on every push next to `storebench --smoke`.

use cc_bench::{smoke, PairedRates, Zipf};
use cc_core::medium::{Fault, FaultInjector, FaultPlan, FileMedium};
use cc_core::store::{CompressedStore, StoreConfig};
use cc_server::proto::Request;
use cc_server::service::wstat;
use cc_server::{Client, ClientError, Pipeline, Server, ServerConfig};
use cc_telemetry::trace::{orphan_spans, Tracer};
use cc_util::SplitMix64;
use std::collections::HashMap;
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

/// One sequential client: a connection and the shadow model of what it
/// has stored, kept across [`ShadowClient::run`] calls so the overhead
/// probe can run many short trials on one connection.
struct ShadowClient {
    client: Client,
    base: u64,
    shadow: HashMap<u64, u64>,
    versions: u64,
    rng: SplitMix64,
    page: Vec<u8>,
    expect: Vec<u8>,
    out: Vec<u8>,
}

impl ShadowClient {
    fn connect(addr: std::net::SocketAddr, thread: usize) -> Result<ShadowClient, ClientError> {
        let mut client = Client::connect(addr)?;
        client.set_timeout(Some(Duration::from_secs(30)))?;
        client.ping()?;
        Ok(ShadowClient {
            client,
            base: thread as u64 * KEYS_PER_THREAD,
            shadow: HashMap::new(),
            versions: 0,
            rng: SplitMix64::new(0xF00D + thread as u64),
            page: vec![0u8; PAGE],
            expect: vec![0u8; PAGE],
            out: Vec::with_capacity(PAGE),
        })
    }

    /// `ops` more operations of the zipfian 50/40/10 mix, tallied into
    /// `r`.
    fn run(&mut self, ops: u64, zipf: &Zipf, r: &mut ThreadResult) {
        let ShadowClient {
            client,
            base,
            shadow,
            versions,
            rng,
            page,
            expect,
            out,
        } = self;
        for _ in 0..ops {
            let key = *base + zipf.sample(rng);
            r.ops += 1;
            match rng.next_u64() % 10 {
                0..=4 => {
                    *versions += 1;
                    fill_page(key, *versions, page);
                    match client.put(key, page) {
                        Ok(()) => {
                            shadow.insert(key, *versions);
                        }
                        Err(_) => r.hard_errors += 1,
                    }
                }
                5..=8 => match client.get(key, out) {
                    Ok(hit) => match (hit, shadow.get(&key).copied()) {
                        (true, Some(v)) => {
                            r.gets_hit += 1;
                            fill_page(key, v, expect);
                            if out != expect {
                                r.integrity_mismatches += 1;
                            }
                        }
                        (false, None) => r.gets_miss += 1,
                        // Hit without a shadow entry, or a miss on a key
                        // we stored: the server lost or invented data.
                        _ => r.integrity_mismatches += 1,
                    },
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
    }
}

fn run_client(
    addr: std::net::SocketAddr,
    thread: usize,
    ops: u64,
    zipf: &Zipf,
) -> Result<ThreadResult, ClientError> {
    let mut r = ThreadResult::default();
    ShadowClient::connect(addr, thread)?.run(ops, zipf, &mut r);
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

/// What the `--trace` run measured, for the smoke gates.
struct TraceInfo {
    sampled_spans: u64,
    wrapped: bool,
    orphans: usize,
    /// The on-demand DUMP fetched over the wire parsed as a recorder
    /// document.
    wire_dump_ok: bool,
    /// Throughput cost of tracing at the default sampling rate.
    overhead: PairedRates,
    /// Automatic dumps produced by the injected-fault trial.
    fault_dumps: u64,
    /// Trace id on the dedicated exemplar trial's GET max.
    max_exemplar_trace: u64,
    /// That trace id appeared as a dumped trace in the DUMP payload.
    exemplar_resolved: bool,
}

/// Adjacent untraced/traced trial pairs in the overhead probe.
const TRACE_PROBE_PAIRS: usize = 96;
/// Operations per probe trial (~7 ms over loopback): two whole periods
/// of the default 1-in-64 sampling, so every traced trial records the
/// same number of requests.
const TRACE_PROBE_TRIAL_OPS: u64 = 128;

/// One long-lived server per arm, [untraced, traced], one closed-loop
/// client connection each, and [`TRACE_PROBE_PAIRS`] short strictly
/// interleaved trials read by [`cc_bench::paired_rates`] — the shape
/// `storebench`'s telemetry probe settled on. A fresh server per trial,
/// best of three per arm, failed the 5 % gate on host noise alone in
/// 2 runs of 6 and then 3 of 7, whatever the code.
fn run_trace_overhead_probe(zipf: &Zipf) -> PairedRates {
    let mut arms = [false, true].map(|traced| {
        // Room for every key raw: the probe times the wire and the
        // tracer, not eviction.
        let mut cfg = StoreConfig::in_memory(8 << 20);
        if traced {
            // Default sampling (1-in-64) — the rate the overhead budget
            // is defined at.
            cfg = cfg.with_tracer(Arc::new(
                Tracer::builder()
                    .ring_capacity(1 << 13)
                    .sink_memory()
                    .build(),
            ));
        }
        let store = Arc::new(CompressedStore::new(cfg));
        let server = Server::spawn(store, "127.0.0.1:0", ServerConfig::default())
            .expect("spawn probe server");
        let client = ShadowClient::connect(server.local_addr(), 0).expect("probe client");
        (server, client)
    });
    let mut tally = ThreadResult::default();
    let rates = cc_bench::paired_rates(TRACE_PROBE_PAIRS, |arm| {
        let start = Instant::now();
        arms[arm].1.run(TRACE_PROBE_TRIAL_OPS, zipf, &mut tally);
        TRACE_PROBE_TRIAL_OPS as f64 / start.elapsed().as_secs_f64()
    });
    assert_eq!(
        (tally.hard_errors, tally.integrity_mismatches),
        (0, 0),
        "overhead probe traffic failed"
    );
    rates
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
    let server = Server::spawn(Arc::clone(&store), "127.0.0.1:0", ServerConfig::default())
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
    let mut smoke_mode = false;
    let mut pipeline_window: usize = 0;
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
            "--pipeline" => {
                pipeline_window = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--pipeline expects a window size (0 disables)");
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
                    "unknown arg: {other}\nusage: loadgen [--threads N] [--ops N] [--pipeline W] [--trace] [--smoke]"
                );
                std::process::exit(2);
            }
        }
    }
    let threads = threads.max(1);

    let spill_path = std::env::temp_dir().join(format!("loadgen-spill-{}.bin", std::process::id()));
    // `--trace`: the store (and through it the server) samples requests
    // into the flight recorder at the default 1-in-64 rate.
    let tracer = trace_mode.then(|| {
        Arc::new(
            Tracer::builder()
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
    let server = Server::spawn(Arc::clone(&store), "127.0.0.1:0", ServerConfig::default())
        .expect("spawn server");
    let addr = server.local_addr();
    let service = Arc::clone(server.service());
    eprintln!(
        "loadgen: {threads} clients x {ops_per_thread} ops, {KEYS_PER_THREAD} zipfian(s={ZIPF_S}) keys/thread, mixed 50/40/10 put/get/del, server {addr} (budget {BUDGET}{})",
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
    let requests: u64 = wstat::NAMES
        .iter()
        .filter(|name| name.starts_with("req_"))
        .map(|name| wire(name))
        .sum();
    let per_request = |name: &str| wire(name) as f64 / requests.max(1) as f64;
    eprintln!(
        "  wire: put p50 {} ns / get p50 {} ns / del p50 {} ns; conns {} opened / {} closed; busy {} malformed {}; per request {:.3} reads / {:.3} writes / {:.3} polls",
        snap.op("put").map_or(0, |s| s.p50),
        snap.op("get").map_or(0, |s| s.p50),
        snap.op("del").map_or(0, |s| s.p50),
        wire("conns_opened"),
        wire("conns_closed"),
        wire("busy_rejected"),
        wire("malformed_frames"),
        per_request("sock_reads"),
        per_request("sock_writes"),
        per_request("polls"),
    );
    eprintln!("  store tiers (from STATS): {hits_memory} memory hits, {hits_spill} spill hits, {misses} misses");

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
        let overhead = run_trace_overhead_probe(&zipf);
        eprintln!(
            "  trace overhead: {:.2}% ({:.0} ops/s traced vs {:.0} ops/s untraced, medians of {TRACE_PROBE_PAIRS} interleaved trial pairs)",
            overhead.overhead_pct(), overhead.on, overhead.off,
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
            sampled_spans: t.spans_recorded(),
            wrapped,
            orphans,
            wire_dump_ok,
            overhead,
            fault_dumps,
            max_exemplar_trace,
            exemplar_resolved,
        }
    });

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
        // The reactor counts its syscalls where it makes them; a run
        // that served traffic made all three kinds.
        for name in ["sock_reads", "sock_writes", "polls"] {
            if wire(name) == 0 {
                failures.push(format!(
                    "{name} is 0: the reactor's syscall count is not wired"
                ));
            }
        }
        // Every opcode the run issues must have a sane wire histogram.
        for op in ["put", "get", "del", "flush", "stats", "ping"] {
            if let Some(f) = smoke::check_hist(&snap, op) {
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
            failures.push(
                "STATS metric names/order differ from the in-process Prometheus renderers".into(),
            );
        }
        // Trace gates: sampling must stay within its overhead budget,
        // every sampled span must resolve its parent, anomalies must
        // dump, and the max exemplar must name a dumped trace.
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
            if ti.overhead.overhead_pct() > 5.0 {
                failures.push(format!(
                    "trace: overhead {:.2}% exceeds the 5% budget ({:.0} ops/s traced vs {:.0} ops/s untraced)",
                    ti.overhead.overhead_pct(),
                    ti.overhead.on,
                    ti.overhead.off
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
