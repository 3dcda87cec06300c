//! Flight-recorder integration: deterministic anomalies must produce
//! dumps that name the failing connection/extent, and a sampled request
//! must yield a complete causal span tree from the wire to the store.
//!
//! Determinism notes: the corruption test scripts `ReadCorrupt` on
//! *every* early medium operation (a read fault at a write index passes
//! through harmlessly), so the first spill read fails its CRC check on
//! every retry regardless of scheduling; the stall test drives the
//! evented backend's write-backpressure park with a peer that provably
//! never reads, so the no-progress window elapses unconditionally.

use cc_core::medium::{Fault, FaultInjector, FaultPlan, FileMedium};
use cc_core::store::{CompressedStore, StoreConfig, StoreError};
use cc_server::frame;
use cc_server::proto::Request;
use cc_server::{Client, Server, ServerBackend, ServerConfig};
use cc_telemetry::trace::{orphan_spans, sop, AnomalyKind, Tracer};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[path = "../../core/tests/support/temp_path.rs"]
mod temp_path;
use temp_path::TempPath;

const PAGE: usize = 4096;

/// A page that compresses well (the store keeps it compressed).
fn text_page(tag: u64) -> Vec<u8> {
    let mut p = vec![0u8; PAGE];
    for (i, b) in p.iter_mut().enumerate() {
        *b = ((tag as usize + i / 9) % 47) as u8 + b' ';
    }
    p
}

/// A scripted spill-read corruption produces an automatic dump whose
/// span tree and anomaly row name the failing key and extent offset —
/// the acceptance scenario of the flight recorder.
#[test]
fn scripted_corruption_triggers_dump_naming_the_extent() {
    let tracer = Arc::new(Tracer::builder().sample_every(1).sink_memory().build());
    let path = TempPath::new("trace-corrupt");
    // Corrupt every read among the first 4096 medium operations; writes
    // at those indices are untouched, so the spill file itself is fine
    // and the fault is a deterministic transfer-side bit flip.
    let plan = FaultPlan {
        script: (0..4096).map(|i| (i, Fault::ReadCorrupt)).collect(),
        ..FaultPlan::quiet()
    };
    let medium = FaultInjector::new(FileMedium::create(&*path).expect("spill file"), plan);
    // A small budget so most of the working set spills.
    let cfg = StoreConfig::with_spill(16 << 10, &*path).with_tracer(Arc::clone(&tracer));
    let store = CompressedStore::with_medium(cfg, Arc::new(medium));

    for key in 0..64u64 {
        store
            .put_traced(key, &text_page(key), tracer.sample())
            .expect("put");
    }
    store.flush().expect("flush");

    // Read until a spilled entry surfaces the corruption.
    let mut out = vec![0u8; PAGE];
    let mut failing_key = None;
    for key in 0..64u64 {
        match store.get_traced(key, &mut out, tracer.sample()) {
            Ok(_) => {}
            Err(StoreError::Corrupt) => {
                failing_key = Some(key);
                break;
            }
            Err(e) => panic!("unexpected store error {e:?}"),
        }
    }
    let failing_key = failing_key.expect("every spill read was corrupted; one must surface");

    assert!(
        tracer.dumps_written() >= 1,
        "corruption must auto-dump the flight recorder"
    );
    let dumps = tracer.dumps();
    let dump = dumps.last().expect("memory sink holds the dump");
    assert!(
        dump.contains("\"kind\": \"corrupt\""),
        "dump must carry the corrupt anomaly: {dump}"
    );
    // The anomaly row names the failing key (a) — and the span tree
    // shows the failed spill read under the sampled get.
    assert!(
        dump.contains(&format!("\"a\": {failing_key}")),
        "dump must name failing key {failing_key}"
    );
    assert!(
        dump.contains("\"op\": \"spill_read\""),
        "missing spill_read span"
    );
    // The auto dump is written from inside the failing get (the parent
    // span closes after the error propagates), so the completed tree is
    // asserted on a post-mortem dump.
    let post = tracer.dump_json("post-mortem");
    assert!(post.contains("\"op\": \"store_get\""), "missing get span");
    // The corrupt anomaly is attributed to the sampled trace.
    let anomalies = tracer.anomalies();
    let corrupt = anomalies
        .iter()
        .find(|a| a.kind == AnomalyKind::Corrupt)
        .expect("corrupt anomaly recorded");
    assert_eq!(corrupt.a, failing_key);
    assert_ne!(corrupt.trace_id, 0, "corruption must name the trace");
    // Every sampled span resolves its parent (rings have not wrapped).
    assert!(!tracer.wrapped(), "test sized the rings to hold all spans");
    assert_eq!(orphan_spans(&tracer.spans()), 0, "orphan spans in tree");

    store.shutdown();
}

/// A peer that pipelines GETs for a large page but never reads its
/// responses parks behind write backpressure; once the staged output
/// makes no progress for the stall window, the reactor fires a
/// backpressure-stall anomaly naming the connection, and the recorder
/// dumps.
#[test]
fn backpressure_stall_fires_anomaly_and_dump() {
    let tracer = Arc::new(
        Tracer::builder()
            .sample_every(1)
            .sink_memory()
            .stall_after(Duration::from_millis(150))
            .build(),
    );
    let store = Arc::new(CompressedStore::new(
        StoreConfig::in_memory(8 << 20).with_tracer(Arc::clone(&tracer)),
    ));
    let server = Server::spawn(
        Arc::clone(&store),
        "127.0.0.1:0",
        ServerConfig::default().with_backend(ServerBackend::Evented),
    )
    .expect("spawn server");

    // Seed one 512 KB page through a normal client.
    let page: Vec<u8> = (0..512 << 10)
        .map(|i| ((i / 13) % 61) as u8 + b' ')
        .collect();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.put(1, &page).expect("put");

    // Raw connection: pipeline 64 GETs (≈32 MB of responses) and never
    // read. The staged output crosses the 1 MiB backpressure cap and
    // then cannot drain — the definition of a stall.
    let mut sock = TcpStream::connect(server.local_addr()).expect("raw connect");
    let mut body = Vec::new();
    for seq in 1..=64u32 {
        body.clear();
        Request::Get { key: 1 }.encode(&mut body);
        frame::write_frame(&mut sock, seq, &body).expect("pipeline GET");
    }
    sock.flush().expect("flush");

    let deadline = Instant::now() + Duration::from_secs(10);
    let stall = loop {
        if let Some(a) = tracer
            .anomalies()
            .iter()
            .find(|a| a.kind == AnomalyKind::BackpressureStall)
            .copied()
        {
            break a;
        }
        assert!(
            Instant::now() < deadline,
            "no backpressure-stall anomaly within 10s; anomalies: {:?}",
            tracer.anomalies()
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    // The anomaly names the parked connection and its pending bytes.
    assert!(
        stall.b >= 1 << 20,
        "stall pending bytes {} below the backpressure cap",
        stall.b
    );
    assert!(
        tracer
            .dumps()
            .iter()
            .any(|d| d.contains("\"kind\": \"backpressure_stall\"")),
        "stall must auto-dump the recorder"
    );
    drop(sock);
    drop(client);
    server.shutdown();
}

/// The DUMP opcode returns the recorder over the wire, the sampled
/// request span tree is complete (wire root → store children), the GET
/// histogram's max exemplar resolves to a dumped trace, and an untraced
/// server answers a valid empty document.
#[test]
fn dump_opcode_and_span_tree_end_to_end() {
    let tracer = Arc::new(Tracer::builder().sample_every(1).sink_memory().build());
    let store = Arc::new(CompressedStore::new(
        StoreConfig::in_memory(8 << 20).with_tracer(Arc::clone(&tracer)),
    ));
    let server = Server::spawn(Arc::clone(&store), "127.0.0.1:0", ServerConfig::default())
        .expect("spawn server");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let mut buf = vec![0u8; PAGE];
    for key in 0..8u64 {
        client.put(key, &text_page(key)).expect("put");
        assert!(client.get(key, &mut buf).expect("get"), "key {key} missing");
    }
    let dump = client.dump().expect("DUMP");
    assert!(dump.contains("\"reason\": \"on-demand\""), "{dump}");
    assert!(dump.contains("\"sample_every\": 1"), "{dump}");
    assert!(dump.contains("\"op\": \"request\""), "missing wire root");
    assert!(dump.contains("\"op\": \"store_put\""), "missing put child");
    assert!(dump.contains("\"op\": \"store_get\""), "missing get child");
    assert!(dump.contains("\"op\": \"reply_flush\""), "missing flush");

    // Structural check, not just names: every sampled request resolves
    // into one rooted tree — a store child's parent is the wire root.
    let spans = tracer.spans();
    assert!(!tracer.wrapped());
    assert_eq!(orphan_spans(&spans), 0, "incomplete span tree");
    let get = spans
        .iter()
        .find(|s| s.op == sop::STORE_GET)
        .expect("sampled get span");
    let root = spans
        .iter()
        .find(|s| s.trace_id == get.trace_id && s.span_id == get.parent)
        .expect("get's parent span exists");
    assert_eq!(root.op, sop::REQUEST, "store_get must hang off the root");
    assert_eq!(root.parent, 0, "request span is the root");
    // The slowest GET's exemplar names a trace the DUMP holds.
    let max_trace = server
        .service()
        .snapshot()
        .op("get")
        .map_or(0, |h| h.max_trace);
    assert!(
        max_trace != 0 && dump.contains(&format!("\"trace_id\": {max_trace}")),
        "GET max exemplar trace {max_trace:#x} not in the DUMP"
    );
    server.shutdown();

    // Untraced server: DUMP still answers, with an empty document.
    let plain = Arc::new(CompressedStore::new(StoreConfig::in_memory(1 << 20)));
    let server = Server::spawn(plain, "127.0.0.1:0", ServerConfig::default()).expect("spawn");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert_eq!(client.dump().expect("DUMP"), "{}");
    server.shutdown();
}
