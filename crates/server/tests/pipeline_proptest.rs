//! Pipelining hardening: property tests over tagged bursts.
//!
//! The pipelined protocol's safety claim is *split-independence*: a
//! burst of tagged frames round-trips exactly once per tag no matter
//! how the byte stream is fragmented in flight — TCP may deliver any
//! prefix at any time — and no fragmentation can be mistaken for a
//! malformed frame. Three layers pin it:
//!
//! 1. **Request side, pure** — a burst read into a [`frame::RecvBuf`]
//!    (the reactor's receive buffer) in arbitrary chunks (down to single
//!    bytes) surfaces every frame exactly once, in order, with the right
//!    tag and body, and never errors.
//! 2. **Response side, the client's reader** — responses a peer writes
//!    in *any completion order* (arbitrary permutation) and in arbitrary
//!    fragments reap a [`Pipeline`] window on a real [`Client`] exactly
//!    once each.
//! 3. **Live** — the same property against a real evented server on
//!    loopback: dribbled writes of a pipelined burst come back as one
//!    tagged response per request, byte-for-byte correct.

use cc_server::frame;
use cc_server::proto::{Request, Response, Status};
use cc_server::{Client, Pipeline, Server, ServerBackend, ServerConfig};
use proptest::prelude::*;
use std::collections::HashSet;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// A request in a generated burst: `(key, op)` where op 0 = PUT,
/// 1 = GET, 2 = PING. Pages are derived from the key.
type BurstOp = (u64, u8);

fn burst_strategy() -> impl Strategy<Value = Vec<BurstOp>> {
    proptest::collection::vec((any::<u64>(), 0u8..3), 1..10)
}

/// Chunk sizes used to fragment a wire image (cycled; 1-byte splits
/// included).
fn splits_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..48, 1..32)
}

// The store pins its page size at the first PUT, so every generated
// page is the same length; content still varies by key.
fn page_for(key: u64) -> Vec<u8> {
    let mut page = vec![0u8; 512];
    let mut x = key | 1;
    for b in page.iter_mut() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *b = (x >> 33) as u8;
    }
    page
}

/// Serialize `burst` as tagged request frames, tags `first_seq..`.
fn burst_wire(burst: &[BurstOp], first_seq: u32) -> Vec<u8> {
    let mut wire = Vec::new();
    let mut body = Vec::new();
    for (i, &(key, op)) in burst.iter().enumerate() {
        body.clear();
        let page;
        let req = match op {
            0 => {
                page = page_for(key);
                Request::Put { key, page: &page }
            }
            1 => Request::Get { key },
            _ => Request::Ping,
        };
        req.encode(&mut body);
        frame::write_frame(&mut wire, first_seq + i as u32, &body).unwrap();
    }
    wire
}

/// `wire` cut into `splits`-sized chunks (cycled).
fn fragments<'a>(wire: &'a [u8], splits: &[usize]) -> Vec<&'a [u8]> {
    let mut out = Vec::new();
    let mut pos = 0;
    for &take in splits.iter().cycle() {
        if pos == wire.len() {
            break;
        }
        let take = take.min(wire.len() - pos);
        out.push(&wire[pos..pos + take]);
        pos += take;
    }
    out
}

/// Read `wire` into a receive buffer one `splits`-sized chunk at a
/// time, parsing after each, as the reactor does; returns every parsed
/// `(seq, body)` in surfacing order.
fn parse_fragmented(wire: &[u8], splits: &[usize]) -> Result<Vec<(u32, Vec<u8>)>, String> {
    let mut rbuf = frame::RecvBuf::new();
    let mut out = Vec::new();
    let mut pos = 0;
    for mut chunk in fragments(wire, splits) {
        pos += chunk.len();
        while !chunk.is_empty() {
            rbuf.fill_from(&mut chunk).map_err(|e| e.to_string())?;
        }
        loop {
            match rbuf.parse(frame::DEFAULT_MAX_FRAME) {
                Ok(Some(p)) => {
                    out.push((p.seq, rbuf.unparsed()[p.body].to_vec()));
                    rbuf.consume(p.consumed);
                }
                Ok(None) => break,
                Err(e) => return Err(format!("false malformed at byte {pos}: {e}")),
            }
        }
    }
    if !rbuf.unparsed().is_empty() {
        return Err(format!("{} bytes left unparsed", rbuf.unparsed().len()));
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Request side: any fragmentation of a pipelined burst surfaces
    /// every frame exactly once, in order, tags and bodies intact — and
    /// never trips a malformed-frame error.
    #[test]
    fn any_split_roundtrips_burst(
        burst in burst_strategy(),
        splits in splits_strategy(),
        first_seq in 1u32..1_000_000,
    ) {
        let wire = burst_wire(&burst, first_seq);
        let parsed = parse_fragmented(&wire, &splits)
            .map_err(proptest::test_runner::TestCaseError::fail)?;
        prop_assert_eq!(parsed.len(), burst.len());
        for (i, ((seq, body), &(key, op))) in parsed.iter().zip(&burst).enumerate() {
            prop_assert_eq!(*seq, first_seq + i as u32, "tag order broken");
            let decoded = Request::decode(body).expect("body survived fragmentation");
            match (op, decoded) {
                (0, Request::Put { key: k, page }) => {
                    prop_assert_eq!(k, key);
                    prop_assert_eq!(page, &page_for(key)[..]);
                }
                (1, Request::Get { key: k }) => prop_assert_eq!(k, key),
                (2, Request::Ping) => {}
                (want, got) => prop_assert!(false, "op {} decoded as {:?}", want, got),
            }
        }
    }

    /// Response side, through the client's reader: tagged responses a
    /// peer writes in *any completion order* and any fragmentation reap
    /// a `Pipeline` window exactly once per tag.
    #[test]
    fn any_completion_order_reaps_exactly_once(
        n in 1usize..12,
        shuffle in proptest::collection::vec(any::<u32>(), 12..13),
        splits in splits_strategy(),
    ) {
        // Arbitrary completion order from the shuffle seeds.
        let mut order: Vec<u32> = (1..=n as u32).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, shuffle[i % shuffle.len()] as usize % (i + 1));
        }
        // Serialize responses in that order.
        let mut wire = Vec::new();
        let mut body = Vec::new();
        for &seq in &order {
            body.clear();
            let payload = seq.to_le_bytes();
            Response { status: Status::Ok, payload: &payload }.encode(&mut body);
            frame::write_frame(&mut wire, seq, &body).unwrap();
        }
        // A client sends a window of n PINGs (tags 1..=n) to a peer that
        // answers with `wire`, one fragment per write, while the client
        // reaps.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = Client::connect(listener.local_addr().unwrap()).expect("connect");
        client.set_timeout(Some(Duration::from_secs(20))).unwrap();
        let (mut peer, _) = listener.accept().expect("accept");
        peer.set_nodelay(true).unwrap();
        let mut pipe = Pipeline::new();
        for _ in 0..n {
            pipe.send(&mut client, &Request::Ping).expect("send");
        }
        let chunks: Vec<Vec<u8>> = fragments(&wire, &splits).into_iter().map(<[u8]>::to_vec).collect();
        let writer = std::thread::spawn(move || {
            for chunk in chunks {
                peer.write_all(&chunk).expect("peer write");
            }
            peer
        });
        let mut out = Vec::new();
        let mut reaped = HashSet::new();
        for _ in 0..n {
            let (seq, status) = pipe
                .recv(&mut client, &mut out)
                .map_err(|e| proptest::test_runner::TestCaseError::fail(e.to_string()))?;
            prop_assert!(reaped.insert(seq), "tag {} reaped twice", seq);
            prop_assert_eq!(status, Status::Ok);
            prop_assert_eq!(&out[..], &seq.to_le_bytes()[..]);
        }
        prop_assert_eq!(pipe.in_flight(), 0);
        writer.join().expect("peer thread");
    }

    /// Live: a dribbled pipelined burst against a real evented server
    /// round-trips one tagged response per request, byte-for-byte.
    #[test]
    fn live_evented_server_roundtrips_dribbled_burst(
        ops in proptest::collection::vec(0u8..2, 1..8),
        splits in splits_strategy(),
    ) {
        let addr = *shared_server();
        // Unique keys per case: cases share one server and store.
        static NEXT_KEY: AtomicU64 = AtomicU64::new(0);
        let base = NEXT_KEY.fetch_add(ops.len() as u64, Ordering::Relaxed);

        // PUT every key first (tags 1..), then the generated op mix
        // (tags n+1..): GETs must hit and verify.
        let mut burst: Vec<BurstOp> = (0..ops.len())
            .map(|i| (base + i as u64, 0u8))
            .collect();
        for (i, &op) in ops.iter().enumerate() {
            burst.push((base + i as u64, op + 1)); // 1 = GET, 2 = PING
        }
        let wire = burst_wire(&burst, 1);

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        // Dribble the burst in fragments, reaping opportunistically is
        // not needed: bursts here are far below the backpressure cap.
        for chunk in fragments(&wire, &splits) {
            stream.write_all(chunk).unwrap();
            stream.flush().unwrap();
        }
        // Reap: every tag exactly once, payloads exact.
        let mut outstanding: HashSet<u32> = (1..=burst.len() as u32).collect();
        let mut rb = frame::RecvBuf::new();
        for _ in 0..burst.len() {
            let p = rb
                .next_frame(&mut stream, frame::DEFAULT_MAX_FRAME)
                .expect("tagged response");
            let seq = p.seq;
            prop_assert!(outstanding.remove(&seq), "tag {} reaped twice or unknown", seq);
            let resp = Response::decode(&rb.unparsed()[p.body]).expect("response decodes");
            prop_assert_eq!(resp.status, Status::Ok, "tag {} failed", seq);
            let (key, op) = burst[(seq - 1) as usize];
            if op == 1 {
                prop_assert_eq!(
                    resp.payload,
                    &page_for(key)[..],
                    "GET({}) corrupted under pipelining", key
                );
            }
            rb.consume(p.consumed);
        }
        prop_assert!(outstanding.is_empty());
    }
}

/// One evented server shared by every live case (leaked: the process
/// exit is its teardown).
fn shared_server() -> &'static SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    ADDR.get_or_init(|| {
        use cc_core::store::{CompressedStore, StoreConfig};
        use std::sync::Arc;
        let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(64 << 20)));
        let server = Server::spawn(
            store,
            "127.0.0.1:0",
            ServerConfig::default().with_backend(ServerBackend::Evented),
        )
        .expect("spawn shared evented server");
        let addr = server.local_addr();
        std::mem::forget(server);
        addr
    })
}
