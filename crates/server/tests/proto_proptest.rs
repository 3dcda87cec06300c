//! Protocol hardening: property tests over the wire encoding.
//!
//! Two invariants carry the server's safety story:
//!
//! 1. **Round-trip** — every request and response that can be encoded
//!    decodes back to exactly itself, including through the framing
//!    layer (length prefix + body over a byte stream).
//! 2. **Totality** — `decode` over *arbitrary* bytes returns an error
//!    for malformed input and never panics; a hostile peer can close
//!    its own connection, nothing more.

use cc_server::frame;
use cc_server::proto::{ProtoError, Request, Response, Status};
use proptest::prelude::*;

/// Owned mirror of [`Request`] so strategies can hold the page bytes.
#[derive(Debug, Clone)]
enum OwnedReq {
    Put(u64, Vec<u8>),
    Get(u64),
    Del(u64),
    Flush,
    Stats,
    Ping,
}

impl OwnedReq {
    fn as_request(&self) -> Request<'_> {
        match self {
            OwnedReq::Put(key, page) => Request::Put { key: *key, page },
            OwnedReq::Get(key) => Request::Get { key: *key },
            OwnedReq::Del(key) => Request::Del { key: *key },
            OwnedReq::Flush => Request::Flush,
            OwnedReq::Stats => Request::Stats,
            OwnedReq::Ping => Request::Ping,
        }
    }
}

fn req_strategy() -> impl Strategy<Value = OwnedReq> {
    prop_oneof![
        (
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..4096)
        )
            .prop_map(|(k, p)| OwnedReq::Put(k, p)),
        any::<u64>().prop_map(OwnedReq::Get),
        any::<u64>().prop_map(OwnedReq::Del),
        Just(OwnedReq::Flush),
        Just(OwnedReq::Stats),
        Just(OwnedReq::Ping),
    ]
}

fn status_strategy() -> impl Strategy<Value = Status> {
    prop_oneof![
        Just(Status::Ok),
        Just(Status::NotFound),
        Just(Status::Busy),
        Just(Status::Err),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every request round-trips body-level and through framing, with
    /// its sequence tag intact.
    #[test]
    fn request_roundtrip(owned in req_strategy(), seq in any::<u32>()) {
        let req = owned.as_request();
        let mut body = Vec::new();
        req.encode(&mut body);
        prop_assert_eq!(Request::decode(&body).unwrap(), req);

        // Through the framing layer over a byte stream.
        let mut wire = Vec::new();
        frame::write_frame(&mut wire, seq, &body).unwrap();
        let mut rb = frame::RecvBuf::new();
        let got = rb.next_frame(&mut &wire[..], frame::DEFAULT_MAX_FRAME).unwrap();
        prop_assert_eq!(got.seq, seq);
        prop_assert_eq!(Request::decode(&rb.unparsed()[got.body]).unwrap(), req);
    }

    /// Every response round-trips body-level and through framing, with
    /// its sequence tag intact.
    #[test]
    fn response_roundtrip(
        status in status_strategy(),
        payload in proptest::collection::vec(any::<u8>(), 0..4096),
        seq in any::<u32>(),
    ) {
        let resp = Response { status, payload: &payload };
        let mut body = Vec::new();
        resp.encode(&mut body);
        prop_assert_eq!(Response::decode(&body).unwrap(), resp);

        let mut wire = Vec::new();
        frame::write_frame(&mut wire, seq, &body).unwrap();
        let mut rb = frame::RecvBuf::new();
        let got = rb.next_frame(&mut &wire[..], frame::DEFAULT_MAX_FRAME).unwrap();
        prop_assert_eq!(got.seq, seq);
        prop_assert_eq!(Response::decode(&rb.unparsed()[got.body]).unwrap(), resp);
    }

    /// Arbitrary bytes never panic the decoders — they either decode or
    /// return a [`ProtoError`]. Run both decoders over the same junk.
    #[test]
    fn decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    /// Truncating a valid request body anywhere yields an error (or, for
    /// PUT, possibly a *different* valid PUT is impossible: the declared
    /// page length no longer matches), never a panic and never the
    /// original request.
    #[test]
    fn truncation_never_confuses(owned in req_strategy(), cut in 0usize..64) {
        let req = owned.as_request();
        let mut body = Vec::new();
        req.encode(&mut body);
        if body.len() <= 1 {
            return Ok(());
        }
        let cut = 1 + cut % (body.len() - 1); // keep at least the opcode, drop >= 1 byte
        let truncated = &body[..body.len() - cut];
        if let Ok(decoded) = Request::decode(truncated) {
            prop_assert_ne!(decoded, req);
        }
    }

    /// A frame whose length prefix exceeds the ceiling is rejected
    /// before the buffer grows past the bytes that arrived, whatever the
    /// declared length.
    #[test]
    fn oversized_prefix_always_rejected(len in (1u64 << 20)..(u32::MAX as u64)) {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(len as u32).to_le_bytes());
        wire.extend_from_slice(&1u32.to_le_bytes()); // seq
        let mut buf = frame::RecvBuf::with_len(frame::HEADER_LEN);
        let max = 1 << 20;
        match buf.next_frame(&mut &wire[..], max) {
            Err(frame::FrameError::Oversized { len: got, max: m }) => {
                prop_assert_eq!(got, len as usize);
                prop_assert_eq!(m, max);
                prop_assert!(buf.capacity() <= wire.len(), "{}", buf.capacity());
            }
            other => prop_assert!(false, "expected Oversized, got {:?}", other.map(|_| ())),
        }
    }
}

/// Deterministic spot checks for each malformation class, pinning the
/// exact error variants a malformed frame decodes to.
#[test]
fn malformed_classes_pinned() {
    assert_eq!(Request::decode(&[]), Err(ProtoError::Empty));
    assert_eq!(Request::decode(&[0]), Err(ProtoError::UnknownOpcode(0)));
    assert_eq!(Request::decode(&[255]), Err(ProtoError::UnknownOpcode(255)));
    // GET key cut short.
    assert!(matches!(
        Request::decode(&[2, 1, 2, 3, 4]),
        Err(ProtoError::Truncated { op: "get", .. })
    ));
    // PUT header cut short.
    assert!(matches!(
        Request::decode(&[1, 9, 9, 9]),
        Err(ProtoError::Truncated { op: "put", .. })
    ));
    // PUT length-vs-body disagreement in both directions.
    let mut body = Vec::new();
    Request::Put {
        key: 5,
        page: &[1, 2, 3, 4],
    }
    .encode(&mut body);
    let short = &body[..body.len() - 1];
    assert!(matches!(
        Request::decode(short),
        Err(ProtoError::BadPayloadLen {
            declared: 4,
            got: 3
        })
    ));
    let mut long = body.clone();
    long.push(0);
    assert!(matches!(
        Request::decode(&long),
        Err(ProtoError::BadPayloadLen {
            declared: 4,
            got: 5
        })
    ));
    // Payload-less opcodes with trailing junk.
    for op in [4u8, 5, 6] {
        assert!(matches!(
            Request::decode(&[op, 1]),
            Err(ProtoError::TrailingBytes { .. })
        ));
    }
}
