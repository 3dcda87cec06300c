//! Length-prefixed, sequence-tagged frame I/O.
//!
//! A frame is an 8-byte header — a little-endian `u32` body length
//! followed by a little-endian `u32` **sequence tag** — and then the
//! body. The tag is what makes the protocol *pipelined*: a client may
//! write many request frames before reading any response, and each
//! response frame echoes the tag of the request it answers, so
//! responses can be matched (and in principle reordered) without
//! per-request round-trips. Tag `0` is reserved for unsolicited
//! server frames (the admission-time `BUSY` answer and the `ERR`
//! ahead of a close when no request tag is known); clients allocate
//! tags from 1.
//!
//! The length prefix is validated against a configurable ceiling before
//! any body allocation, so a hostile or corrupted prefix cannot make the
//! server reserve gigabytes — it is reported as [`FrameError::Oversized`]
//! and the connection is torn down.
//!
//! Both ends consume frames the same way: [`parse_frame`] inspects an
//! in-memory byte accumulation and extracts a complete frame if one is
//! present, however the bytes were split. The accumulation is a
//! [`RecvBuf`] — one per connection, on the client and in the reactor —
//! which reads from the socket only when no whole frame is buffered,
//! and reads as much as the socket holds; [`RecvBuf::next_frame`] is
//! its blocking reader.

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::ops::Range;

/// Bytes of length prefix at the start of the header.
pub const LEN_PREFIX: usize = 4;

/// Total header bytes preceding every frame body: `u32` length +
/// `u32` sequence tag.
pub const HEADER_LEN: usize = 8;

/// Sequence tag reserved for unsolicited server frames (admission
/// `BUSY`, pre-close `ERR` when no request tag was decoded).
pub const SEQ_UNSOLICITED: u32 = 0;

/// Default ceiling on a frame body (requests and responses): a 4 KiB
/// page plus headers fits with room to spare, and STATS text stays far
/// below it.
pub const DEFAULT_MAX_FRAME: usize = 4 << 20;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Clean EOF on a frame boundary — the peer closed the connection.
    Closed,
    /// EOF in the middle of a frame: a truncated header or body.
    Truncated {
        /// Bytes of the frame that did arrive.
        got: usize,
        /// Bytes the frame needed (header + declared body).
        need: usize,
    },
    /// The length prefix declares a body over the ceiling.
    Oversized {
        /// Declared body length.
        len: usize,
        /// Configured ceiling.
        max: usize,
    },
    /// Transport error.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated { got, need } => {
                write!(f, "truncated frame: got {got} of {need} bytes")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte limit")
            }
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Encode the header for a `len`-byte body tagged `seq`.
#[inline]
pub fn header(len: usize, seq: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(&(len as u32).to_le_bytes());
    h[4..].copy_from_slice(&seq.to_le_bytes());
    h
}

/// Write `body` as one frame tagged `seq` and flush the transport.
///
/// Header and body go out in one vectored write: on a `TCP_NODELAY`
/// socket two `write_all`s are two syscalls, two segments and up to two
/// wake-ups of the peer per frame. A transport that takes only part of
/// the pair is handed the rest until it is all gone.
pub fn write_frame(w: &mut impl Write, seq: u32, body: &[u8]) -> std::io::Result<()> {
    let header = header(body.len(), seq);
    let mut parts = [IoSlice::new(&header), IoSlice::new(body)];
    let mut parts = &mut parts[..];
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Append `body` as one frame tagged `seq` to `out` — the reactor's
/// encode path, staging many responses in one write buffer.
pub fn append_frame(out: &mut Vec<u8>, seq: u32, body_len: usize, body: impl FnOnce(&mut Vec<u8>)) {
    let hdr_at = out.len();
    out.extend_from_slice(&header(body_len, seq));
    let body_at = out.len();
    body(out);
    let actual = out.len() - body_at;
    if actual != body_len {
        // The caller's estimate was wrong; patch the real length in.
        out[hdr_at..hdr_at + 4].copy_from_slice(&(actual as u32).to_le_bytes());
    }
}

/// A complete frame found at the front of an accumulation buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedFrame {
    /// The frame's sequence tag.
    pub seq: u32,
    /// Where the body sits inside the buffer passed to [`parse_frame`].
    pub body: Range<usize>,
    /// Total bytes the frame occupies (header + body): advance the
    /// consumption cursor by this much.
    pub consumed: usize,
}

/// Try to extract one complete frame from the front of `buf`.
///
/// Returns `Ok(None)` when more bytes are needed (a partial header or
/// body — never an error, however the stream was split), `Ok(Some(_))`
/// when a whole frame is present, and [`FrameError::Oversized`] as soon
/// as a hostile length prefix is visible — before any body bytes are
/// waited for or allocated.
pub fn parse_frame(buf: &[u8], max: usize) -> Result<Option<ParsedFrame>, FrameError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().expect("header length")) as usize;
    if len > max {
        return Err(FrameError::Oversized { len, max });
    }
    if buf.len() < HEADER_LEN + len {
        return Ok(None);
    }
    let seq = u32::from_le_bytes(buf[4..8].try_into().expect("header length"));
    Ok(Some(ParsedFrame {
        seq,
        body: HEADER_LEN..HEADER_LEN + len,
        consumed: HEADER_LEN + len,
    }))
}

/// Shrink a reusable buffer back to `high_water` capacity once a burst
/// has passed. A max-size frame must not pin its worst-case allocation
/// on every connection forever; after the buffer empties, capacity
/// above the high-water mark is returned to the allocator. `0`
/// disables shrinking.
pub fn shrink_to_high_water(buf: &mut Vec<u8>, high_water: usize) {
    if high_water > 0 && buf.capacity() > high_water && buf.len() <= high_water {
        buf.shrink_to(high_water);
    }
}

/// The size a [`RecvBuf`] created empty grows to on its first read.
const FIRST_LEN: usize = 16 << 10;

/// A per-connection receive buffer: bytes read and not yet consumed sit
/// at `start..end`, and every read lands in the free tail after `end`.
///
/// Each byte is initialized once, when the buffer grows, and reused
/// after that, so a read costs no zero-fill. A reader calls
/// [`RecvBuf::fill_from`] only when [`RecvBuf::parse`] finds no whole
/// frame, and one `read` takes as much as the stream holds, so a burst
/// of frames queued in a socket arrives in one syscall and is parsed
/// out without another. The buffer doubles only when a read finds its
/// tail full, so its size follows the bytes that arrived, never what a
/// length prefix claims; a reader that parses before it reads, as
/// [`RecvBuf::next_frame`] does, rejects an oversized prefix before the
/// buffer grows. [`RecvBuf::shrink_when_drained`] hands growth back.
#[derive(Debug, Default)]
pub struct RecvBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl RecvBuf {
    /// An empty buffer; the first read allocates.
    pub fn new() -> RecvBuf {
        RecvBuf::default()
    }

    /// A buffer of `len` bytes, allocated now.
    pub fn with_len(len: usize) -> RecvBuf {
        RecvBuf {
            buf: vec![0; len],
            start: 0,
            end: 0,
        }
    }

    /// The bytes read and not yet consumed.
    pub fn unparsed(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Whether the buffered bytes reach the end of the buffer: after
    /// [`RecvBuf::fill_from`], whether that read filled the whole free
    /// tail it was offered.
    pub fn is_full(&self) -> bool {
        self.end == self.buf.len()
    }

    /// Bytes allocated.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// [`parse_frame`] over [`RecvBuf::unparsed`]: the returned `body`
    /// range indexes that slice.
    pub fn parse(&self, max: usize) -> Result<Option<ParsedFrame>, FrameError> {
        parse_frame(self.unparsed(), max)
    }

    /// Drop `n` bytes from the front (a parsed frame's `consumed`).
    pub fn consume(&mut self, n: usize) {
        debug_assert!(
            n <= self.end - self.start,
            "consumed past the buffered bytes"
        );
        self.start += n;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
    }

    /// Drop every buffered byte.
    pub fn clear(&mut self) {
        self.start = 0;
        self.end = 0;
    }

    /// One `read` from `r` into the free tail, returning what it
    /// returned (`Ok(0)` is end of stream). Unconsumed bytes slide to the
    /// front first, so the read gets the whole tail; a buffer still full
    /// doubles.
    pub fn fill_from(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            self.buf.resize((2 * self.end).max(FIRST_LEN), 0);
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Block on `r` until a whole frame sits at the front, reading only
    /// while there is none. End of stream is [`FrameError::Closed`] on a
    /// frame boundary and [`FrameError::Truncated`] inside a frame; a
    /// failed read leaves every byte already read in place, so the next
    /// call resumes the frame.
    pub fn next_frame(&mut self, r: &mut impl Read, max: usize) -> Result<ParsedFrame, FrameError> {
        loop {
            if let Some(p) = self.parse(max)? {
                return Ok(p);
            }
            match self.fill_from(r) {
                Ok(0) => {
                    let live = self.unparsed();
                    return Err(match live.len() {
                        0 => FrameError::Closed,
                        got if got < HEADER_LEN => FrameError::Truncated {
                            got,
                            need: HEADER_LEN,
                        },
                        got => FrameError::Truncated {
                            got,
                            need: HEADER_LEN
                                + u32::from_le_bytes(live[..4].try_into().expect("header length"))
                                    as usize,
                        },
                    });
                }
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }

    /// Once every byte read has been consumed, give capacity above
    /// `high_water` back to the allocator (`0` keeps it).
    pub fn shrink_when_drained(&mut self, high_water: usize) {
        if self.start == self.end && high_water > 0 {
            self.buf.truncate(high_water);
            shrink_to_high_water(&mut self.buf, high_water);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RECV_BUF;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_over_a_pipe() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 7, b"hello").unwrap();
        write_frame(&mut wire, 8, b"").unwrap();
        let mut cursor = &wire[..];
        let mut buf = RecvBuf::new();
        let p = buf.next_frame(&mut cursor, 1024).unwrap();
        assert_eq!(p.seq, 7);
        assert_eq!(&buf.unparsed()[p.body], b"hello");
        buf.consume(p.consumed);
        let p = buf.next_frame(&mut cursor, 1024).unwrap();
        assert_eq!(p.seq, 8);
        assert!(p.body.is_empty());
        buf.consume(p.consumed);
        assert!(matches!(
            buf.next_frame(&mut cursor, 1024),
            Err(FrameError::Closed)
        ));
    }

    /// A transport that moves at most `take` bytes per call and counts
    /// the calls: writes append to `wire`, reads take from its front.
    struct Dribble {
        wire: Vec<u8>,
        read_at: usize,
        take: usize,
        calls: usize,
    }

    impl Dribble {
        fn new(wire: Vec<u8>, take: usize) -> Dribble {
            Dribble {
                wire,
                read_at: 0,
                take,
                calls: 0,
            }
        }
    }

    impl Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            let n = self.take.min(buf.len()).min(self.wire.len() - self.read_at);
            buf[..n].copy_from_slice(&self.wire[self.read_at..self.read_at + n]);
            self.read_at += n;
            Ok(n)
        }
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut left = self.take;
            for buf in bufs {
                let n = left.min(buf.len());
                self.wire.extend_from_slice(&buf[..n]);
                left -= n;
            }
            Ok(self.take - left)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_and_survives_partial_ones() {
        let mut whole = Vec::new();
        write_frame(&mut whole, 9, b"payload").unwrap();
        for take in [1, 3, HEADER_LEN, HEADER_LEN + 2, usize::MAX] {
            let mut w = Dribble::new(Vec::new(), take);
            write_frame(&mut w, 9, b"payload").unwrap();
            assert_eq!(w.wire, whole, "{take} bytes per write");
            assert_eq!(w.calls, whole.len().div_ceil(take).max(1));
        }
        let mut stuck = Dribble::new(Vec::new(), 0);
        let err = write_frame(&mut stuck, 9, b"payload").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WriteZero);
    }

    #[test]
    fn oversized_prefix_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&1u32.to_le_bytes());
        let mut buf = RecvBuf::with_len(HEADER_LEN);
        assert!(matches!(
            buf.next_frame(&mut &wire[..], 1024),
            Err(FrameError::Oversized { max: 1024, .. })
        ));
        assert_eq!(
            buf.capacity(),
            HEADER_LEN,
            "no body allocation for a bad prefix"
        );
    }

    #[test]
    fn truncation_is_distinguished_from_close() {
        // Header cut short.
        assert!(matches!(
            RecvBuf::new().next_frame(&mut &[1u8, 0][..], 1024),
            Err(FrameError::Truncated { got: 2, need: 8 })
        ));
        // Body cut short.
        let mut wire = Vec::new();
        wire.extend_from_slice(&8u32.to_le_bytes());
        wire.extend_from_slice(&3u32.to_le_bytes());
        wire.extend_from_slice(b"abc");
        assert!(matches!(
            RecvBuf::new().next_frame(&mut &wire[..], 1024),
            Err(FrameError::Truncated { got: 11, need: 16 })
        ));
    }

    #[test]
    fn incremental_parse_finds_frames_at_any_split() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 1, b"first").unwrap();
        write_frame(&mut wire, 2, b"").unwrap();
        write_frame(&mut wire, 3, b"third-body").unwrap();
        // Feed the wire byte by byte: each frame must surface exactly
        // once, exactly when its last byte arrives, never early.
        let mut acc: Vec<u8> = Vec::new();
        let mut seen = Vec::new();
        for &b in &wire {
            acc.push(b);
            while let Some(p) = parse_frame(&acc, 1024).unwrap() {
                seen.push((p.seq, acc[p.body.clone()].to_vec()));
                acc.drain(..p.consumed);
            }
        }
        assert!(acc.is_empty());
        assert_eq!(
            seen,
            vec![
                (1, b"first".to_vec()),
                (2, Vec::new()),
                (3, b"third-body".to_vec()),
            ]
        );
    }

    #[test]
    fn incremental_parse_flags_oversized_immediately() {
        let mut acc = Vec::new();
        acc.extend_from_slice(&u32::MAX.to_le_bytes());
        // Only half the header so far: still undecidable.
        assert!(parse_frame(&acc[..4], 64).unwrap().is_none());
        acc.extend_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            parse_frame(&acc, 64),
            Err(FrameError::Oversized { max: 64, .. })
        ));
    }

    #[test]
    fn append_frame_patches_a_wrong_length_estimate() {
        let mut out = Vec::new();
        append_frame(&mut out, 9, 3, |b| b.extend_from_slice(b"abcde"));
        let p = parse_frame(&out, 1024).unwrap().unwrap();
        assert_eq!(p.seq, 9);
        assert_eq!(&out[p.body], b"abcde");
    }

    #[test]
    fn high_water_shrink() {
        let mut buf = Vec::with_capacity(1 << 20);
        buf.extend_from_slice(&[0u8; 128]);
        shrink_to_high_water(&mut buf, 4096);
        assert!(
            buf.capacity() <= 8192,
            "capacity {} not shrunk",
            buf.capacity()
        );
        assert_eq!(buf.len(), 128);
        // Disabled: capacity untouched.
        let mut big = Vec::with_capacity(1 << 20);
        shrink_to_high_water(&mut big, 0);
        assert!(big.capacity() >= 1 << 20);
        // A buffer still holding more than the mark is left alone.
        let mut full = vec![7u8; 64 << 10];
        let cap = full.capacity();
        shrink_to_high_water(&mut full, 4096);
        assert_eq!(full.capacity(), cap);
    }

    /// Reap every frame from `r` through `buf` the way the client does,
    /// until the stream ends; returns the frames and how it ended.
    fn reap_all(
        buf: &mut RecvBuf,
        r: &mut impl Read,
        max: usize,
    ) -> (Vec<(u32, Vec<u8>)>, FrameError) {
        let mut frames = Vec::new();
        loop {
            match buf.next_frame(r, max) {
                Ok(p) => {
                    frames.push((p.seq, buf.unparsed()[p.body].to_vec()));
                    buf.consume(p.consumed);
                }
                Err(end) => return (frames, end),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `RecvBuf` framing is total: frames and then arbitrary bytes,
        /// read any number of bytes at a time under any size limit,
        /// give exactly the frames, and the end, that one pass of
        /// `parse_frame` over the whole stream finds. It never panics,
        /// and the buffer grows only with the bytes that arrived, never
        /// with what a length prefix claims.
        #[test]
        fn recv_buf_framing_accepts_any_bytes(
            frames in proptest::collection::vec(
                (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..64)),
                0..6,
            ),
            tail in proptest::collection::vec(any::<u8>(), 0..64),
            take in 1usize..80,
            max in 0usize..96,
        ) {
            let mut wire = Vec::new();
            for (seq, body) in &frames {
                write_frame(&mut wire, *seq, body).unwrap();
            }
            wire.extend_from_slice(&tail);
            let (mut want, mut at) = (Vec::new(), 0);
            let want_end = loop {
                match parse_frame(&wire[at..], max) {
                    Ok(Some(p)) => {
                        want.push((p.seq, wire[at..][p.body].to_vec()));
                        at += p.consumed;
                    }
                    Ok(None) if at == wire.len() => break "closed",
                    Ok(None) => break "truncated",
                    Err(_) => break "oversized",
                }
            };
            let mut buf = RecvBuf::new();
            let (got, end) = reap_all(&mut buf, &mut Dribble::new(wire.clone(), take), max);
            prop_assert_eq!(got, want);
            let end = match end {
                FrameError::Closed => "closed",
                FrameError::Truncated { .. } => "truncated",
                FrameError::Oversized { .. } => "oversized",
                other => panic!("unexpected end {other}"),
            };
            prop_assert_eq!(end, want_end);
            prop_assert!(buf.capacity() <= FIRST_LEN.max(2 * wire.len()), "{}", buf.capacity());
        }
    }

    #[test]
    fn recv_buf_yields_the_same_frames_at_any_split() {
        let page: Vec<u8> = (0..4096u32).map(|i| (i * 7) as u8).collect();
        let frames = vec![
            (1, b"first".to_vec()),
            (2, Vec::new()),
            (3, page.clone()),
            (4, b"x".to_vec()),
            (5, page),
        ];
        let mut wire = Vec::new();
        for (seq, body) in &frames {
            write_frame(&mut wire, *seq, body).unwrap();
        }
        for take in [1, 2, 3, 7, 8, 9, 100, 4104, 4105, usize::MAX] {
            for mut buf in [
                RecvBuf::new(),
                RecvBuf::with_len(64),
                RecvBuf::with_len(RECV_BUF),
            ] {
                let (got, end) = reap_all(&mut buf, &mut Dribble::new(wire.clone(), take), 1 << 20);
                assert_eq!(got, frames, "{take} bytes per read");
                assert!(matches!(end, FrameError::Closed), "{take}: {end}");
            }
        }
    }

    #[test]
    fn a_window_of_page_replies_in_one_segment_is_one_read() {
        // 16 GET replies: status byte + a 4 KiB page each.
        let mut wire = Vec::new();
        for seq in 1..=16u32 {
            write_frame(&mut wire, seq, &[seq as u8; 1 + 4096]).unwrap();
        }
        assert_eq!(wire.len(), RECV_BUF, "the client's buffer holds one window");
        let mut socket = Dribble::new(wire, usize::MAX);
        let mut buf = RecvBuf::with_len(RECV_BUF);
        for seq in 1..=16u32 {
            let p = buf.next_frame(&mut socket, DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(p.seq, seq);
            assert_eq!(buf.unparsed()[p.body.start], seq as u8);
            buf.consume(p.consumed);
        }
        assert_eq!(socket.calls, 1, "every queued reply comes from one read");
    }

    #[test]
    fn recv_buf_reports_oversized_before_growing() {
        for len in [1000, u32::MAX as usize] {
            // More bytes wait in the stream than the buffer holds.
            let mut wire = header(len, 5).to_vec();
            wire.extend_from_slice(&[0; 256]);
            let mut buf = RecvBuf::with_len(64);
            let cap = buf.capacity();
            assert!(matches!(
                buf.next_frame(&mut Dribble::new(wire, usize::MAX), 512),
                Err(FrameError::Oversized { max: 512, .. })
            ));
            assert_eq!(buf.capacity(), cap, "grew for a {len}-byte body");
        }
        // Within the limit, the same frame grows the buffer.
        let mut wire = Vec::new();
        write_frame(&mut wire, 5, &[9; 500]).unwrap();
        let mut buf = RecvBuf::with_len(64);
        let p = buf
            .next_frame(&mut Dribble::new(wire, usize::MAX), 512)
            .unwrap();
        assert_eq!(buf.unparsed()[p.body].len(), 500);
        assert!(buf.capacity() >= HEADER_LEN + 500);
    }

    #[test]
    fn a_large_frame_grows_the_buffer_and_drained_it_shrinks_back() {
        // STATS and DUMP replies run to megabytes.
        let big = vec![0xA5; 1 << 20];
        let mut wire = Vec::new();
        write_frame(&mut wire, 1, &big).unwrap();
        write_frame(&mut wire, 2, b"after").unwrap();
        let mut socket = Dribble::new(wire, 64 << 10);
        let mut buf = RecvBuf::with_len(RECV_BUF);
        let p = buf.next_frame(&mut socket, DEFAULT_MAX_FRAME).unwrap();
        assert!(buf.unparsed()[p.body.clone()] == big[..]);
        let grown = buf.capacity();
        assert!(grown >= HEADER_LEN + big.len());
        assert!(grown < 2 * (HEADER_LEN + big.len()), "grew to {grown}");
        buf.consume(p.consumed);
        let p = buf.next_frame(&mut socket, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(&buf.unparsed()[p.body], b"after");
        buf.shrink_when_drained(RECV_BUF);
        assert_eq!(buf.capacity(), grown, "shrunk with bytes still buffered");
        buf.consume(p.consumed);
        buf.shrink_when_drained(RECV_BUF);
        assert_eq!(buf.capacity(), RECV_BUF);
    }

    #[test]
    fn recv_buf_end_of_stream_is_closed_or_truncated() {
        let mut whole = Vec::new();
        write_frame(&mut whole, 1, b"whole").unwrap();
        let (got, end) = reap_all(&mut RecvBuf::new(), &mut &whole[..], 1024);
        assert_eq!(got, vec![(1, b"whole".to_vec())]);
        assert!(matches!(end, FrameError::Closed));
        // Header cut short after a whole frame.
        let mut wire = whole.clone();
        wire.extend_from_slice(&[1, 0]);
        let (got, end) = reap_all(&mut RecvBuf::new(), &mut &wire[..], 1024);
        assert_eq!(got.len(), 1);
        assert!(matches!(end, FrameError::Truncated { got: 2, need: 8 }));
        // Body cut short.
        let mut wire = whole;
        wire.extend_from_slice(&header(8, 3));
        wire.extend_from_slice(b"abc");
        let (got, end) = reap_all(&mut RecvBuf::new(), &mut &wire[..], 1024);
        assert_eq!(got.len(), 1);
        assert!(matches!(end, FrameError::Truncated { got: 11, need: 16 }));
    }
}
