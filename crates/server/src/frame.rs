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
//! Two consumption styles share the format:
//!
//! - [`read_frame`] blocks on a [`Read`] until one whole frame arrives
//!   (the client's reaper);
//! - [`parse_frame`] inspects an in-memory byte accumulation and
//!   extracts a complete frame if one is present — the nonblocking
//!   reactor appends whatever the socket had and parses as many
//!   complete frames as arrived, however the bytes were split.

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

/// Read one frame body into `buf` (cleared and resized), blocking until
/// complete, returning the frame's sequence tag. Used by the client;
/// the server's backends do nonblocking parses or stepped reads so idle
/// timeouts and shutdown stay responsive.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>, max: usize) -> Result<u32, FrameError> {
    let mut hdr = [0u8; HEADER_LEN];
    read_exact_or(r, &mut hdr, 0, HEADER_LEN)?;
    let len = u32::from_le_bytes(hdr[..4].try_into().expect("header length")) as usize;
    let seq = u32::from_le_bytes(hdr[4..].try_into().expect("header length"));
    if len > max {
        return Err(FrameError::Oversized { len, max });
    }
    buf.clear();
    buf.resize(len, 0);
    read_exact_or(r, buf, HEADER_LEN, HEADER_LEN + len)?;
    Ok(seq)
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

/// `read_exact` that distinguishes a clean close (EOF before the first
/// byte of the frame) from a truncation (EOF with the frame underway).
fn read_exact_or(
    r: &mut impl Read,
    buf: &mut [u8],
    already: usize,
    need: usize,
) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if already == 0 && filled == 0 {
                    Err(FrameError::Closed)
                } else {
                    Err(FrameError::Truncated {
                        got: already + filled,
                        need,
                    })
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_over_a_pipe() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 7, b"hello").unwrap();
        write_frame(&mut wire, 8, b"").unwrap();
        let mut cursor = &wire[..];
        let mut buf = Vec::new();
        assert_eq!(read_frame(&mut cursor, &mut buf, 1024).unwrap(), 7);
        assert_eq!(buf, b"hello");
        assert_eq!(read_frame(&mut cursor, &mut buf, 1024).unwrap(), 8);
        assert!(buf.is_empty());
        assert!(matches!(
            read_frame(&mut cursor, &mut buf, 1024),
            Err(FrameError::Closed)
        ));
    }

    /// A transport that takes at most `take` bytes per call and counts
    /// the calls.
    struct Dribble {
        wire: Vec<u8>,
        take: usize,
        calls: usize,
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
            let mut w = Dribble {
                wire: Vec::new(),
                take,
                calls: 0,
            };
            write_frame(&mut w, 9, b"payload").unwrap();
            assert_eq!(w.wire, whole, "{take} bytes per write");
            assert_eq!(w.calls, whole.len().div_ceil(take).max(1));
        }
        let mut stuck = Dribble {
            wire: Vec::new(),
            take: 0,
            calls: 0,
        };
        let err = write_frame(&mut stuck, 9, b"payload").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WriteZero);
    }

    #[test]
    fn oversized_prefix_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&1u32.to_le_bytes());
        let mut cursor = &wire[..];
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut cursor, &mut buf, 1024),
            Err(FrameError::Oversized { max: 1024, .. })
        ));
        assert_eq!(buf.capacity(), 0, "no body allocation for a bad prefix");
    }

    #[test]
    fn truncation_is_distinguished_from_close() {
        // Header cut short.
        let mut cursor = &[1u8, 0][..];
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut cursor, &mut buf, 1024),
            Err(FrameError::Truncated { got: 2, need: 8 })
        ));
        // Body cut short.
        let mut wire = Vec::new();
        wire.extend_from_slice(&8u32.to_le_bytes());
        wire.extend_from_slice(&3u32.to_le_bytes());
        wire.extend_from_slice(b"abc");
        let mut cursor = &wire[..];
        assert!(matches!(
            read_frame(&mut cursor, &mut buf, 1024),
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
}
