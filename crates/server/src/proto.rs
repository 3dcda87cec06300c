//! The wire protocol: compact length-prefixed binary frames.
//!
//! Every message on the wire is one *frame*: a little-endian `u32` body
//! length, a little-endian `u32` sequence tag, then that many body
//! bytes (see [`crate::frame`]). A request body is an opcode byte plus
//! an opcode-specific payload; a response body is a status byte plus a
//! status/opcode-specific payload. The tag correlates responses with
//! requests, so a connection may *pipeline* a window of requests and
//! reap tagged responses as they complete; tag `0` is reserved for
//! unsolicited server frames (`BUSY` at admission, `ERR` ahead of a
//! close).
//!
//! | opcode | request payload | OK response payload |
//! |---|---|---|
//! | `PUT` (1) | `u64 key`, `u32 page_len`, page bytes | empty |
//! | `GET` (2) | `u64 key` | page bytes |
//! | `DEL` (3) | `u64 key` | empty (`NOT_FOUND` if absent) |
//! | `FLUSH` (4) | empty | empty |
//! | `STATS` (5) | empty | Prometheus text (UTF-8) |
//! | `PING` (6) | empty | empty |
//! | `DUMP` (7) | empty | flight-recorder JSON (UTF-8) |
//!
//! Statuses: `OK` (0), `NOT_FOUND` (1, GET/DEL of an absent key),
//! `BUSY` (2, the server is at its connection cap — retry later),
//! `ERR` (3, with a UTF-8 message payload; sent for malformed frames
//! and store errors, and the connection is closed after a malformed
//! frame).
//!
//! `PUT` carries an explicit `page_len` even though the frame length
//! implies it: the redundancy is what lets the server *detect* (rather
//! than silently absorb) a corrupted or truncated producer.

/// Request opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Store a page under a key.
    Put = 1,
    /// Fetch a page.
    Get = 2,
    /// Remove a key.
    Del = 3,
    /// Block until the store's spill writer has drained.
    Flush = 4,
    /// Fetch the Prometheus telemetry snapshot.
    Stats = 5,
    /// Liveness / round-trip probe.
    Ping = 6,
    /// Fetch an on-demand flight-recorder dump (JSON). Empty `{}` when
    /// the server runs untraced.
    Dump = 7,
}

impl Opcode {
    /// All opcodes, in wire order (indexable by `op as usize - 1`).
    pub const ALL: [Opcode; 7] = [
        Opcode::Put,
        Opcode::Get,
        Opcode::Del,
        Opcode::Flush,
        Opcode::Stats,
        Opcode::Ping,
        Opcode::Dump,
    ];

    /// Decode an opcode byte.
    pub fn from_u8(b: u8) -> Option<Opcode> {
        match b {
            1 => Some(Opcode::Put),
            2 => Some(Opcode::Get),
            3 => Some(Opcode::Del),
            4 => Some(Opcode::Flush),
            5 => Some(Opcode::Stats),
            6 => Some(Opcode::Ping),
            7 => Some(Opcode::Dump),
            _ => None,
        }
    }

    /// Stable lowercase name (telemetry labels, logs).
    pub fn name(self) -> &'static str {
        match self {
            Opcode::Put => "put",
            Opcode::Get => "get",
            Opcode::Del => "del",
            Opcode::Flush => "flush",
            Opcode::Stats => "stats",
            Opcode::Ping => "ping",
            Opcode::Dump => "dump",
        }
    }
}

/// Response status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Success; payload depends on the request opcode.
    Ok = 0,
    /// GET/DEL of a key the store does not hold.
    NotFound = 1,
    /// The server is at its connection cap; the request was not executed.
    Busy = 2,
    /// Error; payload is a UTF-8 message. After a malformed frame the
    /// server sends this and closes the connection.
    Err = 3,
}

impl Status {
    /// Decode a status byte.
    pub fn from_u8(b: u8) -> Option<Status> {
        match b {
            0 => Some(Status::Ok),
            1 => Some(Status::NotFound),
            2 => Some(Status::Busy),
            3 => Some(Status::Err),
            _ => None,
        }
    }
}

/// A decoded request. `Put` borrows its page from the receive buffer —
/// the page bytes are never copied between the socket and the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request<'a> {
    /// Store `page` under `key`.
    Put {
        /// Page key.
        key: u64,
        /// Raw page bytes.
        page: &'a [u8],
    },
    /// Fetch the page under `key`.
    Get {
        /// Page key.
        key: u64,
    },
    /// Remove `key`.
    Del {
        /// Page key.
        key: u64,
    },
    /// Drain the spill writer.
    Flush,
    /// Telemetry snapshot in Prometheus text format.
    Stats,
    /// Round-trip probe.
    Ping,
    /// On-demand flight-recorder dump (JSON).
    Dump,
}

impl Request<'_> {
    /// This request's opcode.
    pub fn opcode(&self) -> Opcode {
        match self {
            Request::Put { .. } => Opcode::Put,
            Request::Get { .. } => Opcode::Get,
            Request::Del { .. } => Opcode::Del,
            Request::Flush => Opcode::Flush,
            Request::Stats => Opcode::Stats,
            Request::Ping => Opcode::Ping,
            Request::Dump => Opcode::Dump,
        }
    }

    /// Append the encoded body (opcode + payload, no length prefix) to
    /// `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.opcode() as u8);
        match self {
            Request::Put { key, page } => {
                buf.extend_from_slice(&key.to_le_bytes());
                buf.extend_from_slice(&(page.len() as u32).to_le_bytes());
                buf.extend_from_slice(page);
            }
            Request::Get { key } | Request::Del { key } => {
                buf.extend_from_slice(&key.to_le_bytes());
            }
            Request::Flush | Request::Stats | Request::Ping | Request::Dump => {}
        }
    }
}

impl<'a> Request<'a> {
    /// Decode a request body. Never panics: every malformation maps to a
    /// [`ProtoError`].
    pub fn decode(body: &'a [u8]) -> Result<Request<'a>, ProtoError> {
        let (&op, rest) = body.split_first().ok_or(ProtoError::Empty)?;
        let op = Opcode::from_u8(op).ok_or(ProtoError::UnknownOpcode(op))?;
        match op {
            Opcode::Put => {
                if rest.len() < 12 {
                    return Err(ProtoError::Truncated {
                        op: "put",
                        need: 12,
                        got: rest.len(),
                    });
                }
                let key = u64::from_le_bytes(rest[..8].try_into().expect("checked length"));
                let declared =
                    u32::from_le_bytes(rest[8..12].try_into().expect("checked length")) as usize;
                let page = &rest[12..];
                if page.len() != declared {
                    return Err(ProtoError::BadPayloadLen {
                        declared,
                        got: page.len(),
                    });
                }
                Ok(Request::Put { key, page })
            }
            Opcode::Get | Opcode::Del => {
                if rest.len() != 8 {
                    return Err(ProtoError::Truncated {
                        op: op.name(),
                        need: 8,
                        got: rest.len(),
                    });
                }
                let key = u64::from_le_bytes(rest.try_into().expect("checked length"));
                Ok(match op {
                    Opcode::Get => Request::Get { key },
                    _ => Request::Del { key },
                })
            }
            Opcode::Flush | Opcode::Stats | Opcode::Ping | Opcode::Dump => {
                if !rest.is_empty() {
                    return Err(ProtoError::TrailingBytes {
                        op: op.name(),
                        extra: rest.len(),
                    });
                }
                Ok(match op {
                    Opcode::Flush => Request::Flush,
                    Opcode::Stats => Request::Stats,
                    Opcode::Ping => Request::Ping,
                    _ => Request::Dump,
                })
            }
        }
    }
}

/// A decoded response: a status plus its raw payload (typed by the
/// request the caller sent — GET gets page bytes, STATS UTF-8 text, ERR
/// a UTF-8 message).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response<'a> {
    /// Outcome code.
    pub status: Status,
    /// Raw payload bytes (may be empty).
    pub payload: &'a [u8],
}

impl Response<'_> {
    /// Append the encoded body (status + payload, no length prefix) to
    /// `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.status as u8);
        buf.extend_from_slice(self.payload);
    }
}

impl<'a> Response<'a> {
    /// Decode a response body.
    pub fn decode(body: &'a [u8]) -> Result<Response<'a>, ProtoError> {
        let (&status, payload) = body.split_first().ok_or(ProtoError::Empty)?;
        let status = Status::from_u8(status).ok_or(ProtoError::UnknownStatus(status))?;
        Ok(Response { status, payload })
    }
}

/// Everything that can be wrong with a frame body. Decoding is total:
/// arbitrary bytes produce one of these, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// Zero-length body (no opcode/status byte).
    Empty,
    /// Opcode byte outside the table.
    UnknownOpcode(u8),
    /// Status byte outside the table.
    UnknownStatus(u8),
    /// Fixed-size fields cut short.
    Truncated {
        /// Opcode being decoded.
        op: &'static str,
        /// Bytes the fixed fields require.
        need: usize,
        /// Bytes present.
        got: usize,
    },
    /// PUT's declared page length disagrees with the bytes present.
    BadPayloadLen {
        /// Length the header declared.
        declared: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// Payload bytes after a payload-less opcode.
    TrailingBytes {
        /// Opcode being decoded.
        op: &'static str,
        /// Unexpected byte count.
        extra: usize,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Empty => write!(f, "empty frame body"),
            ProtoError::UnknownOpcode(b) => write!(f, "unknown opcode {b:#04x}"),
            ProtoError::UnknownStatus(b) => write!(f, "unknown status {b:#04x}"),
            ProtoError::Truncated { op, need, got } => {
                write!(f, "truncated {op} payload: need {need} bytes, got {got}")
            }
            ProtoError::BadPayloadLen { declared, got } => {
                write!(f, "put declared {declared} page bytes but carried {got}")
            }
            ProtoError::TrailingBytes { op, extra } => {
                write!(f, "{op} carries {extra} unexpected payload bytes")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_all_opcodes() {
        let page = vec![7u8; 64];
        let reqs = [
            Request::Put {
                key: 42,
                page: &page,
            },
            Request::Get { key: u64::MAX },
            Request::Del { key: 0 },
            Request::Flush,
            Request::Stats,
            Request::Ping,
            Request::Dump,
        ];
        let mut buf = Vec::new();
        for req in reqs {
            buf.clear();
            req.encode(&mut buf);
            assert_eq!(Request::decode(&buf).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrip() {
        let mut buf = Vec::new();
        for (status, payload) in [
            (Status::Ok, &b"page-bytes"[..]),
            (Status::NotFound, &[][..]),
            (Status::Busy, &[][..]),
            (Status::Err, b"boom"),
        ] {
            buf.clear();
            let resp = Response { status, payload };
            resp.encode(&mut buf);
            assert_eq!(Response::decode(&buf).unwrap(), resp);
        }
    }

    #[test]
    fn malformed_bodies_are_errors_not_panics() {
        assert_eq!(Request::decode(&[]), Err(ProtoError::Empty));
        assert_eq!(Request::decode(&[99]), Err(ProtoError::UnknownOpcode(99)));
        // GET with a short key.
        assert!(matches!(
            Request::decode(&[2, 1, 2, 3]),
            Err(ProtoError::Truncated { .. })
        ));
        // PING with trailing junk.
        assert!(matches!(
            Request::decode(&[6, 0]),
            Err(ProtoError::TrailingBytes { .. })
        ));
        // PUT whose declared length disagrees with the body.
        let mut put = Vec::new();
        Request::Put {
            key: 1,
            page: &[1, 2, 3],
        }
        .encode(&mut put);
        put.pop();
        assert!(matches!(
            Request::decode(&put),
            Err(ProtoError::BadPayloadLen {
                declared: 3,
                got: 2
            })
        ));
        assert_eq!(Response::decode(&[]), Err(ProtoError::Empty));
        assert_eq!(Response::decode(&[9]), Err(ProtoError::UnknownStatus(9)));
    }
}
