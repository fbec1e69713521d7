//! The `SDLNET01` wire protocol: length-prefixed, CRC-framed binary
//! requests and responses.
//!
//! A connection opens with an 8-byte magic exchange (client sends
//! [`MAGIC`], server echoes it), after which both directions carry
//! frames:
//!
//! ```text
//! [u32 le payload_len] [u32 le crc32(payload)] [payload]
//! ```
//!
//! This module holds only the request, response and pattern layouts.
//! The frame, the value and tuple layout and the byte cursor are
//! [`sdl_durability::codec`], the one definition the WAL and the
//! replication protocol use too, so a tuple is the same bytes
//! everywhere it is serialised.
//!
//! Decoding is total: truncated, oversized, or corrupt input yields
//! [`WireError`], never a panic — the decoder is driven by untrusted
//! bytes off a socket.

use sdl_durability::codec::{self, split_frame, Dec, DecodeError, Enc, FrameError, FRAME_HEADER};
use sdl_tuple::{Field, Pattern, Tuple, Value, VarId};

pub use sdl_durability::codec::frame;

/// Protocol magic exchanged at connection open.
pub const MAGIC: &[u8; 8] = b"SDLNET01";

/// Default cap on a single frame's payload.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// A client request. `req_id` correlates the response(s); ids are
/// chosen by the client and must be unique among its in-flight ops.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness / RTT probe; answered with [`Response::Ok`].
    Ping,
    /// Assert a tuple. Acknowledged once the engine commits the batch
    /// containing it.
    Out(Tuple),
    /// Blocking take: retract and return a matching tuple, parking the
    /// request ([`Response::Parked`]) until one exists.
    In(Pattern),
    /// Blocking read: as `In` without the retract.
    Rd(Pattern),
    /// Non-blocking take: [`Response::Tuple`] or [`Response::Failed`].
    Inp(Pattern),
    /// Non-blocking read.
    Rdp(Pattern),
    /// A full SDL transaction (source text + environment bindings),
    /// compiled and evaluated against the shared store. Delayed (`=>`)
    /// transactions park until enabled.
    Txn {
        /// SDL transaction source, e.g. `exists a : <year, a>! -> <found, a>`.
        source: String,
        /// Environment bindings visible to the transaction.
        env: Vec<(String, Value)>,
    },
    /// Cancel a parked request by its id; the parked op answers
    /// [`Response::Cancelled`].
    Cancel(u64),
}

impl Request {
    /// Stable opcode, also the `op` label on `sdl_net_requests_total`.
    pub(crate) fn opcode(&self) -> u8 {
        match self {
            Request::Ping => 0,
            Request::Out(_) => 1,
            Request::In(_) => 2,
            Request::Rd(_) => 3,
            Request::Inp(_) => 4,
            Request::Rdp(_) => 5,
            Request::Txn { .. } => 6,
            Request::Cancel(_) => 7,
        }
    }
}

/// A server response, correlated by `req_id`.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The operation succeeded with no payload (`Ping`, `Out` ack,
    /// committed `Txn`, `Cancel` ack).
    Ok,
    /// A matching tuple (`In`/`Rd`/`Inp`/`Rdp` success).
    Tuple(Tuple),
    /// The operation failed cleanly: no match (`Inp`/`Rdp`) or a failed
    /// immediate transaction.
    Failed,
    /// The blocking op parked server-side; a final response follows
    /// when a commit enables it (or it is cancelled).
    Parked,
    /// The parked op was cancelled (explicitly or by disconnect).
    Cancelled,
    /// The request was rejected (parse/compile/eval error, unsupported
    /// feature); the message is human-readable.
    Error(String),
    /// This server is a read-only replication follower; the write must
    /// be retried against the leader at the carried client address.
    NotLeader(String),
}

/// Decode failure; the connection should be dropped on any of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Payload shorter than the structure it claims to hold.
    Truncated,
    /// Frame CRC mismatch.
    Crc,
    /// Frame length exceeds the configured cap.
    TooLarge {
        /// Claimed payload length.
        len: usize,
        /// Configured cap.
        max: usize,
    },
    /// Unknown opcode / status / value tag, or invalid UTF-8.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated payload"),
            WireError::Crc => write!(f, "frame CRC mismatch"),
            WireError::TooLarge { len, max } => {
                write!(f, "frame payload {len} exceeds cap {max}")
            }
            WireError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> WireError {
        match e {
            DecodeError::Truncated => WireError::Truncated,
            DecodeError::Malformed(what) => WireError::Malformed(what),
        }
    }
}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> WireError {
        match e {
            FrameError::TooLarge { len, max } => WireError::TooLarge { len, max },
            FrameError::Crc => WireError::Crc,
        }
    }
}

// ---------------------------------------------------------------------------
// Payload encode/decode.
// ---------------------------------------------------------------------------

fn put_pattern(e: &mut Enc<'_>, p: &Pattern) {
    e.u32(p.fields().len() as u32);
    for f in p.fields() {
        match f {
            Field::Const(v) => {
                e.u8(0);
                e.value(v);
            }
            Field::Any => e.u8(1),
            Field::Var(VarId(i)) => {
                e.u8(2);
                e.u16(*i);
            }
        }
    }
}

fn pattern(d: &mut Dec<'_>) -> Result<Pattern, DecodeError> {
    let n = d.count(1)?;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        fields.push(match d.u8()? {
            0 => Field::Const(d.value()?),
            1 => Field::Any,
            2 => Field::Var(VarId(d.u16()?)),
            _ => return Err(DecodeError::Malformed("pattern field tag")),
        });
    }
    Ok(Pattern::new(fields))
}

/// Encodes `(req_id, request)` as a frame payload (no frame header).
pub fn encode_request(req_id: u64, req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    let e = &mut Enc(&mut out);
    e.u64(req_id);
    e.u8(req.opcode());
    match req {
        Request::Ping => {}
        Request::Out(t) => e.tuple(t),
        Request::In(p) | Request::Rd(p) | Request::Inp(p) | Request::Rdp(p) => put_pattern(e, p),
        Request::Txn { source, env } => {
            e.str(source);
            e.u32(env.len() as u32);
            for (k, v) in env {
                e.str(k);
                e.value(v);
            }
        }
        Request::Cancel(target) => e.u64(*target),
    }
    out
}

/// Decodes a request payload produced by [`encode_request`].
///
/// # Errors
///
/// [`WireError`] on any structural problem; never panics.
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), WireError> {
    Ok(codec::decode(payload, |d| {
        let req_id = d.u64()?;
        let req = match d.u8()? {
            0 => Request::Ping,
            1 => Request::Out(d.tuple()?),
            2 => Request::In(pattern(d)?),
            3 => Request::Rd(pattern(d)?),
            4 => Request::Inp(pattern(d)?),
            5 => Request::Rdp(pattern(d)?),
            6 => {
                let source = d.str()?.to_owned();
                let n = d.count(5)?;
                let mut env = Vec::with_capacity(n);
                for _ in 0..n {
                    env.push((d.str()?.to_owned(), d.value()?));
                }
                Request::Txn { source, env }
            }
            7 => Request::Cancel(d.u64()?),
            _ => return Err(DecodeError::Malformed("request opcode")),
        };
        Ok((req_id, req))
    })?)
}

/// Encodes `(req_id, response)` as a frame payload (no frame header).
pub fn encode_response(req_id: u64, resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    put_response(&mut Enc(&mut out), req_id, resp);
    out
}

/// Appends the payload [`encode_response`] returns.
pub(crate) fn put_response(e: &mut Enc<'_>, req_id: u64, resp: &Response) {
    e.u64(req_id);
    match resp {
        Response::Ok => e.u8(0),
        Response::Tuple(t) => {
            e.u8(1);
            e.tuple(t);
        }
        Response::Failed => e.u8(2),
        Response::Parked => e.u8(3),
        Response::Cancelled => e.u8(4),
        Response::Error(msg) => {
            e.u8(5);
            e.str(msg);
        }
        Response::NotLeader(addr) => {
            e.u8(6);
            e.str(addr);
        }
    }
}

/// Decodes a response payload produced by [`encode_response`].
///
/// # Errors
///
/// [`WireError`] on any structural problem; never panics.
pub fn decode_response(payload: &[u8]) -> Result<(u64, Response), WireError> {
    Ok(codec::decode(payload, |d| {
        let req_id = d.u64()?;
        let resp = match d.u8()? {
            0 => Response::Ok,
            1 => Response::Tuple(d.tuple()?),
            2 => Response::Failed,
            3 => Response::Parked,
            4 => Response::Cancelled,
            5 => Response::Error(d.str()?.to_owned()),
            6 => Response::NotLeader(d.str()?.to_owned()),
            _ => return Err(DecodeError::Malformed("response status")),
        };
        Ok((req_id, resp))
    })?)
}

/// Attempts to extract one frame's payload from the front of `buf`.
///
/// Returns `Ok(None)` when `buf` holds only a partial frame (read more
/// bytes), `Ok(Some((payload, consumed)))` on success.
///
/// # Errors
///
/// [`WireError::TooLarge`] if the claimed length exceeds `max_frame`
/// and [`WireError::Crc`] on checksum mismatch — both are
/// unrecoverable for the connection (framing is lost).
pub fn try_frame(buf: &[u8], max_frame: usize) -> Result<Option<(Vec<u8>, usize)>, WireError> {
    Ok(split_frame(buf, max_frame)?.map(|used| (buf[FRAME_HEADER..used].to_vec(), used)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdl_tuple::{pattern, tuple};

    fn roundtrip_req(req: Request) {
        let payload = encode_request(42, &req);
        let (id, back) = decode_request(&payload).expect("decodes");
        assert_eq!(id, 42);
        assert_eq!(back, req);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Out(tuple![Value::atom("mbox"), 7, 3.5]));
        roundtrip_req(Request::In(pattern![Value::atom("mbox"), 7, any]));
        roundtrip_req(Request::Rd(pattern![Value::atom("mbox"), var 0, var 1]));
        roundtrip_req(Request::Inp(pattern![Value::Bool(true)]));
        roundtrip_req(Request::Rdp(pattern![Value::Str("s".into()), any]));
        roundtrip_req(Request::Txn {
            source: "exists a : <year, a>! -> <found, a>".to_owned(),
            env: vec![("k".to_owned(), Value::Int(3))],
        });
        roundtrip_req(Request::Cancel(99));
    }

    #[test]
    fn response_roundtrips() {
        for resp in [
            Response::Ok,
            Response::Tuple(tuple![Value::atom("x"), 1]),
            Response::Failed,
            Response::Parked,
            Response::Cancelled,
            Response::Error("nope".to_owned()),
            Response::NotLeader("10.0.0.1:7401".to_owned()),
        ] {
            let payload = encode_response(7, &resp);
            let (id, back) = decode_response(&payload).expect("decodes");
            assert_eq!(id, 7);
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn frame_roundtrip_and_partial() {
        let payload = encode_request(1, &Request::Ping);
        let framed = frame(&payload);
        // Whole frame extracts.
        let (got, used) = try_frame(&framed, DEFAULT_MAX_FRAME)
            .expect("ok")
            .expect("complete");
        assert_eq!(got, payload);
        assert_eq!(used, framed.len());
        // Every proper prefix is "need more bytes", not an error.
        for cut in 0..framed.len() {
            assert_eq!(try_frame(&framed[..cut], DEFAULT_MAX_FRAME), Ok(None));
        }
    }

    #[test]
    fn corrupt_frames_rejected() {
        let payload = encode_request(1, &Request::Out(tuple![Value::atom("a"), 1]));
        let mut framed = frame(&payload);
        // Flip a payload byte: CRC catches it.
        let last = framed.len() - 1;
        framed[last] ^= 0xff;
        assert_eq!(try_frame(&framed, DEFAULT_MAX_FRAME), Err(WireError::Crc));
        // Oversized claimed length is rejected before buffering.
        let mut huge = frame(&payload);
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            try_frame(&huge, DEFAULT_MAX_FRAME),
            Err(WireError::TooLarge { .. })
        ));
    }

    #[test]
    fn corrupt_count_is_bounded() {
        // A payload claiming 2^32-1 tuple fields but holding 2 bytes
        // must fail fast without attempting the allocation.
        let mut payload = Vec::new();
        let e = &mut Enc(&mut payload);
        e.u64(1);
        e.u8(1); // Out
        e.u32(u32::MAX);
        payload.extend_from_slice(&[0, 0]);
        assert_eq!(decode_request(&payload), Err(WireError::Truncated));
    }
}
