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
//! The CRC is the same polynomial the durability WAL uses
//! ([`sdl_durability::crc32`]) — one checksum implementation for both
//! the disk and the wire. Payloads are little-endian throughout and
//! value encoding mirrors the WAL codec's tags, so a tuple means the
//! same bytes everywhere it is serialised.
//!
//! Decoding is total: truncated, oversized, or corrupt input yields
//! [`WireError`], never a panic — the decoder is driven by untrusted
//! bytes off a socket.

use std::sync::Arc;

use sdl_durability::crc32;
use sdl_tuple::{Field, Pattern, ProcId, Tuple, TupleId, Value, VarId};

/// Protocol magic exchanged at connection open.
pub const MAGIC: &[u8; 8] = b"SDLNET01";

/// Frame header size: length + CRC.
pub(crate) const FRAME_HEADER: usize = 8;

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

// ---------------------------------------------------------------------------
// Primitive encoding. Tags mirror the durability WAL codec: 0 Bool,
// 1 Int, 2 Float (bits), 3 Atom, 4 Str, 5 Pid, 6 Tid.
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Bool(b) => {
            out.push(0);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(1);
            put_u64(out, *i as u64);
        }
        Value::Float(x) => {
            out.push(2);
            put_u64(out, x.to_bits());
        }
        Value::Atom(a) => {
            out.push(3);
            put_str(out, a.as_str());
        }
        Value::Str(s) => {
            out.push(4);
            put_str(out, s);
        }
        Value::Pid(p) => {
            out.push(5);
            put_u64(out, p.0);
        }
        Value::Tid(t) => {
            out.push(6);
            put_u64(out, t.owner.0);
            put_u64(out, t.seq);
        }
    }
}

fn put_tuple(out: &mut Vec<u8>, t: &Tuple) {
    put_u32(out, t.arity() as u32);
    for v in t.iter() {
        put_value(out, v);
    }
}

fn put_pattern(out: &mut Vec<u8>, p: &Pattern) {
    put_u32(out, p.fields().len() as u32);
    for f in p.fields() {
        match f {
            Field::Const(v) => {
                out.push(0);
                put_value(out, v);
            }
            Field::Any => out.push(1),
            Field::Var(VarId(i)) => {
                out.push(2);
                put_u16(out, *i);
            }
        }
    }
}

/// Bounds-checked cursor over a received payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<&'a str, WireError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).map_err(|_| WireError::Malformed("utf-8 string"))
    }

    /// Guards count-prefixed loops: a claimed element count may not
    /// exceed the bytes actually present (1 byte per element minimum),
    /// so a corrupt huge count cannot trigger a huge allocation.
    fn count(&mut self, min_elem_size: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_size) > remaining {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    fn value(&mut self) -> Result<Value, WireError> {
        match self.u8()? {
            0 => Ok(Value::Bool(self.u8()? != 0)),
            1 => Ok(Value::Int(self.u64()? as i64)),
            2 => Ok(Value::Float(f64::from_bits(self.u64()?))),
            3 => Ok(Value::atom(self.str()?)),
            4 => Ok(Value::Str(Arc::from(self.str()?))),
            5 => Ok(Value::Pid(ProcId(self.u64()?))),
            6 => Ok(Value::Tid(TupleId {
                owner: ProcId(self.u64()?),
                seq: self.u64()?,
            })),
            _ => Err(WireError::Malformed("value tag")),
        }
    }

    fn tuple(&mut self) -> Result<Tuple, WireError> {
        let n = self.count(2)?;
        let mut fields = Vec::with_capacity(n);
        for _ in 0..n {
            fields.push(self.value()?);
        }
        Ok(Tuple::new(fields))
    }

    fn pattern(&mut self) -> Result<Pattern, WireError> {
        let n = self.count(1)?;
        let mut fields = Vec::with_capacity(n);
        for _ in 0..n {
            fields.push(match self.u8()? {
                0 => Field::Const(self.value()?),
                1 => Field::Any,
                2 => Field::Var(VarId(self.u16()?)),
                _ => Err(WireError::Malformed("pattern field tag"))?,
            });
        }
        Ok(Pattern::new(fields))
    }

    fn done(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes"))
        }
    }
}

// ---------------------------------------------------------------------------
// Payload encode/decode.
// ---------------------------------------------------------------------------

/// Encodes `(req_id, request)` as a frame payload (no frame header).
pub fn encode_request(req_id: u64, req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    put_u64(&mut out, req_id);
    out.push(req.opcode());
    match req {
        Request::Ping => {}
        Request::Out(t) => put_tuple(&mut out, t),
        Request::In(p) | Request::Rd(p) | Request::Inp(p) | Request::Rdp(p) => {
            put_pattern(&mut out, p)
        }
        Request::Txn { source, env } => {
            put_str(&mut out, source);
            put_u32(&mut out, env.len() as u32);
            for (k, v) in env {
                put_str(&mut out, k);
                put_value(&mut out, v);
            }
        }
        Request::Cancel(target) => put_u64(&mut out, *target),
    }
    out
}

/// Decodes a request payload produced by [`encode_request`].
///
/// # Errors
///
/// [`WireError`] on any structural problem; never panics.
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), WireError> {
    let mut c = Cursor::new(payload);
    let req_id = c.u64()?;
    let req = match c.u8()? {
        0 => Request::Ping,
        1 => Request::Out(c.tuple()?),
        2 => Request::In(c.pattern()?),
        3 => Request::Rd(c.pattern()?),
        4 => Request::Inp(c.pattern()?),
        5 => Request::Rdp(c.pattern()?),
        6 => {
            let source = c.str()?.to_owned();
            let n = c.count(5)?;
            let mut env = Vec::with_capacity(n);
            for _ in 0..n {
                let k = c.str()?.to_owned();
                let v = c.value()?;
                env.push((k, v));
            }
            Request::Txn { source, env }
        }
        7 => Request::Cancel(c.u64()?),
        _ => return Err(WireError::Malformed("request opcode")),
    };
    c.done()?;
    Ok((req_id, req))
}

/// Encodes `(req_id, response)` as a frame payload (no frame header).
pub fn encode_response(req_id: u64, resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    put_response(&mut out, req_id, resp);
    out
}

/// Appends the payload [`encode_response`] returns to `out`.
pub(crate) fn put_response(out: &mut Vec<u8>, req_id: u64, resp: &Response) {
    put_u64(out, req_id);
    match resp {
        Response::Ok => out.push(0),
        Response::Tuple(t) => {
            out.push(1);
            put_tuple(out, t);
        }
        Response::Failed => out.push(2),
        Response::Parked => out.push(3),
        Response::Cancelled => out.push(4),
        Response::Error(msg) => {
            out.push(5);
            put_str(out, msg);
        }
        Response::NotLeader(addr) => {
            out.push(6);
            put_str(out, addr);
        }
    }
}

/// Decodes a response payload produced by [`encode_response`].
///
/// # Errors
///
/// [`WireError`] on any structural problem; never panics.
pub fn decode_response(payload: &[u8]) -> Result<(u64, Response), WireError> {
    let mut c = Cursor::new(payload);
    let req_id = c.u64()?;
    let resp = match c.u8()? {
        0 => Response::Ok,
        1 => Response::Tuple(c.tuple()?),
        2 => Response::Failed,
        3 => Response::Parked,
        4 => Response::Cancelled,
        5 => Response::Error(c.str()?.to_owned()),
        6 => Response::NotLeader(c.str()?.to_owned()),
        _ => return Err(WireError::Malformed("response status")),
    };
    c.done()?;
    Ok((req_id, resp))
}

/// Wraps a payload in the `[len][crc][payload]` frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    out
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
    Ok(frame_len(buf, max_frame)?.map(|used| (buf[FRAME_HEADER..used].to_vec(), used)))
}

/// The checks of [`try_frame`] without the copy: `Ok(Some(used))` when
/// `buf` starts with a whole, intact frame of `used` bytes, whose
/// payload is `buf[FRAME_HEADER..used]`.
pub(crate) fn frame_len(buf: &[u8], max_frame: usize) -> Result<Option<usize>, WireError> {
    if buf.len() < FRAME_HEADER {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    if len > max_frame {
        return Err(WireError::TooLarge {
            len,
            max: max_frame,
        });
    }
    let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    if buf.len() < FRAME_HEADER + len {
        return Ok(None);
    }
    if crc32(&buf[FRAME_HEADER..FRAME_HEADER + len]) != crc {
        return Err(WireError::Crc);
    }
    Ok(Some(FRAME_HEADER + len))
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
        put_u64(&mut payload, 1);
        payload.push(1); // Out
        put_u32(&mut payload, u32::MAX);
        payload.extend_from_slice(&[0, 0]);
        assert_eq!(decode_request(&payload), Err(WireError::Truncated));
    }
}
