//! The `SDLREPL1` replication wire protocol.
//!
//! A follower connects to the leader's replication listener, sends the
//! 8-byte magic (the leader echoes it), and the connection switches to
//! the same `[u32 len][u32 crc][payload]` framing the client protocol
//! and the on-disk WAL use. Messages:
//!
//! | tag | dir | message | payload |
//! |-----|-----|---------|---------|
//! | 0 | F→L | `Hello` | version, follower last commit, shard count (0 = fresh) |
//! | 1 | L→F | `HelloAck` | version, shard count, shippable watermark, leader client addr |
//! | 2 | L→F | `SnapBegin` | snapshot commit, shard count, id-mint cursors, tuple count |
//! | 3 | L→F | `SnapChunk` | a slice of the snapshot's `(id, tuple)` instances |
//! | 4 | L→F | `SnapEnd` | — |
//! | 5 | L→F | `Commit` | one WAL commit record, byte-identical to its log frame payload |
//! | 6 | L→F | `Heartbeat` | shippable watermark (keeps follower lag fresh when idle) |
//! | 7 | F→L | `Ack` | highest commit the follower has applied |
//! | 8 | — | `Error` | human-readable reason; sender closes after |
//!
//! The bootstrap sequence after `HelloAck` is either `SnapBegin
//! SnapChunk* SnapEnd Commit*` (snapshot bootstrap) or plain `Commit*`
//! (log resume) — the follower does not need to know in advance which
//! it will get. Commit records arrive in strictly sequential commit
//! order; the follower acks cumulatively and the leader moves its
//! retention pin forward on each ack, which is what makes snapshot
//! pruning safe while followers are attached.

use sdl_durability::{
    crc32, decode_commit_record, decode_instances, encode_commit_record, encode_instances,
    CommitRecord,
};
use sdl_tuple::{Tuple, TupleId};

/// Protocol magic exchanged at connection open.
pub(crate) const MAGIC: &[u8; 8] = b"SDLREPL1";

/// Protocol version inside `Hello`/`HelloAck`.
pub(crate) const VERSION: u32 = 1;

/// Frame header size: length + CRC.
pub(crate) const FRAME_HEADER: usize = 8;

/// Cap on a replication frame's payload. Snapshot chunks are sized well
/// below this; the cap only guards against a corrupt length prefix.
pub(crate) const MAX_FRAME: usize = 32 << 20;

/// A replication protocol message.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Msg {
    /// Follower's opening line: what it already has.
    Hello {
        /// Protocol version the follower speaks.
        version: u32,
        /// Highest commit already applied by the follower (0 = fresh).
        last_commit: u64,
        /// Shard count of the follower's store, 0 when it has none yet.
        n_shards: u64,
    },
    /// Leader's acceptance: what the follower must build toward.
    HelloAck {
        /// Protocol version the leader speaks.
        version: u32,
        /// Shard count of the leader's store (binding for the follower).
        n_shards: u64,
        /// The leader's shippable watermark at accept time.
        watermark: u64,
        /// Client-protocol address writes should be redirected to.
        leader_addr: String,
    },
    /// Start of a snapshot transfer.
    SnapBegin {
        /// Commit the snapshot captures.
        commit: u64,
        /// Shard count (repeated for self-containedness).
        n_shards: u64,
        /// Per-shard id-mint cursors at the snapshot.
        cursors: Vec<u64>,
        /// Total instances the chunks will carry.
        n_tuples: u64,
    },
    /// One slice of the snapshot's instances.
    SnapChunk(Vec<(TupleId, Tuple)>),
    /// Snapshot transfer complete; commits follow.
    SnapEnd,
    /// One committed batch, in strict commit order.
    Commit(CommitRecord),
    /// Leader watermark when no commits are flowing.
    Heartbeat(u64),
    /// Cumulative follower acknowledgement.
    Ack(u64),
    /// Fatal condition; connection closes after.
    Error(String),
}

/// Encodes a message as a frame payload (no frame header).
pub(crate) fn encode_msg(msg: &Msg) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    match msg {
        Msg::Hello {
            version,
            last_commit,
            n_shards,
        } => {
            out.push(0);
            put_u32(&mut out, *version);
            put_u64(&mut out, *last_commit);
            put_u64(&mut out, *n_shards);
        }
        Msg::HelloAck {
            version,
            n_shards,
            watermark,
            leader_addr,
        } => {
            out.push(1);
            put_u32(&mut out, *version);
            put_u64(&mut out, *n_shards);
            put_u64(&mut out, *watermark);
            put_str(&mut out, leader_addr);
        }
        Msg::SnapBegin {
            commit,
            n_shards,
            cursors,
            n_tuples,
        } => {
            out.push(2);
            put_u64(&mut out, *commit);
            put_u64(&mut out, *n_shards);
            put_u32(&mut out, cursors.len() as u32);
            for c in cursors {
                put_u64(&mut out, *c);
            }
            put_u64(&mut out, *n_tuples);
        }
        Msg::SnapChunk(items) => {
            out.push(3);
            out.extend_from_slice(&encode_instances(items));
        }
        Msg::SnapEnd => out.push(4),
        Msg::Commit(rec) => {
            out.push(5);
            out.extend_from_slice(&encode_commit_record(rec));
        }
        Msg::Heartbeat(watermark) => {
            out.push(6);
            put_u64(&mut out, *watermark);
        }
        Msg::Ack(applied) => {
            out.push(7);
            put_u64(&mut out, *applied);
        }
        Msg::Error(reason) => {
            out.push(8);
            put_str(&mut out, reason);
        }
    }
    out
}

/// Decodes a frame payload produced by [`encode_msg`].
///
/// # Errors
///
/// A human-readable reason on any structural problem; never panics.
pub(crate) fn decode_msg(payload: &[u8]) -> Result<Msg, String> {
    let mut c = Cursor::new(payload);
    let msg = match c.u8()? {
        0 => Msg::Hello {
            version: c.u32()?,
            last_commit: c.u64()?,
            n_shards: c.u64()?,
        },
        1 => Msg::HelloAck {
            version: c.u32()?,
            n_shards: c.u64()?,
            watermark: c.u64()?,
            leader_addr: c.str()?.to_owned(),
        },
        2 => {
            let commit = c.u64()?;
            let n_shards = c.u64()?;
            let n_cursors = c.u32()? as usize;
            if n_cursors.saturating_mul(8) > payload.len() {
                return Err("snapshot cursor count exceeds payload".into());
            }
            let mut cursors = Vec::with_capacity(n_cursors);
            for _ in 0..n_cursors {
                cursors.push(c.u64()?);
            }
            Msg::SnapBegin {
                commit,
                n_shards,
                cursors,
                n_tuples: c.u64()?,
            }
        }
        3 => Msg::SnapChunk(decode_instances(c.rest()).map_err(|e| e.to_string())?),
        4 => Msg::SnapEnd,
        5 => Msg::Commit(decode_commit_record(c.rest()).map_err(|e| e.to_string())?),
        6 => Msg::Heartbeat(c.u64()?),
        7 => Msg::Ack(c.u64()?),
        8 => Msg::Error(c.str()?.to_owned()),
        tag => return Err(format!("unknown replication message tag {tag}")),
    };
    c.done()?;
    Ok(msg)
}

/// Wraps a payload in the `[len][crc][payload]` frame.
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    out
}

/// Attempts to extract one frame's payload from the front of `buf`:
/// `Ok(None)` when only a partial frame is buffered,
/// `Ok(Some((payload, consumed)))` on success.
///
/// # Errors
///
/// A reason string on an over-limit length or CRC mismatch — both fatal
/// for the connection.
pub(crate) fn try_frame(buf: &[u8]) -> Result<Option<(Vec<u8>, usize)>, String> {
    if buf.len() < FRAME_HEADER {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME {
        return Err(format!("replication frame of {len} bytes exceeds cap"));
    }
    let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    if buf.len() < FRAME_HEADER + len {
        return Ok(None);
    }
    let payload = &buf[FRAME_HEADER..FRAME_HEADER + len];
    if crc32(payload) != crc {
        return Err("replication frame crc mismatch".into());
    }
    Ok(Some((payload.to_vec(), FRAME_HEADER + len)))
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

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).ok_or("length overflow")?;
        if end > self.buf.len() {
            return Err("truncated replication payload".into());
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<&'a str, String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).map_err(|_| "invalid utf-8".to_string())
    }

    /// Everything not yet consumed; ends the cursor.
    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    fn done(self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err("trailing bytes in replication payload".into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdl_tuple::{tuple, ProcId, Value};

    fn tid(owner: u64, seq: u64) -> TupleId {
        TupleId {
            owner: ProcId(owner),
            seq,
        }
    }

    #[test]
    fn messages_round_trip() {
        let msgs = vec![
            Msg::Hello {
                version: 1,
                last_commit: 42,
                n_shards: 8,
            },
            Msg::HelloAck {
                version: 1,
                n_shards: 8,
                watermark: 99,
                leader_addr: "127.0.0.1:7401".into(),
            },
            Msg::SnapBegin {
                commit: 10,
                n_shards: 2,
                cursors: vec![11, 12],
                n_tuples: 1,
            },
            Msg::SnapChunk(vec![(tid(1, 3), tuple![Value::atom("a"), 7])]),
            Msg::SnapEnd,
            Msg::Commit(CommitRecord {
                commit: 11,
                retracts: vec![tid(1, 3)],
                asserts: vec![(tid(2, 4), tuple![Value::atom("b"), 8])],
            }),
            Msg::Heartbeat(11),
            Msg::Ack(11),
            Msg::Error("gone".into()),
        ];
        for msg in msgs {
            let payload = encode_msg(&msg);
            assert_eq!(decode_msg(&payload).expect("decodes"), msg);
            // And through the framing layer.
            let framed = frame(&payload);
            let (got, used) = try_frame(&framed).expect("ok").expect("complete");
            assert_eq!(got, payload);
            assert_eq!(used, framed.len());
            for cut in 0..FRAME_HEADER {
                assert_eq!(try_frame(&framed[..cut]), Ok(None));
            }
        }
    }

    #[test]
    fn corrupt_frames_rejected() {
        let payload = encode_msg(&Msg::Heartbeat(7));
        let mut framed = frame(&payload);
        let last = framed.len() - 1;
        framed[last] ^= 0xff;
        assert!(try_frame(&framed).is_err());
        assert!(decode_msg(&[99]).is_err());
        assert!(decode_msg(&[]).is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        /// Hostile bytes off a replication socket are rejected, never a
        /// panic. A leading tag byte in range steers half the cases past
        /// the tag check into each message's body decoder.
        #[test]
        fn hostile_bytes_never_panic(
            tag in 0u8..9,
            steer in proptest::any::<bool>(),
            mut bytes in proptest::collection::vec(proptest::any::<u8>(), 0..256),
        ) {
            if steer && !bytes.is_empty() {
                bytes[0] = tag;
            }
            let _ = try_frame(&bytes);
            let _ = decode_msg(&bytes);
        }
    }
}
