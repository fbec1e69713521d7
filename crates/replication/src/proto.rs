//! The `SDLREPL1` replication wire protocol.
//!
//! A follower connects to the leader's replication listener, sends the
//! 8-byte magic (the leader echoes it), and the connection switches to
//! the `[u32 len][u32 crc][payload]` frame of [`sdl_durability::codec`],
//! the one byte format the client protocol and the on-disk WAL use too.
//! This module holds only the message layouts. Messages:
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

use sdl_durability::codec::{self, DecodeError, Enc};
use sdl_durability::CommitRecord;
use sdl_tuple::{Tuple, TupleId};

/// Protocol magic exchanged at connection open.
pub(crate) const MAGIC: &[u8; 8] = b"SDLREPL1";

/// Protocol version inside `Hello`/`HelloAck`.
pub(crate) const VERSION: u32 = 1;

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
    let e = &mut Enc(&mut out);
    match msg {
        Msg::Hello {
            version,
            last_commit,
            n_shards,
        } => {
            e.u8(0);
            e.u32(*version);
            e.u64(*last_commit);
            e.u64(*n_shards);
        }
        Msg::HelloAck {
            version,
            n_shards,
            watermark,
            leader_addr,
        } => {
            e.u8(1);
            e.u32(*version);
            e.u64(*n_shards);
            e.u64(*watermark);
            e.str(leader_addr);
        }
        Msg::SnapBegin {
            commit,
            n_shards,
            cursors,
            n_tuples,
        } => {
            e.u8(2);
            e.u64(*commit);
            e.u64(*n_shards);
            e.u32(cursors.len() as u32);
            for c in cursors {
                e.u64(*c);
            }
            e.u64(*n_tuples);
        }
        Msg::SnapChunk(items) => {
            e.u8(3);
            e.instances(items);
        }
        Msg::SnapEnd => e.u8(4),
        Msg::Commit(rec) => {
            e.u8(5);
            e.commit_record(rec.commit, &rec.retracts, &rec.asserts);
        }
        Msg::Heartbeat(watermark) => {
            e.u8(6);
            e.u64(*watermark);
        }
        Msg::Ack(applied) => {
            e.u8(7);
            e.u64(*applied);
        }
        Msg::Error(reason) => {
            e.u8(8);
            e.str(reason);
        }
    }
    out
}

/// Decodes a frame payload produced by [`encode_msg`].
///
/// # Errors
///
/// [`DecodeError`] on any structural problem; never panics.
pub(crate) fn decode_msg(payload: &[u8]) -> Result<Msg, DecodeError> {
    codec::decode(payload, |d| {
        Ok(match d.u8()? {
            0 => Msg::Hello {
                version: d.u32()?,
                last_commit: d.u64()?,
                n_shards: d.u64()?,
            },
            1 => Msg::HelloAck {
                version: d.u32()?,
                n_shards: d.u64()?,
                watermark: d.u64()?,
                leader_addr: d.str()?.to_owned(),
            },
            2 => {
                let commit = d.u64()?;
                let n_shards = d.u64()?;
                let n = d.count(8)?;
                let mut cursors = Vec::with_capacity(n);
                for _ in 0..n {
                    cursors.push(d.u64()?);
                }
                Msg::SnapBegin {
                    commit,
                    n_shards,
                    cursors,
                    n_tuples: d.u64()?,
                }
            }
            3 => Msg::SnapChunk(d.instances()?),
            4 => Msg::SnapEnd,
            5 => Msg::Commit(d.commit_record()?),
            6 => Msg::Heartbeat(d.u64()?),
            7 => Msg::Ack(d.u64()?),
            8 => Msg::Error(d.str()?.to_owned()),
            _ => return Err(DecodeError::Malformed("replication message tag")),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdl_durability::codec::{frame, split_frame, FRAME_HEADER};
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
            let used = split_frame(&framed, MAX_FRAME)
                .expect("ok")
                .expect("complete");
            assert_eq!(framed[FRAME_HEADER..used], payload);
            assert_eq!(used, framed.len());
            for cut in 0..FRAME_HEADER {
                assert_eq!(split_frame(&framed[..cut], MAX_FRAME), Ok(None));
            }
        }
    }

    #[test]
    fn corrupt_frames_rejected() {
        let payload = encode_msg(&Msg::Heartbeat(7));
        let mut framed = frame(&payload);
        let last = framed.len() - 1;
        framed[last] ^= 0xff;
        assert!(split_frame(&framed, MAX_FRAME).is_err());
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
            let _ = split_frame(&bytes, MAX_FRAME);
            let _ = decode_msg(&bytes);
        }
    }
}
