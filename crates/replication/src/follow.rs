//! Follower side of log-shipping replication: a blocking `SDLREPL1`
//! client that connects to a leader's shipper, receives its bootstrap
//! (snapshot or log resume), and then yields committed records as they
//! arrive.
//!
//! The connection is consumed from one apply thread via
//! [`FollowerConn::next_event`], which returns `Ok(None)` on a read
//! timeout so the caller can check its stop flag between events; the
//! caller reports progress back with [`FollowerConn::ack`], which is
//! what lets the leader move its retention pin and prune shipped
//! history.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use sdl_durability::CommitRecord;
use sdl_tuple::{Tuple, TupleId};

use crate::proto::{Msg, MAGIC, VERSION};
use crate::ship::{bad_proto, Conn};

/// One replication event delivered to the follower's apply thread.
#[derive(Debug)]
pub enum FollowEvent {
    /// Snapshot bootstrap: the base state to load before applying
    /// commits. Delivered at most once, before any `Commit`.
    Snapshot(SnapshotBase),
    /// One committed batch, in strict commit order.
    Commit(CommitRecord),
    /// Leader's current shippable watermark (from a heartbeat); lets
    /// the follower report lag while no commits are flowing.
    Watermark(u64),
}

/// The snapshot a leader ships to bootstrap a fresh (or lagging-
/// beyond-retention) follower.
#[derive(Debug)]
pub struct SnapshotBase {
    /// Commit number the snapshot captures.
    pub commit: u64,
    /// Per-shard id-mint cursors at the snapshot.
    pub cursors: Vec<u64>,
    /// Full store contents at the snapshot.
    pub tuples: Vec<(TupleId, Tuple)>,
}

/// A follower's connection to a leader's replication listener.
pub struct FollowerConn {
    conn: Conn,
    n_shards: u64,
    watermark: u64,
    leader_addr: String,
    /// In-flight snapshot transfer, accumulated across chunk frames.
    pending_snapshot: Option<SnapshotBase>,
}

impl FollowerConn {
    /// Connects to a leader's shipper and completes the handshake.
    /// `last_commit` is the highest commit the follower has already
    /// applied (0 for a fresh store); `n_shards` is the follower's
    /// store shard count, or 0 when it has no store yet and will adopt
    /// the leader's.
    ///
    /// # Errors
    ///
    /// Connection failure, protocol violation, or a leader rejection
    /// (version/shard mismatch, no usable bootstrap history).
    pub fn connect(addr: &str, last_commit: u64, n_shards: u64) -> io::Result<FollowerConn> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.write_all(MAGIC)?;
        let mut magic = [0u8; 8];
        stream.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad_proto("bad replication magic from leader"));
        }
        let mut conn = FollowerConn {
            conn: Conn::new(stream),
            n_shards: 0,
            watermark: 0,
            leader_addr: String::new(),
            pending_snapshot: None,
        };
        conn.conn.send(&Msg::Hello {
            version: VERSION,
            last_commit,
            n_shards,
        })?;
        match conn.conn.read_msg_blocking()? {
            Msg::HelloAck {
                version,
                n_shards,
                watermark,
                leader_addr,
            } => {
                if version != VERSION {
                    return Err(bad_proto(&format!(
                        "leader speaks SDLREPL version {version}"
                    )));
                }
                conn.n_shards = n_shards;
                conn.watermark = watermark;
                conn.leader_addr = leader_addr;
            }
            Msg::Error(reason) => return Err(bad_proto(&format!("leader refused: {reason}"))),
            other => return Err(bad_proto(&format!("expected HelloAck, got {other:?}"))),
        }
        // Post-handshake the apply loop wants short timeouts so it can
        // interleave stop-flag checks.
        conn.conn
            .stream
            .set_read_timeout(Some(Duration::from_millis(100)))?;
        Ok(conn)
    }

    /// Shard count of the leader's store (binding for the follower).
    pub fn n_shards(&self) -> u64 {
        self.n_shards
    }

    /// Leader's shippable watermark, as last reported.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Client-protocol address of the leader, for `NotLeader`
    /// redirects.
    pub fn leader_client_addr(&self) -> &str {
        &self.leader_addr
    }

    /// Waits for the next replication event. `Ok(None)` means the read
    /// timed out (~100 ms) with nothing complete — check the stop flag
    /// and call again. Snapshot chunk frames are accumulated
    /// internally; the snapshot surfaces as one event when complete.
    ///
    /// # Errors
    ///
    /// Connection loss, protocol violation, or a leader-reported error.
    pub fn next_event(&mut self) -> io::Result<Option<FollowEvent>> {
        loop {
            let Some(msg) = self.conn.try_read_msg()? else {
                return Ok(None);
            };
            match msg {
                Msg::SnapBegin {
                    commit,
                    cursors,
                    n_tuples,
                    ..
                } => {
                    if self.pending_snapshot.is_some() {
                        return Err(bad_proto("nested snapshot transfer"));
                    }
                    self.pending_snapshot = Some(SnapshotBase {
                        commit,
                        cursors,
                        tuples: Vec::with_capacity((n_tuples as usize).min(1 << 20)),
                    });
                }
                Msg::SnapChunk(items) => match &mut self.pending_snapshot {
                    Some(snap) => snap.tuples.extend(items),
                    None => return Err(bad_proto("snapshot chunk outside a transfer")),
                },
                Msg::SnapEnd => match self.pending_snapshot.take() {
                    Some(snap) => return Ok(Some(FollowEvent::Snapshot(snap))),
                    None => return Err(bad_proto("snapshot end outside a transfer")),
                },
                Msg::Commit(rec) => {
                    if self.pending_snapshot.is_some() {
                        return Err(bad_proto("commit inside a snapshot transfer"));
                    }
                    self.watermark = self.watermark.max(rec.commit);
                    return Ok(Some(FollowEvent::Commit(rec)));
                }
                Msg::Heartbeat(watermark) => {
                    self.watermark = self.watermark.max(watermark);
                    return Ok(Some(FollowEvent::Watermark(self.watermark)));
                }
                Msg::Error(reason) => return Err(bad_proto(&format!("leader error: {reason}"))),
                other => return Err(bad_proto(&format!("unexpected leader msg {other:?}"))),
            }
        }
    }

    /// Acknowledges that every commit up to `applied` has been applied
    /// locally. The leader moves this follower's retention pin forward
    /// in response.
    pub fn ack(&mut self, applied: u64) -> io::Result<()> {
        self.conn.send(&Msg::Ack(applied))?;
        Ok(())
    }
}
