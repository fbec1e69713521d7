//! Log-shipping replication for the SDL dataspace: warm read-only
//! followers fed from the leader's write-ahead log.
//!
//! The WAL already serialises every committed batch into a single
//! totally-ordered, CRC-framed stream that reconstructs the store
//! bit-for-bit — including tuple ids, thanks to the per-shard strided
//! mint discipline. Replication is that same stream shipped over TCP:
//!
//! * the **leader** runs a [`ShipServer`] next to its client listener.
//!   Each attached follower gets a bootstrap (the newest snapshot, or a
//!   straight log resume when its position is still retained) and then
//!   a tail-stream of commit records, bounded by the leader's shippable
//!   watermark so a follower never holds state the leader could lose in
//!   a crash. Follower acks move per-follower retention pins, so
//!   snapshot pruning never deletes a segment an attached follower
//!   still needs.
//! * a **follower** opens a [`FollowerConn`], loads the snapshot,
//!   applies commit records through the same `apply_log` discipline
//!   recovery uses, and serves read-only traffic (`rd`, `rdp`, queries)
//!   from its replica while redirecting writes to the leader with a
//!   `NotLeader` response.
//!
//! The wire protocol (`proto`) reuses the WAL's frame format and the
//! commit-record byte layout verbatim — a shipped `Commit` frame's
//! payload is byte-identical to the record's on-disk log frame.

#![deny(clippy::arithmetic_side_effects)]

mod follow;
mod proto;
mod ship;

pub use follow::{FollowEvent, FollowerConn};
pub use ship::{serve_ship, ShipConfig, ShipServer};
