//! Durability for the SDL dataspace: a write-ahead log of committed
//! transaction batches, periodic snapshots, crash recovery, and
//! deterministic replay.
//!
//! The SDL runtime funnels every state change — serial commits,
//! threaded OCC commits, consensus composites, environment asserts —
//! through a single commit path (`apply_batch`). This crate logs that
//! stream: each committed batch becomes one length-prefixed,
//! CRC32-framed record holding the retracted tuple ids and the asserted
//! `(id, tuple)` pairs (owner attribution rides inside the id), stamped
//! with a monotonically increasing commit number.
//!
//! # On-disk layout
//!
//! A log directory holds segment files `wal-<first-commit>.log` and
//! snapshot files `snap-<commit>.snap` (names zero-padded so
//! lexicographic order is numeric order). Segments start with the
//! 8-byte magic `SDLWAL01` followed by a header frame (format version,
//! shard count, first commit number) and then commit frames. Snapshots
//! start with `SDLSNAP1` followed by one frame containing the commit
//! number they capture, the per-shard id-mint cursors, and the full
//! `(id, tuple)` store contents.
//!
//! Every frame is `[u32 len][u32 crc][payload]`, both little-endian,
//! with the CRC taken over the payload alone. [`codec`] is the one
//! definition of these bytes, which the `SDLNET01` client protocol and
//! the `SDLREPL1` replication protocol share. Recovery tolerates a torn
//! tail in the newest segment — truncate at the first bad frame and
//! count it — but treats damage anywhere else as corruption.
//!
//! # Recovery invariants
//!
//! * Commit numbers are strictly sequential; a gap is corruption.
//! * Asserted ids must extend each shard's strided mint sequence
//!   exactly (shard `i` of `n` mints `i+1, i+1+n, ...`), so recovered
//!   stores reproduce tuple ids bit-for-bit.
//! * A snapshot at commit `C` plus the records after `C` reconstruct
//!   the store at any later durable commit; segments entirely covered
//!   by a snapshot are pruned when the snapshot lands.
//!
//! Durability covers the dataspace only: tuples outlive their creators
//! (the paper's §2 semantics), but the process society itself is
//! rebuilt fresh on restart.

pub mod codec;
mod recover;
mod ship;
mod snapshotter;
mod wal;

use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

pub use codec::crc32;
pub use recover::{apply_log, read_log, read_snapshot, recover, CommitRecord, RecoveredState};
pub use ship::SegmentTailer;
pub use snapshotter::Snapshotter;
pub use wal::Wal;

/// When the WAL forces appended records onto stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync before every commit is acknowledged. Group commit still
    /// applies: one fsync can cover many concurrently appended records.
    Always,
    /// Fsync at most once per interval; a crash may lose the tail
    /// appended since the last sync.
    Interval(Duration),
    /// Never fsync explicitly; rely on the OS page cache. Fastest, and
    /// still crash-consistent up to whatever the kernel flushed.
    Never,
}

impl Default for FsyncPolicy {
    fn default() -> FsyncPolicy {
        FsyncPolicy::Interval(Duration::from_millis(100))
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Interval(d) => write!(f, "interval:{}", d.as_millis()),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

impl FromStr for FsyncPolicy {
    type Err = String;

    /// Parses `always`, `never`, `interval` (default 100 ms), or
    /// `interval:<ms>`.
    fn from_str(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            "interval" => Ok(FsyncPolicy::default()),
            _ => match s.strip_prefix("interval:") {
                Some(ms) => ms
                    .parse::<u64>()
                    .map(|ms| FsyncPolicy::Interval(Duration::from_millis(ms)))
                    .map_err(|_| format!("bad fsync interval `{ms}` (want milliseconds)")),
                None => Err(format!(
                    "unknown fsync policy `{s}` (want always | interval[:<ms>] | never)"
                )),
            },
        }
    }
}

/// Write-ahead-log configuration.
#[derive(Clone, Debug)]
pub struct WalConfig {
    /// Directory holding segment and snapshot files.
    pub dir: PathBuf,
    /// When appended records are forced to stable storage.
    pub fsync: FsyncPolicy,
    /// Rotate to a new segment once the current one exceeds this size.
    pub segment_bytes: u64,
    /// Write a snapshot (and prune covered history) every `n` commits.
    /// `None` keeps the full log.
    pub snapshot_every: Option<u64>,
    /// Keep at least the newest `n` commit records through pruning even
    /// when a snapshot covers them, so a follower briefly falling
    /// behind can resume from the log instead of re-bootstrapping from
    /// a snapshot. `None` lets snapshots prune everything they cover
    /// (attached followers are still protected by retention pins).
    pub retain_commits: Option<u64>,
}

impl WalConfig {
    /// Configuration with default fsync policy (interval 100 ms),
    /// 64 MiB segments, no periodic snapshots, and no extra retention.
    pub fn new(dir: impl Into<PathBuf>) -> WalConfig {
        WalConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::default(),
            segment_bytes: 64 * 1024 * 1024,
            snapshot_every: None,
            retain_commits: None,
        }
    }
}

/// Errors raised by the durability subsystem.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The log is structurally damaged beyond a torn tail.
    Corrupt(String),
    /// The log was written under a different shard count than the
    /// runtime trying to recover it.
    ShardMismatch {
        /// Shard count recorded in the log.
        logged: u64,
        /// Shard count the runtime asked for.
        requested: u64,
    },
    /// An asserted tuple id does not extend its shard's strided mint
    /// sequence, so the log cannot reproduce ids bit-for-bit.
    SequenceGap {
        /// Shard whose sequence broke.
        shard: u64,
        /// Next id the shard should have minted.
        expected: u64,
        /// Id actually found in the record.
        found: u64,
    },
    /// The log directory holds no usable history.
    Empty(PathBuf),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt(what) => write!(f, "wal corrupt: {what}"),
            WalError::ShardMismatch { logged, requested } => write!(
                f,
                "wal was written with {logged} shard(s) but the runtime wants {requested}"
            ),
            WalError::SequenceGap {
                shard,
                expected,
                found,
            } => write!(
                f,
                "id sequence gap on shard {shard}: expected seq {expected}, found {found}"
            ),
            WalError::Empty(dir) => {
                write!(f, "no usable wal history in {}", dir.display())
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> WalError {
        WalError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(
            "always".parse::<FsyncPolicy>().unwrap(),
            FsyncPolicy::Always
        );
        assert_eq!("never".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Never);
        assert_eq!(
            "interval".parse::<FsyncPolicy>().unwrap(),
            FsyncPolicy::Interval(Duration::from_millis(100))
        );
        assert_eq!(
            "interval:5".parse::<FsyncPolicy>().unwrap(),
            FsyncPolicy::Interval(Duration::from_millis(5))
        );
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
        assert!("interval:abc".parse::<FsyncPolicy>().is_err());
    }

    #[test]
    fn errors_display_context() {
        let e = WalError::SequenceGap {
            shard: 2,
            expected: 7,
            found: 11,
        };
        assert!(e.to_string().contains("shard 2"));
        assert!(WalError::Corrupt("bad frame".into())
            .to_string()
            .contains("bad frame"));
    }
}
