//! Log scanning, crash recovery, and replayable log contents.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};

use sdl_metrics::{Counter, Metrics};
use sdl_tuple::{Tuple, TupleId};

use crate::codec::{decode, split_frame, FRAME_HEADER, SNAPSHOT_MAGIC};
use crate::ship::{SegmentReader, Step, Tail};
use crate::WalError;

pub(crate) fn segment_path(dir: &Path, first_commit: u64) -> PathBuf {
    dir.join(format!("wal-{first_commit:020}.log"))
}

pub(crate) fn snapshot_path(dir: &Path, commit: u64) -> PathBuf {
    dir.join(format!("snap-{commit:020}.snap"))
}

/// `(commit_number, path)` pairs, sorted ascending by commit.
pub(crate) type NumberedFiles = Vec<(u64, PathBuf)>;

/// Lists `(first_commit, path)` segments and `(commit, path)` snapshots
/// in `dir`, each sorted ascending. Unrelated files are ignored.
pub(crate) fn list_files(dir: &Path) -> Result<(NumberedFiles, NumberedFiles), WalError> {
    let mut segments = Vec::new();
    let mut snapshots = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(n) = parse_numbered(name, "wal-", ".log") {
            segments.push((n, entry.path()));
        } else if let Some(n) = parse_numbered(name, "snap-", ".snap") {
            snapshots.push((n, entry.path()));
        }
    }
    segments.sort_unstable();
    snapshots.sort_unstable();
    Ok((segments, snapshots))
}

fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let digits = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// One committed transaction batch as recorded in the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitRecord {
    /// Commit number (strictly sequential across the whole log).
    pub commit: u64,
    /// Instance ids retracted by the batch.
    pub retracts: Vec<TupleId>,
    /// Instances asserted by the batch; the id carries the owner.
    pub asserts: Vec<(TupleId, Tuple)>,
}

/// A parsed snapshot file: the base state recovery and a follower
/// bootstrap load before replaying records.
#[derive(Clone, Debug)]
pub struct SnapshotContents {
    /// Commit number the snapshot captures.
    pub commit: u64,
    /// Shard count the log was written under.
    pub n_shards: u64,
    /// Per-shard id-mint cursors at the snapshot.
    pub cursors: Vec<u64>,
    /// Store contents at the snapshot, in id order.
    pub tuples: Vec<(TupleId, Tuple)>,
}

/// Everything readable from a log directory: the newest valid snapshot
/// plus the commit records after it, in commit order.
#[derive(Clone, Debug)]
pub struct LogContents {
    /// Shard count the log was written under.
    pub(crate) n_shards: u64,
    /// Commit number captured by the base snapshot (0 when the log has
    /// no snapshot and replay starts from an empty store).
    pub(crate) snapshot_commit: u64,
    /// Per-shard id-mint cursors at the snapshot.
    pub(crate) snapshot_cursors: Vec<u64>,
    /// Store contents at the snapshot, in id order.
    pub snapshot_tuples: Vec<(TupleId, Tuple)>,
    /// Commit records after the snapshot, in commit order.
    pub records: Vec<CommitRecord>,
    /// Whether the newest segment ended in a torn (incomplete or
    /// CRC-failing) tail.
    pub(crate) torn_tail: bool,
}

/// The store state reconstructed by [`recover`].
#[derive(Clone, Debug)]
pub struct RecoveredState {
    /// Shard count the log was written under; the recovering runtime
    /// must match it for ids to keep minting on the same stride.
    pub n_shards: u64,
    /// Per-shard id-mint cursors (`next_seq` for each shard, in shard
    /// order) after the last durable commit.
    pub cursors: Vec<u64>,
    /// Live instances after the last durable commit, in id order.
    pub tuples: Vec<(TupleId, Tuple)>,
    /// The last durable commit number.
    pub last_commit: u64,
    /// Commit number of the snapshot replay started from.
    pub snapshot_commit: u64,
    /// Commit records replayed on top of the snapshot.
    pub records_replayed: u64,
    /// Whether a torn tail was truncated during recovery.
    pub torn_tail: bool,
}

impl RecoveredState {
    /// Fails with [`WalError::ShardMismatch`] unless the runtime's
    /// shard count matches the log's.
    pub fn check_shards(&self, requested: u64) -> Result<(), WalError> {
        if self.n_shards == requested {
            Ok(())
        } else {
            Err(WalError::ShardMismatch {
                logged: self.n_shards,
                requested,
            })
        }
    }
}

/// Reads a log directory without modifying it. A torn tail is noted in
/// `LogContents::torn_tail` but the file is left as found.
pub fn read_log(dir: &Path) -> Result<LogContents, WalError> {
    scan(dir, false)
}

/// Recovers the store from a log directory: loads the newest valid
/// snapshot, replays the suffix records with id-continuity checking,
/// and physically truncates a torn tail so the directory is clean for
/// [`crate::Wal::resume`]. Records replayed and tails truncated are
/// counted into `metrics`.
pub fn recover(dir: &Path, metrics: &Metrics) -> Result<RecoveredState, WalError> {
    let log = scan(dir, true)?;
    if log.torn_tail {
        metrics.inc(Counter::WalTornTailTruncations);
    }
    let state = apply_log(&log)?;
    metrics.add(Counter::RecoveryRecordsReplayed, state.records_replayed);
    Ok(state)
}

/// Applies a log's records on top of its snapshot, enforcing the
/// recovery invariants (live retracts, fresh asserts, strided
/// id-sequence continuity per shard).
pub fn apply_log(log: &LogContents) -> Result<RecoveredState, WalError> {
    let n = log.n_shards;
    let mut cursors = log.snapshot_cursors.clone();
    let mut store: BTreeMap<TupleId, Tuple> = BTreeMap::new();
    for (id, tuple) in &log.snapshot_tuples {
        if store.insert(*id, tuple.clone()).is_some() {
            return Err(WalError::Corrupt(format!(
                "snapshot lists instance {id:?} twice"
            )));
        }
    }
    let mut last_commit = log.snapshot_commit;
    for rec in &log.records {
        for id in &rec.retracts {
            if store.remove(id).is_none() {
                return Err(WalError::Corrupt(format!(
                    "commit {} retracts {id:?}, which is not live",
                    rec.commit
                )));
            }
        }
        for (id, tuple) in &rec.asserts {
            let shard = (id.seq - 1) % n;
            let expected = cursors[shard as usize];
            if id.seq != expected {
                return Err(WalError::SequenceGap {
                    shard,
                    expected,
                    found: id.seq,
                });
            }
            cursors[shard as usize] = expected.checked_add(n).ok_or_else(|| {
                WalError::Corrupt(format!(
                    "commit {} asserts {id:?}, the last id shard {shard} can mint",
                    rec.commit
                ))
            })?;
            if store.insert(*id, tuple.clone()).is_some() {
                return Err(WalError::Corrupt(format!(
                    "commit {} asserts {id:?}, which is already live",
                    rec.commit
                )));
            }
        }
        last_commit = rec.commit;
    }
    Ok(RecoveredState {
        n_shards: n,
        cursors,
        tuples: store.into_iter().collect(),
        last_commit,
        snapshot_commit: log.snapshot_commit,
        records_replayed: log.records.len() as u64,
        torn_tail: log.torn_tail,
    })
}

// ---------------------------------------------------------------------------
// Scanning
// ---------------------------------------------------------------------------

fn scan(dir: &Path, truncate: bool) -> Result<LogContents, WalError> {
    let (segments, snapshots) = list_files(dir)?;
    // Newest snapshot that parses cleanly wins; damaged ones are
    // skipped (an older snapshot plus more records covers the same
    // history).
    let base = snapshots
        .iter()
        .rev()
        .find_map(|(commit, path)| read_snapshot(path, *commit).ok());

    let snapshot_commit = base.as_ref().map_or(0, |s| s.commit);
    // History must run on from the snapshot: the oldest segment starts
    // at or before the commit after it, and the reader holds the rest
    // to one unbroken sequence.
    if let Some(&(oldest, _)) = segments.first() {
        if oldest > snapshot_commit.saturating_add(1) {
            return Err(WalError::Corrupt(format!(
                "history gap: snapshot covers commit {snapshot_commit} but the oldest \
                 segment starts at commit {oldest}"
            )));
        }
    }
    let mut reader = SegmentReader::new(dir, base.as_ref().map(|s| s.n_shards));
    let mut records: Vec<CommitRecord> = Vec::new();
    let mut torn_tail = false;
    for (i, (first_commit, path)) in segments.iter().enumerate() {
        reader.enter(*first_commit)?;
        let kept = records.len();
        let tail = loop {
            match reader.next()? {
                Step::Record(rec) => records.push(rec),
                Step::End(tail) => break tail,
            }
        };
        // Recovery's policy: a partial or damaged end is a torn tail in
        // the newest segment and corruption in any other.
        if tail == Tail::Clean {
            continue;
        }
        if i + 1 < segments.len() {
            let what = format!(
                "{tail:?} at byte {}, not the newest segment",
                reader.offset()
            );
            return Err(reader.corrupt(what));
        }
        torn_tail = true;
        // A segment torn before its first record holds none and goes,
        // so `Wal::resume` can reuse its name.
        if truncate && records.len() == kept {
            fs::remove_file(path)?;
        } else if truncate {
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(reader.offset())?;
            f.sync_data()?;
        }
    }
    let Some(n_shards) = reader.n_shards else {
        return Err(WalError::Empty(dir.to_path_buf()));
    };

    // Drop records the snapshot already covers.
    records.retain(|r| r.commit > snapshot_commit);

    let (snapshot_cursors, snapshot_tuples) = match base {
        // The snapshot's decoder read one cursor per shard.
        Some(s) => (s.cursors, s.tuples),
        // No snapshot: replay starts from an empty store with pristine
        // strided cursors (shard i first mints i+1).
        None => ((1..=n_shards).collect(), Vec::new()),
    };

    Ok(LogContents {
        n_shards,
        snapshot_commit,
        snapshot_cursors,
        snapshot_tuples,
        records,
        torn_tail,
    })
}

/// Reads and validates one snapshot file: magic, one CRC-valid frame
/// spanning the rest of the file, and a commit matching the file name.
///
/// # Errors
///
/// I/O failure or a snapshot that fails validation.
pub fn read_snapshot(path: &Path, commit: u64) -> Result<SnapshotContents, WalError> {
    let bytes = fs::read(path)?;
    let corrupt = |what: &str| WalError::Corrupt(format!("{}: {what}", path.display()));
    let Some(rest) = bytes.strip_prefix(SNAPSHOT_MAGIC) else {
        return Err(corrupt("bad snapshot magic"));
    };
    // The snapshot's policy: its one frame spans exactly the whole file.
    if split_frame(rest, usize::MAX) != Ok(Some(rest.len())) {
        return Err(corrupt(
            "snapshot frame is damaged or does not span the file",
        ));
    }
    decode(&rest[FRAME_HEADER..], |d| d.snapshot(commit)).map_err(|e| corrupt(&e.to_string()))
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use sdl_metrics::Metrics;
    use sdl_tuple::{ProcId, Tuple, TupleId, Value};

    use crate::codec::{frame, frame_with, SNAPSHOT_MAGIC};
    use crate::{read_log, recover, SegmentTailer, Wal, WalConfig};

    /// Shard counts and id seqs at and around every bound the reader
    /// checks. Drawn from this set, not uniformly: a uniform `u64`
    /// almost never hits a bound.
    const EDGES: [u64; 6] = [0, 1, 4, 1 << 16, (1 << 16) + 1, u64::MAX];

    fn le(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// A fresh, empty directory for one case.
    fn case_dir() -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sdl-durability-hostile-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A segment of CRC-valid frames, built by hand: a header with
    /// `shards` and `first`, then one commit record per `(retract,
    /// retracted seq, asserted seq)`, numbered on from `first`, the seqs
    /// indexing `seqs`.
    fn segment(shards: u64, first: u64, records: &[(bool, usize, usize)], seqs: &[u64]) -> Vec<u8> {
        let mut header = vec![0u8, 1, 0, 0, 0]; // tag 0, format version 1
        le(&mut header, shards);
        le(&mut header, first);
        let mut bytes = b"SDLWAL01".to_vec();
        bytes.extend(frame(&header));
        for (i, &(retract, r, a)) in records.iter().enumerate() {
            let mut rec = vec![1u8]; // tag 1
            le(&mut rec, first.wrapping_add(i as u64));
            rec.extend_from_slice(&u32::from(retract).to_le_bytes());
            if retract {
                le(&mut rec, 9); // owner
                le(&mut rec, seqs[r]);
            }
            rec.extend_from_slice(&1u32.to_le_bytes());
            le(&mut rec, 9);
            le(&mut rec, seqs[a]);
            rec.extend_from_slice(&[1, 0, 0, 0, 1]); // arity 1, Int tag
            le(&mut rec, 7);
            bytes.extend(frame(&rec));
        }
        bytes
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// A hand-built segment with an edge-case shard count and first
        /// commit, commit records retracting and asserting ids with
        /// edge-case seqs, then random trailing bytes. Reading,
        /// recovering and tailing it give records or an error, never a
        /// panic.
        #[test]
        fn hostile_segments_never_panic(
            shards in 0usize..6,
            first in 0usize..6,
            records in proptest::collection::vec(
                (proptest::any::<bool>(), 0usize..6, 0usize..6),
                0..4,
            ),
            tail in proptest::collection::vec(proptest::any::<u8>(), 0..24),
        ) {
            let dir = case_dir();
            let first = EDGES[first];
            let mut bytes = segment(EDGES[shards], first, &records, &EDGES);
            bytes.extend_from_slice(&tail);
            std::fs::write(dir.join(format!("wal-{first:020}.log")), &bytes).unwrap();
            let _ = read_log(&dir);
            if let Ok(mut tailer) = SegmentTailer::new(&dir, first.saturating_sub(1)) {
                let _ = tailer.poll(u64::MAX, 16);
            }
            let _ = recover(&dir, &Metrics::disabled());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    proptest::proptest! {
        // A panic needs a cursor, a seq and commit numbers to line up,
        // so this one draws more cases.
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// A CRC-valid snapshot whose commit number, id-mint cursors and
        /// instance seqs are edge cases, beside segments whose first
        /// commits are too; their records retract and assert edge seqs or
        /// the ones the snapshot names (its instance's, its cursor).
        /// Recovering the directory and resuming a log on what
        /// it recovered give a state or an error, never a panic.
        #[test]
        fn hostile_snapshots_never_panic(
            commit in 0usize..6,
            shards in 0usize..2,
            cursor in 0usize..6,
            seq in 0usize..6,
            segments in proptest::collection::vec(
                (0usize..6, proptest::collection::vec(
                    (proptest::any::<bool>(), 0usize..8, 0usize..8),
                    1..4,
                )),
                1..3,
            ),
        ) {
            let dir = case_dir();
            let commit = EDGES[commit];
            let shards = [1u64, 4][shards];
            let cursors = vec![EDGES[cursor]; shards as usize];
            let id = TupleId { owner: ProcId(9), seq: EDGES[seq] };
            let tuples = [(id, Tuple::new(vec![Value::Int(7)]))];
            let mut seqs = EDGES.to_vec();
            seqs.extend([id.seq, cursors[0]]);
            let mut snap = SNAPSHOT_MAGIC.to_vec();
            frame_with(&mut snap, |e| e.snapshot(commit, shards, &cursors, &tuples));
            std::fs::write(dir.join(format!("snap-{commit:020}.snap")), &snap).unwrap();
            for (first, records) in &segments {
                let first = EDGES[*first];
                let bytes = segment(shards, first, records, &seqs);
                std::fs::write(dir.join(format!("wal-{first:020}.log")), &bytes).unwrap();
            }
            let _ = read_log(&dir);
            if let Ok(state) = recover(&dir, &Metrics::disabled()) {
                let _ = Wal::resume(WalConfig::new(&dir), &state, Metrics::disabled());
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
