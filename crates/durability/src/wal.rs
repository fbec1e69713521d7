//! The write-ahead-log writer: append, group commit, rotation,
//! snapshots, retention-aware pruning, and the shipping watermark
//! replication reads up to.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use sdl_metrics::{Counter, Hist, Metrics};
use sdl_tuple::{Tuple, TupleId};

use crate::codec::{frame_with, SEGMENT_MAGIC, SNAPSHOT_MAGIC};
use crate::recover::{list_files, segment_path, snapshot_path, RecoveredState};
use crate::{FsyncPolicy, WalConfig, WalError};

/// A write-ahead log open for appending. Shared across executor
/// threads behind an `Arc`; all mutation goes through one internal
/// mutex, so appends are totally ordered — that order *is* the commit
/// order recovery replays.
pub struct Wal {
    config: WalConfig,
    n_shards: u64,
    metrics: Metrics,
    inner: Mutex<WalInner>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.config.dir)
            .field("fsync", &self.config.fsync)
            .field("n_shards", &self.n_shards)
            .finish_non_exhaustive()
    }
}

struct WalInner {
    /// Open segment, buffered. `None` only transiently during rotation
    /// failures.
    file: BufWriter<File>,
    /// Bytes written to the open segment so far.
    segment_written: u64,
    /// First commit number of every live segment, ascending. The last
    /// entry is the open segment.
    segments: Vec<u64>,
    /// Next commit number to assign.
    next_commit: u64,
    /// Highest commit number appended (0 before the first append).
    appended: u64,
    /// Highest commit number known to be on stable storage.
    synced: u64,
    /// Last explicit fsync, for `FsyncPolicy::Interval`.
    last_sync: Instant,
    /// Commits appended since the last snapshot.
    since_snapshot: u64,
    /// Retention pins: `pin id → commit number`. Pruning keeps every
    /// record *after* the smallest pinned commit, so a reader (a
    /// replication tailer, typically) positioned at that commit never
    /// observes a gap.
    pins: HashMap<u64, u64>,
    /// Next retention-pin id.
    next_pin: u64,
    /// Reused encode buffer — appends are hot on every commit, so the
    /// record frame is built here instead of a fresh allocation.
    scratch: Vec<u8>,
}

impl Wal {
    /// Creates a fresh log in `config.dir` (made if missing). Fails if
    /// the directory already holds WAL history — recover it with
    /// [`crate::recover`] + [`Wal::resume`] instead of silently
    /// clobbering it.
    pub fn create(config: WalConfig, n_shards: u64, metrics: Metrics) -> Result<Wal, WalError> {
        fs::create_dir_all(&config.dir)?;
        let (segments, snapshots) = list_files(&config.dir)?;
        if !segments.is_empty() || !snapshots.is_empty() {
            return Err(WalError::Corrupt(format!(
                "{} already holds wal history; pass --recover or choose a fresh directory",
                config.dir.display()
            )));
        }
        Wal::open_at(config, n_shards, metrics, 1, 0, Vec::new())
    }

    /// Continues logging after [`crate::recover`]: opens a new segment
    /// starting at the next commit number after the recovered history.
    pub fn resume(
        config: WalConfig,
        state: &RecoveredState,
        metrics: Metrics,
    ) -> Result<Wal, WalError> {
        let corrupt = |what: &str| WalError::Corrupt(format!("{}: {what}", config.dir.display()));
        let first = (state.last_commit.checked_add(1))
            .ok_or_else(|| corrupt("no commit number follows the recovered history"))?;
        let since = (state.last_commit.checked_sub(state.snapshot_commit))
            .ok_or_else(|| corrupt("the snapshot is newer than the last commit"))?;
        let (segments, _) = list_files(&config.dir)?;
        let mut existing: Vec<u64> = segments.into_iter().map(|(c, _)| c).collect();
        // A run that crashed after opening a segment but before its
        // first append leaves a header-only file named for `first`;
        // recovery took no records from it, so replace it.
        if let Some(i) = existing.iter().position(|&c| c == first) {
            fs::remove_file(segment_path(&config.dir, first))?;
            existing.remove(i);
        }
        Wal::open_at(config, state.n_shards, metrics, first, since, existing)
    }

    fn open_at(
        config: WalConfig,
        n_shards: u64,
        metrics: Metrics,
        first_commit: u64,
        since_snapshot: u64,
        mut segments: Vec<u64>,
    ) -> Result<Wal, WalError> {
        let (file, segment_written) = open_segment(&config.dir, n_shards, first_commit)?;
        segments.push(first_commit);
        let inner = WalInner {
            file,
            segment_written,
            segments,
            next_commit: first_commit,
            appended: first_commit - 1,
            synced: first_commit - 1,
            last_sync: Instant::now(),
            since_snapshot,
            pins: HashMap::new(),
            next_pin: 0,
            scratch: Vec::new(),
        };
        Ok(Wal {
            config,
            n_shards,
            metrics,
            inner: Mutex::new(inner),
        })
    }

    /// Shard count this log was opened with.
    pub fn n_shards(&self) -> u64 {
        self.n_shards
    }

    /// Directory the log lives in.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// Highest commit number appended so far.
    pub fn last_appended(&self) -> u64 {
        self.inner.lock().unwrap().appended
    }

    /// Flushes buffered appends into the OS page cache (no fsync), so a
    /// same-host reader tailing the segment files sees every appended
    /// record. Replication shippers call this before polling the tail.
    pub fn flush_os(&self) -> Result<(), WalError> {
        let mut inner = self.inner.lock().unwrap();
        inner.file.flush()?;
        Ok(())
    }

    /// Highest commit number safe to ship to a follower: a follower
    /// must never hold records the leader would lose in a crash, so
    /// under `FsyncPolicy::Always`/`Interval` only *synced* commits
    /// ship. Under `Interval`, a due sync is taken here so the
    /// watermark keeps advancing while the committers are idle; under
    /// `Never` there is no durability promise to preserve and every
    /// appended (flushed) record ships.
    pub fn shippable_watermark(&self) -> Result<u64, WalError> {
        let mut inner = self.inner.lock().unwrap();
        match self.config.fsync {
            FsyncPolicy::Always => Ok(inner.synced),
            FsyncPolicy::Interval(every) => {
                if inner.appended > inner.synced && inner.last_sync.elapsed() >= every {
                    self.sync_inner(&mut inner)?;
                }
                Ok(inner.synced)
            }
            FsyncPolicy::Never => {
                inner.file.flush()?;
                Ok(inner.appended)
            }
        }
    }

    /// Advances pin `pin` to `commit` (never backwards — acks can
    /// arrive reordered). Unknown pins are ignored.
    pub fn move_retention(&self, pin: u64, commit: u64) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(c) = inner.pins.get_mut(&pin) {
            *c = (*c).max(commit);
        }
    }

    /// Releases pin `pin`. History it was holding becomes prunable at
    /// the next snapshot.
    pub fn release_retention(&self, pin: u64) {
        self.inner.lock().unwrap().pins.remove(&pin);
    }

    /// Plans a follower bootstrap for a follower whose store is at
    /// `follower_last`, atomically pinning retention so the plan's
    /// history cannot be pruned out from under the shipper:
    ///
    /// * if every record after `follower_last` is still retained, the
    ///   follower resumes straight from the log (no snapshot transfer);
    /// * otherwise the newest snapshot is the base and the follower
    ///   replays the records after it.
    ///
    /// The caller must [`Wal::release_retention`] the returned pin when
    /// the follower detaches, and [`Wal::move_retention`] it forward as
    /// the follower acknowledges applied commits.
    pub fn pin_for_bootstrap(&self, follower_last: u64) -> Result<BootstrapPlan, WalError> {
        let mut inner = self.inner.lock().unwrap();
        let oldest_first = inner.segments[0];
        let (start_after, snapshot) =
            if follower_last.saturating_add(1) >= oldest_first && follower_last <= inner.appended {
                (follower_last, None)
            } else {
                // The newest snapshot always has its suffix records
                // retained: pruning at snapshot time never goes past the
                // snapshot being written.
                let (_, snapshots) = list_files(&self.config.dir)?;
                match snapshots.last() {
                    Some((commit, path)) => (*commit, Some((*commit, path.clone()))),
                    None => {
                        return Err(WalError::Corrupt(format!(
                            "no snapshot to bootstrap a follower at commit {follower_last} \
                             (oldest retained record is {oldest_first})"
                        )))
                    }
                }
            };
        let pin = inner.next_pin;
        inner.next_pin += 1;
        inner.pins.insert(pin, start_after);
        Ok(BootstrapPlan {
            pin,
            start_after,
            snapshot,
        })
    }

    /// Appends one committed batch and returns its commit number.
    /// Under `FsyncPolicy::Always` the record is *not* yet durable —
    /// call [`Wal::ensure_durable`] after releasing any store locks so
    /// concurrent committers can share one fsync (group commit).
    pub fn append(
        &self,
        retracts: &[TupleId],
        asserts: &[(TupleId, Tuple)],
    ) -> Result<u64, WalError> {
        let mut inner = self.inner.lock().unwrap();
        let commit = inner.next_commit;

        let mut buf = std::mem::take(&mut inner.scratch);
        buf.clear();
        frame_with(&mut buf, |e| e.commit_record(commit, retracts, asserts));
        let framed_len = buf.len() as u64;

        if inner.segment_written + framed_len > self.config.segment_bytes
            && inner.appended >= inner.segments[inner.segments.len() - 1]
        {
            self.rotate(&mut inner, commit)?;
        }
        inner.file.write_all(&buf)?;
        inner.scratch = buf;
        inner.segment_written += framed_len;
        inner.next_commit = commit + 1;
        inner.appended = commit;
        inner.since_snapshot += 1;
        self.metrics.inc(Counter::WalRecords);
        self.metrics.add(Counter::WalBytes, framed_len);

        if let FsyncPolicy::Interval(every) = self.config.fsync {
            if inner.last_sync.elapsed() >= every {
                self.sync_inner(&mut inner)?;
            }
        }
        Ok(commit)
    }

    /// Makes every record up to `commit` durable under
    /// `FsyncPolicy::Always`; a no-op under the other policies. Skips
    /// the fsync when another thread's sync already covered `commit` —
    /// that is the group-commit fast path.
    pub fn ensure_durable(&self, commit: u64) -> Result<(), WalError> {
        if self.config.fsync != FsyncPolicy::Always {
            return Ok(());
        }
        let mut inner = self.inner.lock().unwrap();
        if inner.synced >= commit {
            return Ok(());
        }
        self.sync_inner(&mut inner)
    }

    /// Flushes and fsyncs everything appended so far, regardless of
    /// policy. Called at end of run.
    pub fn sync(&self) -> Result<(), WalError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.synced >= inner.appended {
            return Ok(());
        }
        self.sync_inner(&mut inner)
    }

    fn sync_inner(&self, inner: &mut WalInner) -> Result<(), WalError> {
        let timer = self.metrics.start_timer();
        inner.file.flush()?;
        inner.file.get_ref().sync_data()?;
        inner.synced = inner.appended;
        inner.last_sync = Instant::now();
        self.metrics.observe_timer(Hist::WalFsyncSeconds, timer);
        Ok(())
    }

    /// Closes the current segment (flushed + fsynced) and opens a new
    /// one whose first record will be `next_commit`.
    fn rotate(&self, inner: &mut WalInner, next_commit: u64) -> Result<(), WalError> {
        inner.file.flush()?;
        inner.file.get_ref().sync_data()?;
        inner.synced = inner.appended;
        (inner.file, inner.segment_written) =
            open_segment(&self.config.dir, self.n_shards, next_commit)?;
        inner.segments.push(next_commit);
        Ok(())
    }

    /// True when `snapshot_every` commits have landed since the last
    /// snapshot. The caller takes a consistent view of the store and
    /// calls [`Wal::write_snapshot`].
    pub fn snapshot_due(&self) -> bool {
        match self.config.snapshot_every {
            Some(every) => self.inner.lock().unwrap().since_snapshot >= every,
            None => false,
        }
    }

    /// Writes a snapshot of the store as of the highest appended
    /// commit, then prunes segments and snapshots the new one makes
    /// redundant. `cursors` are the per-shard id-mint cursors
    /// (`next_seq` of each shard, in shard order); `tuples` is the full
    /// store contents. Returns the commit number the snapshot captures.
    ///
    /// The caller must guarantee `cursors`/`tuples` reflect the store
    /// exactly after the highest appended commit (serial: trivially
    /// true; threaded: hold a full-footprint read view, since appends
    /// happen under shard write locks).
    pub fn write_snapshot(
        &self,
        cursors: &[u64],
        tuples: &[(TupleId, Tuple)],
    ) -> Result<u64, WalError> {
        let commit = self.inner.lock().unwrap().appended;
        self.write_snapshot_at(commit, cursors, tuples)?;
        Ok(commit)
    }

    /// Writes a snapshot capturing the store exactly after `commit`,
    /// then prunes history the snapshot (minus retention pins and the
    /// configured retain window) makes redundant.
    ///
    /// Unlike [`Wal::write_snapshot`] the capture commit is supplied by
    /// the caller, which must have read it *while holding the same
    /// consistent view* `cursors`/`tuples` were taken under — that is
    /// what lets a background snapshotter write the copy long after the
    /// log has moved on.
    pub(crate) fn write_snapshot_at(
        &self,
        commit: u64,
        cursors: &[u64],
        tuples: &[(TupleId, Tuple)],
    ) -> Result<(), WalError> {
        let mut bytes = SNAPSHOT_MAGIC.to_vec();
        frame_with(&mut bytes, |e| {
            e.snapshot(commit, self.n_shards, cursors, tuples)
        });

        // The file write happens outside the log mutex on purpose: a
        // background snapshotter streaming a large store out must not
        // stall concurrent appends.
        let path = snapshot_path(&self.config.dir, commit);
        let tmp = path.with_extension("tmp");
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_data()?;
        fs::rename(&tmp, &path)?;
        // Make the rename itself durable before pruning what the new
        // snapshot supersedes.
        if let Ok(dir) = File::open(&self.config.dir) {
            let _ = dir.sync_all();
        }
        let mut inner = self.inner.lock().unwrap();
        // Commits that landed while the copy was being written are not
        // covered by it; they count toward the next snapshot.
        inner.since_snapshot = inner.appended.saturating_sub(commit);
        self.prune(&mut inner, commit)?;
        Ok(())
    }

    /// Drops history a snapshot at `commit` makes redundant, bounded by
    /// the retention floor: the smallest of `commit`, every retention
    /// pin, and `appended - retain_commits`. Snapshots strictly below
    /// the floor go; a segment goes when the *next* segment starts at
    /// or below `floor + 1` (the open segment never goes).
    fn prune(&self, inner: &mut WalInner, commit: u64) -> Result<(), WalError> {
        let mut floor = commit;
        if let Some(keep) = self.config.retain_commits {
            floor = floor.min(inner.appended.saturating_sub(keep));
        }
        if let Some(&min_pin) = inner.pins.values().min() {
            floor = floor.min(min_pin);
        }
        let (_, snapshots) = list_files(&self.config.dir)?;
        for (c, path) in snapshots {
            if c < floor {
                fs::remove_file(path)?;
            }
        }
        let mut keep = Vec::with_capacity(inner.segments.len());
        for (i, &first) in inner.segments.iter().enumerate() {
            let covered = match inner.segments.get(i + 1) {
                Some(&next_first) => next_first <= floor + 1,
                None => false, // never prune the open segment
            };
            if covered {
                fs::remove_file(segment_path(&self.config.dir, first))?;
            } else {
                keep.push(first);
            }
        }
        inner.segments = keep;
        Ok(())
    }
}

/// A follower-bootstrap decision from [`Wal::pin_for_bootstrap`],
/// with retention already pinned at [`BootstrapPlan::start_after`].
#[derive(Debug)]
pub struct BootstrapPlan {
    /// Retention pin protecting records after `start_after`.
    pub pin: u64,
    /// The follower replays records `start_after + 1 ..`.
    pub start_after: u64,
    /// Snapshot `(commit, path)` the follower must load first, or
    /// `None` when it can resume from its own store.
    pub snapshot: Option<(u64, PathBuf)>,
}

/// Creates the segment file for `first_commit` and writes its magic
/// and header frame, returning the writer and the bytes written.
fn open_segment(
    dir: &Path,
    n_shards: u64,
    first_commit: u64,
) -> Result<(BufWriter<File>, u64), WalError> {
    let file = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(segment_path(dir, first_commit))?;
    let mut preamble = SEGMENT_MAGIC.to_vec();
    frame_with(&mut preamble, |e| e.segment_header(n_shards, first_commit));
    let mut file = BufWriter::new(file);
    file.write_all(&preamble)?;
    Ok((file, preamble.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recover;

    /// A CRC-valid snapshot numbered `u64::MAX` recovers to a history no
    /// commit number can follow: resuming it is corrupt, not a panic or
    /// a log that wraps to commit 0.
    #[test]
    fn resuming_after_the_last_commit_number_is_corrupt() {
        let dir = std::env::temp_dir().join(format!("sdl-wal-resume-max-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let mut bytes = SNAPSHOT_MAGIC.to_vec();
        frame_with(&mut bytes, |e| e.snapshot(u64::MAX, 1, &[1], &[]));
        fs::write(snapshot_path(&dir, u64::MAX), bytes).unwrap();
        let state = recover(&dir, &Metrics::disabled()).unwrap();
        assert_eq!(state.last_commit, u64::MAX);
        let resumed = Wal::resume(WalConfig::new(&dir), &state, Metrics::disabled());
        fs::remove_dir_all(&dir).ok();
        match resumed {
            Err(WalError::Corrupt(_)) => {}
            Err(e) => panic!("expected a corrupt log, got {e}"),
            Ok(_) => panic!("resumed past the last commit number"),
        }
    }
}
