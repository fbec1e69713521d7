//! Log shipping: incremental tail-reading of live WAL segments.
//!
//! A [`SegmentTailer`] is the read half of log-shipping replication: it
//! follows the segment files the [`crate::Wal`] writer is appending to,
//! returning committed records in commit order. The tailer tolerates a
//! partially written frame at the end of the open segment (the writer
//! will finish it) and crosses to the successor segment once the next
//! expected commit's file exists. The caller must hold a retention pin
//! ([`crate::Wal::pin_for_bootstrap`]) at or below its position, or
//! pruning may delete a segment out from under it — that contract is
//! exactly what the pin API exists for.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use crate::codec::{decode, split_frame, Dec, FRAME_HEADER, SEGMENT_MAGIC};
use crate::recover::{list_files, segment_path, CommitRecord};
use crate::WalError;

/// An incremental reader following live WAL segments in commit order.
pub struct SegmentTailer {
    dir: PathBuf,
    /// Shard count from the first segment header seen (continuity is
    /// checked against later headers).
    n_shards: Option<u64>,
    /// Next commit number to hand out.
    next_commit: u64,
    /// First commit of the segment currently being read.
    segment_first: u64,
    /// Open handle on the current segment.
    file: File,
    /// Byte offset of the first unconsumed byte in the current segment.
    offset: u64,
    /// Whether the current segment's header frame has been consumed.
    saw_header: bool,
    /// Unconsumed bytes read from `offset` onwards (a partial frame the
    /// writer has not finished yet stays here between polls).
    buf: Vec<u8>,
}

impl SegmentTailer {
    /// Positions a tailer so its first returned record is commit
    /// `after + 1`. Fails with [`WalError::Corrupt`] when the record is
    /// already pruned (retention must be pinned *before* choosing
    /// `after`; [`crate::Wal::pin_for_bootstrap`] does both at once).
    pub fn new(dir: &Path, after: u64) -> Result<SegmentTailer, WalError> {
        let (segments, _) = list_files(dir)?;
        // The segment containing commit `after + 1`: the last whose
        // first commit is at or below it. A tailer positioned at the
        // very tip (nothing to read yet) starts in the newest segment.
        let mut start = None;
        for &(first, _) in &segments {
            if first <= after + 1 {
                start = Some(first);
            }
        }
        let Some(segment_first) = start else {
            return Err(WalError::Corrupt(format!(
                "wal records after commit {after} are pruned; tailer cannot start"
            )));
        };
        let file = File::open(segment_path(dir, segment_first))?;
        Ok(SegmentTailer {
            dir: dir.to_path_buf(),
            n_shards: None,
            next_commit: after + 1,
            segment_first,
            file,
            offset: 0,
            saw_header: false,
            buf: Vec::new(),
        })
    }

    /// Next commit number [`SegmentTailer::poll`] will return.
    pub fn next_commit(&self) -> u64 {
        self.next_commit
    }

    /// Reads every complete record now on disk with commit at or below
    /// `up_to`, bounded by `max` records. Returns an empty vec when the
    /// writer has not produced (or synced past) anything new. The
    /// writer should have had its buffers flushed to the OS first
    /// ([`crate::Wal::flush_os`] or the sync that advanced `up_to`).
    ///
    /// # Errors
    ///
    /// [`WalError::Corrupt`] on CRC damage behind the watermark, a
    /// commit-continuity break, or a header mismatch.
    pub fn poll(&mut self, up_to: u64, max: usize) -> Result<Vec<CommitRecord>, WalError> {
        let mut out = Vec::new();
        while out.len() < max && self.next_commit <= up_to {
            self.fill_buf()?;
            match self.take_frame()? {
                Some(Frame::Header) => {}
                Some(Frame::Commit(rec)) => {
                    // Records below `next_commit` are the bootstrap
                    // skip-ahead inside the starting segment; drop them.
                    if rec.commit >= self.next_commit {
                        if rec.commit != self.next_commit {
                            return Err(WalError::Corrupt(format!(
                                "shipped commits skip from {} to {}",
                                self.next_commit - 1,
                                rec.commit
                            )));
                        }
                        self.next_commit = rec.commit + 1;
                        out.push(rec);
                    }
                }
                None => {
                    // No complete frame buffered. If the successor
                    // segment exists the writer has rotated (flushing
                    // the old file first), so leftover bytes here are
                    // real damage, not a pending write.
                    if segment_path(&self.dir, self.next_commit).exists()
                        && self.segment_first != self.next_commit
                    {
                        if !self.buf.is_empty() {
                            return Err(WalError::Corrupt(format!(
                                "segment starting at {} has {} trailing bytes but a \
                                 successor segment exists",
                                self.segment_first,
                                self.buf.len()
                            )));
                        }
                        self.enter_segment(self.next_commit)?;
                        continue;
                    }
                    break;
                }
            }
        }
        Ok(out)
    }

    fn enter_segment(&mut self, first: u64) -> Result<(), WalError> {
        self.file = File::open(segment_path(&self.dir, first))?;
        self.segment_first = first;
        self.offset = 0;
        self.saw_header = false;
        self.buf.clear();
        Ok(())
    }

    /// Appends any new on-disk bytes of the current segment to `buf`.
    fn fill_buf(&mut self) -> Result<(), WalError> {
        let read_from = self.offset + self.buf.len() as u64;
        self.file.seek(SeekFrom::Start(read_from))?;
        self.file.read_to_end(&mut self.buf)?;
        Ok(())
    }

    /// Consumes one complete frame from `buf`, or returns `None` when
    /// only a partial frame (or nothing) is buffered.
    fn take_frame(&mut self) -> Result<Option<Frame>, WalError> {
        let mut pos = 0usize;
        if self.offset == 0 && !self.saw_header {
            // Segment preamble: magic bytes before the header frame.
            if self.buf.len() < SEGMENT_MAGIC.len() {
                return Ok(None);
            }
            if !self.buf.starts_with(SEGMENT_MAGIC) {
                return Err(WalError::Corrupt(format!(
                    "segment starting at {} has bad magic",
                    self.segment_first
                )));
            }
            pos = SEGMENT_MAGIC.len();
        }
        // The tailer's policy: a partial frame is one the writer has not
        // finished, but behind the shippable watermark a bad CRC is damage.
        let used = match split_frame(&self.buf[pos..], usize::MAX) {
            Ok(Some(used)) => used,
            Ok(None) => return Ok(None),
            Err(_) => {
                return Err(WalError::Corrupt(format!(
                    "crc mismatch in segment starting at {} (offset {})",
                    self.segment_first,
                    self.offset + pos as u64
                )))
            }
        };
        let payload = &self.buf[pos + FRAME_HEADER..pos + used];
        let corrupt =
            |e| WalError::Corrupt(format!("segment starting at {}: {e}", self.segment_first));
        let frame = if self.saw_header {
            Frame::Commit(decode(payload, Dec::commit_record).map_err(corrupt)?)
        } else {
            let header = decode(payload, |d| {
                d.segment_header(self.segment_first, self.n_shards)
            });
            self.n_shards = Some(header.map_err(corrupt)?);
            self.saw_header = true;
            Frame::Header
        };
        let consumed = pos + used;
        self.buf.drain(..consumed);
        self.offset += consumed as u64;
        Ok(Some(frame))
    }
}

enum Frame {
    Header,
    Commit(CommitRecord),
}
