//! Reading WAL segments: the one segment reader, and the log-shipping
//! tailer built on it.
//!
//! [`SegmentReader`] is the only code that walks a segment's bytes.
//! Recovery runs it once over each file; a [`SegmentTailer`] runs it
//! over the files the [`crate::Wal`] writer is still appending to,
//! returning committed records in commit order. Where a segment's clean
//! prefix ends, each applies its own policy: the tailer waits for a
//! partially written frame at the end of the open segment (the writer
//! will finish it) and crosses to the successor segment once the next
//! expected commit's file exists. The caller must hold a retention pin
//! ([`crate::Wal::pin_for_bootstrap`]) at or below its position, or
//! pruning may delete a segment out from under it — that contract is
//! exactly what the pin API exists for.

use std::fmt;
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};

use crate::codec::{decode, split_frame, Dec, FRAME_HEADER, SEGMENT_MAGIC};
use crate::recover::{list_files, segment_path, CommitRecord};
use crate::WalError;

/// Where a segment's clean prefix ends, and why.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Tail {
    /// At a frame boundary after the header: nothing is left unread.
    Clean,
    /// A short magic or a short frame: a write not (yet) finished.
    Partial,
    /// Bad magic or a bad CRC.
    Damaged,
}

/// What [`SegmentReader::next`] found.
pub(crate) enum Step {
    Record(CommitRecord),
    End(Tail),
}

/// The one walk over WAL segments (`[magic][header frame][record
/// frames…]`): it checks each segment's magic and header, decodes its
/// records, and holds their commit numbers to one unbroken sequence
/// across segments. It reads incrementally, so a segment the writer is
/// still appending to yields its new records on the next call.
#[derive(Default)]
pub(crate) struct SegmentReader {
    dir: PathBuf,
    /// The segment being read, named for its first commit.
    first: u64,
    file: Option<File>,
    /// Bytes read from the segment: `buf[..pos]` are consumed, and
    /// `buf[0]` sits at file offset `start`.
    buf: Vec<u8>,
    pos: usize,
    start: u64,
    /// Magic bytes still to check ahead of the next frame: the whole
    /// magic until the header frame is read, then none.
    magic: usize,
    /// Shard count fixed by the first header (or by a snapshot).
    pub(crate) n_shards: Option<u64>,
    /// The commit the next record must carry.
    next: u64,
}

impl SegmentReader {
    /// A reader with no segment open yet.
    pub(crate) fn new(dir: &Path, n_shards: Option<u64>) -> SegmentReader {
        let dir = dir.to_path_buf();
        SegmentReader {
            dir,
            n_shards,
            ..SegmentReader::default()
        }
    }

    /// Opens the segment named for `first`, which must continue the
    /// commits read so far.
    pub(crate) fn enter(&mut self, first: u64) -> Result<(), WalError> {
        if self.file.is_some() && first != self.next {
            return Err(self.corrupt(format_args!(
                "is followed by the segment of commit {first}, not of commit {}",
                self.next
            )));
        }
        self.file = Some(File::open(segment_path(&self.dir, first))?);
        (self.first, self.next) = (first, first);
        (self.pos, self.start, self.magic) = (0, 0, SEGMENT_MAGIC.len());
        self.buf.clear();
        Ok(())
    }

    /// File offset where the clean prefix read so far ends.
    pub(crate) fn offset(&self) -> u64 {
        self.start + self.pos as u64
    }

    /// [`WalError::Corrupt`] naming the open segment.
    pub(crate) fn corrupt(&self, what: impl fmt::Display) -> WalError {
        let path = segment_path(&self.dir, self.first);
        WalError::Corrupt(format!("{}: {what}", path.display()))
    }

    /// The next record of the open segment, or where its clean prefix
    /// ends. Reads the file only when no whole frame is buffered.
    ///
    /// # Errors
    ///
    /// I/O failure, and [`WalError::Corrupt`] on a CRC-valid frame that
    /// fails to decode, a header at odds with the file name or earlier
    /// history, or a record out of commit order.
    pub(crate) fn next(&mut self) -> Result<Step, WalError> {
        let mut filled = false;
        loop {
            let rest = &self.buf[self.pos..];
            // The magic and the header frame open a segment together.
            let at = self.magic;
            if rest.len() >= at && rest[..at] != SEGMENT_MAGIC[..at] {
                return Ok(Step::End(Tail::Damaged));
            }
            let used = match split_frame(rest.get(at..).unwrap_or_default(), usize::MAX) {
                Ok(Some(used)) => at + used,
                Err(_) => return Ok(Step::End(Tail::Damaged)),
                Ok(None) if !filled => {
                    self.fill()?;
                    filled = true;
                    continue;
                }
                Ok(None) if rest.is_empty() && at == 0 => return Ok(Step::End(Tail::Clean)),
                Ok(None) => return Ok(Step::End(Tail::Partial)),
            };
            let payload = &rest[at + FRAME_HEADER..used];
            if at > 0 {
                let header = decode(payload, |d| d.segment_header(self.first, self.n_shards));
                self.n_shards = Some(header.map_err(|e| self.corrupt(e))?);
                self.magic = 0;
                self.pos += used;
                continue;
            }
            let rec = decode(payload, Dec::commit_record).map_err(|e| self.corrupt(e))?;
            self.pos += used;
            if rec.commit != self.next {
                return Err(self.corrupt(format_args!(
                    "record is commit {}, expected commit {}",
                    rec.commit, self.next
                )));
            }
            self.next = rec.commit.checked_add(1).ok_or_else(|| {
                self.corrupt(format_args!("no commit number follows {}", rec.commit))
            })?;
            return Ok(Step::Record(rec));
        }
    }

    /// Appends what the file holds past the buffered bytes, first
    /// dropping the consumed ones.
    fn fill(&mut self) -> Result<(), WalError> {
        self.buf.drain(..self.pos);
        self.start += self.pos as u64;
        self.pos = 0;
        if let Some(file) = &mut self.file {
            file.read_to_end(&mut self.buf)?;
        }
        Ok(())
    }
}

/// An incremental reader following live WAL segments in commit order.
pub struct SegmentTailer {
    reader: SegmentReader,
    /// Next commit number to hand out.
    next_commit: u64,
}

impl SegmentTailer {
    /// Positions a tailer so its first returned record is commit
    /// `after + 1`. Fails with [`WalError::Corrupt`] when the record is
    /// already pruned (retention must be pinned *before* choosing
    /// `after`; [`crate::Wal::pin_for_bootstrap`] does both at once).
    pub fn new(dir: &Path, after: u64) -> Result<SegmentTailer, WalError> {
        let (segments, _) = list_files(dir)?;
        // The segment holding commit `after + 1`: the last whose
        // first commit is at or below it. A tailer positioned at the
        // very tip (nothing to read yet) starts in the newest segment.
        let next_commit = after
            .checked_add(1)
            .ok_or_else(|| WalError::Corrupt(format!("no commit follows commit {after}")))?;
        let Some(&(first, _)) = segments.iter().rev().find(|s| s.0 <= next_commit) else {
            return Err(WalError::Corrupt(format!(
                "wal records after commit {after} are pruned; tailer cannot start"
            )));
        };
        let mut reader = SegmentReader::new(dir, None);
        reader.enter(first)?;
        Ok(SegmentTailer {
            reader,
            next_commit,
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
        let reader = &mut self.reader;
        let mut out = Vec::new();
        while out.len() < max && self.next_commit <= up_to {
            match reader.next()? {
                // Records below `next_commit` are the bootstrap
                // skip-ahead inside the starting segment; drop them.
                Step::Record(rec) => {
                    if rec.commit >= self.next_commit {
                        self.next_commit = reader.next;
                        out.push(rec);
                    }
                }
                // The tailer's policy: a partial frame is one the writer
                // has not finished, and it rotates only after flushing a
                // segment, so once the successor exists, bytes left over
                // are damage; behind the watermark damage is corruption.
                Step::End(tail) => {
                    let next = reader.next;
                    let rotated = next != reader.first && segment_path(&reader.dir, next).exists();
                    match (tail, rotated) {
                        (Tail::Clean, true) => reader.enter(next)?,
                        (Tail::Clean | Tail::Partial, false) => break,
                        _ => {
                            let at = reader.offset();
                            let what =
                                format!("{tail:?} at byte {at}, successor exists: {rotated}");
                            return Err(reader.corrupt(what));
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}
