//! Per-connection read/write buffering for the non-blocking event loop.
//!
//! Each direction is one contiguous byte buffer. Reads land straight in
//! the read buffer's free room and frames are decoded where they lie;
//! replies are framed in place at the write buffer's tail, and a flush
//! writes everything unwritten at once. A lone request costs one `read`
//! and its reply one `write`.

#![deny(clippy::arithmetic_side_effects)]

use std::io::{self, Read, Write};

use sdl_durability::codec::{frame_with, split_frame, FRAME_HEADER};

use crate::wire::{self, Response, WireError};

/// A connection's first read room; a full buffer doubles (`make_room`).
const MIN_ROOM: usize = 4 * 1024;

/// Bytes one fill pass reads from one connection at most, so a client
/// streaming frames cannot hold its loop; the next poll reports the rest.
const PASS_BYTES: usize = 256 * 1024;

/// Read buffer: `buf[start..end]` is unconsumed, `buf[end..]` is room.
#[derive(Debug, Default)]
pub(crate) struct ReadBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

/// What a non-blocking fill pass observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FillOutcome {
    /// Read some bytes (possibly zero via `WouldBlock`); peer still open.
    Open,
    /// Peer closed the connection (EOF or reset).
    Closed,
}

impl ReadBuf {
    /// Unconsumed bytes.
    pub(crate) fn pending(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Reads into the buffer's room until a read comes back short (the
    /// socket is drained), `WouldBlock`, EOF, or [`PASS_BYTES`] were
    /// read in this pass. Only a read that filled its room is followed
    /// by another one.
    ///
    /// # Errors
    ///
    /// Real socket errors only; `WouldBlock` and `Interrupted` are
    /// absorbed, EOF/reset surface as [`FillOutcome::Closed`].
    pub(crate) fn fill(&mut self, stream: &mut impl Read) -> io::Result<FillOutcome> {
        let mut read: usize = 0;
        loop {
            self.make_room();
            #[allow(clippy::arithmetic_side_effects)] // end <= buf.len()
            let room = self.buf.len() - self.end;
            match stream.read(&mut self.buf[self.end..]) {
                Ok(0) => return Ok(FillOutcome::Closed),
                Ok(n) => {
                    // `Read` returns n <= room, so end stays <= buf.len().
                    #[allow(clippy::arithmetic_side_effects)]
                    {
                        self.end += n;
                    }
                    read = read.saturating_add(n);
                    if n < room || read >= PASS_BYTES {
                        return Ok(FillOutcome::Open);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(FillOutcome::Open),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionReset
                            | io::ErrorKind::ConnectionAborted
                            | io::ErrorKind::BrokenPipe
                    ) =>
                {
                    return Ok(FillOutcome::Closed)
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Leaves at least one byte of room. The unconsumed bytes move to
    /// the front when that copies no more than it frees, or when there
    /// is no room at all; only a buffer still full grows (and only the
    /// growth is zeroed).
    fn make_room(&mut self) {
        #[allow(clippy::arithmetic_side_effects)] // start <= end
        let pending = self.end - self.start;
        if self.start > 0 && (pending <= self.start || self.end == self.buf.len()) {
            self.buf.copy_within(self.start..self.end, 0);
            self.start = 0;
            self.end = pending;
        }
        if self.end == self.buf.len() {
            // A `Vec<u8>` holds at most isize::MAX bytes: twice that fits.
            #[allow(clippy::arithmetic_side_effects)]
            let len = (self.buf.len() * 2).max(MIN_ROOM);
            self.buf.resize(len, 0);
        }
    }

    /// Consumes `n` bytes from the front.
    // Callers consume at most `pending()`, so start stays <= end.
    #[allow(clippy::arithmetic_side_effects)]
    pub(crate) fn consume(&mut self, n: usize) {
        self.start += n;
        debug_assert!(self.start <= self.end);
    }

    /// Consumes the next complete frame and returns its payload, which
    /// stays in the buffer until the next fill.
    ///
    /// # Errors
    ///
    /// Propagates [`WireError`] from the framing layer (drop the
    /// connection — framing is lost).
    // `split_frame` returns FRAME_HEADER <= used <= pending().len(), so
    // start + used <= end <= buf.len().
    #[allow(clippy::arithmetic_side_effects)]
    pub(crate) fn next_frame(&mut self, max_frame: usize) -> Result<Option<&[u8]>, WireError> {
        let Some(used) = split_frame(self.pending(), max_frame)? else {
            return Ok(None);
        };
        let at = self.start;
        self.start += used;
        Ok(Some(&self.buf[at + FRAME_HEADER..at + used]))
    }
}

/// A connection's outgoing bytes: `buf[written..]` is not yet on the
/// socket. Public only so the wire property tests can check its
/// in-place framing.
#[derive(Debug, Default)]
pub struct WriteBuf {
    buf: Vec<u8>,
    written: usize,
}

impl WriteBuf {
    /// Queues raw bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Queues the frame `wire::frame(&wire::encode_response(req_id,
    /// resp))`, encoded and sealed in place.
    pub fn push_response(&mut self, req_id: u64, resp: &Response) {
        frame_with(&mut self.buf, |e| wire::put_response(e, req_id, resp));
    }

    /// Bytes queued and not yet written.
    #[allow(clippy::arithmetic_side_effects)] // written <= buf.len()
    pub(crate) fn len(&self) -> usize {
        self.buf.len() - self.written
    }

    /// True when nothing is pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes as much as the socket accepts, the whole unwritten tail
    /// per `write`. Returns `true` when everything was written.
    ///
    /// # Errors
    ///
    /// Real socket errors only; `WouldBlock` returns `Ok(false)`.
    pub fn flush(&mut self, stream: &mut impl Write) -> io::Result<bool> {
        while self.written < self.buf.len() {
            match stream.write(&self.buf[self.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                // `Write` returns n <= the tail's length, so written
                // stays <= buf.len().
                #[allow(clippy::arithmetic_side_effects)]
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Reclaim the written prefix: all of it once drained, otherwise
        // when it is at least as long as the tail that has to move.
        let left = self.len();
        if self.written >= left {
            self.buf.drain(..self.written);
            self.written = 0;
        }
        Ok(left == 0)
    }
}

#[cfg(test)]
// The test socket counts calls and offsets into inputs of a few KiB.
#[allow(clippy::arithmetic_side_effects)]
mod tests {
    use super::*;
    use crate::wire::{decode_request, encode_request, frame, Request};
    use proptest::prelude::*;
    use sdl_tuple::{pattern, tuple, Value};

    #[test]
    fn read_buf_extracts_split_frames() {
        let mut rb = ReadBuf::default();
        let f1 = frame(&encode_request(1, &Request::Ping));
        let f2 = frame(&encode_request(2, &Request::Ping));
        let joined = [f1.clone(), f2.clone()].concat();
        // Feed byte by byte: frames pop exactly when complete.
        let mut got = Vec::new();
        for &b in &joined {
            rb.fill(&mut &[b][..]).unwrap();
            while let Some(p) = rb.next_frame(1024).unwrap() {
                got.push(p.to_vec());
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], encode_request(1, &Request::Ping));
        assert_eq!(got[1], encode_request(2, &Request::Ping));
        assert!(rb.pending().is_empty());
    }

    #[test]
    fn write_buf_partial_drain() {
        struct Dribble(Vec<u8>);
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut wb = WriteBuf::default();
        let f1 = frame(b"hello");
        let f2 = frame(b"world!");
        wb.push(&f1);
        wb.push(&f2);
        let total = wb.len();
        assert_eq!(total, f1.len() + f2.len());
        let mut sink = Dribble(Vec::new());
        assert!(wb.flush(&mut sink).unwrap());
        assert!(wb.is_empty());
        assert_eq!(sink.0, [f1, f2].concat());
    }

    /// A socket stand-in that counts syscalls. Each `read` returns up
    /// to the next of `splits` bytes (cycling; `usize::MAX` means all
    /// that is available), then `WouldBlock` once the input is gone.
    /// Each `write` takes everything offered.
    struct Socket {
        input: Vec<u8>,
        pos: usize,
        splits: Vec<usize>,
        reads: usize,
        out: Vec<u8>,
        writes: usize,
    }

    impl Socket {
        fn new(input: Vec<u8>, splits: Vec<usize>) -> Socket {
            Socket {
                input,
                pos: 0,
                splits,
                reads: 0,
                out: Vec::new(),
                writes: 0,
            }
        }

        fn drained(&self) -> bool {
            self.pos == self.input.len()
        }
    }

    impl Read for Socket {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let split = self.splits[self.reads % self.splits.len()];
            self.reads += 1;
            if self.drained() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = split.min(buf.len()).min(self.input.len() - self.pos);
            buf[..n].copy_from_slice(&self.input[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl Write for Socket {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn request(k: u64) -> Request {
        match k % 4 {
            0 => Request::Ping,
            1 => Request::Out(tuple![Value::atom("keys"), k as i64, 2i64]),
            2 => Request::Rdp(pattern![Value::atom("keys"), any, k as i64]),
            _ => Request::Cancel(k),
        }
    }

    fn decode_all(rb: &mut ReadBuf, got: &mut Vec<(u64, Request)>) {
        while let Some(p) = rb.next_frame(wire::DEFAULT_MAX_FRAME).unwrap() {
            got.push(decode_request(p).unwrap());
        }
    }

    proptest! {
        /// However the socket splits a pipelined stream, the frames
        /// decode to exactly the requests sent, in order.
        #[test]
        fn read_splits_decode_every_request(
            n in 1u64..=64,
            splits in proptest::collection::vec(
                prop_oneof![1usize..64, Just(usize::MAX)], 1..16),
        ) {
            let sent: Vec<(u64, Request)> = (0..n).map(|k| (k, request(k))).collect();
            let input: Vec<u8> = sent
                .iter()
                .flat_map(|(id, r)| frame(&encode_request(*id, r)))
                .collect();
            let mut sock = Socket::new(input, splits);
            let mut rb = ReadBuf::default();
            let mut got = Vec::new();
            while !sock.drained() {
                prop_assert_eq!(rb.fill(&mut sock).unwrap(), FillOutcome::Open);
                decode_all(&mut rb, &mut got);
            }
            prop_assert_eq!(got, sent);
            prop_assert!(rb.pending().is_empty());
        }
    }

    #[test]
    fn a_read_that_fills_the_room_is_followed_by_another() {
        // More than the starting room: the first read fills it exactly,
        // the rest must still arrive in the same pass.
        let sent: Vec<(u64, Request)> = (0..200).map(|k| (k, request(k))).collect();
        let input: Vec<u8> = sent
            .iter()
            .flat_map(|(id, r)| frame(&encode_request(*id, r)))
            .collect();
        assert!(input.len() > MIN_ROOM);
        let mut sock = Socket::new(input, vec![usize::MAX]);
        let mut rb = ReadBuf::default();
        assert_eq!(rb.fill(&mut sock).unwrap(), FillOutcome::Open);
        let mut got = Vec::new();
        decode_all(&mut rb, &mut got);
        assert_eq!(got, sent);
    }

    #[test]
    fn one_request_costs_one_read_and_its_reply_one_write() {
        let req = frame(&encode_request(1, &request(1)));
        assert_eq!(req.len(), 48);
        let mut sock = Socket::new(req, vec![usize::MAX]);
        let mut rb = ReadBuf::default();
        rb.fill(&mut sock).unwrap();
        assert_eq!(sock.reads, 1, "a short read drained the socket");
        let mut got = Vec::new();
        decode_all(&mut rb, &mut got);
        assert_eq!(got, vec![(1, request(1))]);

        let mut wb = WriteBuf::default();
        wb.push_response(1, &Response::Ok);
        assert!(wb.flush(&mut sock).unwrap());
        assert_eq!(sock.writes, 1);
    }

    #[test]
    fn a_burst_that_fits_costs_one_read_and_its_replies_one_write() {
        let input: Vec<u8> = (0..64)
            .flat_map(|k| frame(&encode_request(k, &request(k))))
            .collect();
        assert!(input.len() < MIN_ROOM);
        let mut sock = Socket::new(input, vec![usize::MAX]);
        let mut rb = ReadBuf::default();
        rb.fill(&mut sock).unwrap();
        assert_eq!(sock.reads, 1);
        let mut got = Vec::new();
        decode_all(&mut rb, &mut got);
        assert_eq!(got.len(), 64);

        let mut wb = WriteBuf::default();
        let mut expected = Vec::new();
        for k in 0..100 {
            let resp = Response::Tuple(tuple![Value::atom("keys"), k as i64]);
            wb.push_response(k, &resp);
            expected.extend(frame(&wire::encode_response(k, &resp)));
        }
        assert!(wb.flush(&mut sock).unwrap());
        assert_eq!(sock.writes, 1);
        assert_eq!(sock.out, expected);
    }
}
