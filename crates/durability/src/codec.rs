//! The one byte format: the frame, the value layout and the record
//! layouts, shared by the write-ahead log and its snapshots, the
//! `SDLNET01` client protocol and the `SDLREPL1` replication protocol.
//!
//! Every frame is `[u32 len][u32 crc32(payload)][payload]`. Everything
//! is little-endian and length-prefixed. Floats are stored as their raw
//! bit pattern (`f64::to_bits`) so replay reproduces the store
//! bit-for-bit; atoms and strings are stored by spelling because
//! interner ids are process-local and would not survive a restart.
//!
//! [`split_frame`] is the one frame reader; each caller applies its own
//! policy to its verdict (to recovery a partial frame is a torn tail, to
//! a socket or a log tailer it means "wait"). [`Dec`] is total: hostile
//! bytes give a [`DecodeError`], never a panic or a huge allocation.

use std::fmt;

use sdl_tuple::{Atom, ProcId, Tuple, TupleId, Value};

use crate::recover::{CommitRecord, SnapshotContents};

/// Bytes of framing in front of every payload: `u32` length + `u32` CRC.
pub const FRAME_HEADER: usize = 8;

/// Largest shard count a segment header or a snapshot may claim.
pub(crate) const MAX_SHARDS: u64 = 1 << 16;

/// Magic bytes opening every segment file.
pub(crate) const SEGMENT_MAGIC: &[u8; 8] = b"SDLWAL01";
/// Magic bytes opening every snapshot file.
pub(crate) const SNAPSHOT_MAGIC: &[u8; 8] = b"SDLSNAP1";
/// Segment-header frame payload tag.
const REC_HEADER: u8 = 0;
/// Commit-record frame payload tag.
const REC_COMMIT: u8 = 1;
/// On-disk format version.
const FORMAT_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), slice-by-8:
// `CRC_TABLES[0]` is the bytewise table, and `CRC_TABLES[k][b]` is the
// CRC of byte `b` followed by `k` zero bytes, so eight table lookups
// advance the checksum by eight input bytes.
// ---------------------------------------------------------------------------

static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// CRC-32 checksum of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Why [`split_frame`] refuses the frame at the front of a buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The claimed payload length exceeds the reader's cap.
    TooLarge {
        /// Claimed payload length.
        len: usize,
        /// The reader's cap.
        max: usize,
    },
    /// The payload does not match its CRC.
    Crc,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLarge { len, max } => write!(f, "frame payload {len} exceeds cap {max}"),
            FrameError::Crc => write!(f, "frame CRC mismatch"),
        }
    }
}

/// Splits the frame at the front of `buf`: `Ok(Some(used))` when `buf`
/// starts with a whole, intact frame of `used` bytes, whose payload is
/// `buf[FRAME_HEADER..used]`; `Ok(None)` when only part of one is there.
///
/// # Errors
///
/// [`FrameError::TooLarge`] as soon as the header claims more than
/// `max` bytes (before the payload arrives), and [`FrameError::Crc`]
/// when a whole payload fails its checksum.
#[inline]
pub fn split_frame(buf: &[u8], max: usize) -> Result<Option<usize>, FrameError> {
    let Some(header) = buf.get(..FRAME_HEADER) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    if len > max {
        return Err(FrameError::TooLarge { len, max });
    }
    let Some(payload) = buf.get(FRAME_HEADER..FRAME_HEADER + len) else {
        return Ok(None);
    };
    if crc32(payload) != u32::from_le_bytes(header[4..].try_into().unwrap()) {
        return Err(FrameError::Crc);
    }
    Ok(Some(FRAME_HEADER + len))
}

/// The frame header of `payload`: its length, then its CRC.
#[inline]
fn header(payload: &[u8]) -> [u8; FRAME_HEADER] {
    let mut h = [0; FRAME_HEADER];
    h[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    h[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    h
}

/// Appends one frame to `buf` and seals it in place: a header
/// placeholder, the payload `payload` encodes after it, then the
/// length and CRC patched in.
#[inline]
pub fn frame_with(buf: &mut Vec<u8>, payload: impl FnOnce(&mut Enc<'_>)) {
    let at = buf.len();
    buf.extend_from_slice(&[0; FRAME_HEADER]);
    payload(&mut Enc(buf));
    let h = header(&buf[at + FRAME_HEADER..]);
    buf[at..at + FRAME_HEADER].copy_from_slice(&h);
}

/// Wraps a payload in a `[len][crc][payload]` frame. The CRC is taken
/// over `payload` itself: sealing the copy in place would read back
/// bytes just written, which measured slower on small frames.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&header(payload));
    out.extend_from_slice(payload);
    out
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

/// The appending encoder: writes onto the end of the caller's buffer.
pub struct Enc<'a>(pub &'a mut Vec<u8>);

impl Enc<'_> {
    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// A `u32` byte length, then the UTF-8 bytes.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }

    #[inline]
    fn id(&mut self, id: TupleId) {
        self.u64(id.owner.0);
        self.u64(id.seq);
    }

    /// A tag byte, then the value: 0 Bool (one byte), 1 Int, 2 Float
    /// (bits), 3 Atom (spelling), 4 Str, 5 Pid, 6 Tid (owner, seq).
    #[inline]
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Bool(b) => {
                self.u8(0);
                self.u8(*b as u8);
            }
            Value::Int(i) => {
                self.u8(1);
                self.u64(*i as u64);
            }
            Value::Float(f) => {
                self.u8(2);
                self.u64(f.to_bits());
            }
            Value::Atom(a) => {
                self.u8(3);
                self.str(a.as_str());
            }
            Value::Str(s) => {
                self.u8(4);
                self.str(s);
            }
            Value::Pid(p) => {
                self.u8(5);
                self.u64(p.0);
            }
            Value::Tid(t) => {
                self.u8(6);
                self.id(*t);
            }
        }
    }

    /// A `u32` arity, then each field's value.
    #[inline]
    pub fn tuple(&mut self, t: &Tuple) {
        self.u32(t.arity() as u32);
        for v in t.fields() {
            self.value(v);
        }
    }

    fn pairs(&mut self, items: &[(TupleId, Tuple)]) {
        for (id, tuple) in items {
            self.id(*id);
            self.tuple(tuple);
        }
    }

    /// A segment header: tag 0, format version, shard count, and the
    /// segment's first commit number.
    pub(crate) fn segment_header(&mut self, n_shards: u64, first_commit: u64) {
        self.u8(REC_HEADER);
        self.u32(FORMAT_VERSION);
        self.u64(n_shards);
        self.u64(first_commit);
    }

    /// A commit record: tag 1, commit number, the `u32`-counted
    /// retracted ids, then the `u32`-counted `(id, tuple)` asserts. The
    /// WAL frame's payload and the body of an `SDLREPL1` `Commit`.
    pub fn commit_record(
        &mut self,
        commit: u64,
        retracts: &[TupleId],
        asserts: &[(TupleId, Tuple)],
    ) {
        self.u8(REC_COMMIT);
        self.u64(commit);
        self.u32(retracts.len() as u32);
        for id in retracts {
            self.id(*id);
        }
        self.u32(asserts.len() as u32);
        self.pairs(asserts);
    }

    /// A snapshot: format version, commit, shard count, the per-shard
    /// id-mint cursors, then the `u64`-counted `(id, tuple)` store.
    pub(crate) fn snapshot(
        &mut self,
        commit: u64,
        n_shards: u64,
        cursors: &[u64],
        tuples: &[(TupleId, Tuple)],
    ) {
        self.u32(FORMAT_VERSION);
        self.u64(commit);
        self.u64(n_shards);
        for &c in cursors {
            self.u64(c);
        }
        self.u64(tuples.len() as u64);
        self.pairs(tuples);
    }

    /// An instance list: a `u32` count, then `(id, tuple)` pairs.
    pub fn instances(&mut self, items: &[(TupleId, Tuple)]) {
        self.u32(items.len() as u32);
        self.pairs(items);
    }
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

/// Why [`Dec`] refuses its input. It allocates nothing, so hostile
/// bytes cannot make the decoder build error messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ends before the structure it claims to hold.
    Truncated,
    /// A tag, count or field the layout does not allow.
    Malformed(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated payload"),
            DecodeError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

type DecodeResult<T> = Result<T, DecodeError>;

/// Decodes the whole of `payload` with `f`; bytes left over are refused.
///
/// # Errors
///
/// Whatever `f` refuses, and [`DecodeError::Malformed`] on trailing bytes.
#[inline]
pub fn decode<'a, T>(
    payload: &'a [u8],
    f: impl FnOnce(&mut Dec<'a>) -> DecodeResult<T>,
) -> DecodeResult<T> {
    let mut dec = Dec::new(payload);
    let v = f(&mut dec)?;
    dec.done()?;
    Ok(v)
}

/// The bounds-checked decoder over one payload.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    #[inline]
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> DecodeResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A string written by [`Enc::str`].
    #[inline]
    pub fn str(&mut self) -> DecodeResult<&'a str> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| DecodeError::Malformed("utf-8 string"))
    }

    /// A `u32` element count, refused when that many elements of at
    /// least `min_elem_size` bytes cannot fit in the input left — so a
    /// hostile count cannot drive a huge allocation.
    #[inline]
    pub fn count(&mut self, min_elem_size: usize) -> DecodeResult<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_size) > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        Ok(n)
    }

    /// Refuses bytes left over.
    #[inline]
    fn done(&self) -> DecodeResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::Malformed("trailing bytes"))
        }
    }

    #[inline]
    fn id(&mut self) -> DecodeResult<TupleId> {
        let owner = ProcId(self.u64()?);
        let seq = self.u64()?;
        Ok(TupleId { owner, seq })
    }

    /// A minted id: shards mint from seq 1, so seq 0 names no instance.
    fn minted_id(&mut self) -> DecodeResult<TupleId> {
        let id = self.id()?;
        if id.seq == 0 {
            return Err(DecodeError::Malformed("instance id (seq 0)"));
        }
        Ok(id)
    }

    /// A value written by [`Enc::value`].
    #[inline]
    pub fn value(&mut self) -> DecodeResult<Value> {
        match self.u8()? {
            0 => Ok(Value::Bool(self.u8()? != 0)),
            1 => Ok(Value::Int(self.u64()? as i64)),
            2 => Ok(Value::Float(f64::from_bits(self.u64()?))),
            3 => Ok(Value::Atom(Atom::new(self.str()?))),
            4 => Ok(Value::Str(self.str()?.into())),
            5 => Ok(Value::Pid(ProcId(self.u64()?))),
            6 => Ok(Value::Tid(self.id()?)),
            _ => Err(DecodeError::Malformed("value tag")),
        }
    }

    /// A tuple written by [`Enc::tuple`] (every value takes two bytes
    /// or more).
    #[inline]
    pub fn tuple(&mut self) -> DecodeResult<Tuple> {
        let n = self.count(2)?;
        let mut fields = Vec::with_capacity(n);
        for _ in 0..n {
            fields.push(self.value()?);
        }
        Ok(Tuple::new(fields))
    }

    /// `n` `(id, tuple)` pairs; `n` was bounded by its caller.
    fn pairs(&mut self, n: usize) -> DecodeResult<Vec<(TupleId, Tuple)>> {
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push((self.minted_id()?, self.tuple()?));
        }
        Ok(items)
    }

    /// A shard count in `1..=MAX_SHARDS`.
    fn shards(&mut self) -> DecodeResult<u64> {
        match self.u64()? {
            n @ 1..=MAX_SHARDS => Ok(n),
            _ => Err(DecodeError::Malformed("shard count")),
        }
    }

    /// A segment header of the segment named for `first_commit`,
    /// returning its shard count, which must equal `known` when earlier
    /// history fixed one.
    pub(crate) fn segment_header(
        &mut self,
        first_commit: u64,
        known: Option<u64>,
    ) -> DecodeResult<u64> {
        if self.u8()? != REC_HEADER {
            return Err(DecodeError::Malformed("segment header tag"));
        }
        if self.u32()? != FORMAT_VERSION {
            return Err(DecodeError::Malformed("format version"));
        }
        let n_shards = self.shards()?;
        if known.is_some_and(|n| n != n_shards) {
            return Err(DecodeError::Malformed(
                "shard count (differs from earlier history)",
            ));
        }
        if self.u64()? != first_commit {
            return Err(DecodeError::Malformed(
                "first commit (differs from the file name)",
            ));
        }
        Ok(n_shards)
    }

    /// A commit record written by [`Enc::commit_record`].
    pub fn commit_record(&mut self) -> DecodeResult<CommitRecord> {
        if self.u8()? != REC_COMMIT {
            return Err(DecodeError::Malformed("commit record tag"));
        }
        let commit = self.u64()?;
        let n = self.count(16)?;
        let mut retracts = Vec::with_capacity(n);
        for _ in 0..n {
            retracts.push(self.minted_id()?);
        }
        // An assert is an id (16 bytes) and a tuple (4 bytes or more).
        let n = self.count(20)?;
        let asserts = self.pairs(n)?;
        Ok(CommitRecord {
            commit,
            retracts,
            asserts,
        })
    }

    /// A snapshot of commit `name_commit` written by [`Enc::snapshot`].
    pub(crate) fn snapshot(&mut self, name_commit: u64) -> DecodeResult<SnapshotContents> {
        if self.u32()? != FORMAT_VERSION {
            return Err(DecodeError::Malformed("format version"));
        }
        let commit = self.u64()?;
        if commit != name_commit {
            return Err(DecodeError::Malformed(
                "snapshot commit (differs from the file name)",
            ));
        }
        let n_shards = self.shards()?;
        let mut cursors = Vec::with_capacity(n_shards as usize);
        for _ in 0..n_shards {
            cursors.push(self.u64()?);
        }
        let n = self.u64()?;
        if n.saturating_mul(20) > self.remaining() as u64 {
            return Err(DecodeError::Truncated);
        }
        let tuples = self.pairs(n as usize)?;
        Ok(SnapshotContents {
            commit,
            n_shards,
            cursors,
            tuples,
        })
    }

    /// An instance list written by [`Enc::instances`].
    pub fn instances(&mut self) -> DecodeResult<Vec<(TupleId, Tuple)>> {
        let n = self.count(20)?;
        self.pairs(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdl_tuple::tuple;

    /// The bytewise loop the slice-by-8 version must agree with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Every length 0..300 at every start offset 0..8 (so every
        /// alignment of the 8-byte steps and every remainder length).
        #[test]
        fn crc32_slice_by_8_matches_bytewise(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 308),
        ) {
            for start in 0..8 {
                for len in 0..300 {
                    let data = &bytes[start..start + len];
                    proptest::prop_assert_eq!(crc32(data), crc32_bytewise(data));
                }
            }
        }
    }

    #[test]
    fn values_round_trip_bit_for_bit() {
        let vals = vec![
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(-0.0),
            Value::Float(f64::from_bits(0x7FF8_0000_0000_0001)), // a NaN payload
            Value::Atom(Atom::new("hello")),
            Value::Str("wörld".into()),
            Value::Pid(ProcId(7)),
            Value::Tid(TupleId {
                owner: ProcId(3),
                seq: 99,
            }),
        ];
        let mut buf = Vec::new();
        for v in &vals {
            Enc(&mut buf).value(v);
        }
        let mut dec = Dec::new(&buf);
        for v in &vals {
            let got = dec.value().unwrap();
            match (v, &got) {
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(*v, got),
            }
        }
        dec.done().unwrap();
    }

    #[test]
    fn tuples_round_trip() {
        let t = tuple![Atom::new("point"), 1i64, 2i64];
        let mut buf = Vec::new();
        Enc(&mut buf).tuple(&t);
        let mut dec = Dec::new(&buf);
        assert_eq!(dec.tuple().unwrap(), t);
        dec.done().unwrap();
    }

    #[test]
    fn truncated_payloads_are_rejected() {
        let mut buf = Vec::new();
        Enc(&mut buf).value(&Value::Int(123));
        let mut dec = Dec::new(&buf[..buf.len() - 1]);
        assert!(dec.value().is_err());
    }

    #[test]
    fn frames_carry_a_valid_crc() {
        let f = frame(b"payload");
        let len = u32::from_le_bytes(f[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(f[4..8].try_into().unwrap());
        assert_eq!(len, 7);
        assert_eq!(crc, crc32(b"payload"));
        assert_eq!(&f[8..], b"payload");
    }
}
