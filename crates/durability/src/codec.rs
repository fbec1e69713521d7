//! Binary encoding for WAL frames and snapshot payloads.
//!
//! Everything is little-endian and length-prefixed. Floats are stored
//! as their raw bit pattern (`f64::to_bits`) so replay reproduces the
//! store bit-for-bit; atoms and strings are stored by spelling because
//! interner ids are process-local and would not survive a restart.

use sdl_tuple::{Atom, ProcId, Tuple, TupleId, Value};

/// Bytes of framing in front of every payload: `u32` length + `u32` CRC.
pub(crate) const FRAME_HEADER: usize = 8;

/// Decoding failures carry a human-readable reason; the caller wraps
/// them into [`crate::WalError::Corrupt`] with file context.
pub(crate) type DecodeResult<T> = Result<T, String>;

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

/// Wraps a payload in a `[len][crc][payload]` frame.
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

#[derive(Default)]
pub(crate) struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn new() -> Enc {
        Enc::default()
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn id(&mut self, id: TupleId) {
        self.u64(id.owner.0);
        self.u64(id.seq);
    }

    pub(crate) fn value(&mut self, v: &Value) {
        match v {
            Value::Bool(b) => {
                self.u8(0);
                self.u8(*b as u8);
            }
            Value::Int(i) => {
                self.u8(1);
                self.i64(*i);
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

    pub(crate) fn tuple(&mut self, t: &Tuple) {
        self.u32(t.arity() as u32);
        for v in t.fields() {
            self.value(v);
        }
    }
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "payload truncated: wanted {n} bytes at offset {}",
                self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn i64(&mut self) -> DecodeResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn str(&mut self) -> DecodeResult<&'a str> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|e| format!("invalid utf-8 in string: {e}"))
    }

    pub(crate) fn id(&mut self) -> DecodeResult<TupleId> {
        let owner = ProcId(self.u64()?);
        let seq = self.u64()?;
        Ok(TupleId { owner, seq })
    }

    pub(crate) fn value(&mut self) -> DecodeResult<Value> {
        match self.u8()? {
            0 => Ok(Value::Bool(self.u8()? != 0)),
            1 => Ok(Value::Int(self.i64()?)),
            2 => Ok(Value::Float(f64::from_bits(self.u64()?))),
            3 => Ok(Value::Atom(Atom::new(self.str()?))),
            4 => Ok(Value::Str(self.str()?.into())),
            5 => Ok(Value::Pid(ProcId(self.u64()?))),
            6 => Ok(Value::Tid(self.id()?)),
            tag => Err(format!("unknown value tag {tag}")),
        }
    }

    pub(crate) fn tuple(&mut self) -> DecodeResult<Tuple> {
        let arity = self.u32()? as usize;
        if arity > self.buf.len() - self.pos {
            // Every field costs at least one byte; reject absurd arities
            // before allocating.
            return Err(format!("tuple arity {arity} exceeds remaining payload"));
        }
        let mut fields = Vec::with_capacity(arity);
        for _ in 0..arity {
            fields.push(self.value()?);
        }
        Ok(Tuple::new(fields))
    }

    pub(crate) fn done(&self) -> DecodeResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            ))
        }
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
        let mut enc = Enc::new();
        for v in &vals {
            enc.value(v);
        }
        let mut dec = Dec::new(&enc.buf);
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
        let mut enc = Enc::new();
        enc.tuple(&t);
        let mut dec = Dec::new(&enc.buf);
        assert_eq!(dec.tuple().unwrap(), t);
        dec.done().unwrap();
    }

    #[test]
    fn truncated_payloads_are_rejected() {
        let mut enc = Enc::new();
        enc.value(&Value::Int(123));
        let mut dec = Dec::new(&enc.buf[..enc.buf.len() - 1]);
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
