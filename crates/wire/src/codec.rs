//! Byte-level primitives of es-wire-v1.
//!
//! Everything on the wire is little-endian. Floats travel as their
//! exact IEEE-754 bit patterns (`f64::to_bits`), so a schedule that
//! crosses a process boundary compares bitwise-equal to one computed
//! locally — the property the chaos invariant (DESIGN.md §13) rests
//! on. The reader is strict: every length is validated against the
//! bytes actually present *before* any allocation, every enum tag
//! must be known, and a fully decoded payload must leave no trailing
//! bytes. Corrupt input yields a typed [`WireError`], never a panic
//! and never an attempt to allocate what a forged length prefix
//! claims.

use std::fmt;

/// Protocol magic, written once per stream before any frame.
pub const MAGIC: [u8; 6] = *b"ESWIRE";

/// Current protocol version. v2 added `Request.tenant` and the
/// per-tenant shed counters in `DriverStats`; v3 added a
/// column-snapshot restore flag to the request's tuning; v4 dropped it
/// again with the snapshot restore itself; v5 dropped the tuning from
/// `Request` altogether, so workers always schedule with the default
/// tuning. Both sides of a stream must speak the same version (the
/// preamble check rejects mixes; driver, workers and clients ship from
/// one build).
pub const PROTOCOL_VERSION: u16 = 5;

/// Hard ceiling on one frame's payload. A forged length prefix above
/// this is rejected before allocation; the largest legitimate frames
/// (schedules for paper-sized instances) stay far below it.
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// Everything that can go wrong while decoding es-wire-v1 bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before a fixed-size field was complete.
    Truncated {
        /// Bytes the decoder needed next.
        need: usize,
        /// Bytes that were actually left.
        have: usize,
    },
    /// The stream preamble does not start with [`MAGIC`].
    BadMagic([u8; 6]),
    /// The stream speaks a protocol version this build does not.
    UnsupportedVersion(u16),
    /// A frame payload began with an unknown frame tag.
    UnknownFrameTag(u8),
    /// An enum field carried a tag outside its known range.
    UnknownEnumTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A frame length prefix exceeded [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The claimed payload length.
        len: usize,
    },
    /// A collection claimed more elements than the remaining bytes
    /// could possibly hold — rejected before any allocation.
    LengthOverflow {
        /// Which collection was being decoded.
        what: &'static str,
        /// The claimed element count.
        claimed: usize,
        /// Bytes remaining in the payload.
        remaining: usize,
    },
    /// A string field was not valid UTF-8.
    BadUtf8 {
        /// Which field was being decoded.
        what: &'static str,
    },
    /// A field's value was syntactically decodable but semantically
    /// out of range (e.g. a bool byte that is neither 0 nor 1).
    BadValue {
        /// Which field was being decoded.
        what: &'static str,
        /// What was wrong with it.
        detail: String,
    },
    /// A payload decoded completely but left unconsumed bytes.
    TrailingBytes {
        /// How many bytes were left over.
        count: usize,
    },
    /// An empty (zero-length) frame payload.
    EmptyFrame,
    /// An underlying I/O failure while reading or writing a stream.
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated input: needed {need} more bytes, have {have}")
            }
            WireError::BadMagic(m) => write!(f, "bad stream magic {m:?}"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            WireError::UnknownFrameTag(t) => write!(f, "unknown frame tag {t}"),
            WireError::UnknownEnumTag { what, tag } => {
                write!(f, "unknown {what} tag {tag}")
            }
            WireError::FrameTooLarge { len } => {
                write!(
                    f,
                    "frame length {len} exceeds the {MAX_FRAME_LEN}-byte ceiling"
                )
            }
            WireError::LengthOverflow {
                what,
                claimed,
                remaining,
            } => write!(
                f,
                "{what} claims {claimed} elements but only {remaining} bytes remain"
            ),
            WireError::BadUtf8 { what } => write!(f, "{what} is not valid UTF-8"),
            WireError::BadValue { what, detail } => write!(f, "bad {what}: {detail}"),
            WireError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after a complete payload")
            }
            WireError::EmptyFrame => write!(f, "empty frame payload"),
            WireError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

/// Growable little-endian byte writer for one frame payload.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a bool as one strict byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(u32::try_from(s.len()).expect("string below 4 GiB"));
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Strict cursor over one frame payload.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from `buf`, starting at its first byte.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a strict bool byte (anything but 0 or 1 is an error).
    pub fn get_bool(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::BadValue {
                what,
                detail: format!("bool byte {other}"),
            }),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self, what: &'static str) -> Result<String, WireError> {
        let len = self.get_u32()? as usize;
        if len > self.remaining() {
            return Err(WireError::LengthOverflow {
                what,
                claimed: len,
                remaining: self.remaining(),
            });
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8 { what })
    }

    /// Read a collection length prefix, validated against the bytes
    /// that actually remain: a claim of `n` elements each at least
    /// `min_elem_size` bytes wide must fit in the rest of the payload.
    /// This is what makes a forged 4-billion-element vector a cheap
    /// typed error instead of an OOM-scale allocation.
    pub fn get_len(
        &mut self,
        what: &'static str,
        min_elem_size: usize,
    ) -> Result<usize, WireError> {
        let claimed = self.get_u32()? as usize;
        let fits = claimed
            .checked_mul(min_elem_size.max(1))
            .is_some_and(|bytes| bytes <= self.remaining());
        if !fits {
            return Err(WireError::LengthOverflow {
                what,
                claimed,
                remaining: self.remaining(),
            });
        }
        Ok(claimed)
    }

    /// Assert the whole payload was consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                count: self.remaining(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.0);
        w.put_bool(true);
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        // Bit-exact: -0.0 survives (a text format would lose the sign).
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_bool("flag").unwrap());
        assert_eq!(r.get_str("s").unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_typed() {
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(r.get_u32(), Err(WireError::Truncated { need: 4, have: 2 }));
    }

    #[test]
    fn strict_bool() {
        let mut r = ByteReader::new(&[2]);
        assert!(matches!(
            r.get_bool("flag"),
            Err(WireError::BadValue { what: "flag", .. })
        ));
    }

    #[test]
    fn forged_length_is_rejected_before_allocation() {
        // Claims u32::MAX elements of >= 8 bytes with 4 bytes left.
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        w.put_u32(0);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.get_len("tasks", 8),
            Err(WireError::LengthOverflow { what: "tasks", .. })
        ));
    }

    #[test]
    fn string_length_overflow_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_u32(1000);
        w.put_u8(b'x');
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.get_str("name"),
            Err(WireError::LengthOverflow { what: "name", .. })
        ));
    }

    #[test]
    fn bad_utf8_is_typed() {
        let mut w = ByteWriter::new();
        w.put_u32(2);
        w.put_u8(0xFF);
        w.put_u8(0xFE);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_str("name"), Err(WireError::BadUtf8 { what: "name" }));
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let r = ByteReader::new(&[0]);
        assert_eq!(r.finish(), Err(WireError::TrailingBytes { count: 1 }));
    }
}
