//! Payload serialization helpers.
//!
//! SOME/IP serializes arguments in network byte order (big-endian).
//! [`PayloadWriter`] and [`PayloadReader`] provide the primitive codec
//! service payloads are built with.
//!
//! Writers fill [`FrameBuf`] buffers: a [pooled](PayloadWriter::pooled)
//! writer recycles buffers from a [`FramePool`] and reserves wire-header
//! headroom so the binding can assemble the full SOME/IP frame around the
//! payload without copying it. Readers borrow — [`PayloadReader`] works
//! on any byte slice, including a [`FrameBuf`] view into a received
//! frame.

use crate::wire::HEADER_LEN;
use dear_sim::{FrameBuf, FrameMut, FramePool};
use std::error::Error;
use std::fmt;

/// Errors raised while reading a payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PayloadError {
    /// The payload ended before the requested field.
    UnexpectedEnd {
        /// Bytes requested.
        needed: usize,
        /// Bytes remaining.
        remaining: usize,
    },
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// `finish` was called with unconsumed bytes remaining.
    TrailingBytes(usize),
    /// A length prefix exceeded the remaining payload.
    LengthOutOfBounds(u32),
    /// An element count exceeded the most the receiving type holds.
    CountOutOfBounds {
        /// The count on the wire.
        count: u32,
        /// The most the type holds.
        max: u32,
    },
}

impl fmt::Display for PayloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PayloadError::UnexpectedEnd { needed, remaining } => {
                write!(
                    f,
                    "payload ended: needed {needed} bytes, {remaining} remaining"
                )
            }
            PayloadError::InvalidUtf8 => write!(f, "string field is not valid utf-8"),
            PayloadError::TrailingBytes(n) => write!(f, "{n} unconsumed payload bytes"),
            PayloadError::LengthOutOfBounds(n) => {
                write!(f, "length prefix {n} exceeds remaining payload")
            }
            PayloadError::CountOutOfBounds { count, max } => {
                write!(f, "element count {count} exceeds the bound of {max}")
            }
        }
    }
}

impl Error for PayloadError {}

/// Serializes fields into a SOME/IP payload (big-endian).
///
/// # Examples
///
/// ```
/// use dear_someip::{PayloadReader, PayloadWriter};
///
/// let mut w = PayloadWriter::new();
/// w.write_u32(7).write_string("lane").write_bool(true);
/// let bytes = w.into_bytes();
///
/// let mut r = PayloadReader::new(&bytes);
/// assert_eq!(r.read_u32()?, 7);
/// assert_eq!(r.read_string()?, "lane");
/// assert!(r.read_bool()?);
/// r.finish()?;
/// # Ok::<(), dear_someip::PayloadError>(())
/// ```
#[derive(Debug)]
pub struct PayloadWriter {
    buf: FrameMut,
}

impl Default for PayloadWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl PayloadWriter {
    /// Creates an empty writer backed by a detached (pool-less) buffer.
    #[must_use]
    pub fn new() -> Self {
        PayloadWriter {
            buf: FrameMut::detached(),
        }
    }

    /// Creates a writer backed by a recycled pool buffer, with
    /// [`HEADER_LEN`] bytes of headroom reserved so the eventual
    /// [`SomeIpMessage::into_frame`](crate::SomeIpMessage::into_frame)
    /// can wrap the wire header around the payload in place.
    #[must_use]
    pub fn pooled(pool: &FramePool) -> Self {
        let mut buf = pool.acquire();
        buf.reserve_headroom(HEADER_LEN);
        PayloadWriter { buf }
    }

    /// Appends a `u8`.
    pub fn write_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a `u16`.
    pub fn write_u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a `u32`.
    pub fn write_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a `u64`.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends an `i32`.
    #[cfg(test)]
    pub(crate) fn write_i32(&mut self, v: i32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends an `i64`.
    pub fn write_i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends an `f64`.
    #[cfg(test)]
    pub(crate) fn write_f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a `bool` as one byte.
    pub fn write_bool(&mut self, v: bool) -> &mut Self {
        self.buf.push(u8::from(v));
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn write_string(&mut self, v: &str) -> &mut Self {
        self.write_u32(u32::try_from(v.len()).expect("string too long"));
        self.buf.extend_from_slice(v.as_bytes());
        self
    }

    /// Appends a length-prefixed byte blob.
    pub fn write_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.write_u32(u32::try_from(v.len()).expect("blob too long"));
        self.buf.extend_from_slice(v);
        self
    }

    /// Finishes serialization, returning the payload as a shareable
    /// frame view (the zero-copy path).
    #[must_use]
    pub fn into_frame(self) -> FrameBuf {
        self.buf.freeze()
    }

    /// Finishes serialization, returning the payload as owned bytes.
    ///
    /// Compatibility path: this takes the buffer out of pool circulation
    /// (and, for pooled writers, shifts out the headroom). Prefer
    /// [`PayloadWriter::into_frame`] on hot paths.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf.into_payload_vec()
    }

    /// Current length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the payload is empty so far.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Deserializes fields from a SOME/IP payload (big-endian).
///
/// See [`PayloadWriter`] for a round-trip example.
#[derive(Debug, Clone)]
pub struct PayloadReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Creates a reader over payload bytes.
    #[must_use]
    pub fn new(data: &'a [u8]) -> Self {
        PayloadReader { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PayloadError> {
        let remaining = self.data.len() - self.pos;
        if remaining < n {
            return Err(PayloadError::UnexpectedEnd {
                needed: n,
                remaining,
            });
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// Returns [`PayloadError::UnexpectedEnd`] if the payload is exhausted.
    pub(crate) fn read_u8(&mut self) -> Result<u8, PayloadError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`PayloadError::UnexpectedEnd`] if the payload is exhausted.
    pub fn read_u16(&mut self) -> Result<u16, PayloadError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().expect("len")))
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`PayloadError::UnexpectedEnd`] if the payload is exhausted.
    pub fn read_u32(&mut self) -> Result<u32, PayloadError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("len")))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`PayloadError::UnexpectedEnd`] if the payload is exhausted.
    pub fn read_u64(&mut self) -> Result<u64, PayloadError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("len")))
    }

    /// Reads an `i32`.
    ///
    /// # Errors
    ///
    /// Returns [`PayloadError::UnexpectedEnd`] if the payload is exhausted.
    #[cfg(test)]
    pub(crate) fn read_i32(&mut self) -> Result<i32, PayloadError> {
        Ok(i32::from_be_bytes(self.take(4)?.try_into().expect("len")))
    }

    /// Reads an `i64`.
    ///
    /// # Errors
    ///
    /// Returns [`PayloadError::UnexpectedEnd`] if the payload is exhausted.
    pub fn read_i64(&mut self) -> Result<i64, PayloadError> {
        Ok(i64::from_be_bytes(self.take(8)?.try_into().expect("len")))
    }

    /// Reads an `f64`.
    ///
    /// # Errors
    ///
    /// Returns [`PayloadError::UnexpectedEnd`] if the payload is exhausted.
    #[cfg(test)]
    pub(crate) fn read_f64(&mut self) -> Result<f64, PayloadError> {
        Ok(f64::from_be_bytes(self.take(8)?.try_into().expect("len")))
    }

    /// Reads a `bool` (any non-zero byte is `true`).
    ///
    /// # Errors
    ///
    /// Returns [`PayloadError::UnexpectedEnd`] if the payload is exhausted.
    pub fn read_bool(&mut self) -> Result<bool, PayloadError> {
        Ok(self.read_u8()? != 0)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`PayloadError::LengthOutOfBounds`] for oversized prefixes
    /// and [`PayloadError::InvalidUtf8`] for malformed contents.
    pub fn read_string(&mut self) -> Result<String, PayloadError> {
        let len = self.read_u32()?;
        let remaining = self.data.len() - self.pos;
        if len as usize > remaining {
            return Err(PayloadError::LengthOutOfBounds(len));
        }
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PayloadError::InvalidUtf8)
    }

    /// Reads a length-prefixed byte blob.
    ///
    /// # Errors
    ///
    /// Returns [`PayloadError::LengthOutOfBounds`] for oversized prefixes.
    #[cfg(test)]
    pub(crate) fn read_bytes(&mut self) -> Result<Vec<u8>, PayloadError> {
        let len = self.read_u32()?;
        let remaining = self.data.len() - self.pos;
        if len as usize > remaining {
            return Err(PayloadError::LengthOutOfBounds(len));
        }
        Ok(self.take(len as usize)?.to_vec())
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub(crate) fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Asserts that the whole payload was consumed.
    ///
    /// # Errors
    ///
    /// Returns [`PayloadError::TrailingBytes`] if bytes remain.
    pub fn finish(&self) -> Result<(), PayloadError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(PayloadError::TrailingBytes(self.remaining()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut w = PayloadWriter::new();
        w.write_u8(1)
            .write_u16(2)
            .write_u32(3)
            .write_u64(4)
            .write_i32(-5)
            .write_i64(-6)
            .write_f64(7.5)
            .write_bool(true)
            .write_string("hello")
            .write_bytes(&[9, 9]);
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 1);
        assert_eq!(r.read_u16().unwrap(), 2);
        assert_eq!(r.read_u32().unwrap(), 3);
        assert_eq!(r.read_u64().unwrap(), 4);
        assert_eq!(r.read_i32().unwrap(), -5);
        assert_eq!(r.read_i64().unwrap(), -6);
        assert_eq!(r.read_f64().unwrap(), 7.5);
        assert!(r.read_bool().unwrap());
        assert_eq!(r.read_string().unwrap(), "hello");
        assert_eq!(r.read_bytes().unwrap(), vec![9, 9]);
        r.finish().unwrap();
    }

    #[test]
    fn big_endian_on_wire() {
        let mut w = PayloadWriter::new();
        w.write_u32(0x0102_0304);
        assert_eq!(w.into_bytes(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn short_reads_error() {
        let mut r = PayloadReader::new(&[1, 2]);
        assert!(matches!(
            r.read_u32(),
            Err(PayloadError::UnexpectedEnd {
                needed: 4,
                remaining: 2
            })
        ));
    }

    #[test]
    fn oversized_length_prefix_errors() {
        let mut w = PayloadWriter::new();
        w.write_u32(100); // length prefix claiming 100 bytes
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        assert_eq!(r.read_string(), Err(PayloadError::LengthOutOfBounds(100)));
        let mut r = PayloadReader::new(&bytes);
        assert_eq!(r.read_bytes(), Err(PayloadError::LengthOutOfBounds(100)));
    }

    #[test]
    fn invalid_utf8_errors() {
        let mut w = PayloadWriter::new();
        w.write_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        assert_eq!(r.read_string(), Err(PayloadError::InvalidUtf8));
    }

    #[test]
    fn pooled_writer_recycles_and_matches_detached_output() {
        let pool = FramePool::new();
        let reference = {
            let mut w = PayloadWriter::new();
            w.write_u32(7).write_string("lane").write_bool(true);
            w.into_bytes()
        };
        for round in 0..3u64 {
            let mut w = PayloadWriter::pooled(&pool);
            w.write_u32(7).write_string("lane").write_bool(true);
            let frame = w.into_frame();
            assert_eq!(frame, reference, "round {round}");
            let mut r = PayloadReader::new(&frame);
            assert_eq!(r.read_u32().unwrap(), 7);
            assert_eq!(r.read_string().unwrap(), "lane");
            assert!(r.read_bool().unwrap());
            r.finish().unwrap();
        }
        // One buffer serviced all three rounds.
        assert_eq!(pool.stats().created, 1);
        assert_eq!(pool.stats().reused, 2);
    }

    #[test]
    fn finish_detects_trailing_bytes() {
        let r = PayloadReader::new(&[1, 2, 3]);
        assert_eq!(r.finish(), Err(PayloadError::TrailingBytes(3)));
    }

    proptest! {
        #[test]
        fn prop_string_roundtrip(s in "\\PC{0,64}") {
            let mut w = PayloadWriter::new();
            w.write_string(&s);
            let bytes = w.into_bytes();
            let mut r = PayloadReader::new(&bytes);
            prop_assert_eq!(r.read_string().unwrap(), s);
            prop_assert!(r.finish().is_ok());
        }

        #[test]
        fn prop_numeric_roundtrip(a in any::<u64>(), b in any::<i64>(), c in any::<f64>()) {
            let mut w = PayloadWriter::new();
            w.write_u64(a).write_i64(b).write_f64(c);
            let bytes = w.into_bytes();
            let mut r = PayloadReader::new(&bytes);
            prop_assert_eq!(r.read_u64().unwrap(), a);
            prop_assert_eq!(r.read_i64().unwrap(), b);
            let rc = r.read_f64().unwrap();
            prop_assert!(rc == c || (rc.is_nan() && c.is_nan()));
        }
    }
}
