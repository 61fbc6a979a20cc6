//! Little-endian binary IO helpers used by every on-disk format.
//!
//! Formats in this workspace are hand-rolled (no serde): log pages, segment
//! column blobs, inverted-index postings, global hash tables and snapshots
//! all serialize through [`ByteWriter`] / [`ByteReader`] so framing and
//! bounds checks live in one place.

use crate::error::{Error, Result};
use crate::value::Value;

/// Growable little-endian byte sink.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter { buf: Vec::new() }
    }

    /// Writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> ByteWriter {
        ByteWriter { buf: Vec::with_capacity(cap) }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Borrow the accumulated bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an i64.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an f64 (bit pattern).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append a LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Append raw bytes with no length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append varint-length-prefixed bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Append a varint-length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Append a tagged [`Value`].
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.put_u8(0),
            Value::Int(i) => {
                self.put_u8(1);
                self.put_i64(*i);
            }
            Value::Double(d) => {
                self.put_u8(2);
                self.put_f64(*d);
            }
            Value::Str(s) => {
                self.put_u8(3);
                self.put_str(s);
            }
        }
    }
}

/// Bounds-checked little-endian byte cursor.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Current position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the cursor is at end of input.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Jump to an absolute position.
    pub fn seek(&mut self, pos: usize) -> Result<()> {
        if pos > self.buf.len() {
            return Err(Error::Corruption(format!(
                "seek to {pos} past end of {}-byte buffer",
                self.buf.len()
            )));
        }
        self.pos = pos;
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::Corruption(format!(
                "unexpected end of input: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read a single byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a u16.
    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a u32.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a u64.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an i64.
    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an f64.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a LEB128 varint.
    pub fn get_varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift >= 64 {
                return Err(Error::Corruption("varint overflow".into()));
            }
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read `n` raw bytes.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Read varint-length-prefixed bytes.
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.get_varint()? as usize;
        self.take(n)
    }

    /// Read a varint-length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str> {
        let raw = self.get_bytes()?;
        std::str::from_utf8(raw).map_err(|e| Error::Corruption(format!("invalid utf-8: {e}")))
    }

    /// Read a tagged [`Value`] written by [`ByteWriter::put_value`].
    pub fn get_value(&mut self) -> Result<Value> {
        match self.get_u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(self.get_i64()?)),
            2 => Ok(Value::Double(self.get_f64()?)),
            3 => Ok(Value::str(self.get_str()?)),
            tag => Err(Error::Corruption(format!("unknown value tag {tag}"))),
        }
    }

    /// Step over a tagged [`Value`] without materializing it.
    pub fn skip_value(&mut self) -> Result<()> {
        match self.get_u8()? {
            0 => Ok(()),
            1 | 2 => self.take(8).map(|_| ()),
            3 => self.get_bytes().map(|_| ()),
            tag => Err(Error::Corruption(format!("unknown value tag {tag}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_f64(1.5);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 300);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), 1.5);
        assert!(r.is_at_end());
    }

    #[test]
    fn varint_roundtrip() {
        let cases = [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        let mut w = ByteWriter::new();
        for &c in &cases {
            w.put_varint(c);
        }
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        for &c in &cases {
            assert_eq!(r.get_varint().unwrap(), c);
        }
    }

    #[test]
    fn value_roundtrip() {
        let vals = [Value::Null, Value::Int(-9), Value::Double(2.25), Value::str("héllo")];
        let mut w = ByteWriter::new();
        for v in &vals {
            w.put_value(v);
        }
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        for v in &vals {
            assert_eq!(&r.get_value().unwrap(), v);
        }
        // Skipping lands on the same boundaries as decoding.
        let mut s = ByteReader::new(&buf);
        for _ in &vals {
            s.skip_value().unwrap();
        }
        assert!(s.is_at_end());
    }

    #[test]
    fn truncation_detected() {
        let mut w = ByteWriter::new();
        w.put_u64(5);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf[..4]);
        assert!(r.get_u64().is_err());
    }

    #[test]
    fn bad_value_tag() {
        let buf = [9u8];
        assert!(ByteReader::new(&buf).get_value().is_err());
        assert!(ByteReader::new(&buf).skip_value().is_err());
    }

    #[test]
    fn seek_bounds() {
        let buf = [0u8; 4];
        let mut r = ByteReader::new(&buf);
        assert!(r.seek(4).is_ok());
        assert!(r.seek(5).is_err());
    }
}
