//! Log record framing.
//!
//! The WAL is deliberately ignorant of record *semantics*: the storage engine
//! (s2-core) serializes its operations into opaque payloads and tags them
//! with a kind byte. This crate owns framing, checksums and positions.
//!
//! Frame layout: `magic u32 | kind u8 | len u32 | payload | crc32` where the
//! CRC covers kind, len and payload. A record's [`LogPosition`] is the byte
//! offset of its magic word in the partition's log stream.

use s2_common::crc::crc32;
use s2_common::{Error, LogPosition, Result};

/// Frame magic ("S2LG" little-endian).
pub const RECORD_MAGIC: u32 = 0x474C_3253;

/// Fixed framing overhead per record (magic + kind + len + crc).
pub const RECORD_OVERHEAD: usize = 4 + 1 + 4 + 4;

/// Append one framed record to `out`.
pub fn encode_record(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    out.reserve(RECORD_OVERHEAD + payload.len());
    out.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
    let body = out.len();
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[body..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Length of the longest prefix of `buf` made of whole, checksum-valid
/// frames. Recovery truncates the log here: anything past it is a torn tail
/// from a crash mid-append (or trailing garbage) and was never acknowledged —
/// acks only ever cover synced, CRC-complete prefixes.
pub fn valid_prefix_len(buf: &[u8]) -> usize {
    let mut it = RecordIter::new(buf, 0);
    for rec in it.by_ref() {
        if rec.is_err() {
            break;
        }
    }
    it.consumed_lp() as usize
}

/// One decoded record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedRecord<'a> {
    /// Byte offset of the record's start in the log stream.
    pub lp: LogPosition,
    /// Byte offset just past the record (the next record's position).
    pub end_lp: LogPosition,
    /// Record kind tag (interpreted by s2-core).
    pub kind: u8,
    /// Opaque payload.
    pub payload: &'a [u8],
}

/// Iterator over framed records in a contiguous log byte range.
///
/// A *cleanly truncated* tail (fewer bytes than a full frame, or a frame whose
/// payload is cut off) ends iteration silently — that is the expected state
/// after a crash mid-append. A corrupt frame (bad magic or CRC in the middle
/// of otherwise-intact data) yields an error.
pub struct RecordIter<'a> {
    buf: &'a [u8],
    /// Log position of `buf[0]`.
    base_lp: LogPosition,
    pos: usize,
    failed: bool,
}

impl<'a> RecordIter<'a> {
    /// Iterate records in `buf`, which starts at log position `base_lp`.
    pub fn new(buf: &'a [u8], base_lp: LogPosition) -> RecordIter<'a> {
        RecordIter { buf, base_lp, pos: 0, failed: false }
    }

    /// Log position the iterator has consumed up to (end of last good record).
    pub fn consumed_lp(&self) -> LogPosition {
        self.base_lp + self.pos as u64
    }
}

/// Read a little-endian u32 at `at`; the caller has already verified the
/// slice is long enough, so a short slice is handled without panicking by
/// reading what would be an impossible length/magic (all-ones).
fn le_u32(buf: &[u8], at: usize) -> u32 {
    match buf.get(at..at + 4) {
        Some(b) => u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
        None => u32::MAX,
    }
}

impl<'a> Iterator for RecordIter<'a> {
    type Item = Result<DecodedRecord<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.pos >= self.buf.len() {
            return None;
        }
        let rest = &self.buf[self.pos..];
        if rest.len() < RECORD_OVERHEAD {
            return None; // truncated tail
        }
        let magic = le_u32(rest, 0);
        if magic != RECORD_MAGIC {
            self.failed = true;
            return Some(Err(Error::Corruption(format!(
                "bad record magic {magic:#x} at lp {}",
                self.consumed_lp()
            ))));
        }
        let kind = rest[4];
        let len = le_u32(rest, 5) as usize;
        let total = RECORD_OVERHEAD + len;
        if rest.len() < total {
            return None; // truncated tail
        }
        let payload = &rest[9..9 + len];
        let stored_crc = le_u32(rest, 9 + len);
        let actual = crc32(&rest[4..9 + len]);
        if stored_crc != actual {
            self.failed = true;
            return Some(Err(Error::Corruption(format!(
                "record crc mismatch at lp {}",
                self.consumed_lp()
            ))));
        }
        let lp = self.consumed_lp();
        self.pos += total;
        Some(Ok(DecodedRecord { lp, end_lp: self.base_lp + self.pos as u64, kind, payload }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_multiple() {
        let mut buf = Vec::new();
        encode_record(&mut buf, 1, b"hello");
        encode_record(&mut buf, 2, b"");
        encode_record(&mut buf, 3, &[0xAB; 1000]);
        let records: Vec<_> = RecordIter::new(&buf, 0).map(|r| r.unwrap()).collect();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].kind, 1);
        assert_eq!(records[0].payload, b"hello");
        assert_eq!(records[0].lp, 0);
        assert_eq!(records[1].lp, records[0].end_lp);
        assert_eq!(records[2].payload.len(), 1000);
    }

    #[test]
    fn base_lp_offsets_positions() {
        let mut buf = Vec::new();
        encode_record(&mut buf, 1, b"x");
        let recs: Vec<_> = RecordIter::new(&buf, 500).map(|r| r.unwrap()).collect();
        assert_eq!(recs[0].lp, 500);
        assert_eq!(recs[0].end_lp, 500 + buf.len() as u64);
    }

    #[test]
    fn truncated_tail_stops_silently() {
        let mut buf = Vec::new();
        encode_record(&mut buf, 1, b"first");
        let good_len = buf.len();
        encode_record(&mut buf, 2, b"second-record");
        // Cut mid-way through the second record.
        let cut = &buf[..good_len + 6];
        let mut it = RecordIter::new(cut, 0);
        assert!(it.next().unwrap().is_ok());
        assert!(it.next().is_none());
        assert_eq!(it.consumed_lp(), good_len as u64);
    }

    #[test]
    fn corrupt_crc_is_error() {
        let mut buf = Vec::new();
        encode_record(&mut buf, 1, b"payload");
        let n = buf.len();
        buf[n - 6] ^= 0xFF; // flip a payload byte, CRC now mismatches
        let mut it = RecordIter::new(&buf, 0);
        assert!(it.next().unwrap().is_err());
        assert!(it.next().is_none(), "iteration halts after corruption");
    }

    #[test]
    fn valid_prefix_stops_at_truncation_and_corruption() {
        let mut buf = Vec::new();
        encode_record(&mut buf, 1, b"first");
        let b1 = buf.len();
        encode_record(&mut buf, 2, b"second");
        let b2 = buf.len();
        assert_eq!(valid_prefix_len(&buf), b2);
        assert_eq!(valid_prefix_len(&buf[..b2 - 3]), b1, "torn second frame");
        assert_eq!(valid_prefix_len(&buf[..b1 + 2]), b1, "tiny tail fragment");
        let mut corrupt = buf.clone();
        corrupt[b1 + 1] ^= 0xFF; // kind byte of second frame -> CRC mismatch
        assert_eq!(valid_prefix_len(&corrupt), b1);
        assert_eq!(valid_prefix_len(&[]), 0);
    }

    #[test]
    fn bad_magic_is_error() {
        let mut buf = Vec::new();
        encode_record(&mut buf, 1, b"payload");
        buf[0] = 0;
        let mut it = RecordIter::new(&buf, 0);
        assert!(it.next().unwrap().is_err());
    }
}
