//! Per-segment inverted indexes (paper §4.1, figure 3).
//!
//! "For each segment, an inverted index is built to map values of the
//! indexed column to a postings list, which stores row offsets in the
//! segment with that value." The index is built once when the segment is
//! created and never changes. The *entry offset* of each distinct value is
//! what the global index stores inline, so a lookup lands directly on the
//! right postings list with no extra indirection.
//!
//! NULL values are not indexed (IS NULL predicates use scans), matching
//! common secondary-index semantics.

use std::collections::BTreeMap;
use std::sync::Arc;

use s2_common::io::{ByteReader, ByteWriter};
use s2_common::{Error, Result, Value};

use crate::postings::{encode_postings, for_each_posting, PostingsReader};

/// Inverted-index blob magic ("S2IV").
pub const INVERTED_MAGIC: u32 = 0x5649_3253;

/// Builds an inverted index while a segment is being created.
#[derive(Default)]
pub struct InvertedIndexBuilder {
    map: BTreeMap<Value, Vec<u32>>,
}

impl InvertedIndexBuilder {
    /// Empty builder.
    pub fn new() -> InvertedIndexBuilder {
        InvertedIndexBuilder::default()
    }

    /// Record that `value` occurs at segment row `row`. Rows must be added in
    /// ascending order per value (segment build order guarantees this).
    /// NULLs are skipped.
    pub fn add(&mut self, value: &Value, row: u32) {
        if value.is_null() {
            return;
        }
        self.map.entry(value.clone()).or_default().push(row);
    }

    /// Number of distinct indexed values so far.
    pub fn distinct(&self) -> usize {
        self.map.len()
    }

    /// Serialize into an immutable [`InvertedIndex`].
    pub fn finish(self) -> InvertedIndex {
        let n = self.map.len();
        // Entries first (into a scratch buffer) to learn their offsets.
        let mut entries = ByteWriter::new();
        let mut directory: Vec<(u64, u32)> = Vec::with_capacity(n); // (hash, entry_off)
        for (value, rows) in &self.map {
            directory.push((value.hash64(), entries.len() as u32));
            entries.put_value(value);
            encode_postings(&mut entries, rows);
        }
        let mut w = ByteWriter::with_capacity(entries.len() + n * 12 + 16);
        w.put_u32(INVERTED_MAGIC);
        w.put_varint(n as u64);
        // Directory: (hash, offset) pairs in value order; offsets are relative
        // to the entries section. The absolute entry offset handed to the
        // global index is `entries_start + rel`.
        for (hash, off) in &directory {
            w.put_u64(*hash);
            w.put_u32(*off);
        }
        let entries_start = w.len();
        w.put_raw(entries.as_slice());
        InvertedIndex { bytes: Arc::new(w.into_bytes()), n_entries: n, entries_start }
    }
}

/// An immutable per-segment inverted index.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    bytes: Arc<Vec<u8>>,
    n_entries: usize,
    entries_start: usize,
}

impl InvertedIndex {
    /// Parse a serialized index.
    pub fn from_bytes(bytes: Arc<Vec<u8>>) -> Result<InvertedIndex> {
        let mut r = ByteReader::new(&bytes);
        let magic = r.get_u32()?;
        if magic != INVERTED_MAGIC {
            return Err(Error::Corruption(format!("bad inverted index magic {magic:#x}")));
        }
        let n_entries = r.get_varint()? as usize;
        let dir_start = r.position();
        let entries_start = dir_start + n_entries * 12;
        if entries_start > bytes.len() {
            return Err(Error::Corruption("inverted index directory truncated".into()));
        }
        Ok(InvertedIndex { bytes: Arc::clone(&bytes), n_entries, entries_start })
    }

    /// The serialized bytes (for bundling into data files).
    pub fn as_bytes(&self) -> &Arc<Vec<u8>> {
        &self.bytes
    }

    /// Number of distinct indexed values.
    pub fn entry_count(&self) -> usize {
        self.n_entries
    }

    fn dir_entry(&self, i: usize) -> (u64, u32) {
        let off = 4 + varint_len(self.n_entries as u64) + i * 12;
        let hash = u64::from_le_bytes(self.bytes[off..off + 8].try_into().unwrap());
        let rel = u32::from_le_bytes(self.bytes[off + 8..off + 12].try_into().unwrap());
        (hash, rel)
    }

    /// Iterate `(value_hash, absolute_entry_offset)` pairs for global-index
    /// construction.
    pub fn iter_entries(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        (0..self.n_entries).map(move |i| {
            let (hash, rel) = self.dir_entry(i);
            (hash, (self.entries_start + rel as usize) as u32)
        })
    }

    /// Open the entry at `entry_off` (an offset produced by
    /// [`InvertedIndex::iter_entries`]), verifying the probe value matches
    /// (hash collisions are resolved here, since the global index stores only
    /// hashes — paper §4.1). Returns the postings reader, or `None` on a
    /// collision mismatch.
    pub fn postings_at(&self, entry_off: u32, probe: &Value) -> Result<Option<PostingsReader<'_>>> {
        let mut r = ByteReader::new(&self.bytes);
        r.seek(entry_off as usize)?;
        let stored = r.get_value()?;
        if &stored != probe {
            return Ok(None);
        }
        Ok(Some(PostingsReader::open(&self.bytes, r.position())?))
    }

    /// Visit every posting as `(value_hash, absolute_entry_offset, row)`,
    /// entry by entry in value order and rows ascending within an entry. No
    /// value is decoded: this is how a multi-column tuple index learns, for
    /// every row, the hash and entry offset of each key column without ever
    /// materializing the row (paper §4.1.1). Rows absent from every entry are
    /// the column's NULL rows.
    pub fn for_each_posting(&self, mut f: impl FnMut(u64, u32, u32)) -> Result<()> {
        for (hash, entry_off) in self.iter_entries() {
            let mut r = ByteReader::new(&self.bytes);
            r.seek(entry_off as usize)?;
            r.skip_value()?;
            for_each_posting(&self.bytes, r.position(), |row| f(hash, entry_off, row))?;
        }
        Ok(())
    }

    /// Direct lookup by value (binary search over the value-ordered entries;
    /// used for rebuilds and tests — the query path goes through the global
    /// index).
    pub fn lookup(&self, probe: &Value) -> Result<Option<PostingsReader<'_>>> {
        // The directory is ordered by value; compare by decoding entries.
        let mut lo = 0usize;
        let mut hi = self.n_entries;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let (_, rel) = self.dir_entry(mid);
            let off = self.entries_start + rel as usize;
            let mut r = ByteReader::new(&self.bytes);
            r.seek(off)?;
            let v = r.get_value()?;
            match v.total_cmp(probe) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    return Ok(Some(PostingsReader::open(&self.bytes, r.position())?));
                }
            }
        }
        Ok(None)
    }
}

fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(values: &[(&str, &[u32])]) -> InvertedIndex {
        let mut b = InvertedIndexBuilder::new();
        for (v, rows) in values {
            for &r in *rows {
                b.add(&Value::str(*v), r);
            }
        }
        b.finish()
    }

    #[test]
    fn lookup_by_value() {
        let ix = build(&[("apple", &[1, 5, 9]), ("banana", &[2]), ("cherry", &[0, 3])]);
        assert_eq!(ix.entry_count(), 3);
        let mut p = ix.lookup(&Value::str("apple")).unwrap().unwrap();
        assert_eq!(p.collect_remaining().unwrap(), vec![1, 5, 9]);
        assert!(ix.lookup(&Value::str("durian")).unwrap().is_none());
    }

    #[test]
    fn entry_offsets_resolve_with_verification() {
        let ix = build(&[("x", &[1]), ("y", &[2, 3])]);
        let entries: Vec<(u64, u32)> = ix.iter_entries().collect();
        assert_eq!(entries.len(), 2);
        for (hash, off) in entries {
            // Find which value this entry belongs to by probing both.
            let px = ix.postings_at(off, &Value::str("x")).unwrap();
            let py = ix.postings_at(off, &Value::str("y")).unwrap();
            assert!(px.is_some() ^ py.is_some(), "exactly one value matches");
            if let Some(mut p) = px {
                assert_eq!(hash, Value::str("x").hash64());
                assert_eq!(p.collect_remaining().unwrap(), vec![1]);
            }
        }
        // A collision probe with the wrong value is rejected.
        let (_, off0) = ix.iter_entries().next().unwrap();
        assert!(ix.postings_at(off0, &Value::str("zzz")).unwrap().is_none());
    }

    #[test]
    fn for_each_posting_walks_every_row_once() {
        // Long enough to cross a postings block boundary.
        let many: Vec<u32> = (0..300).map(|i| i * 2).collect();
        let ix = build(&[("a", &many), ("b", &[1, 5]), ("c", &[3])]);
        let offsets: Vec<(u64, u32)> = ix.iter_entries().collect();
        let mut seen: Vec<(u64, u32, u32)> = Vec::new();
        ix.for_each_posting(|h, off, row| seen.push((h, off, row))).unwrap();
        let mut want = Vec::new();
        for ((h, off), rows) in offsets.iter().zip([&many[..], &[1, 5], &[3]]) {
            want.extend(rows.iter().map(|&r| (*h, *off, r)));
        }
        assert_eq!(seen, want);
        assert_eq!(offsets[1].0, Value::str("b").hash64());
    }

    #[test]
    fn nulls_not_indexed() {
        let mut b = InvertedIndexBuilder::new();
        b.add(&Value::Null, 0);
        b.add(&Value::Int(1), 1);
        let ix = b.finish();
        assert_eq!(ix.entry_count(), 1);
        assert!(ix.lookup(&Value::Null).unwrap().is_none());
    }

    #[test]
    fn serialization_roundtrip() {
        let ix = build(&[("a", &[0, 1, 2]), ("b", &[3])]);
        let back = InvertedIndex::from_bytes(Arc::clone(ix.as_bytes())).unwrap();
        let mut p = back.lookup(&Value::str("a")).unwrap().unwrap();
        assert_eq!(p.collect_remaining().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn int_values_ordered() {
        let mut b = InvertedIndexBuilder::new();
        for (v, r) in [(100i64, 0u32), (5, 1), (50, 2), (5, 3)] {
            b.add(&Value::Int(v), r);
        }
        let ix = b.finish();
        let mut p = ix.lookup(&Value::Int(5)).unwrap().unwrap();
        assert_eq!(p.collect_remaining().unwrap(), vec![1, 3]);
        assert!(ix.lookup(&Value::Int(7)).unwrap().is_none());
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(InvertedIndex::from_bytes(Arc::new(vec![0, 1, 2, 3, 4])).is_err());
    }
}
