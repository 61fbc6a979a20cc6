//! Postings lists: ascending row offsets, delta-varint encoded in blocks
//! with a skip directory so readers can *forward seek* (paper §4.1:
//! "S2DB's postings list format supports forward seeking, so that sections
//! in a long postings list can be skipped during the merge").

use s2_common::io::{ByteReader, ByteWriter};
use s2_common::Result;

/// Row offsets per skip block.
pub const BLOCK_SIZE: usize = 128;

/// Encode an ascending list of row offsets.
///
/// Layout: `varint count | varint n_blocks | n_blocks × (u32 first_row,
/// u32 byte_off) | delta-varint payload` where `byte_off` is relative to the
/// payload start.
pub fn encode_postings(w: &mut ByteWriter, rows: &[u32]) {
    debug_assert!(rows.windows(2).all(|p| p[0] < p[1]), "postings must be strictly ascending");
    w.put_varint(rows.len() as u64);
    let n_blocks = rows.len().div_ceil(BLOCK_SIZE);
    w.put_varint(n_blocks as u64);
    // First pass: encode payload per block to learn offsets.
    let mut payload = ByteWriter::new();
    let mut directory = Vec::with_capacity(n_blocks);
    for block in rows.chunks(BLOCK_SIZE) {
        directory.push((block[0], payload.len() as u32));
        let mut prev = 0u32;
        for (i, &r) in block.iter().enumerate() {
            // First entry of each block is absolute so blocks decode standalone.
            if i == 0 {
                payload.put_varint(r as u64);
            } else {
                payload.put_varint((r - prev) as u64);
            }
            prev = r;
        }
    }
    for (first, off) in directory {
        w.put_u32(first);
        w.put_u32(off);
    }
    w.put_raw(payload.as_slice());
}

/// Decode the whole postings list at `offset` front to back, handing every
/// row offset to `f`. The skip directory is stepped over, not parsed: bulk
/// consumers (global-index construction) read every entry anyway.
pub fn for_each_posting(buf: &[u8], offset: usize, mut f: impl FnMut(u32)) -> Result<()> {
    let mut r = ByteReader::new(buf);
    r.seek(offset)?;
    let count = r.get_varint()? as usize;
    let n_blocks = r.get_varint()? as usize;
    r.get_raw(n_blocks.saturating_mul(8))?;
    let mut row = 0u32;
    for i in 0..count {
        let delta = r.get_varint()? as u32;
        // First entry of each block is absolute.
        row = if i % BLOCK_SIZE == 0 { delta } else { row.wrapping_add(delta) };
        f(row);
    }
    Ok(())
}

/// Streaming reader over an encoded postings list with forward seeking.
pub struct PostingsReader<'a> {
    buf: &'a [u8],
    count: usize,
    /// (first_row, payload_byte_off) per block.
    directory: Vec<(u32, u32)>,
    payload_start: usize,
    /// Cursor state.
    consumed: usize,
    block: usize,
    in_block: usize,
    cursor: usize,
    prev: u32,
}

impl<'a> PostingsReader<'a> {
    /// Open a postings list at `offset` within `buf`.
    pub fn open(buf: &'a [u8], offset: usize) -> Result<PostingsReader<'a>> {
        let mut r = ByteReader::new(buf);
        r.seek(offset)?;
        let count = r.get_varint()? as usize;
        let n_blocks = r.get_varint()? as usize;
        let mut directory = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            let first = r.get_u32()?;
            let off = r.get_u32()?;
            directory.push((first, off));
        }
        let payload_start = r.position();
        Ok(PostingsReader {
            buf,
            count,
            directory,
            payload_start,
            consumed: 0,
            block: 0,
            in_block: 0,
            cursor: payload_start,
            prev: 0,
        })
    }

    /// Total entries in the list.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the list holds no entries.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    fn read_varint(&mut self) -> Result<u64> {
        let mut r = ByteReader::new(self.buf);
        r.seek(self.cursor)?;
        let v = r.get_varint()?;
        self.cursor = r.position();
        Ok(v)
    }

    /// Next row offset, or `None` at end. Not an [`Iterator`]: decoding can
    /// fail, so the signature is `Result<Option<_>>` rather than `Option<_>`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<u32>> {
        if self.consumed >= self.count {
            return Ok(None);
        }
        let delta = self.read_varint()? as u32;
        let row = if self.in_block == 0 { delta } else { self.prev + delta };
        self.prev = row;
        self.consumed += 1;
        self.in_block += 1;
        if self.in_block == BLOCK_SIZE {
            self.block += 1;
            self.in_block = 0;
        }
        Ok(Some(row))
    }

    /// Advance to the first entry `>= target`, skipping whole blocks via the
    /// directory, and return it (or `None` if the list is exhausted).
    pub fn seek(&mut self, target: u32) -> Result<Option<u32>> {
        // Jump over blocks whose successor block still starts below target.
        while self.block + 1 < self.directory.len() && self.directory[self.block + 1].0 <= target {
            self.block += 1;
            self.in_block = 0;
            self.cursor = self.payload_start + self.directory[self.block].1 as usize;
            self.consumed = self.block * BLOCK_SIZE;
            self.prev = 0;
        }
        while let Some(row) = self.next()? {
            if row >= target {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }

    /// Decode the remaining entries into a vector.
    pub fn collect_remaining(&mut self) -> Result<Vec<u32>> {
        let mut out = Vec::with_capacity(self.count - self.consumed);
        while let Some(r) = self.next()? {
            out.push(r);
        }
        Ok(out)
    }
}

/// Intersect several postings lists (AND over indexed filters, paper §4.1)
/// using forward seeking: the current candidate leapfrogs across lists.
pub fn intersect(mut readers: Vec<PostingsReader<'_>>) -> Result<Vec<u32>> {
    let mut out = Vec::new();
    if readers.is_empty() {
        return Ok(out);
    }
    if readers.iter().any(|r| r.is_empty()) {
        return Ok(out);
    }
    // Start from the first list's head.
    let mut candidate = match readers[0].next()? {
        Some(c) => c,
        None => return Ok(out),
    };
    let n = readers.len();
    let mut agreed = 1usize; // how many consecutive lists matched candidate
    let mut i = 1usize % n;
    loop {
        if agreed == n {
            out.push(candidate);
            // Advance the current list past the candidate.
            match readers[i].seek(candidate + 1)? {
                Some(next) => {
                    candidate = next;
                    agreed = 1;
                    i = (i + 1) % n;
                }
                None => break,
            }
            continue;
        }
        match readers[i].seek(candidate)? {
            None => break,
            Some(row) if row == candidate => {
                agreed += 1;
                i = (i + 1) % n;
            }
            Some(row) => {
                candidate = row;
                agreed = 1;
                i = (i + 1) % n;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(rows: &[u32]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode_postings(&mut w, rows);
        w.into_bytes()
    }

    #[test]
    fn roundtrip_small_and_large() {
        for rows in
            [vec![], vec![0u32], vec![5, 10, 1000], (0..1000).map(|i| i * 3).collect::<Vec<u32>>()]
        {
            let buf = encode(&rows);
            let mut r = PostingsReader::open(&buf, 0).unwrap();
            assert_eq!(r.len(), rows.len());
            assert_eq!(r.collect_remaining().unwrap(), rows);
        }
    }

    #[test]
    fn seek_skips_blocks() {
        let rows: Vec<u32> = (0..2000).map(|i| i * 2).collect();
        let buf = encode(&rows);
        let mut r = PostingsReader::open(&buf, 0).unwrap();
        assert_eq!(r.seek(1001).unwrap(), Some(1002));
        assert_eq!(r.next().unwrap(), Some(1004));
        assert_eq!(r.seek(3998).unwrap(), Some(3998));
        assert_eq!(r.seek(5000).unwrap(), None);
    }

    #[test]
    fn seek_is_forward_only_monotonic() {
        let rows: Vec<u32> = (0..500).collect();
        let buf = encode(&rows);
        let mut r = PostingsReader::open(&buf, 0).unwrap();
        assert_eq!(r.seek(100).unwrap(), Some(100));
        // Seeking backward returns the next entry forward (cursor never rewinds).
        assert_eq!(r.seek(50).unwrap(), Some(101));
    }

    #[test]
    fn intersect_basics() {
        let a = encode(&[1, 3, 5, 7, 9, 100, 200]);
        let b = encode(&[2, 3, 7, 8, 100, 150, 200]);
        let c = encode(&[3, 7, 99, 100, 200, 201]);
        let got = intersect(vec![
            PostingsReader::open(&a, 0).unwrap(),
            PostingsReader::open(&b, 0).unwrap(),
            PostingsReader::open(&c, 0).unwrap(),
        ])
        .unwrap();
        assert_eq!(got, vec![3, 7, 100, 200]);
    }

    #[test]
    fn intersect_with_empty_is_empty() {
        let a = encode(&[1, 2, 3]);
        let b = encode(&[]);
        let got = intersect(vec![
            PostingsReader::open(&a, 0).unwrap(),
            PostingsReader::open(&b, 0).unwrap(),
        ])
        .unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn intersect_large_skewed_lists() {
        let big: Vec<u32> = (0..10_000).collect();
        let small: Vec<u32> = vec![17, 4242, 9999];
        let a = encode(&big);
        let b = encode(&small);
        let got = intersect(vec![
            PostingsReader::open(&a, 0).unwrap(),
            PostingsReader::open(&b, 0).unwrap(),
        ])
        .unwrap();
        assert_eq!(got, small);
    }

    #[test]
    fn multiple_lists_in_one_buffer() {
        let mut w = ByteWriter::new();
        encode_postings(&mut w, &[1, 2, 3]);
        let second_off = w.len();
        encode_postings(&mut w, &[10, 20]);
        let buf = w.into_bytes();
        let mut r2 = PostingsReader::open(&buf, second_off).unwrap();
        assert_eq!(r2.collect_remaining().unwrap(), vec![10, 20]);
    }
}
