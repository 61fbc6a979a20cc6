//! Decoding: random access (`value`), vectorized decode (`decode_vector`)
//! and encoded execution (`encoded_filter`) over an [`EncodedColumn`].
//!
//! All decode paths are *seekable* (paper §2.1.2): `value(row)` touches only
//! the bytes needed for that row — O(1) for plain/bit-packed/dictionary
//! columns, O(log runs) for RLE, and one block decompression (cached) for LZ.

use s2_common::sync::{rank, Mutex};
use std::sync::Arc;

use s2_common::io::ByteReader;
use s2_common::{BitVec, DataType, Error, Result, Value};

use crate::encode::{EncodedColumn, Encoding};
use crate::vector::{ColumnVector, VectorBuilder};

/// Sequentially unpack `n` `width`-bit lanes starting at byte `bits_off`,
/// using a rolling accumulator instead of a per-lane buffered read. This is
/// the bulk path behind full-column decode and code-slice extraction; the
/// per-lane [`read_packed`] remains for point reads and sparse selections.
fn unpack_all(data: &[u8], bits_off: usize, width: u8, n: usize) -> Vec<u64> {
    if width == 0 {
        return vec![0; n];
    }
    let width = width as u32;
    let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
    let mut out = Vec::with_capacity(n);
    let mut acc: u128 = 0;
    let mut bits: u32 = 0;
    let mut pos = bits_off;
    for _ in 0..n {
        while bits < width {
            acc |= (data[pos] as u128) << bits;
            pos += 1;
            bits += 8;
        }
        out.push((acc as u64) & mask);
        acc >>= width;
        bits -= width;
    }
    out
}

/// Read one `width`-bit lane at `idx` from a packed bit stream starting at
/// byte `bits_off`.
#[inline]
fn read_packed(data: &[u8], bits_off: usize, width: u8, idx: usize) -> u64 {
    if width == 0 {
        return 0;
    }
    let bit_start = idx * width as usize;
    let byte_start = bits_off + bit_start / 8;
    let shift = bit_start % 8;
    let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
    // Fast path: the lane fits in one aligned-enough u64 window.
    if byte_start + 8 <= data.len() && shift + width as usize <= 64 {
        let v = u64::from_le_bytes(data[byte_start..byte_start + 8].try_into().unwrap()) >> shift;
        return v & mask;
    }
    let mut buf = [0u8; 16];
    let avail = (data.len() - byte_start).min(16);
    buf[..avail].copy_from_slice(&data[byte_start..byte_start + avail]);
    let v = u128::from_le_bytes(buf) >> shift;
    (v as u64) & mask
}

#[derive(Debug)]
enum Inner {
    PlainInt {
        values_off: usize,
    },
    PlainDouble {
        values_off: usize,
    },
    PlainStr {
        offsets_off: usize,
        bytes_off: usize,
    },
    BitPack {
        base: i64,
        width: u8,
        bits_off: usize,
    },
    Rle {
        n_runs: usize,
        values_off: usize,
        ends_off: usize,
    },
    DictStr {
        dict_len: usize,
        dict_offsets_off: usize,
        dict_bytes_off: usize,
        width: u8,
        codes_off: usize,
    },
    DictInt {
        dict_len: usize,
        dict_off: usize,
        width: u8,
        codes_off: usize,
    },
    LzStr {
        /// Byte offset of block `i` relative to `blocks_off`, with a final sentinel.
        dir: Vec<u64>,
        blocks_off: usize,
        /// Cache of the most recently decompressed block (block idx, plain layout).
        cache: Mutex<Option<(usize, Arc<Vec<u8>>)>>,
    },
}

/// A filter clause compiled into one segment column's code domain
/// (paper §5.2 "encoded filter"): the predicate's verdict on each entry of
/// [`ColumnReader::domain_vector`] — one accept bit per dictionary entry or
/// run, then one for NULL. Evaluated bitmap-first over every row by
/// [`ColumnReader::predicate_mask`].
#[derive(Debug, Clone)]
pub struct CodePredicate {
    accept: BitVec,
}

impl CodePredicate {
    /// Wrap the verdicts: `accept[d]` = the predicate passes for entry `d`
    /// of the column's [`ColumnReader::domain_vector`].
    pub fn new(accept: BitVec) -> CodePredicate {
        CodePredicate { accept }
    }
}

/// A parsed, random-access view over one encoded column.
#[derive(Debug)]
pub struct ColumnReader {
    data: Arc<Vec<u8>>,
    rows: usize,
    encoding: Encoding,
    nulls: Option<BitVec>,
    inner: Inner,
}

impl ColumnReader {
    /// Parse the blob header and per-encoding layout.
    pub fn open(col: &EncodedColumn) -> Result<ColumnReader> {
        let data = Arc::clone(&col.data);
        let mut r = ByteReader::new(&data);
        let tag = r.get_u8()?;
        if tag != col.encoding as u8 {
            return Err(Error::Corruption(format!(
                "encoding tag mismatch: blob has {tag}, descriptor says {:?}",
                col.encoding
            )));
        }
        let rows = r.get_varint()? as usize;
        let has_nulls = r.get_u8()? != 0;
        let nulls = if has_nulls { Some(BitVec::read_from(&mut r)?) } else { None };

        let inner = match col.encoding {
            Encoding::PlainInt => Inner::PlainInt { values_off: r.position() },
            Encoding::PlainDouble => Inner::PlainDouble { values_off: r.position() },
            Encoding::PlainStr => {
                let offsets_off = r.position();
                Inner::PlainStr { offsets_off, bytes_off: offsets_off + (rows + 1) * 4 }
            }
            Encoding::BitPackInt => {
                let base = r.get_i64()?;
                let width = r.get_u8()?;
                if width > 64 {
                    return Err(Error::Corruption(format!("bitpack width {width} > 64")));
                }
                Inner::BitPack { base, width, bits_off: r.position() }
            }
            Encoding::RleInt => {
                let n_runs = r.get_varint()? as usize;
                let values_off = r.position();
                let ends_off = values_off + n_runs * 8;
                Inner::Rle { n_runs, values_off, ends_off }
            }
            Encoding::DictStr => {
                let dict_len = r.get_varint()? as usize;
                let layout_len = r.get_varint()? as usize;
                let dict_offsets_off = r.position();
                let dict_bytes_off = dict_offsets_off + (dict_len + 1) * 4;
                r.seek(dict_offsets_off + layout_len)?;
                let width = r.get_u8()?;
                Inner::DictStr {
                    dict_len,
                    dict_offsets_off,
                    dict_bytes_off,
                    width,
                    codes_off: r.position(),
                }
            }
            Encoding::DictInt => {
                let dict_len = r.get_varint()? as usize;
                let dict_off = r.position();
                r.seek(dict_off + dict_len * 8)?;
                let width = r.get_u8()?;
                Inner::DictInt { dict_len, dict_off, width, codes_off: r.position() }
            }
            Encoding::LzStr => {
                let n_blocks = r.get_varint()? as usize;
                let mut dir = Vec::with_capacity(n_blocks + 1);
                for _ in 0..=n_blocks {
                    dir.push(r.get_varint()?);
                }
                Inner::LzStr {
                    dir,
                    blocks_off: r.position(),
                    cache: Mutex::new(&rank::ENCODING_READER, None),
                }
            }
        };
        Ok(ColumnReader { data, rows, encoding: col.encoding, nulls, inner })
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Encoding in use.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// Logical data type implied by the encoding.
    pub fn data_type(&self) -> DataType {
        match self.encoding {
            Encoding::PlainInt | Encoding::BitPackInt | Encoding::RleInt | Encoding::DictInt => {
                DataType::Int64
            }
            Encoding::PlainDouble => DataType::Double,
            Encoding::PlainStr | Encoding::DictStr | Encoding::LzStr => DataType::Str,
        }
    }

    /// Dictionary size, for encodings that have one (used by filter costing).
    pub fn dict_len(&self) -> Option<usize> {
        match &self.inner {
            Inner::DictStr { dict_len, .. } | Inner::DictInt { dict_len, .. } => Some(*dict_len),
            _ => None,
        }
    }

    /// Size of the compressed domain an encoded filter must evaluate the
    /// predicate over: dictionary entries or runs. The scan's filter costing
    /// uses this — an encoded filter is "ideal with a small set of possible
    /// values" (paper §5.2) and counterproductive when the domain approaches
    /// the row count.
    pub fn encoded_domain_size(&self) -> Option<usize> {
        match &self.inner {
            Inner::DictStr { dict_len, .. } | Inner::DictInt { dict_len, .. } => Some(*dict_len),
            Inner::Rle { n_runs, .. } => Some(*n_runs),
            _ => None,
        }
    }

    /// Whether row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.as_ref().is_some_and(|n| n.get(i))
    }

    /// The column's null bitmap, if any rows are NULL (zero-copy view).
    pub fn nulls(&self) -> Option<&BitVec> {
        self.nulls.as_ref()
    }

    /// Bulk-unpacked dictionary code per row, for dictionary encodings.
    /// NULL rows carry the code the encoder stored for them (a real dict
    /// entry holding the default value) — callers must mask with
    /// [`Self::nulls`].
    pub fn codes(&self) -> Option<Vec<u32>> {
        match &self.inner {
            Inner::DictStr { width, codes_off, .. } | Inner::DictInt { width, codes_off, .. } => {
                Some(
                    unpack_all(&self.data, *codes_off, *width, self.rows)
                        .into_iter()
                        .map(|c| c as u32)
                        .collect(),
                )
            }
            _ => None,
        }
    }

    /// Decode one dictionary entry as a [`Value`] (group-key
    /// materialization on the encoded aggregation path).
    pub fn dict_value(&self, code: usize) -> Option<Value> {
        match &self.inner {
            Inner::DictStr { .. } => Some(Value::str(self.dict_str_entry(code))),
            Inner::DictInt { dict_off, .. } => Some(Value::Int(self.i64_at(dict_off + code * 8))),
            _ => None,
        }
    }

    /// RLE runs as `(value, start, end)` row ranges, for run-length columns.
    /// NULL rows sit inside runs like any other — mask with [`Self::nulls`].
    pub fn runs(&self) -> Option<Vec<(i64, u32, u32)>> {
        if let Inner::Rle { n_runs, values_off, ends_off } = &self.inner {
            let mut out = Vec::with_capacity(*n_runs);
            let mut start = 0u32;
            for run in 0..*n_runs {
                let end = self.u32_at(ends_off + run * 4);
                out.push((self.i64_at(values_off + run * 8), start, end));
                start = end;
            }
            Some(out)
        } else {
            None
        }
    }

    /// The column's code domain as one lane: every dictionary entry (or run
    /// value) in code order, then a NULL. A predicate evaluated over this
    /// lane is a [`CodePredicate`]. `None` when the encoding has no
    /// compressed domain.
    pub fn domain_vector(&self) -> Option<ColumnVector> {
        let n = self.encoded_domain_size()?;
        let mut b = VectorBuilder::new(self.data_type(), n + 1);
        match &self.inner {
            Inner::DictStr { .. } => (0..n).for_each(|code| b.push_str(self.dict_str_entry(code))),
            Inner::DictInt { dict_off: off, .. } | Inner::Rle { values_off: off, .. } => {
                (0..n).for_each(|d| b.push_int(self.i64_at(off + d * 8)))
            }
            _ => unreachable!("encoded_domain_size covers exactly these encodings"),
        }
        b.push_null();
        Some(b.finish())
    }

    /// Compile `pred` into the column's code domain (paper §5.2): the
    /// predicate is evaluated once per [`Self::domain_vector`] entry into an
    /// accept bitmap, after which per-row evaluation is a single bitmap
    /// probe via [`Self::predicate_mask`]. Returns `None` when the encoding
    /// has no compressed domain to compile against.
    pub fn compile_predicate(&self, pred: &mut dyn FnMut(&Value) -> bool) -> Option<CodePredicate> {
        let domain = self.domain_vector()?;
        let mut accept = BitVec::zeros(domain.len());
        for d in 0..domain.len() {
            if pred(&domain.value(d)) {
                accept.set(d);
            }
        }
        Some(CodePredicate { accept })
    }

    /// Evaluate a [`CodePredicate`] bitmap-first over every row: one bit per
    /// row, set when the row passes. Dictionary codes probe the accept
    /// bitmap; RLE runs clear whole rejected ranges word-at-a-time; NULL
    /// rows are fixed up last (their stored code/run value is a placeholder).
    pub fn predicate_mask(&self, p: &CodePredicate) -> BitVec {
        let mut mask = match &self.inner {
            Inner::DictStr { width, codes_off, .. } | Inner::DictInt { width, codes_off, .. } => {
                let codes = unpack_all(&self.data, *codes_off, *width, self.rows);
                let mut m = BitVec::zeros(self.rows);
                for (row, &code) in codes.iter().enumerate() {
                    if p.accept.get(code as usize) {
                        m.set(row);
                    }
                }
                m
            }
            Inner::Rle { n_runs, ends_off, .. } => {
                let mut m = BitVec::ones(self.rows);
                let mut start = 0u32;
                for run in 0..*n_runs {
                    let end = self.u32_at(ends_off + run * 4);
                    if !p.accept.get(run) {
                        m.clear_range(start as usize, end as usize);
                    }
                    start = end;
                }
                m
            }
            _ => unreachable!("predicate_mask requires a compile_predicate encoding"),
        };
        if let Some(nulls) = &self.nulls {
            let null_passes = p.accept.get(p.accept.len() - 1);
            for row in nulls.iter_ones() {
                mask.set_to(row, null_passes);
            }
        }
        mask
    }

    #[inline]
    fn i64_at(&self, off: usize) -> i64 {
        i64::from_le_bytes(self.data[off..off + 8].try_into().unwrap())
    }

    #[inline]
    fn u32_at(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.data[off..off + 4].try_into().unwrap())
    }

    /// Find the run containing `row` via binary search over cumulative ends.
    fn rle_run_of(&self, row: usize, n_runs: usize, ends_off: usize) -> usize {
        let target = row as u32;
        let mut lo = 0usize;
        let mut hi = n_runs;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.u32_at(ends_off + mid * 4) <= target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn dict_str_entry(&self, code: usize) -> &str {
        if let Inner::DictStr { dict_offsets_off, dict_bytes_off, .. } = &self.inner {
            let s = self.u32_at(dict_offsets_off + code * 4) as usize;
            let e = self.u32_at(dict_offsets_off + (code + 1) * 4) as usize;
            std::str::from_utf8(&self.data[dict_bytes_off + s..dict_bytes_off + e])
                .expect("dictionary bytes validated at encode time")
        } else {
            unreachable!()
        }
    }

    fn lz_block(&self, block: usize) -> Result<Arc<Vec<u8>>> {
        if let Inner::LzStr { dir, blocks_off, cache } = &self.inner {
            {
                let guard = cache.lock();
                if let Some((idx, layout)) = guard.as_ref() {
                    if *idx == block {
                        return Ok(Arc::clone(layout));
                    }
                }
            }
            let start = blocks_off + dir[block] as usize;
            let end = blocks_off + dir[block + 1] as usize;
            let layout = Arc::new(crate::lz::decompress(&self.data[start..end])?);
            *cache.lock() = Some((block, Arc::clone(&layout)));
            Ok(layout)
        } else {
            unreachable!()
        }
    }

    /// Decode the value at `row` (seekable point read).
    pub fn value(&self, row: usize) -> Result<Value> {
        if row >= self.rows {
            return Err(Error::InvalidArgument(format!(
                "row {row} out of range ({} rows)",
                self.rows
            )));
        }
        if self.is_null(row) {
            return Ok(Value::Null);
        }
        Ok(match &self.inner {
            Inner::PlainInt { values_off } => Value::Int(self.i64_at(values_off + row * 8)),
            Inner::PlainDouble { values_off } => {
                Value::Double(f64::from_bits(self.i64_at(values_off + row * 8) as u64))
            }
            Inner::PlainStr { offsets_off, bytes_off } => {
                let s = self.u32_at(offsets_off + row * 4) as usize;
                let e = self.u32_at(offsets_off + (row + 1) * 4) as usize;
                let raw = &self.data[bytes_off + s..bytes_off + e];
                Value::str(std::str::from_utf8(raw).map_err(|e| {
                    Error::Corruption(format!("invalid utf-8 in plain str column: {e}"))
                })?)
            }
            Inner::BitPack { base, width, bits_off } => {
                let delta = read_packed(&self.data, *bits_off, *width, row);
                Value::Int((*base as i128 + delta as i128) as i64)
            }
            Inner::Rle { n_runs, values_off, ends_off } => {
                let run = self.rle_run_of(row, *n_runs, *ends_off);
                Value::Int(self.i64_at(values_off + run * 8))
            }
            Inner::DictStr { width, codes_off, .. } => {
                let code = read_packed(&self.data, *codes_off, *width, row) as usize;
                Value::str(self.dict_str_entry(code))
            }
            Inner::DictInt { dict_off, width, codes_off, .. } => {
                let code = read_packed(&self.data, *codes_off, *width, row) as usize;
                Value::Int(self.i64_at(dict_off + code * 8))
            }
            Inner::LzStr { .. } => {
                let block = row / crate::encode::LZ_BLOCK_ROWS;
                let local = row % crate::encode::LZ_BLOCK_ROWS;
                let layout = self.lz_block(block)?;
                let block_rows = self.block_rows(block);
                let s = u32_from(&layout, local * 4) as usize;
                let e = u32_from(&layout, (local + 1) * 4) as usize;
                let bytes_base = (block_rows + 1) * 4;
                let raw = &layout[bytes_base + s..bytes_base + e];
                Value::str(std::str::from_utf8(raw).map_err(|e| {
                    Error::Corruption(format!("invalid utf-8 in lz str column: {e}"))
                })?)
            }
        })
    }

    fn block_rows(&self, block: usize) -> usize {
        let start = block * crate::encode::LZ_BLOCK_ROWS;
        (self.rows - start).min(crate::encode::LZ_BLOCK_ROWS)
    }

    /// Decode rows into a typed vector. With `sel = None` decodes every row;
    /// otherwise only the selected row offsets (late materialization,
    /// paper §2.1.2: "only decoding columns if data in them qualifies").
    ///
    /// Each encoding has a bulk path (sequential unpack, run expansion,
    /// dictionary gather) instead of a per-row dispatch loop; `LzStr`
    /// decompresses each block once per call rather than locking the block
    /// cache per row.
    pub fn decode_vector(&self, sel: Option<&[u32]>) -> Result<ColumnVector> {
        match &self.inner {
            Inner::PlainInt { values_off } => {
                let off = *values_off;
                Ok(self.build_int(sel, |row| self.i64_at(off + row * 8)))
            }
            Inner::PlainDouble { values_off } => {
                let off = *values_off;
                Ok(self.build_double(sel, |row| f64::from_bits(self.i64_at(off + row * 8) as u64)))
            }
            Inner::BitPack { base, width, bits_off } => {
                let base = *base;
                Ok(match sel {
                    None => {
                        let deltas = unpack_all(&self.data, *bits_off, *width, self.rows);
                        self.build_int(None, |row| (base as i128 + deltas[row] as i128) as i64)
                    }
                    Some(s) if s.len() * 4 >= self.rows => {
                        // Dense selection: one bulk unpack beats per-row
                        // bit extraction.
                        let deltas = unpack_all(&self.data, *bits_off, *width, self.rows);
                        self.build_int(sel, |row| (base as i128 + deltas[row] as i128) as i64)
                    }
                    Some(_) => {
                        let (bits_off, width) = (*bits_off, *width);
                        self.build_int(sel, |row| {
                            let delta = read_packed(&self.data, bits_off, width, row);
                            (base as i128 + delta as i128) as i64
                        })
                    }
                })
            }
            Inner::Rle { n_runs, values_off, ends_off } => {
                let (n_runs, values_off, ends_off) = (*n_runs, *values_off, *ends_off);
                Ok(match sel {
                    None => {
                        // Expand runs directly instead of binary-searching per row.
                        let mut values = Vec::with_capacity(self.rows);
                        let mut start = 0usize;
                        for run in 0..n_runs {
                            let end = self.u32_at(ends_off + run * 4) as usize;
                            let v = self.i64_at(values_off + run * 8);
                            values.resize(end.min(self.rows), v);
                            start = end;
                        }
                        debug_assert_eq!(start.min(self.rows), self.rows);
                        self.finish_int(values, None)
                    }
                    Some(s) => {
                        // Selections are ascending: walk runs with a cursor.
                        let mut run = 0usize;
                        let mut run_end = if n_runs == 0 { 0 } else { self.u32_at(ends_off) };
                        let mut values = Vec::with_capacity(s.len());
                        for &row in s {
                            while row >= run_end && run + 1 < n_runs {
                                run += 1;
                                run_end = self.u32_at(ends_off + run * 4);
                            }
                            values.push(self.i64_at(values_off + run * 8));
                        }
                        self.finish_int(values, sel)
                    }
                })
            }
            Inner::DictInt { dict_off, width, codes_off, dict_len } => {
                let dict: Vec<i64> =
                    (0..*dict_len).map(|c| self.i64_at(dict_off + c * 8)).collect();
                Ok(match sel {
                    None => {
                        let codes = unpack_all(&self.data, *codes_off, *width, self.rows);
                        self.build_int(None, |row| dict[codes[row] as usize])
                    }
                    Some(_) => {
                        let (codes_off, width) = (*codes_off, *width);
                        self.build_int(sel, |row| {
                            dict[read_packed(&self.data, codes_off, width, row) as usize]
                        })
                    }
                })
            }
            Inner::DictStr { width, codes_off, .. } => {
                let (codes_off, width) = (*codes_off, *width);
                Ok(match sel {
                    None => {
                        let codes = unpack_all(&self.data, codes_off, width, self.rows);
                        self.build_str(None, |row| self.dict_str_entry(codes[row] as usize))
                    }
                    Some(_) => self.build_str(sel, |row| {
                        self.dict_str_entry(read_packed(&self.data, codes_off, width, row) as usize)
                    }),
                })
            }
            Inner::PlainStr { offsets_off, bytes_off } => {
                let (offsets_off, bytes_off) = (*offsets_off, *bytes_off);
                Ok(self.build_str(sel, |row| {
                    let s = self.u32_at(offsets_off + row * 4) as usize;
                    let e = self.u32_at(offsets_off + (row + 1) * 4) as usize;
                    // SAFETY: validated as UTF-8 when the column was encoded
                    // from &str values; offsets delimit whole strings.
                    unsafe {
                        std::str::from_utf8_unchecked(&self.data[bytes_off + s..bytes_off + e])
                    }
                }))
            }
            Inner::LzStr { .. } => self.decode_lz(sel),
        }
    }

    /// Build an Int vector via `f`, honoring the null bitmap (null rows hold
    /// the default 0, matching [`VectorBuilder::push_null`]).
    fn build_int(&self, sel: Option<&[u32]>, f: impl Fn(usize) -> i64) -> ColumnVector {
        let values: Vec<i64> = match (sel, &self.nulls) {
            (None, None) => (0..self.rows).map(&f).collect(),
            (None, Some(n)) => {
                (0..self.rows).map(|row| if n.get(row) { 0 } else { f(row) }).collect()
            }
            (Some(s), None) => s.iter().map(|&row| f(row as usize)).collect(),
            (Some(s), Some(n)) => {
                s.iter().map(|&row| if n.get(row as usize) { 0 } else { f(row as usize) }).collect()
            }
        };
        self.finish_int(values, sel)
    }

    fn finish_int(&self, mut values: Vec<i64>, sel: Option<&[u32]>) -> ColumnVector {
        let nulls = self.out_nulls(sel);
        if let Some(n) = &nulls {
            for row in n.iter_ones() {
                values[row] = 0;
            }
        }
        ColumnVector::Int { values, nulls }
    }

    /// Build a Double vector via `f` (null rows hold the default 0.0).
    fn build_double(&self, sel: Option<&[u32]>, f: impl Fn(usize) -> f64) -> ColumnVector {
        let values: Vec<f64> = match (sel, &self.nulls) {
            (None, None) => (0..self.rows).map(&f).collect(),
            (None, Some(n)) => {
                (0..self.rows).map(|row| if n.get(row) { 0.0 } else { f(row) }).collect()
            }
            (Some(s), None) => s.iter().map(|&row| f(row as usize)).collect(),
            (Some(s), Some(n)) => s
                .iter()
                .map(|&row| if n.get(row as usize) { 0.0 } else { f(row as usize) })
                .collect(),
        };
        ColumnVector::Double { values, nulls: self.out_nulls(sel) }
    }

    /// Build a Str vector via `f` (null rows hold the empty string).
    fn build_str<'a>(&'a self, sel: Option<&[u32]>, f: impl Fn(usize) -> &'a str) -> ColumnVector {
        let count = sel.map_or(self.rows, <[u32]>::len);
        let mut offsets = Vec::with_capacity(count + 1);
        offsets.push(0u32);
        let mut bytes = Vec::new();
        let mut append = |row: usize| {
            if !self.is_null(row) {
                bytes.extend_from_slice(f(row).as_bytes());
            }
            offsets.push(bytes.len() as u32);
        };
        match sel {
            None => (0..self.rows).for_each(&mut append),
            Some(s) => s.iter().for_each(|&row| append(row as usize)),
        }
        ColumnVector::Str { offsets, bytes, nulls: self.out_nulls(sel) }
    }

    /// Null bitmap over the output rows of a decode with selection `sel`.
    fn out_nulls(&self, sel: Option<&[u32]>) -> Option<BitVec> {
        let nulls = self.nulls.as_ref()?;
        match sel {
            None => Some(nulls.clone()),
            Some(s) => {
                let mut out = BitVec::zeros(s.len());
                let mut any = false;
                for (i, &row) in s.iter().enumerate() {
                    if nulls.get(row as usize) {
                        out.set(i);
                        any = true;
                    }
                }
                any.then_some(out)
            }
        }
    }

    /// LZ decode: decompress each touched block once, then slice rows out of
    /// the block's plain layout.
    fn decode_lz(&self, sel: Option<&[u32]>) -> Result<ColumnVector> {
        let count = sel.map_or(self.rows, <[u32]>::len);
        let mut b = VectorBuilder::new(DataType::Str, count);
        let mut current: Option<(usize, Arc<Vec<u8>>)> = None;
        let mut push =
            |row: usize, b: &mut VectorBuilder| -> Result<()> {
                if self.is_null(row) {
                    b.push_null();
                    return Ok(());
                }
                let block = row / crate::encode::LZ_BLOCK_ROWS;
                let local = row % crate::encode::LZ_BLOCK_ROWS;
                if current.as_ref().map(|(i, _)| *i) != Some(block) {
                    current = Some((block, self.lz_block(block)?));
                }
                let layout = &current.as_ref().expect("just set").1;
                let block_rows = self.block_rows(block);
                let s = u32_from(layout, local * 4) as usize;
                let e = u32_from(layout, (local + 1) * 4) as usize;
                let bytes_base = (block_rows + 1) * 4;
                let raw = &layout[bytes_base + s..bytes_base + e];
                b.push_str(std::str::from_utf8(raw).map_err(|e| {
                    Error::Corruption(format!("invalid utf-8 in lz str column: {e}"))
                })?);
                Ok(())
            };
        match sel {
            None => {
                for row in 0..self.rows {
                    push(row, &mut b)?;
                }
            }
            Some(s) => {
                for &row in s {
                    push(row as usize, &mut b)?;
                }
            }
        }
        Ok(b.finish())
    }

    /// Decode every row into owned values (test/debug convenience).
    pub fn decode_all(&self) -> Result<Vec<Value>> {
        (0..self.rows).map(|i| self.value(i)).collect()
    }

    /// Evaluate `pred` directly on the compressed representation
    /// (paper §5.2 "encoded filter"): compile it into the code domain, then
    /// read the passing rows off the row mask.
    ///
    /// Returns `Ok(None)` if this encoding does not support encoded
    /// execution; the caller falls back to a regular (decode-then-filter)
    /// strategy. With `sel = Some(..)` only the given rows are considered.
    pub fn encoded_filter(
        &self,
        pred: &mut dyn FnMut(&Value) -> bool,
        sel: Option<&[u32]>,
    ) -> Result<Option<Vec<u32>>> {
        Ok(self.compile_predicate(pred).map(|p| self.predicate_rows(&p, sel)))
    }

    /// The rows of `sel` (every row when `None`) that pass `p`, ascending.
    pub fn predicate_rows(&self, p: &CodePredicate, sel: Option<&[u32]>) -> Vec<u32> {
        let mask = self.predicate_mask(p);
        match sel {
            Some(sel) => sel.iter().copied().filter(|&r| mask.get(r as usize)).collect(),
            None => mask.iter_ones().map(|r| r as u32).collect(),
        }
    }
}

#[inline]
fn u32_from(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_column;

    fn reader(values: &[Value], dt: DataType, enc: Option<Encoding>) -> ColumnReader {
        ColumnReader::open(&encode_column(values, dt, enc).unwrap()).unwrap()
    }

    #[test]
    fn decode_vector_full_and_selected() {
        let values: Vec<Value> = (0..100).map(|i| Value::Int(i * 2)).collect();
        let r = reader(&values, DataType::Int64, None);
        let full = r.decode_vector(None).unwrap();
        assert_eq!(full.len(), 100);
        assert_eq!(full.int_at(50), 100);
        let sel = r.decode_vector(Some(&[3, 97])).unwrap();
        assert_eq!(sel.len(), 2);
        assert_eq!(sel.int_at(0), 6);
        assert_eq!(sel.int_at(1), 194);
    }

    #[test]
    fn encoded_filter_dict_str() {
        let values: Vec<Value> = (0..60).map(|i| Value::str(["a", "b", "c"][i % 3])).collect();
        let r = reader(&values, DataType::Str, Some(Encoding::DictStr));
        let sel = r
            .encoded_filter(&mut |v| matches!(v, Value::Str(s) if s.as_ref() == "b"), None)
            .unwrap()
            .unwrap();
        assert_eq!(sel.len(), 20);
        assert!(sel.iter().all(|&i| i % 3 == 1));
    }

    #[test]
    fn encoded_filter_respects_input_selection() {
        let values: Vec<Value> = (0..50).map(|i| Value::Int(i % 5)).collect();
        let r = reader(&values, DataType::Int64, Some(Encoding::DictInt));
        let input: Vec<u32> = (0..25).collect();
        let sel = r
            .encoded_filter(&mut |v| matches!(v, Value::Int(i) if *i == 0), Some(&input))
            .unwrap()
            .unwrap();
        assert_eq!(sel, vec![0, 5, 10, 15, 20]);
    }

    #[test]
    fn encoded_filter_rle_ranges() {
        let values: Vec<Value> = (0..90).map(|i| Value::Int(i / 30)).collect();
        let r = reader(&values, DataType::Int64, Some(Encoding::RleInt));
        let sel = r
            .encoded_filter(&mut |v| matches!(v, Value::Int(i) if *i == 1), None)
            .unwrap()
            .unwrap();
        assert_eq!(sel, (30u32..60).collect::<Vec<_>>());
    }

    #[test]
    fn encoded_filter_handles_nulls() {
        let values: Vec<Value> =
            (0..30).map(|i| if i % 10 == 0 { Value::Null } else { Value::Int(i % 3) }).collect();
        let r = reader(&values, DataType::Int64, Some(Encoding::DictInt));
        // IS NULL predicate.
        let sel = r.encoded_filter(&mut |v| v.is_null(), None).unwrap().unwrap();
        assert_eq!(sel, vec![0, 10, 20]);
    }

    #[test]
    fn plain_has_no_encoded_path() {
        let values: Vec<Value> = (0..10).map(Value::Int).collect();
        let r = reader(&values, DataType::Int64, Some(Encoding::PlainInt));
        assert!(r.encoded_filter(&mut |_| true, None).unwrap().is_none());
    }

    #[test]
    fn lz_point_reads_cross_blocks() {
        let values: Vec<Value> = (0..1500)
            .map(|i| Value::str(format!("some row payload with id {i} and padding padding")))
            .collect();
        let r = reader(&values, DataType::Str, Some(Encoding::LzStr));
        // Probe across block boundaries (block = 512 rows).
        for row in [0usize, 511, 512, 1023, 1024, 1499] {
            assert_eq!(r.value(row).unwrap(), values[row]);
        }
    }

    #[test]
    fn out_of_range_rejected() {
        let r = reader(&[Value::Int(1)], DataType::Int64, None);
        assert!(r.value(1).is_err());
    }

    #[test]
    fn rle_binary_search_boundaries() {
        let values: Vec<Value> =
            vec![Value::Int(5); 10].into_iter().chain(vec![Value::Int(9); 10]).collect();
        let r = reader(&values, DataType::Int64, Some(Encoding::RleInt));
        assert_eq!(r.value(9).unwrap(), Value::Int(5));
        assert_eq!(r.value(10).unwrap(), Value::Int(9));
    }

    #[test]
    fn codes_and_dict_round_trip() {
        let values: Vec<Value> = (0..60).map(|i| Value::str(["a", "b", "c"][i % 3])).collect();
        let r = reader(&values, DataType::Str, Some(Encoding::DictStr));
        let codes = r.codes().unwrap();
        assert_eq!(codes.len(), 60);
        for (row, &code) in codes.iter().enumerate() {
            assert_eq!(r.dict_value(code as usize).unwrap(), values[row]);
        }
        let ints: Vec<Value> = (0..50).map(|i| Value::Int(i % 5)).collect();
        let ri = reader(&ints, DataType::Int64, Some(Encoding::DictInt));
        let codes = ri.codes().unwrap();
        for (row, &code) in codes.iter().enumerate() {
            assert_eq!(ri.dict_value(code as usize).unwrap(), ints[row]);
        }
        // Non-dictionary encodings expose no code view.
        let plain = reader(&ints, DataType::Int64, Some(Encoding::PlainInt));
        assert!(plain.codes().is_none());
    }

    #[test]
    fn runs_cover_rows_in_order() {
        let values: Vec<Value> = (0..90).map(|i| Value::Int(i / 30)).collect();
        let r = reader(&values, DataType::Int64, Some(Encoding::RleInt));
        let runs = r.runs().unwrap();
        assert_eq!(runs, vec![(0, 0, 30), (1, 30, 60), (2, 60, 90)]);
    }

    #[test]
    fn compile_predicate_and_mask_dict() {
        let values: Vec<Value> = (0..30)
            .map(|i| if i % 10 == 0 { Value::Null } else { Value::str(["a", "b", "c"][i % 3]) })
            .collect();
        let r = reader(&values, DataType::Str, Some(Encoding::DictStr));
        let p =
            r.compile_predicate(&mut |v| matches!(v, Value::Str(s) if s.as_ref() == "b")).unwrap();
        let mask = r.predicate_mask(&p);
        let expect: Vec<usize> = (0..30).filter(|i| i % 10 != 0 && i % 3 == 1).collect();
        assert_eq!(mask.iter_ones().collect::<Vec<_>>(), expect);
        // IS NULL compiles to a null-passes predicate with an empty accept set.
        let p = r.compile_predicate(&mut |v| v.is_null()).unwrap();
        let mask = r.predicate_mask(&p);
        assert_eq!(mask.iter_ones().collect::<Vec<_>>(), vec![0, 10, 20]);
    }

    #[test]
    fn compile_predicate_and_mask_rle() {
        let values: Vec<Value> = (0..90).map(|i| Value::Int(i / 30)).collect();
        let r = reader(&values, DataType::Int64, Some(Encoding::RleInt));
        let p = r.compile_predicate(&mut |v| matches!(v, Value::Int(i) if *i != 1)).unwrap();
        let mask = r.predicate_mask(&p);
        let got: Vec<usize> = mask.iter_ones().collect();
        assert_eq!(got, (0..30).chain(60..90).collect::<Vec<_>>());
        // Plain encodings have no code domain to compile into.
        let plain = reader(&values, DataType::Int64, Some(Encoding::PlainInt));
        assert!(plain.compile_predicate(&mut |_| true).is_none());
    }

    #[test]
    fn bulk_decode_matches_per_row_all_encodings() {
        let cases: Vec<(Vec<Value>, DataType, Option<Encoding>)> = vec![
            ((0..300).map(|i| Value::Int(i * 3 + 7)).collect(), DataType::Int64, None),
            (
                (0..300)
                    .map(|i| if i % 7 == 0 { Value::Null } else { Value::Int(i % 4) })
                    .collect(),
                DataType::Int64,
                Some(Encoding::DictInt),
            ),
            (
                (0..300)
                    .map(|i| if i % 11 == 0 { Value::Null } else { Value::Int(i / 40) })
                    .collect(),
                DataType::Int64,
                Some(Encoding::RleInt),
            ),
            (
                (0..300).map(|i| Value::Int(1_000_000 + i)).collect(),
                DataType::Int64,
                Some(Encoding::BitPackInt),
            ),
            (
                (0..300)
                    .map(|i| if i % 5 == 0 { Value::Null } else { Value::Double(i as f64 / 3.0) })
                    .collect(),
                DataType::Double,
                None,
            ),
            (
                (0..300)
                    .map(|i| {
                        if i % 9 == 0 {
                            Value::Null
                        } else {
                            Value::str(["x", "yy", "zzz"][i % 3])
                        }
                    })
                    .collect(),
                DataType::Str,
                Some(Encoding::DictStr),
            ),
            (
                (0..300).map(|i| Value::str(format!("row-{i}"))).collect(),
                DataType::Str,
                Some(Encoding::PlainStr),
            ),
            (
                (0..1200)
                    .map(|i| {
                        if i % 13 == 0 {
                            Value::Null
                        } else {
                            Value::str(format!("payload payload payload {i}"))
                        }
                    })
                    .collect(),
                DataType::Str,
                Some(Encoding::LzStr),
            ),
        ];
        for (values, dt, enc) in cases {
            let r = reader(&values, dt, enc);
            let full = r.decode_vector(None).unwrap();
            assert_eq!(full.len(), values.len());
            for (row, v) in values.iter().enumerate() {
                assert_eq!(&full.value(row), v, "row {row} enc {enc:?}");
            }
            let sel: Vec<u32> =
                (0..values.len() as u32).filter(|i| i % 3 == 0 || i % 7 == 2).collect();
            let picked = r.decode_vector(Some(&sel)).unwrap();
            assert_eq!(picked.len(), sel.len());
            for (out, &row) in sel.iter().enumerate() {
                assert_eq!(picked.value(out), values[row as usize], "sel row {row} enc {enc:?}");
            }
        }
    }
}
