//! Join key filters (paper §5.1): the key set of the side of a join that
//! runs first, built once from one of its typed key lanes and handed to the
//! scans beneath the other side as an [`Expr::KeyFilter`] clause.
//!
//! **Match rule.** A filter never rejects a key the hash join would match.
//! [`crate::kernels::JoinTable`] pairs two cells when their
//! `keys::hash_rows` lanes are equal and `cell_eq` holds, so the hashed
//! representations test exactly that hash, and the dense one tests the
//! integer a probe cell must equal. Cross-type Int/Double keys, `-0.0` and
//! `0.0`, NaN payloads and ints past 2^53 therefore pass whenever the join
//! would pair them; anything else may pass too (the join re-checks every
//! pair), which is why a scan may drop the clause where it does not pay.
//!
//! **Representations**, picked at build from the key lane alone:
//! - *dense*: Int keys whose span is at most [`DENSE_BITS_PER_KEY`] bits per
//!   key, as a bitmap over `[min, max]`;
//! - *exact*: up to [`EXACT_KEYS`] keys as their sorted distinct hashes;
//! - *bloom*: beyond that, a blocked bloom filter over the hash lane,
//!   [`BLOOM_BITS_PER_KEY`] bits per key, every key's bits in one
//!   512-bit block.
//!
//! Every filter carries its keys' min/max for segment elimination (an empty
//! set eliminates every segment), the sorted distinct key values when there
//! are at most [`EXACT_KEYS`] (the scan answers those with the secondary
//! index like an IN list), and a content hash computed once at build that
//! the decision cache's fingerprint reads instead of the set.

use std::fmt;

use s2_common::hash::{combine, hash_values, VALUES_SEED};
use s2_common::{DataType, Value};
use s2_encoding::ColumnVector;

use crate::keys::hash_rows;

/// Largest key count kept as an exact set (sorted hashes plus the sorted
/// key values): a binary search over this many hashes is 10 compares, and
/// above it the bloom builds without a sort.
pub const EXACT_KEYS: usize = 1024;

/// Int keys whose `max - min + 1` span is at most this many bits per key
/// are kept as a bitmap over the span: one bit test per probe row, no hash.
pub const DENSE_BITS_PER_KEY: u64 = 64;

/// Bloom bits per key (about 0.3 % false positives with four bits per key
/// set in one 512-bit block).
pub const BLOOM_BITS_PER_KEY: usize = 16;

/// A dense bitmap spans at most this many bits (8 MiB).
const DENSE_MAX_BITS: u64 = 1 << 26;

/// Bits set per key in a bloom block.
const BLOOM_PROBES: u32 = 4;

/// The key set of one join key lane; see the module doc.
pub struct KeyFilter {
    set: KeySet,
    key_type: DataType,
    keys: usize,
    range: Option<(Value, Value)>,
    values: Option<Vec<Value>>,
    content_hash: u64,
}

#[derive(PartialEq)]
enum KeySet {
    /// Sorted distinct key hashes.
    Exact(Vec<u64>),
    /// Bit `k - lo` set for every Int key `k`.
    Dense { lo: i64, words: Vec<u64> },
    /// Blocked bloom filter over key hashes.
    Bloom(Vec<[u64; 8]>),
}

impl KeyFilter {
    /// The key set of `col`'s non-NULL rows.
    pub fn build(col: &ColumnVector) -> KeyFilter {
        let rows = col.len();
        let live: Vec<usize> = match col.nulls() {
            None => (0..rows).collect(),
            Some(nu) => (0..rows).filter(|&r| !nu.get(r)).collect(),
        };
        let key_type = col.data_type();
        if let ColumnVector::Int { values, .. } = col {
            if let Some(f) = Self::dense(values, &live) {
                return f;
            }
        }
        let all = hash_rows(&[col], rows);
        let mut hashes: Vec<u64> = live.iter().map(|&r| all[r]).collect();
        let range = lane_range(col, &live);
        let (set, keys, values) = if hashes.len() <= EXACT_KEYS {
            hashes.sort_unstable();
            hashes.dedup();
            let mut values: Vec<Value> = live.iter().map(|&r| col.value(r)).collect();
            values.sort_unstable();
            values.dedup();
            (KeySet::Exact(hashes), values.len(), Some(values))
        } else {
            let blocks = (hashes.len() * BLOOM_BITS_PER_KEY).div_ceil(512);
            let mut bloom = vec![[0u64; 8]; blocks];
            for &h in &hashes {
                let (block, bits) = bloom_slot(h, blocks);
                for (w, b) in bloom[block].iter_mut().zip(bits) {
                    *w |= b;
                }
            }
            (KeySet::Bloom(bloom), hashes.len(), None)
        };
        KeyFilter::finish(set, key_type, keys, range, values)
    }

    /// The dense bitmap of an Int lane, when its span is small enough.
    fn dense(values: &[i64], live: &[usize]) -> Option<KeyFilter> {
        if live.is_empty() {
            let (set, values) = (KeySet::Exact(Vec::new()), Some(Vec::new()));
            return Some(KeyFilter::finish(set, DataType::Int64, 0, None, values));
        }
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        for &r in live {
            lo = lo.min(values[r]);
            hi = hi.max(values[r]);
        }
        let span = (hi as i128 - lo as i128 + 1) as u128;
        let budget = (live.len() as u64).saturating_mul(DENSE_BITS_PER_KEY).min(DENSE_MAX_BITS);
        if span > budget as u128 {
            return None;
        }
        let mut words = vec![0u64; (span as usize).div_ceil(64)];
        for &r in live {
            let bit = (values[r] - lo) as usize;
            words[bit / 64] |= 1 << (bit % 64);
        }
        let keys = words.iter().map(|w| w.count_ones() as usize).sum();
        let values = (keys <= EXACT_KEYS).then(|| {
            let mut out = Vec::with_capacity(keys);
            for (wi, &w) in words.iter().enumerate() {
                let mut w = w;
                while w != 0 {
                    out.push(Value::Int(lo + (wi * 64 + w.trailing_zeros() as usize) as i64));
                    w &= w - 1;
                }
            }
            out
        });
        let range = Some((Value::Int(lo), Value::Int(hi)));
        Some(KeyFilter::finish(KeySet::Dense { lo, words }, DataType::Int64, keys, range, values))
    }

    fn finish(
        set: KeySet,
        key_type: DataType,
        keys: usize,
        range: Option<(Value, Value)>,
        values: Option<Vec<Value>>,
    ) -> KeyFilter {
        let mut h = combine(VALUES_SEED, key_type as u64);
        let fold = |h: u64, words: &[u64]| words.iter().fold(h, |h, &w| combine(h, w));
        h = match &set {
            KeySet::Exact(hashes) => fold(combine(h, 1), hashes),
            KeySet::Dense { lo, words } => fold(combine(combine(h, 2), *lo as u64), words),
            KeySet::Bloom(blocks) => blocks.iter().fold(combine(h, 3), |h, block| fold(h, block)),
        };
        KeyFilter { set, key_type, keys, range, values, content_hash: combine(h, keys as u64) }
    }

    /// Whether no key passes: the set was built from no non-NULL key.
    pub fn is_empty(&self) -> bool {
        self.keys == 0
    }

    /// Distinct keys (a bloom filter: non-NULL keys it was built from).
    pub fn keys(&self) -> usize {
        self.keys
    }

    /// The type of the key lane the set was built from.
    pub fn key_type(&self) -> DataType {
        self.key_type
    }

    /// Smallest and largest key (`None` for an empty set).
    pub fn range(&self) -> Option<&(Value, Value)> {
        self.range.as_ref()
    }

    /// The sorted distinct keys, when there are at most [`EXACT_KEYS`].
    pub fn values(&self) -> Option<&[Value]> {
        self.values.as_deref()
    }

    /// Whether every Int in `[lo, hi]` is a key, so the set passes every
    /// value a column within that range could pair with: a dense set with
    /// no hole whose range holds `[lo, hi]`.
    pub fn covers(&self, lo: &Value, hi: &Value) -> bool {
        let (KeySet::Dense { .. }, Some((min, max))) = (&self.set, &self.range) else {
            return false;
        };
        let (Value::Int(a), Value::Int(b)) = (min, max) else { return false };
        let full = self.keys as i128 == *b as i128 - *a as i128 + 1;
        full && lo >= min && hi <= max
    }

    /// Content hash, computed once at build.
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// Whether the non-NULL value `v` may match a key.
    pub fn contains(&self, v: &Value) -> bool {
        match (&self.set, v) {
            (_, Value::Null) => false,
            (KeySet::Dense { .. }, Value::Int(i)) => self.dense_int(*i),
            (KeySet::Dense { .. }, Value::Double(d)) => self.dense_double(*d),
            (KeySet::Dense { .. }, Value::Str(_)) => false,
            _ => self.contains_hash(hash_values(std::iter::once(v))),
        }
    }

    /// Per-row verdicts over the `n` rows of `col`, NULL rows included
    /// (their verdict is meaningless; callers mask them).
    pub(crate) fn hits(&self, col: &ColumnVector) -> Vec<bool> {
        match (&self.set, col) {
            (KeySet::Dense { .. }, ColumnVector::Int { values, .. }) => {
                values.iter().map(|&i| self.dense_int(i)).collect()
            }
            (KeySet::Dense { .. }, ColumnVector::Double { values, .. }) => {
                values.iter().map(|&d| self.dense_double(d)).collect()
            }
            (KeySet::Dense { .. }, ColumnVector::Str { .. }) => vec![false; col.len()],
            _ => hash_rows(&[col], col.len()).into_iter().map(|h| self.contains_hash(h)).collect(),
        }
    }

    #[inline]
    fn dense_int(&self, i: i64) -> bool {
        let KeySet::Dense { lo, words } = &self.set else { unreachable!("dense set") };
        let Some(bit) = i.checked_sub(*lo).filter(|b| *b >= 0) else { return false };
        let bit = bit as u64;
        bit < words.len() as u64 * 64 && words[(bit / 64) as usize] >> (bit % 64) & 1 == 1
    }

    /// A Double pairs with Int key `k` only when `k as f64` has its bits:
    /// integral doubles below 2^53 name one int; beyond, several ints round
    /// to the same double, so the cell passes.
    fn dense_double(&self, d: f64) -> bool {
        const EXACT_INTS: f64 = (1u64 << 53) as f64;
        if d.fract() != 0.0 {
            return false; // NaN and the infinities too: no int widens to them
        }
        if d.abs() < EXACT_INTS {
            self.dense_int(d as i64)
        } else {
            true
        }
    }

    #[inline]
    fn contains_hash(&self, h: u64) -> bool {
        match &self.set {
            KeySet::Exact(hashes) => hashes.binary_search(&h).is_ok(),
            KeySet::Bloom(blocks) => {
                let (block, bits) = bloom_slot(h, blocks.len());
                blocks[block].iter().zip(bits).all(|(w, b)| w & b == b)
            }
            // A dense set holds Int keys: a probe cell's hash is tested by
            // value in `contains`/`hits`, never here.
            KeySet::Dense { .. } => unreachable!("dense sets test values"),
        }
    }
}

/// The block a hash lands in and the four bits it sets there.
#[inline]
fn bloom_slot(h: u64, blocks: usize) -> (usize, [u64; 8]) {
    let block = (((h >> 32) * blocks as u64) >> 32) as usize;
    let mut x = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut bits = [0u64; 8];
    for _ in 0..BLOOM_PROBES {
        let bit = (x >> 55) as usize; // top 9 bits: 0..512
        bits[bit / 64] |= 1 << (bit % 64);
        x = x.rotate_left(9);
    }
    (block, bits)
}

/// Min and max of the `live` rows of a lane, in `Value::total_cmp` order.
fn lane_range(col: &ColumnVector, live: &[usize]) -> Option<(Value, Value)> {
    let first = *live.first()?;
    Some(match col {
        ColumnVector::Int { values, .. } => {
            let lo = live.iter().map(|&r| values[r]).min().expect("nonempty");
            let hi = live.iter().map(|&r| values[r]).max().expect("nonempty");
            (Value::Int(lo), Value::Int(hi))
        }
        ColumnVector::Double { values, .. } => {
            let (mut lo, mut hi) = (values[first], values[first]);
            for &r in live {
                if values[r].total_cmp(&lo).is_lt() {
                    lo = values[r];
                }
                if values[r].total_cmp(&hi).is_gt() {
                    hi = values[r];
                }
            }
            (Value::Double(lo), Value::Double(hi))
        }
        ColumnVector::Str { .. } => {
            let (mut lo, mut hi) = (col.str_at(first), col.str_at(first));
            for &r in live {
                lo = lo.min(col.str_at(r));
                hi = hi.max(col.str_at(r));
            }
            (Value::str(lo), Value::str(hi))
        }
    })
}

impl PartialEq for KeyFilter {
    fn eq(&self, other: &KeyFilter) -> bool {
        self.content_hash == other.content_hash
            && self.key_type == other.key_type
            && self.set == other.set
    }
}

impl fmt::Debug for KeyFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match &self.set {
            KeySet::Exact(_) => "exact",
            KeySet::Dense { .. } => "dense",
            KeySet::Bloom(_) => "bloom",
        };
        write!(f, "KeyFilter({kind}, {} keys, {:016x})", self.keys, self.content_hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::cell_eq;
    use s2_common::hash::hash_i64;

    /// The lane hash of one Int cell.
    fn one_cell_hash(i: i64) -> u64 {
        combine(VALUES_SEED, hash_i64(i))
    }

    fn lane(vals: &[Value], t: DataType) -> ColumnVector {
        ColumnVector::from_values(vals, t).unwrap()
    }

    /// Every (key, probe) pair the join would match passes the filter.
    fn assert_no_false_negatives(keys: &ColumnVector, probe: &ColumnVector) {
        let f = KeyFilter::build(keys);
        let hits = f.hits(probe);
        let kh = hash_rows(&[keys], keys.len());
        let ph = hash_rows(&[probe], probe.len());
        for j in (0..probe.len()).filter(|&j| !probe.is_null(j)) {
            let joins = (0..keys.len())
                .any(|i| !keys.is_null(i) && kh[i] == ph[j] && cell_eq(keys, i, probe, j));
            if joins {
                assert!(hits[j], "{f:?} rejects {:?}", probe.value(j));
                assert!(f.contains(&probe.value(j)), "{f:?} rejects {:?}", probe.value(j));
            }
        }
    }

    #[test]
    fn lane_hash_is_the_one_value_hash() {
        for i in [0i64, -5, 1 << 60] {
            assert_eq!(one_cell_hash(i), hash_values(std::iter::once(&Value::Int(i))));
            assert_eq!(
                hash_rows(&[&lane(&[Value::Int(i)], DataType::Int64)], 1)[0],
                one_cell_hash(i)
            );
        }
    }

    #[test]
    fn every_representation_keeps_every_join_match() {
        let big = (1i64 << 53) + 1;
        let odd = [
            Value::Double(-0.0),
            Value::Double(0.0),
            Value::Double(f64::NAN),
            Value::Double(big as f64),
            Value::Double(3.0),
            Value::Double(3.5),
            Value::Null,
        ];
        let ints = [Value::Int(0), Value::Int(3), Value::Int(big), Value::Int(-7), Value::Null];
        let dense: Vec<Value> = (0..50).map(Value::Int).chain([Value::Null]).collect();
        let sparse: Vec<Value> = (0..3000).map(|i| Value::Int(i * 1_000_003)).collect();
        let strs: Vec<Value> = (0..2000).map(|i| Value::str(format!("k{i}"))).collect();
        let lanes = [
            lane(&odd, DataType::Double),
            lane(&ints, DataType::Int64),
            lane(&dense, DataType::Int64),
            lane(&sparse, DataType::Int64),
            lane(&strs, DataType::Str),
            lane(&strs[..10], DataType::Str),
        ];
        for keys in &lanes {
            for probe in &lanes {
                assert_no_false_negatives(keys, probe);
            }
        }
        assert_eq!(
            format!("{:?}", KeyFilter::build(&lanes[2])).split(',').next(),
            Some("KeyFilter(dense")
        );
        assert!(format!("{:?}", KeyFilter::build(&lanes[3])).starts_with("KeyFilter(bloom"));
        assert!(format!("{:?}", KeyFilter::build(&lanes[1])).starts_with("KeyFilter(exact"));
    }

    #[test]
    fn bloom_rejects_most_absent_keys() {
        let keys: Vec<Value> = (0..5000).map(|i| Value::Int(i * 7919)).collect();
        let f = KeyFilter::build(&lane(&keys, DataType::Int64));
        let absent = (0..100_000).filter(|i| f.contains(&Value::Int(i * 7919 + 1))).count();
        assert!(absent < 2000, "{absent} false positives in 100000");
    }

    #[test]
    fn empty_nulls_only_and_ranges() {
        let f = KeyFilter::build(&lane(&[Value::Null, Value::Null], DataType::Int64));
        assert!(f.is_empty());
        assert_eq!(f.range(), None);
        let f = KeyFilter::build(&lane(&[Value::str("b"), Value::str("a")], DataType::Str));
        assert_eq!(f.range(), Some(&(Value::str("a"), Value::str("b"))));
        assert_eq!(f.values(), Some(&[Value::str("a"), Value::str("b")][..]));
        let f = KeyFilter::build(&lane(
            &[Value::Int(9), Value::Int(2), Value::Int(9)],
            DataType::Int64,
        ));
        assert_eq!((f.keys(), f.values().map(<[Value]>::len)), (2, Some(2)));
        assert_eq!(f.range(), Some(&(Value::Int(2), Value::Int(9))));
    }

    #[test]
    fn covers_only_a_range_without_holes() {
        let ints = |v: &[i64]| {
            lane(&v.iter().map(|&i| Value::Int(i)).collect::<Vec<_>>(), DataType::Int64)
        };
        let full = KeyFilter::build(&ints(&[3, 1, 2, 4, 2]));
        assert!(full.covers(&Value::Int(1), &Value::Int(4)));
        assert!(full.covers(&Value::Int(2), &Value::Double(3.5)));
        assert!(!full.covers(&Value::Int(0), &Value::Int(4)));
        let holed = KeyFilter::build(&ints(&[1, 2, 4]));
        assert!(!holed.covers(&Value::Int(1), &Value::Int(2)));
        let strs = KeyFilter::build(&lane(&[Value::str("a")], DataType::Str));
        assert!(!strs.covers(&Value::str("a"), &Value::str("a")));
    }

    #[test]
    fn content_hash_tells_sets_apart() {
        let a = KeyFilter::build(&lane(&[Value::Int(1), Value::Int(2)], DataType::Int64));
        let b = KeyFilter::build(&lane(&[Value::Int(1), Value::Int(3)], DataType::Int64));
        let a2 = KeyFilter::build(&lane(&[Value::Int(2), Value::Int(1)], DataType::Int64));
        assert_ne!(a.content_hash(), b.content_hash());
        assert_eq!(a.content_hash(), a2.content_hash());
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }
}
