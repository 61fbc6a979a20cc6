//! Typed key lanes shared by the hash join and the group table: keys are
//! hashed column-at-a-time into one `u64` per row and compared as
//! `i64` / `f64` bits / `&str`, so neither operator builds a `Value` per
//! row. Both definitions are the scalar ones restated over lanes:
//! [`hash_rows`] equals `s2_common::hash::hash_values` over the row's key
//! values (integral doubles hash like the equal int), and [`cell_eq`] equals
//! `Value::total_cmp(..) == Equal` (`Int = Double` compares widened; `-0.0`,
//! `0.0` and NaN payloads are distinct).

use s2_common::hash::{combine, hash_bytes, hash_f64, hash_i64, VALUES_SEED};
use s2_common::value::NULL_HASH;
use s2_common::BitVec;
use s2_encoding::ColumnVector;

/// One key hash per row over `cols` (zero columns: every row hashes alike).
pub(crate) fn hash_rows(cols: &[&ColumnVector], rows: usize) -> Vec<u64> {
    fn fold(out: &mut [u64], nulls: Option<&BitVec>, cell: impl Fn(usize) -> u64) {
        match nulls {
            None => out.iter_mut().enumerate().for_each(|(r, h)| *h = combine(*h, cell(r))),
            Some(n) => out
                .iter_mut()
                .enumerate()
                .for_each(|(r, h)| *h = combine(*h, if n.get(r) { NULL_HASH } else { cell(r) })),
        }
    }
    let mut out = vec![VALUES_SEED; rows];
    for col in cols {
        match col {
            ColumnVector::Int { values, nulls } => {
                fold(&mut out, nulls.as_ref(), |r| hash_i64(values[r]))
            }
            ColumnVector::Double { values, nulls } => {
                fold(&mut out, nulls.as_ref(), |r| hash_f64(values[r]))
            }
            ColumnVector::Str { nulls, .. } => {
                fold(&mut out, nulls.as_ref(), |r| hash_bytes(col.str_at(r).as_bytes()))
            }
        }
    }
    out
}

/// The NULL bitmaps among `cols`: a row has a NULL key iff any of them has
/// its bit set.
pub(crate) fn null_lanes<'a>(cols: &[&'a ColumnVector]) -> Vec<&'a BitVec> {
    cols.iter().filter_map(|c| c.nulls()).collect()
}

/// Equality of two non-NULL key cells.
#[inline]
pub(crate) fn cell_eq(a: &ColumnVector, i: usize, b: &ColumnVector, j: usize) -> bool {
    use ColumnVector as CV;
    match (a, b) {
        (CV::Int { values: x, .. }, CV::Int { values: y, .. }) => x[i] == y[j],
        (CV::Double { values: x, .. }, CV::Double { values: y, .. }) => {
            x[i].to_bits() == y[j].to_bits()
        }
        (CV::Int { values: x, .. }, CV::Double { values: y, .. }) => {
            (x[i] as f64).to_bits() == y[j].to_bits()
        }
        (CV::Double { values: x, .. }, CV::Int { values: y, .. }) => {
            x[i].to_bits() == (y[j] as f64).to_bits()
        }
        (CV::Str { .. }, CV::Str { .. }) => a.str_at(i) == b.str_at(j),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2_common::hash::hash_values;
    use s2_common::{DataType, Value};

    #[test]
    fn lanes_restate_value_hash_and_equality() {
        let ints = [Value::Int(3), Value::Null, Value::Int(-7), Value::Int(0)];
        let dbls = [Value::Double(3.0), Value::Double(f64::NAN), Value::Null, Value::Double(-0.0)];
        let strs = [Value::str("3"), Value::str(""), Value::Null, Value::str("ab")];
        let cols = [
            ColumnVector::from_values(&ints, DataType::Int64).unwrap(),
            ColumnVector::from_values(&dbls, DataType::Double).unwrap(),
            ColumnVector::from_values(&strs, DataType::Str).unwrap(),
        ];
        let refs: Vec<&ColumnVector> = cols.iter().collect();
        let hashes = hash_rows(&refs, 4);
        for r in 0..4 {
            let row = [ints[r].clone(), dbls[r].clone(), strs[r].clone()];
            assert_eq!(hashes[r], hash_values(row.iter()), "row {r}");
        }
        for (a, va) in cols.iter().zip([&ints, &dbls, &strs]) {
            for (b, vb) in cols.iter().zip([&ints, &dbls, &strs]) {
                for (i, x) in va.iter().enumerate().filter(|(_, x)| !x.is_null()) {
                    for (j, y) in vb.iter().enumerate().filter(|(_, y)| !y.is_null()) {
                        assert_eq!(cell_eq(a, i, b, j), x == y, "{x} {y}");
                    }
                }
            }
        }
        assert_eq!(null_lanes(&refs).len(), 3);
    }
}
