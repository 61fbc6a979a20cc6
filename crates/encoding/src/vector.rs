//! Typed columnar vectors: the in-flight data representation of the
//! vectorized execution engine (paper §2.1.2 "columnstore tables support
//! vectorized execution").
//!
//! A [`ColumnVector`] holds one column's worth of decoded values for a batch
//! of rows. Strings use an arena layout (offsets + bytes) so decoding a
//! segment column does not allocate per row.

use s2_common::{BitVec, DataType, Error, Result, Value};

/// Row id that [`ColumnVector::gather_padded`] turns into a NULL row.
pub const NO_ROW: u32 = u32::MAX;

/// A decoded column for a batch of rows.
#[derive(Debug, Clone)]
pub enum ColumnVector {
    /// 64-bit integers.
    Int {
        /// One entry per row (null rows hold 0).
        values: Vec<i64>,
        /// Set bits mark NULL rows.
        nulls: Option<BitVec>,
    },
    /// 64-bit floats.
    Double {
        /// One entry per row (null rows hold 0.0).
        values: Vec<f64>,
        /// Set bits mark NULL rows.
        nulls: Option<BitVec>,
    },
    /// Strings in arena layout.
    Str {
        /// `rows + 1` offsets into `bytes`.
        offsets: Vec<u32>,
        /// Concatenated UTF-8 payloads.
        bytes: Vec<u8>,
        /// Set bits mark NULL rows.
        nulls: Option<BitVec>,
    },
}

impl ColumnVector {
    /// Empty vector of the given type.
    pub fn empty(data_type: DataType) -> ColumnVector {
        match data_type {
            DataType::Int64 => ColumnVector::Int { values: Vec::new(), nulls: None },
            DataType::Double => ColumnVector::Double { values: Vec::new(), nulls: None },
            DataType::Str => ColumnVector::Str { offsets: vec![0], bytes: Vec::new(), nulls: None },
        }
    }

    /// Build from a slice of values (used by the rowstore scan path and tests).
    pub fn from_values(values: &[Value], data_type: DataType) -> Result<ColumnVector> {
        let mut b = VectorBuilder::new(data_type, values.len());
        for v in values {
            b.push(v)?;
        }
        Ok(b.finish())
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnVector::Int { .. } => DataType::Int64,
            ColumnVector::Double { .. } => DataType::Double,
            ColumnVector::Str { .. } => DataType::Str,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnVector::Int { values, .. } => values.len(),
            ColumnVector::Double { values, .. } => values.len(),
            ColumnVector::Str { offsets, .. } => offsets.len() - 1,
        }
    }

    /// True when the vector holds zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The NULL bitmap (`None` when no row is NULL).
    #[inline]
    pub fn nulls(&self) -> Option<&BitVec> {
        match self {
            ColumnVector::Int { nulls, .. }
            | ColumnVector::Double { nulls, .. }
            | ColumnVector::Str { nulls, .. } => nulls.as_ref(),
        }
    }

    /// Whether row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls().is_some_and(|n| n.get(i))
    }

    /// Integer at row `i` ignoring nullness (callers check [`Self::is_null`]).
    #[inline]
    pub fn int_at(&self, i: usize) -> i64 {
        match self {
            ColumnVector::Int { values, .. } => values[i],
            _ => panic!("int_at on non-int vector"),
        }
    }

    /// Double at row `i`, widening ints.
    #[inline]
    pub fn double_at(&self, i: usize) -> f64 {
        match self {
            ColumnVector::Double { values, .. } => values[i],
            ColumnVector::Int { values, .. } => values[i] as f64,
            _ => panic!("double_at on non-numeric vector"),
        }
    }

    /// String at row `i` ignoring nullness.
    #[inline]
    pub fn str_at(&self, i: usize) -> &str {
        match self {
            ColumnVector::Str { offsets, bytes, .. } => {
                let s = offsets[i] as usize;
                let e = offsets[i + 1] as usize;
                // SAFETY: these bytes were produced by encoding valid &str
                // values and the offsets delimit whole strings, so the slice
                // is valid UTF-8; re-validation is skipped on the hot path.
                unsafe { std::str::from_utf8_unchecked(&bytes[s..e]) }
            }
            _ => panic!("str_at on non-str vector"),
        }
    }

    /// Value at row `i` (allocates for strings).
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match self {
            ColumnVector::Int { values, .. } => Value::Int(values[i]),
            ColumnVector::Double { values, .. } => Value::Double(values[i]),
            ColumnVector::Str { .. } => Value::str(self.str_at(i)),
        }
    }

    /// Gather the given rows into a new vector.
    pub fn gather(&self, sel: &[u32]) -> ColumnVector {
        self.gather_impl::<false>(sel)
    }

    /// [`Self::gather`] where a [`NO_ROW`] entry yields a NULL row (the
    /// padded side of an outer join).
    pub fn gather_padded(&self, sel: &[u32]) -> ColumnVector {
        self.gather_impl::<true>(sel)
    }

    /// One typed copy loop per lane: the type `match` runs once, null-free
    /// lanes copy values only. Null rows hold 0 / the empty string in the
    /// source, so copying the payload keeps that invariant.
    fn gather_impl<const PAD: bool>(&self, sel: &[u32]) -> ColumnVector {
        fn lane<const PAD: bool, T: Copy + Default>(values: &[T], sel: &[u32]) -> Vec<T> {
            sel.iter()
                .map(|&i| if PAD && i == NO_ROW { T::default() } else { values[i as usize] })
                .collect()
        }
        fn null_bits<const PAD: bool>(nulls: Option<&BitVec>, sel: &[u32]) -> Option<BitVec> {
            if nulls.is_none() && !(PAD && sel.contains(&NO_ROW)) {
                return None;
            }
            let mut out = BitVec::zeros(sel.len());
            let mut any = false;
            for (o, &i) in sel.iter().enumerate() {
                if (PAD && i == NO_ROW) || nulls.is_some_and(|n| n.get(i as usize)) {
                    out.set(o);
                    any = true;
                }
            }
            any.then_some(out)
        }
        match self {
            ColumnVector::Int { values, nulls } => ColumnVector::Int {
                values: lane::<PAD, i64>(values, sel),
                nulls: null_bits::<PAD>(nulls.as_ref(), sel),
            },
            ColumnVector::Double { values, nulls } => ColumnVector::Double {
                values: lane::<PAD, f64>(values, sel),
                nulls: null_bits::<PAD>(nulls.as_ref(), sel),
            },
            ColumnVector::Str { offsets, bytes, nulls } => {
                let span = |i: u32| {
                    if PAD && i == NO_ROW {
                        0..0
                    } else {
                        offsets[i as usize] as usize..offsets[i as usize + 1] as usize
                    }
                };
                let total: usize = sel.iter().map(|&i| span(i).len()).sum();
                let mut out_offsets = Vec::with_capacity(sel.len() + 1);
                out_offsets.push(0u32);
                let mut out_bytes = Vec::with_capacity(total);
                for &i in sel {
                    out_bytes.extend_from_slice(&bytes[span(i)]);
                    out_offsets.push(out_bytes.len() as u32);
                }
                ColumnVector::Str {
                    offsets: out_offsets,
                    bytes: out_bytes,
                    nulls: null_bits::<PAD>(nulls.as_ref(), sel),
                }
            }
        }
    }
}

/// Incremental builder for [`ColumnVector`].
#[derive(Debug)]
pub struct VectorBuilder {
    data_type: DataType,
    ints: Vec<i64>,
    doubles: Vec<f64>,
    offsets: Vec<u32>,
    bytes: Vec<u8>,
    null_rows: Vec<usize>,
    rows: usize,
}

impl VectorBuilder {
    /// New builder for `data_type` with row-capacity hint.
    pub fn new(data_type: DataType, capacity: usize) -> VectorBuilder {
        let mut b = VectorBuilder {
            data_type,
            ints: Vec::new(),
            doubles: Vec::new(),
            offsets: Vec::new(),
            bytes: Vec::new(),
            null_rows: Vec::new(),
            rows: 0,
        };
        match data_type {
            DataType::Int64 => b.ints.reserve(capacity),
            DataType::Double => b.doubles.reserve(capacity),
            DataType::Str => {
                b.offsets.reserve(capacity + 1);
                b.offsets.push(0);
            }
        }
        b
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when no rows have been pushed.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Push a NULL row.
    pub fn push_null(&mut self) {
        self.null_rows.push(self.rows);
        match self.data_type {
            DataType::Int64 => self.ints.push(0),
            DataType::Double => self.doubles.push(0.0),
            DataType::Str => self.offsets.push(*self.offsets.last().unwrap()),
        }
        self.rows += 1;
    }

    /// Push an integer row.
    pub fn push_int(&mut self, v: i64) {
        debug_assert_eq!(self.data_type, DataType::Int64);
        self.ints.push(v);
        self.rows += 1;
    }

    /// Push a double row.
    pub fn push_double(&mut self, v: f64) {
        debug_assert_eq!(self.data_type, DataType::Double);
        self.doubles.push(v);
        self.rows += 1;
    }

    /// Push a string row.
    pub fn push_str(&mut self, s: &str) {
        debug_assert_eq!(self.data_type, DataType::Str);
        self.bytes.extend_from_slice(s.as_bytes());
        self.offsets.push(self.bytes.len() as u32);
        self.rows += 1;
    }

    /// Push any value, type-checking against the builder's type.
    pub fn push(&mut self, v: &Value) -> Result<()> {
        match (self.data_type, v) {
            (_, Value::Null) => self.push_null(),
            (DataType::Int64, Value::Int(i)) => self.push_int(*i),
            (DataType::Double, Value::Double(d)) => self.push_double(*d),
            (DataType::Double, Value::Int(i)) => self.push_double(*i as f64),
            (DataType::Str, Value::Str(s)) => self.push_str(s),
            (dt, v) => {
                return Err(Error::InvalidArgument(format!("cannot push {v} into {dt:?} vector")))
            }
        }
        Ok(())
    }

    /// Finish into a [`ColumnVector`].
    pub fn finish(self) -> ColumnVector {
        let nulls = if self.null_rows.is_empty() {
            None
        } else {
            let mut n = BitVec::zeros(self.rows);
            for r in self.null_rows {
                n.set(r);
            }
            Some(n)
        };
        match self.data_type {
            DataType::Int64 => ColumnVector::Int { values: self.ints, nulls },
            DataType::Double => ColumnVector::Double { values: self.doubles, nulls },
            DataType::Str => ColumnVector::Str { offsets: self.offsets, bytes: self.bytes, nulls },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_read_back() {
        let vals = vec![Value::Int(1), Value::Null, Value::Int(-3)];
        let v = ColumnVector::from_values(&vals, DataType::Int64).unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(v.value(0), Value::Int(1));
        assert_eq!(v.value(1), Value::Null);
        assert_eq!(v.value(2), Value::Int(-3));
    }

    #[test]
    fn string_arena() {
        let vals = vec![Value::str("ab"), Value::str(""), Value::Null, Value::str("xyz")];
        let v = ColumnVector::from_values(&vals, DataType::Str).unwrap();
        assert_eq!(v.str_at(0), "ab");
        assert_eq!(v.str_at(1), "");
        assert!(v.is_null(2));
        assert_eq!(v.str_at(3), "xyz");
    }

    #[test]
    fn gather() {
        let vals: Vec<Value> = (0..10).map(Value::Int).collect();
        let v = ColumnVector::from_values(&vals, DataType::Int64).unwrap();
        let g = v.gather(&[9, 0, 5]);
        assert_eq!(g.value(0), Value::Int(9));
        assert_eq!(g.value(1), Value::Int(0));
        assert_eq!(g.value(2), Value::Int(5));
    }

    #[test]
    fn gather_keeps_nulls_and_pads() {
        for (vals, dt) in [
            (vec![Value::Int(7), Value::Null, Value::Int(9)], DataType::Int64),
            (vec![Value::Double(0.5), Value::Null, Value::Double(-0.0)], DataType::Double),
            (vec![Value::str("ab"), Value::Null, Value::str("")], DataType::Str),
        ] {
            let v = ColumnVector::from_values(&vals, dt).unwrap();
            let g = v.gather(&[2, 1, 1, 0]);
            let got: Vec<Value> = (0..4).map(|i| g.value(i)).collect();
            assert_eq!(got, [vals[2].clone(), Value::Null, Value::Null, vals[0].clone()]);
            let g = v.gather(&[2, 0]);
            assert!(!g.is_null(0) && !g.is_null(1), "no null selected -> no null lane");
            let p = v.gather_padded(&[0, NO_ROW, 2]);
            let got: Vec<Value> = (0..3).map(|i| p.value(i)).collect();
            assert_eq!(got, [vals[0].clone(), Value::Null, vals[2].clone()]);
            assert_eq!(p.data_type(), dt);
        }
    }

    #[test]
    fn int_widens_into_double_builder() {
        let v = ColumnVector::from_values(&[Value::Int(2)], DataType::Double).unwrap();
        assert_eq!(v.double_at(0), 2.0);
    }

    #[test]
    fn type_mismatch_rejected() {
        assert!(ColumnVector::from_values(&[Value::str("x")], DataType::Int64).is_err());
    }
}
