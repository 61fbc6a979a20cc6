//! Column batches: the unit of data flowing between vectorized operators.

use s2_common::{DataType, Error, Result, Row, Value};
use s2_encoding::{ColumnVector, VectorBuilder};

use crate::expr::Expr;
use crate::veval;

/// A batch of rows in columnar form.
#[derive(Debug, Clone)]
pub struct Batch {
    /// One vector per output column.
    pub columns: Vec<ColumnVector>,
}

impl Batch {
    /// Build from vectors (all must have equal length).
    pub fn new(columns: Vec<ColumnVector>) -> Batch {
        debug_assert!(columns.windows(2).all(|w| w[0].len() == w[1].len()));
        Batch { columns }
    }

    /// Empty batch with the given column types.
    pub fn empty(types: &[DataType]) -> Batch {
        Batch { columns: types.iter().map(|&t| ColumnVector::empty(t)).collect() }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, ColumnVector::len)
    }

    /// Column count.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Build a batch from rows, projecting the given columns.
    pub fn from_rows(rows: &[Row], cols: &[usize], types: &[DataType]) -> Result<Batch> {
        let mut builders: Vec<VectorBuilder> =
            cols.iter().zip(types).map(|(_, &t)| VectorBuilder::new(t, rows.len())).collect();
        for row in rows {
            for (b, &c) in builders.iter_mut().zip(cols) {
                b.push(row.get(c))?;
            }
        }
        Ok(Batch { columns: builders.into_iter().map(VectorBuilder::finish).collect() })
    }

    /// Value at (column, row).
    pub fn value(&self, col: usize, row: usize) -> Value {
        self.columns[col].value(row)
    }

    /// Materialize row `i` as a [`Row`].
    pub fn row(&self, i: usize) -> Row {
        Row::new(self.columns.iter().map(|c| c.value(i)).collect())
    }

    /// Gather selected rows into a new batch.
    pub fn gather(&self, sel: &[u32]) -> Batch {
        Batch { columns: self.columns.iter().map(|c| c.gather(sel)).collect() }
    }

    /// Concatenate batches with identical schemas (bulk column appends —
    /// this sits on the scatter/gather hot path). A single batch is handed
    /// back as is.
    pub fn concat(mut batches: Vec<Batch>) -> Result<Batch> {
        if batches.len() == 1 {
            return Ok(batches.remove(0));
        }
        let Some(first) = batches.first() else {
            return Err(Error::InvalidArgument("concat of zero batches".into()));
        };
        if batches.iter().any(|b| b.width() != first.width()) {
            return Err(Error::InvalidArgument("concat width mismatch".into()));
        }
        let columns =
            (0..first.width()).map(|ci| concat_column(&batches, ci)).collect::<Result<_>>()?;
        Ok(Batch { columns })
    }

    /// Evaluate `expr` (column refs = batch positions) for every row,
    /// producing a new vector of the given type. Vectorized
    /// ([`crate::veval`]): `AND`/`OR` evaluate every operand over every row.
    pub fn eval_expr(&self, expr: &Expr, out_type: DataType) -> Result<ColumnVector> {
        let rows = self.rows();
        let lane = veval::eval_vector(&self.columns, rows, expr)?;
        Ok(lane.into_column(rows, Some(out_type))?.into_owned())
    }

    /// Filter rows by `expr`, returning passing row indexes (of `sel`, when
    /// given). Vectorized like [`Self::eval_expr`]; NULL verdicts drop. Each
    /// top-level conjunct narrows the rows the next one sees, under the
    /// conjunct rule ([`veval::narrow`]).
    pub fn filter(&self, expr: &Expr, sel: Option<&[u32]>) -> Result<Vec<u32>> {
        let conjuncts = expr.clone().split_conjuncts();
        let steps = (0..conjuncts.len()).map(|i| vec![i]).collect();
        // `None` = every row, evaluated in place.
        let out = veval::narrow(steps, sel.map(<[u32]>::to_vec), |step, sel| {
            let conjunct = &conjuncts[step[0]];
            Ok(Some(match sel {
                None => {
                    let mask = veval::filter_mask(&self.columns, self.rows(), conjunct)?;
                    mask.iter_ones().map(|i| i as u32).collect()
                }
                Some(sel) if sel.is_empty() => Vec::new(),
                Some(sel) => {
                    let cols = veval::gather_referenced(&self.columns, sel, conjunct);
                    let mask = veval::filter_mask(&cols, sel.len(), conjunct)?;
                    mask.iter_ones().map(|i| sel[i]).collect()
                }
            }))
        })?;
        Ok(out.unwrap_or_else(|| (0..self.rows() as u32).collect()))
    }
}

/// Bulk-append one column across batches.
fn concat_column(batches: &[Batch], ci: usize) -> Result<ColumnVector> {
    use s2_common::BitVec;
    let total: usize = batches.iter().map(Batch::rows).sum();
    let any_nulls = batches.iter().any(|b| b.columns[ci].nulls().is_some());
    let mut nulls = if any_nulls { Some(BitVec::zeros(total)) } else { None };
    let mut base = 0usize;
    let fill_nulls = |col: &ColumnVector, rows: usize, nulls: &mut Option<BitVec>, base: usize| {
        if let Some(n) = nulls {
            for ri in 0..rows {
                if col.is_null(ri) {
                    n.set(base + ri);
                }
            }
        }
    };
    match &batches[0].columns[ci] {
        ColumnVector::Int { .. } => {
            let mut values = Vec::with_capacity(total);
            for b in batches {
                let col = &b.columns[ci];
                let ColumnVector::Int { values: v, .. } = col else {
                    return Err(Error::InvalidArgument("concat type mismatch".into()));
                };
                values.extend_from_slice(v);
                fill_nulls(col, v.len(), &mut nulls, base);
                base += v.len();
            }
            Ok(ColumnVector::Int { values, nulls })
        }
        ColumnVector::Double { .. } => {
            let mut values = Vec::with_capacity(total);
            for b in batches {
                let col = &b.columns[ci];
                let ColumnVector::Double { values: v, .. } = col else {
                    return Err(Error::InvalidArgument("concat type mismatch".into()));
                };
                values.extend_from_slice(v);
                fill_nulls(col, v.len(), &mut nulls, base);
                base += v.len();
            }
            Ok(ColumnVector::Double { values, nulls })
        }
        ColumnVector::Str { .. } => {
            let total_bytes: usize = batches
                .iter()
                .map(|b| match &b.columns[ci] {
                    ColumnVector::Str { bytes, .. } => bytes.len(),
                    _ => 0,
                })
                .sum();
            let mut offsets = Vec::with_capacity(total + 1);
            offsets.push(0u32);
            let mut bytes = Vec::with_capacity(total_bytes);
            for b in batches {
                let col = &b.columns[ci];
                let ColumnVector::Str { offsets: o, bytes: bs, .. } = col else {
                    return Err(Error::InvalidArgument("concat type mismatch".into()));
                };
                let shift = bytes.len() as u32;
                bytes.extend_from_slice(bs);
                offsets.extend(o.iter().skip(1).map(|&x| x + shift));
                fill_nulls(col, o.len() - 1, &mut nulls, base);
                base += o.len() - 1;
            }
            Ok(ColumnVector::Str { offsets, bytes, nulls })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;

    fn batch() -> Batch {
        let rows: Vec<Row> = (0..10)
            .map(|i| Row::new(vec![Value::Int(i), Value::str(format!("s{}", i % 3))]))
            .collect();
        Batch::from_rows(&rows, &[0, 1], &[DataType::Int64, DataType::Str]).unwrap()
    }

    #[test]
    fn from_rows_and_access() {
        let b = batch();
        assert_eq!(b.rows(), 10);
        assert_eq!(b.value(0, 4), Value::Int(4));
        assert_eq!(b.value(1, 4), Value::str("s1"));
        assert_eq!(b.row(2).values().len(), 2);
    }

    #[test]
    fn filter_and_gather() {
        let b = batch();
        let sel = b.filter(&Expr::cmp(0, CmpOp::Ge, 7i64), None).unwrap();
        assert_eq!(sel, vec![7, 8, 9]);
        let g = b.gather(&sel);
        assert_eq!(g.rows(), 3);
        assert_eq!(g.value(0, 0), Value::Int(7));
    }

    #[test]
    fn filter_with_input_selection() {
        let b = batch();
        let sel = b.filter(&Expr::eq(1, "s0"), Some(&[0, 1, 2])).unwrap();
        assert_eq!(sel, vec![0]);
    }

    /// A conjunct's error counts only on rows every other conjunct accepts;
    /// inside one conjunct every operand runs over every row.
    #[test]
    fn conjunct_errors_count_only_on_rows_the_others_accept() {
        use crate::expr::ArithOp;
        let rows: Vec<Row> = (0..200).map(|i| Row::new(vec![Value::Int(i % 7)])).collect();
        let b = Batch::from_rows(&rows, &[0], &[DataType::Int64]).unwrap();
        let div = Expr::Cmp(
            CmpOp::Gt,
            Box::new(Expr::Arith(
                ArithOp::Div,
                Box::new(Expr::Literal(Value::Int(100))),
                Box::new(Expr::Column(0)),
            )),
            Box::new(Expr::Literal(Value::Int(5))),
        );
        let nonzero = Expr::cmp(0, CmpOp::Ne, 0i64);
        for f in [nonzero.clone().and(div.clone()), div.clone().and(nonzero)] {
            assert_eq!(b.filter(&f, None).unwrap().len(), 171, "{f:?}");
            assert_eq!(b.filter(&f, Some(&[0, 1, 7, 8])).unwrap(), [1, 8]);
        }
        for f in [div.clone(), Expr::Or(vec![Expr::eq(0, 0i64), div])] {
            assert_eq!(
                b.filter(&f, None).unwrap_err().to_string(),
                "invalid argument: division by zero"
            );
        }
    }

    #[test]
    fn concat() {
        let a = batch();
        let c = Batch::concat(vec![a.clone(), a]).unwrap();
        assert_eq!(c.rows(), 20);
        assert_eq!(c.value(0, 15), Value::Int(5));
    }

    #[test]
    fn eval_expr_projection() {
        let b = batch();
        let doubled = b
            .eval_expr(
                &Expr::Arith(
                    crate::expr::ArithOp::Mul,
                    Box::new(Expr::Column(0)),
                    Box::new(Expr::Literal(Value::Int(2))),
                ),
                DataType::Int64,
            )
            .unwrap();
        assert_eq!(doubled.int_at(4), 8);
    }
}
