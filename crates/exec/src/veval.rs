//! Vectorized expression evaluation over decoded column vectors.
//!
//! Mirrors [`Expr::eval`]'s scalar semantics exactly — same three-valued
//! logic, same Int→Double widening and `total_cmp` ordering, same error
//! values — but runs column-at-a-time: comparisons and arithmetic over
//! numeric lanes are tight loops over `&[i64]`/`&[f64]`, and boolean
//! combinators fold tri-state byte vectors instead of building a `Value`
//! per row. Nodes whose scalar semantics depend on per-row short-circuit
//! (CASE) or per-row conversions (LIKE, IN, YEAR, SUBSTR) fall back to the
//! scalar evaluator row-by-row, so results stay identical by construction.
//!
//! One deliberate divergence: `AND`/`OR` evaluate every operand over every
//! row (no per-row short-circuit), so an expression whose scalar evaluation
//! only avoids an error via short-circuit (e.g. a division by zero guarded
//! by an earlier conjunct) can error here. Successful evaluations are
//! byte-identical.

use std::borrow::Cow;

use s2_common::{BitVec, DataType, Error, Result, Value};
use s2_encoding::{ColumnVector, VectorBuilder};

use crate::expr::{truthy, ArithOp, CmpOp, Expr};

const T_FALSE: u8 = 0;
const T_TRUE: u8 = 1;
const T_NULL: u8 = 2;

/// Result of a vectorized evaluation: a constant, a borrowed decoded
/// column, a typed lane, or per-row values.
#[derive(Debug)]
pub enum EvalVec<'a> {
    /// Every row evaluates to this value.
    Scalar(Value),
    /// The expression is a bare column reference.
    Col(&'a ColumnVector),
    /// Int lane (null rows hold 0, mirroring [`ColumnVector`]).
    Int(Vec<i64>, Option<BitVec>),
    /// Double lane (null rows hold 0.0).
    Double(Vec<f64>, Option<BitVec>),
    /// Generic per-row values (string producers, CASE results).
    Vals(Vec<Value>),
}

impl<'a> EvalVec<'a> {
    /// The value at `row`, as the scalar evaluator would produce it.
    pub fn value_at(&self, row: usize) -> Value {
        match self {
            EvalVec::Scalar(v) => v.clone(),
            EvalVec::Col(c) => c.value(row),
            EvalVec::Int(v, nulls) => {
                if nulls.as_ref().is_some_and(|n| n.get(row)) {
                    Value::Null
                } else {
                    Value::Int(v[row])
                }
            }
            EvalVec::Double(v, nulls) => {
                if nulls.as_ref().is_some_and(|n| n.get(row)) {
                    Value::Null
                } else {
                    Value::Double(v[row])
                }
            }
            EvalVec::Vals(v) => v[row].clone(),
        }
    }

    /// The `rows` values as one typed column. A lane that already has the
    /// wanted type (or any type, for `want: None`) is handed over without a
    /// copy; everything else goes through [`VectorBuilder::push`], so the
    /// conversion rules are the builder's: NULL fits every type, `Int`
    /// widens into a `Double` column, any other mismatch is an error.
    /// `want: None` types per-row values by their widest member (`Str`,
    /// else `Double`, else `Int64` — also when every row is NULL).
    pub fn into_column(self, rows: usize, want: Option<DataType>) -> Result<Cow<'a, ColumnVector>> {
        let fits = |t: DataType| want.is_none_or(|w| w == t);
        Ok(match self {
            EvalVec::Col(c) if fits(c.data_type()) => Cow::Borrowed(c),
            EvalVec::Int(values, nulls) if fits(DataType::Int64) => {
                Cow::Owned(ColumnVector::Int { values, nulls })
            }
            EvalVec::Double(values, nulls) if fits(DataType::Double) => {
                Cow::Owned(ColumnVector::Double { values, nulls })
            }
            other => {
                let natural = || match &other {
                    EvalVec::Scalar(v) => v.data_type(),
                    EvalVec::Vals(vals) => widest_type(vals),
                    _ => unreachable!("typed lanes fit every `want: None`"),
                };
                let data_type = want.or_else(natural).unwrap_or(DataType::Int64);
                let mut b = VectorBuilder::new(data_type, rows);
                match &other {
                    EvalVec::Scalar(v) => (0..rows).try_for_each(|_| b.push(v))?,
                    EvalVec::Vals(vals) => vals.iter().try_for_each(|v| b.push(v))?,
                    lane => (0..rows).try_for_each(|r| b.push(&lane.value_at(r)))?,
                }
                Cow::Owned(b.finish())
            }
        })
    }
}

/// The narrowest column type that holds every non-NULL value of `vals`
/// (`Int64` widens into `Double`; `Str` wins, leaving the numerics to fail
/// the push): `None` when all are NULL.
pub(crate) fn widest_type(vals: &[Value]) -> Option<DataType> {
    vals.iter().filter_map(Value::data_type).max_by_key(|t| match t {
        DataType::Int64 => 0,
        DataType::Double => 1,
        DataType::Str => 2,
    })
}

/// Internal evaluation result; `Bool` keeps predicates in tri-state form
/// (0 = false, 1 = true, 2 = null) until a consumer needs values.
enum EV<'a> {
    Scalar(Value),
    Col(&'a ColumnVector),
    Int(Vec<i64>, Option<BitVec>),
    Double(Vec<f64>, Option<BitVec>),
    Bool(Vec<u8>),
    Vals(Vec<Value>),
}

/// Evaluate `expr` over `rows` rows of `cols` (column ordinals index
/// `cols` directly — remap table ordinals before calling).
pub fn eval_vector<'a>(cols: &'a [ColumnVector], rows: usize, expr: &Expr) -> Result<EvalVec<'a>> {
    Ok(match eval(cols, rows, expr)? {
        EV::Scalar(v) => EvalVec::Scalar(v),
        EV::Col(c) => EvalVec::Col(c),
        EV::Int(v, n) => EvalVec::Int(v, n),
        EV::Double(v, n) => EvalVec::Double(v, n),
        EV::Vals(v) => EvalVec::Vals(v),
        EV::Bool(b) => {
            // Predicates surface as Int(0/1) with nulls, matching the
            // scalar evaluator's Value::Int / Value::Null outputs.
            let mut nulls = BitVec::zeros(rows);
            let mut any = false;
            let vals = b
                .iter()
                .enumerate()
                .map(|(r, &t)| {
                    if t == T_NULL {
                        nulls.set(r);
                        any = true;
                        0
                    } else {
                        t as i64
                    }
                })
                .collect();
            EvalVec::Int(vals, any.then_some(nulls))
        }
    })
}

/// Evaluate `expr` as a filter over `rows` rows: bit set where the
/// predicate is true (NULL rows drop, like [`Expr::eval_bool`]).
pub fn filter_mask(cols: &[ColumnVector], rows: usize, expr: &Expr) -> Result<BitVec> {
    let b = to_bool(eval(cols, rows, expr)?, rows);
    let mut mask = BitVec::zeros(rows);
    for (r, &t) in b.iter().enumerate() {
        if t == T_TRUE {
            mask.set(r);
        }
    }
    Ok(mask)
}

fn eval<'a>(cols: &'a [ColumnVector], n: usize, expr: &Expr) -> Result<EV<'a>> {
    Ok(match expr {
        Expr::Column(c) => EV::Col(&cols[*c]),
        Expr::Literal(v) => EV::Scalar(v.clone()),
        Expr::Cmp(op, a, b) => {
            let va = eval(cols, n, a)?;
            let vb = eval(cols, n, b)?;
            cmp_ev(*op, va, vb, n)
        }
        Expr::And(parts) | Expr::Or(parts) => {
            let is_and = matches!(expr, Expr::And(_));
            let mut out = vec![if is_and { T_TRUE } else { T_FALSE }; n];
            for p in parts {
                let b = to_bool(eval(cols, n, p)?, n);
                for r in 0..n {
                    match (is_and, b[r]) {
                        (true, T_FALSE) => out[r] = T_FALSE,
                        (true, T_NULL) if out[r] == T_TRUE => out[r] = T_NULL,
                        (false, T_TRUE) => out[r] = T_TRUE,
                        (false, T_NULL) if out[r] == T_FALSE => out[r] = T_NULL,
                        _ => {}
                    }
                }
            }
            EV::Bool(out)
        }
        Expr::Not(x) => {
            let mut b = to_bool(eval(cols, n, x)?, n);
            for t in &mut b {
                *t = match *t {
                    T_FALSE => T_TRUE,
                    T_TRUE => T_FALSE,
                    other => other,
                };
            }
            EV::Bool(b)
        }
        Expr::IsNull(x) => match eval(cols, n, x)? {
            EV::Scalar(v) => EV::Scalar(Value::Int(v.is_null() as i64)),
            EV::Col(c) => EV::Bool((0..n).map(|r| c.is_null(r) as u8).collect()),
            EV::Int(_, nulls) | EV::Double(_, nulls) => match nulls {
                Some(nu) => EV::Bool((0..n).map(|r| nu.get(r) as u8).collect()),
                None => EV::Bool(vec![T_FALSE; n]),
            },
            EV::Bool(b) => EV::Bool(b.iter().map(|&t| (t == T_NULL) as u8).collect()),
            EV::Vals(v) => EV::Bool(v.iter().map(|v| v.is_null() as u8).collect()),
        },
        Expr::Arith(op, a, b) => {
            let va = eval(cols, n, a)?;
            let vb = eval(cols, n, b)?;
            arith_ev(*op, va, vb, n)?
        }
        // Per-row fallbacks: these nodes' scalar semantics hinge on
        // per-row short-circuit (CASE) or conversions whose error
        // behavior must track row order exactly — delegate to the
        // scalar evaluator so results match by construction.
        Expr::InList(..) | Expr::Like(..) => {
            let mut out = vec![0u8; n];
            for (r, slot) in out.iter_mut().enumerate() {
                *slot = tri_of(&expr.eval(&|c| cols[c].value(r))?);
            }
            EV::Bool(out)
        }
        Expr::Case { .. } | Expr::Year(_) | Expr::Substr(..) => {
            let mut out = Vec::with_capacity(n);
            for r in 0..n {
                out.push(expr.eval(&|c| cols[c].value(r))?);
            }
            EV::Vals(out)
        }
    })
}

fn tri_of(v: &Value) -> u8 {
    match v {
        Value::Null => T_NULL,
        v if truthy(v) => T_TRUE,
        _ => T_FALSE,
    }
}

/// Collapse any representation to tri-state booleans.
fn to_bool(ev: EV<'_>, n: usize) -> Vec<u8> {
    match ev {
        EV::Bool(b) => b,
        EV::Scalar(v) => vec![tri_of(&v); n],
        EV::Int(v, nulls) => lane_bool(n, nulls.as_ref(), |r| v[r] != 0),
        EV::Double(v, nulls) => lane_bool(n, nulls.as_ref(), |r| v[r] != 0.0),
        EV::Col(c) => match c {
            ColumnVector::Int { values, nulls } => lane_bool(n, nulls.as_ref(), |r| values[r] != 0),
            ColumnVector::Double { values, nulls } => {
                lane_bool(n, nulls.as_ref(), |r| values[r] != 0.0)
            }
            ColumnVector::Str { nulls, .. } => {
                lane_bool(n, nulls.as_ref(), |r| !c.str_at(r).is_empty())
            }
        },
        EV::Vals(v) => v.iter().map(tri_of).collect(),
    }
}

fn lane_bool(n: usize, nulls: Option<&BitVec>, f: impl Fn(usize) -> bool) -> Vec<u8> {
    (0..n).map(|r| if nulls.is_some_and(|nu| nu.get(r)) { T_NULL } else { f(r) as u8 }).collect()
}

/// One side of a numeric comparison/arithmetic: a lane or a constant.
enum Num<'a> {
    I(&'a [i64], Option<&'a BitVec>),
    D(&'a [f64], Option<&'a BitVec>),
    CI(i64),
    CD(f64),
}

impl Num<'_> {
    fn is_int(&self) -> bool {
        matches!(self, Num::I(..) | Num::CI(_))
    }

    #[inline]
    fn null(&self, r: usize) -> bool {
        match self {
            Num::I(_, Some(nu)) | Num::D(_, Some(nu)) => nu.get(r),
            _ => false,
        }
    }

    #[inline]
    fn i(&self, r: usize) -> i64 {
        match self {
            Num::I(v, _) => v[r],
            Num::CI(c) => *c,
            _ => unreachable!("i() on a double lane"),
        }
    }

    /// Widens Int lanes with `as f64`, matching [`Value::total_cmp`] and
    /// `Value::as_double`.
    #[inline]
    fn d(&self, r: usize) -> f64 {
        match self {
            Num::I(v, _) => v[r] as f64,
            Num::D(v, _) => v[r],
            Num::CI(c) => *c as f64,
            Num::CD(c) => *c,
        }
    }
}

fn num_side<'a>(ev: &'a EV<'_>) -> Option<Num<'a>> {
    match ev {
        EV::Scalar(Value::Int(i)) => Some(Num::CI(*i)),
        EV::Scalar(Value::Double(d)) => Some(Num::CD(*d)),
        EV::Int(v, nulls) => Some(Num::I(v, nulls.as_ref())),
        EV::Double(v, nulls) => Some(Num::D(v, nulls.as_ref())),
        EV::Col(ColumnVector::Int { values, nulls }) => Some(Num::I(values, nulls.as_ref())),
        EV::Col(ColumnVector::Double { values, nulls }) => Some(Num::D(values, nulls.as_ref())),
        _ => None,
    }
}

enum StrSide<'a> {
    C(&'a str),
    V(&'a ColumnVector),
}

impl StrSide<'_> {
    #[inline]
    fn null(&self, r: usize) -> bool {
        match self {
            StrSide::C(_) => false,
            StrSide::V(c) => c.is_null(r),
        }
    }

    #[inline]
    fn s(&self, r: usize) -> &str {
        match self {
            StrSide::C(s) => s,
            StrSide::V(c) => c.str_at(r),
        }
    }
}

fn str_side<'a>(ev: &'a EV<'_>) -> Option<StrSide<'a>> {
    match ev {
        EV::Scalar(Value::Str(s)) => Some(StrSide::C(s.as_ref())),
        EV::Col(c @ ColumnVector::Str { .. }) => Some(StrSide::V(c)),
        _ => None,
    }
}

/// Rewrite tri-state booleans as an Int lane so comparison/arith sides
/// only deal with typed lanes.
fn normalize(ev: EV<'_>) -> EV<'_> {
    match ev {
        EV::Bool(b) => {
            let mut nulls = BitVec::zeros(b.len());
            let mut any = false;
            let vals = b
                .iter()
                .enumerate()
                .map(|(r, &t)| {
                    if t == T_NULL {
                        nulls.set(r);
                        any = true;
                        0
                    } else {
                        t as i64
                    }
                })
                .collect();
            EV::Int(vals, any.then_some(nulls))
        }
        other => other,
    }
}

fn cmp_res(op: CmpOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
    }
}

fn value_of(ev: &EV<'_>, r: usize) -> Value {
    match ev {
        EV::Scalar(v) => v.clone(),
        EV::Col(c) => c.value(r),
        EV::Int(v, nulls) => {
            if nulls.as_ref().is_some_and(|nu| nu.get(r)) {
                Value::Null
            } else {
                Value::Int(v[r])
            }
        }
        EV::Double(v, nulls) => {
            if nulls.as_ref().is_some_and(|nu| nu.get(r)) {
                Value::Null
            } else {
                Value::Double(v[r])
            }
        }
        EV::Bool(b) => match b[r] {
            T_NULL => Value::Null,
            t => Value::Int(t as i64),
        },
        EV::Vals(v) => v[r].clone(),
    }
}

fn cmp_ev<'a>(op: CmpOp, a: EV<'a>, b: EV<'a>, n: usize) -> EV<'a> {
    // A null constant operand nulls every row before any comparison.
    if matches!(a, EV::Scalar(Value::Null)) || matches!(b, EV::Scalar(Value::Null)) {
        return EV::Bool(vec![T_NULL; n]);
    }
    if let (EV::Scalar(x), EV::Scalar(y)) = (&a, &b) {
        return EV::Scalar(Value::Int(cmp_res(op, x.total_cmp(y)) as i64));
    }
    let a = normalize(a);
    let b = normalize(b);
    let mut out = vec![0u8; n];
    if let (Some(x), Some(y)) = (num_side(&a), num_side(&b)) {
        let both_int = x.is_int() && y.is_int();
        for (r, slot) in out.iter_mut().enumerate() {
            if x.null(r) || y.null(r) {
                *slot = T_NULL;
            } else {
                let ord = if both_int { x.i(r).cmp(&y.i(r)) } else { x.d(r).total_cmp(&y.d(r)) };
                *slot = cmp_res(op, ord) as u8;
            }
        }
    } else if let (Some(x), Some(y)) = (str_side(&a), str_side(&b)) {
        for (r, slot) in out.iter_mut().enumerate() {
            *slot =
                if x.null(r) || y.null(r) { T_NULL } else { cmp_res(op, x.s(r).cmp(y.s(r))) as u8 };
        }
    } else {
        // Mixed-rank operands: fall back to Value::total_cmp per row.
        for (r, slot) in out.iter_mut().enumerate() {
            let (va, vb) = (value_of(&a, r), value_of(&b, r));
            *slot = if va.is_null() || vb.is_null() {
                T_NULL
            } else {
                cmp_res(op, va.total_cmp(&vb)) as u8
            };
        }
    }
    EV::Bool(out)
}

/// Scalar arithmetic core — the exact body of [`Expr::eval`]'s Arith arm.
fn scalar_arith(op: ArithOp, va: &Value, vb: &Value) -> Result<Value> {
    if va.is_null() || vb.is_null() {
        return Ok(Value::Null);
    }
    Ok(match (va, vb) {
        (Value::Int(x), Value::Int(y)) => match op {
            ArithOp::Add => Value::Int(x.wrapping_add(*y)),
            ArithOp::Sub => Value::Int(x.wrapping_sub(*y)),
            ArithOp::Mul => Value::Int(x.wrapping_mul(*y)),
            ArithOp::Div => {
                if *y == 0 {
                    return Err(Error::InvalidArgument("division by zero".into()));
                }
                Value::Int(x / y)
            }
        },
        _ => {
            let x = va.as_double()?;
            let y = vb.as_double()?;
            Value::Double(match op {
                ArithOp::Add => x + y,
                ArithOp::Sub => x - y,
                ArithOp::Mul => x * y,
                ArithOp::Div => x / y,
            })
        }
    })
}

fn arith_ev<'a>(op: ArithOp, a: EV<'a>, b: EV<'a>, n: usize) -> Result<EV<'a>> {
    // A null constant operand short-circuits every row to NULL (the
    // scalar evaluator null-checks before any conversion can error).
    if matches!(a, EV::Scalar(Value::Null)) || matches!(b, EV::Scalar(Value::Null)) {
        return Ok(EV::Scalar(Value::Null));
    }
    if let (EV::Scalar(x), EV::Scalar(y)) = (&a, &b) {
        return Ok(EV::Scalar(scalar_arith(op, x, y)?));
    }
    let a = normalize(a);
    let b = normalize(b);
    if let (Some(x), Some(y)) = (num_side(&a), num_side(&b)) {
        let mut nulls = BitVec::zeros(n);
        let mut any = false;
        if x.is_int() && y.is_int() {
            let mut out = vec![0i64; n];
            for (r, slot) in out.iter_mut().enumerate() {
                if x.null(r) || y.null(r) {
                    nulls.set(r);
                    any = true;
                    continue;
                }
                let (xi, yi) = (x.i(r), y.i(r));
                *slot = match op {
                    ArithOp::Add => xi.wrapping_add(yi),
                    ArithOp::Sub => xi.wrapping_sub(yi),
                    ArithOp::Mul => xi.wrapping_mul(yi),
                    ArithOp::Div => {
                        if yi == 0 {
                            return Err(Error::InvalidArgument("division by zero".into()));
                        }
                        xi / yi
                    }
                };
            }
            return Ok(EV::Int(out, any.then_some(nulls)));
        }
        let mut out = vec![0f64; n];
        for (r, slot) in out.iter_mut().enumerate() {
            if x.null(r) || y.null(r) {
                nulls.set(r);
                any = true;
                continue;
            }
            let (xd, yd) = (x.d(r), y.d(r));
            *slot = match op {
                ArithOp::Add => xd + yd,
                ArithOp::Sub => xd - yd,
                ArithOp::Mul => xd * yd,
                ArithOp::Div => xd / yd,
            };
        }
        return Ok(EV::Double(out, any.then_some(nulls)));
    }
    // A string operand (or mixed Vals): replicate scalar conversion errors
    // row by row.
    let mut out = Vec::with_capacity(n);
    for r in 0..n {
        out.push(scalar_arith(op, &value_of(&a, r), &value_of(&b, r))?);
    }
    Ok(EV::Vals(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2_common::DataType;
    use s2_encoding::VectorBuilder;

    fn col(vals: &[Value], dt: DataType) -> ColumnVector {
        let mut b = VectorBuilder::new(dt, vals.len());
        for v in vals {
            if v.is_null() {
                b.push_null();
            } else {
                b.push(v).unwrap();
            }
        }
        b.finish()
    }

    /// Assert the vectorized result equals the scalar evaluator's, row by
    /// row, on both values and filter verdicts.
    fn check(cols: &[ColumnVector], rows: usize, e: &Expr) {
        let get_row = |r: usize| move |c: usize| cols[c].value(r);
        let vec_res = eval_vector(cols, rows, e);
        match vec_res {
            Ok(ev) => {
                for r in 0..rows {
                    let scalar = e.eval(&get_row(r)).unwrap();
                    assert_eq!(ev.value_at(r), scalar, "row {r} of {e:?}");
                }
                let mask = filter_mask(cols, rows, e).unwrap();
                for r in 0..rows {
                    assert_eq!(mask.get(r), e.eval_bool(&get_row(r)).unwrap(), "mask row {r}");
                }
            }
            Err(err) => {
                // The scalar path must also fail on some row with the
                // same message (order may differ under short-circuit).
                let scalar_errs: Vec<String> = (0..rows)
                    .filter_map(|r| e.eval(&get_row(r)).err().map(|e| e.to_string()))
                    .collect();
                assert!(
                    scalar_errs.contains(&err.to_string()),
                    "vector error {err} not produced by scalar path"
                );
            }
        }
    }

    fn test_cols() -> Vec<ColumnVector> {
        let n = 37;
        let ints: Vec<Value> = (0..n)
            .map(|i| if i % 7 == 0 { Value::Null } else { Value::Int(i as i64 % 9 - 4) })
            .collect();
        let doubles: Vec<Value> = (0..n)
            .map(|i| if i % 5 == 0 { Value::Null } else { Value::Double(i as f64 / 3.0 - 4.0) })
            .collect();
        let strs: Vec<Value> = (0..n)
            .map(|i| {
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::str(["", "air", "mail", "ship"][i % 4])
                }
            })
            .collect();
        vec![
            col(&ints, DataType::Int64),
            col(&doubles, DataType::Double),
            col(&strs, DataType::Str),
        ]
    }

    #[test]
    fn cmp_lanes_match_scalar() {
        let cols = test_cols();
        let n = cols[0].len();
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            check(&cols, n, &Expr::cmp(0, op, 1i64)); // int vs int const
            check(&cols, n, &Expr::cmp(0, op, 0.5)); // int vs double const
            check(&cols, n, &Expr::cmp(1, op, -1.0)); // double vs double
            check(&cols, n, &Expr::cmp(2, op, "air")); // str vs str
                                                       // column vs column, including mixed ranks
            for (a, b) in [(0, 0), (0, 1), (1, 1), (2, 2), (0, 2)] {
                check(
                    &cols,
                    n,
                    &Expr::Cmp(op, Box::new(Expr::Column(a)), Box::new(Expr::Column(b))),
                );
            }
            check(
                &cols,
                n,
                &Expr::Cmp(op, Box::new(Expr::Column(0)), Box::new(Expr::Literal(Value::Null))),
            );
        }
    }

    #[test]
    fn bool_combinators_match_scalar() {
        let cols = test_cols();
        let n = cols[0].len();
        let c1 = Expr::cmp(0, CmpOp::Gt, 0i64);
        let c2 = Expr::cmp(1, CmpOp::Lt, 2.0);
        let c3 = Expr::eq(2, "mail");
        check(&cols, n, &Expr::And(vec![c1.clone(), c2.clone(), c3.clone()]));
        check(&cols, n, &Expr::Or(vec![c1.clone(), c2.clone(), c3.clone()]));
        check(&cols, n, &Expr::Not(Box::new(c1.clone())));
        check(&cols, n, &Expr::IsNull(Box::new(Expr::Column(0))));
        check(&cols, n, &Expr::IsNull(Box::new(c2.clone())));
        check(&cols, n, &Expr::And(vec![]));
        check(&cols, n, &Expr::Or(vec![]));
        check(&cols, n, &Expr::Or(vec![Expr::And(vec![c1, c3]), c2]));
    }

    #[test]
    fn arith_match_scalar() {
        let cols = test_cols();
        let n = cols[0].len();
        for op in [ArithOp::Add, ArithOp::Sub, ArithOp::Mul] {
            check(&cols, n, &Expr::Arith(op, Box::new(Expr::Column(0)), Box::new(Expr::Column(0))));
            check(&cols, n, &Expr::Arith(op, Box::new(Expr::Column(0)), Box::new(Expr::Column(1))));
            check(
                &cols,
                n,
                &Expr::Arith(
                    op,
                    Box::new(Expr::Column(1)),
                    Box::new(Expr::Literal(Value::Double(2.5))),
                ),
            );
            check(
                &cols,
                n,
                &Expr::Arith(op, Box::new(Expr::Column(0)), Box::new(Expr::Literal(Value::Int(3)))),
            );
        }
        // Division by a nonzero constant, double division, null constant.
        check(
            &cols,
            n,
            &Expr::Arith(
                ArithOp::Div,
                Box::new(Expr::Column(0)),
                Box::new(Expr::Literal(Value::Int(2))),
            ),
        );
        check(
            &cols,
            n,
            &Expr::Arith(
                ArithOp::Div,
                Box::new(Expr::Column(1)),
                Box::new(Expr::Literal(Value::Double(0.0))),
            ),
        );
        check(
            &cols,
            n,
            &Expr::Arith(
                ArithOp::Mul,
                Box::new(Expr::Column(0)),
                Box::new(Expr::Literal(Value::Null)),
            ),
        );
        // Int division by zero errors identically.
        check(
            &cols,
            n,
            &Expr::Arith(
                ArithOp::Div,
                Box::new(Expr::Column(0)),
                Box::new(Expr::Literal(Value::Int(0))),
            ),
        );
        // String operand errors identically.
        check(
            &cols,
            n,
            &Expr::Arith(
                ArithOp::Add,
                Box::new(Expr::Column(2)),
                Box::new(Expr::Literal(Value::Int(1))),
            ),
        );
    }

    #[test]
    fn rowwise_fallback_nodes_match_scalar() {
        let cols = test_cols();
        let n = cols[0].len();
        check(
            &cols,
            n,
            &Expr::InList(
                Box::new(Expr::Column(0)),
                vec![Value::Int(1), Value::Int(-2), Value::Double(0.0)],
            ),
        );
        check(
            &cols,
            n,
            &Expr::InList(Box::new(Expr::Column(2)), vec![Value::str("air"), Value::str("ship")]),
        );
        check(&cols, n, &Expr::Like(Box::new(Expr::Column(2)), "%ai%".into()));
        check(&cols, n, &Expr::Substr(Box::new(Expr::Column(2)), 2, 2));
        check(
            &cols,
            n,
            &Expr::Case {
                when: vec![
                    (Expr::eq(2, "air"), Expr::Literal(Value::Int(10))),
                    (Expr::cmp(0, CmpOp::Gt, 0i64), Expr::Column(1)),
                ],
                else_: Box::new(Expr::Literal(Value::Null)),
            },
        );
        check(&cols, n, &Expr::Year(Box::new(Expr::Column(0))));
    }

    #[test]
    fn randomized_trees_match_scalar() {
        // Small deterministic LCG so failures replay.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let cols = test_cols();
        let n = cols[0].len();
        for _ in 0..300 {
            let e = random_expr(&mut next, 3);
            check(&cols, n, &e);
        }
    }

    /// Random type-correct expression over the three test columns.
    /// Division and string-typed arith operands are excluded so scalar
    /// short-circuit cannot dodge errors the vectorized path hits.
    fn random_expr(next: &mut dyn FnMut() -> usize, depth: usize) -> Expr {
        let numeric = |next: &mut dyn FnMut() -> usize| match next() % 4 {
            0 => Expr::Column(0),
            1 => Expr::Column(1),
            2 => Expr::Literal(Value::Int(next() as i64 % 7 - 3)),
            _ => Expr::Literal(Value::Double(next() as f64 % 5.0 - 2.0)),
        };
        if depth == 0 {
            return Expr::cmp(next() % 2, CmpOp::Gt, next() as i64 % 5 - 2);
        }
        match next() % 8 {
            0 => Expr::Cmp(
                [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][next() % 6],
                Box::new(numeric(next)),
                Box::new(numeric(next)),
            ),
            1 => Expr::And((0..(next() % 3 + 1)).map(|_| random_expr(next, depth - 1)).collect()),
            2 => Expr::Or((0..(next() % 3 + 1)).map(|_| random_expr(next, depth - 1)).collect()),
            3 => Expr::Not(Box::new(random_expr(next, depth - 1))),
            4 => Expr::IsNull(Box::new(numeric(next))),
            5 => Expr::Cmp(
                [CmpOp::Eq, CmpOp::Lt, CmpOp::Ge][next() % 3],
                Box::new(Expr::Column(2)),
                Box::new(Expr::Literal(Value::str(["", "air", "mail", "zzz"][next() % 4]))),
            ),
            6 => Expr::Cmp(
                CmpOp::Gt,
                Box::new(Expr::Arith(
                    [ArithOp::Add, ArithOp::Sub, ArithOp::Mul][next() % 3],
                    Box::new(numeric(next)),
                    Box::new(numeric(next)),
                )),
                Box::new(numeric(next)),
            ),
            _ => Expr::InList(
                Box::new(numeric(next)),
                vec![Value::Int(0), Value::Int(1), Value::Null, Value::Double(1.5)],
            ),
        }
    }
}
