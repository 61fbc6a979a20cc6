//! Vectorized expression evaluation over decoded column vectors: the one
//! evaluation path of every operator above storage.
//!
//! Every node keeps [`Expr::eval`]'s scalar semantics — three-valued logic,
//! Int→Double widening, `total_cmp` ordering, the same values and the same
//! error messages — but runs column-at-a-time without building a `Value`
//! per row: comparisons and arithmetic are tight loops over
//! `&[i64]`/`&[f64]`/`&str` lanes, predicates fold tri-state byte vectors,
//! IN searches a list sorted once, LIKE runs a pattern compiled once, YEAR
//! maps an Int lane and SUBSTR slices into a string arena.
//!
//! **The rule inside an expression.** A node evaluates each operand over
//! every row it sees, so `AND`/`OR` do not short-circuit per row: the
//! expression's error is one that some operand raises on some of those
//! rows, and the scalar evaluator raises it on that row too. CASE is the
//! one lazy node: a condition runs only over the rows no earlier arm took,
//! and a result only over the rows its condition took, so
//! `CASE WHEN k = 0 THEN 0 ELSE 100 / k END` divides by no zero.
//!
//! **The rule between conjuncts** of a filter is [`narrow`]'s: a conjunct's
//! error counts only on rows every other conjunct accepts.

use std::borrow::Cow;

use s2_common::{date, BitVec, DataType, Result, Value};
use s2_encoding::{ColumnVector, VectorBuilder};

use crate::expr::{substr, truthy, ArithOp, CmpOp, Expr, LikePattern};
use crate::keyfilter::KeyFilter;

const T_FALSE: u8 = 0;
const T_TRUE: u8 = 1;
const T_NULL: u8 = 2;

/// Result of a vectorized evaluation.
#[derive(Debug)]
pub enum EvalVec<'a> {
    /// Every row evaluates to this value.
    Scalar(Value),
    /// The expression is a bare column reference.
    Col(&'a ColumnVector),
    /// A computed typed lane (NULL rows hold 0, 0.0 or "").
    Lane(ColumnVector),
    /// Predicate verdicts, tri-state (0 = false, 1 = true, 2 = NULL); as
    /// values they are `Int(0)`, `Int(1)` and `Null`.
    Bool(Vec<u8>),
    /// Per-row values: only a CASE whose arms produced different types.
    Vals(Vec<Value>),
}

impl<'a> EvalVec<'a> {
    /// The value at `row`, as the scalar evaluator would produce it.
    pub fn value_at(&self, row: usize) -> Value {
        match self {
            EvalVec::Scalar(v) => v.clone(),
            EvalVec::Col(c) => c.value(row),
            EvalVec::Lane(c) => c.value(row),
            EvalVec::Bool(b) => match b[row] {
                T_NULL => Value::Null,
                t => Value::Int(t as i64),
            },
            EvalVec::Vals(v) => v[row].clone(),
        }
    }

    /// The typed lane of a column reference or a computed lane.
    fn lane(&self) -> Option<&ColumnVector> {
        match self {
            EvalVec::Col(c) => Some(c),
            EvalVec::Lane(c) => Some(c),
            _ => None,
        }
    }

    /// Tri-state verdicts as the Int lane of their values; anything else as is.
    fn normalize(self) -> EvalVec<'a> {
        let EvalVec::Bool(b) = self else { return self };
        let mut nulls = BitVec::zeros(b.len());
        (0..b.len()).filter(|&r| b[r] == T_NULL).for_each(|r| nulls.set(r));
        let values = b.iter().map(|&t| (t == T_TRUE) as i64).collect();
        EvalVec::Lane(ColumnVector::Int { values, nulls: any_set(nulls) })
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
        Ok(match self.normalize() {
            EvalVec::Col(c) if fits(c.data_type()) => Cow::Borrowed(c),
            EvalVec::Lane(c) if fits(c.data_type()) => Cow::Owned(c),
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

/// Evaluate `expr` over `rows` rows of `cols` (column ordinals index
/// `cols` directly — remap table ordinals before calling).
pub fn eval_vector<'a>(cols: &'a [ColumnVector], n: usize, expr: &Expr) -> Result<EvalVec<'a>> {
    Ok(match expr {
        Expr::Column(c) => EvalVec::Col(&cols[*c]),
        Expr::Literal(v) => EvalVec::Scalar(v.clone()),
        Expr::Cmp(op, a, b) => cmp_ev(*op, eval_vector(cols, n, a)?, eval_vector(cols, n, b)?, n),
        Expr::And(parts) | Expr::Or(parts) => {
            let is_and = matches!(expr, Expr::And(_));
            let mut out = vec![if is_and { T_TRUE } else { T_FALSE }; n];
            for p in parts {
                let b = to_bool(eval_vector(cols, n, p)?, n);
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
            EvalVec::Bool(out)
        }
        Expr::Not(x) => {
            let mut b = to_bool(eval_vector(cols, n, x)?, n);
            for t in &mut b {
                *t = match *t {
                    T_FALSE => T_TRUE,
                    T_TRUE => T_FALSE,
                    other => other,
                };
            }
            EvalVec::Bool(b)
        }
        Expr::IsNull(x) => match eval_vector(cols, n, x)? {
            EvalVec::Scalar(v) => EvalVec::Scalar(Value::Int(v.is_null() as i64)),
            EvalVec::Bool(b) => EvalVec::Bool(b.iter().map(|&t| (t == T_NULL) as u8).collect()),
            EvalVec::Vals(v) => EvalVec::Bool(v.iter().map(|v| v.is_null() as u8).collect()),
            lane => {
                let c = lane.lane().expect("the other representations are lanes");
                EvalVec::Bool((0..n).map(|r| c.is_null(r) as u8).collect())
            }
        },
        Expr::Arith(op, a, b) => {
            arith_ev(*op, eval_vector(cols, n, a)?, eval_vector(cols, n, b)?, n)?
        }
        Expr::InList(x, list) => in_list(eval_vector(cols, n, x)?.normalize(), list, n),
        Expr::Like(x, pattern) => {
            let pattern = LikePattern::new(pattern);
            unary(eval_vector(cols, n, x)?, n, DataType::Str, |c, n| {
                EvalVec::Bool(lane_bool(n, c.nulls(), |r| pattern.matches(c.str_at(r))))
            })?
        }
        Expr::Year(x) => unary(eval_vector(cols, n, x)?, n, DataType::Int64, |c, n| {
            let values =
                (0..n).map(|r| if c.is_null(r) { 0 } else { date::year_of(c.int_at(r)).into() });
            EvalVec::Lane(ColumnVector::Int { values: values.collect(), nulls: c.nulls().cloned() })
        })?,
        Expr::Substr(x, start, len) => {
            unary(eval_vector(cols, n, x)?, n, DataType::Str, |c, n| {
                let mut b = VectorBuilder::new(DataType::Str, n);
                for r in 0..n {
                    if c.is_null(r) {
                        b.push_null();
                    } else {
                        b.push_str(substr(c.str_at(r), *start, *len));
                    }
                }
                EvalVec::Lane(b.finish())
            })?
        }
        Expr::Case { when, else_ } => case(cols, n, when, else_)?,
        Expr::KeyFilter(x, kf) => key_filter(eval_vector(cols, n, x)?.normalize(), kf, n),
    })
}

/// Evaluate `expr` as a filter over `rows` rows: bit set where the
/// predicate is true (NULL rows drop, like [`Expr::eval_bool`]).
pub fn filter_mask(cols: &[ColumnVector], rows: usize, expr: &Expr) -> Result<BitVec> {
    let b = to_bool(eval_vector(cols, rows, expr)?, rows);
    let mut mask = BitVec::zeros(rows);
    for (r, &t) in b.iter().enumerate() {
        if t == T_TRUE {
            mask.set(r);
        }
    }
    Ok(mask)
}

/// The conjunct rule. `steps` narrow a selection `sel` in order, each step
/// one or more conjuncts of a filter (by index); a step that errors is set
/// aside and re-run, split into single conjuncts, once every other step has
/// narrowed the selection — again and again, until a pass in which every
/// remaining conjunct errors, whose first error is the filter's. So a
/// conjunct's error counts only on rows that every other conjunct accepts:
/// `k <> 0 AND 100 / k > 5` divides by no zero, in either written order.
pub(crate) fn narrow<S>(
    steps: Vec<Vec<usize>>,
    mut sel: S,
    mut step: impl FnMut(&[usize], &S) -> Result<S>,
) -> Result<S> {
    let mut pending = steps;
    loop {
        let stuck = pending.iter().all(|s| s.len() == 1);
        let (mut failed, mut first_err) = (Vec::new(), None);
        for s in &pending {
            match step(s, &sel) {
                Ok(next) => sel = next,
                Err(e) => {
                    first_err.get_or_insert(e);
                    failed.extend(s.iter().map(|&c| vec![c]));
                }
            }
        }
        match first_err {
            None => return Ok(sel),
            Some(e) if stuck && failed.len() == pending.len() => return Err(e),
            Some(_) => pending = failed,
        }
    }
}

/// `cols` at `rows`, gathering only the columns `expr` references (the
/// others are empty placeholders).
pub(crate) fn gather_referenced(
    cols: &[ColumnVector],
    rows: &[u32],
    expr: &Expr,
) -> Vec<ColumnVector> {
    let mut out = vec![ColumnVector::empty(DataType::Int64); cols.len()];
    for c in expr.referenced_columns() {
        out[c] = cols[c].gather(rows);
    }
    out
}

/// `expr` over the ascending `rows` of `cols`' `n` rows.
fn eval_rows<'a>(
    cols: &'a [ColumnVector],
    n: usize,
    rows: &[u32],
    expr: &Expr,
) -> Result<EvalVec<'a>> {
    if rows.len() == n {
        return eval_vector(cols, n, expr);
    }
    let sub = gather_referenced(cols, rows, expr);
    Ok(match eval_vector(&sub, rows.len(), expr)? {
        EvalVec::Col(c) => EvalVec::Lane(c.clone()),
        EvalVec::Lane(c) => EvalVec::Lane(c),
        EvalVec::Scalar(v) => EvalVec::Scalar(v),
        EvalVec::Bool(b) => EvalVec::Bool(b),
        EvalVec::Vals(v) => EvalVec::Vals(v),
    })
}

/// Searched CASE, lazily: each condition runs over the rows no earlier arm
/// took, each result over the rows its condition took, and the pieces are
/// scattered back into row order — one typed lane when every row the arms
/// produced has one type, per-row values otherwise (the scalar evaluator
/// keeps each row's own type, which integer arithmetic and a typed column's
/// error row can tell apart).
fn case<'a>(
    cols: &'a [ColumnVector],
    n: usize,
    when: &[(Expr, Expr)],
    else_: &Expr,
) -> Result<EvalVec<'a>> {
    let mut open: Vec<u32> = (0..n as u32).collect();
    let mut parts: Vec<(EvalVec<'a>, Vec<u32>)> = Vec::new();
    for (cond, result) in when {
        if open.is_empty() {
            break;
        }
        let verdict = to_bool(eval_rows(cols, n, &open, cond)?, open.len());
        let (mut taken, mut rest) = (Vec::new(), Vec::new());
        for (&r, &t) in open.iter().zip(&verdict) {
            if t == T_TRUE {
                taken.push(r)
            } else {
                rest.push(r)
            }
        }
        if !taken.is_empty() {
            parts.push((eval_rows(cols, n, &taken, result)?, taken));
            open = rest;
        }
    }
    if !open.is_empty() {
        parts.push((eval_rows(cols, n, &open, else_)?, open));
    }
    if parts.len() == 1 {
        return Ok(parts.pop().expect("one part").0); // every row, in order
    }
    let mut kinds: Vec<DataType> = Vec::new();
    let mut owner = vec![(0, 0); n];
    for (p, (v, rows)) in parts.iter().enumerate() {
        let produced: Vec<DataType> = match v {
            EvalVec::Scalar(v) => v.data_type().into_iter().collect(),
            EvalVec::Bool(b) => {
                b.iter().any(|&t| t != T_NULL).then_some(DataType::Int64).into_iter().collect()
            }
            EvalVec::Vals(vals) => vals.iter().filter_map(Value::data_type).collect(),
            lane => {
                let c = lane.lane().expect("the other representations are lanes");
                let all_null = c.nulls().is_some_and(|nu| nu.count_ones() == rows.len());
                (!all_null).then_some(c.data_type()).into_iter().collect()
            }
        };
        for t in produced {
            if !kinds.contains(&t) {
                kinds.push(t);
            }
        }
        for (k, &r) in rows.iter().enumerate() {
            owner[r as usize] = (p, k);
        }
    }
    if kinds.len() > 1 {
        return Ok(EvalVec::Vals(owner.iter().map(|&(p, k)| parts[p].0.value_at(k)).collect()));
    }
    let data_type = kinds.first().copied().unwrap_or(DataType::Int64);
    let lanes = parts
        .into_iter()
        .map(|(v, rows)| Ok(v.into_column(rows.len(), Some(data_type))?.into_owned()))
        .collect::<Result<Vec<_>>>()?;
    let mut b = VectorBuilder::new(data_type, n);
    for &(p, k) in &owner {
        match &lanes[p] {
            c if c.is_null(k) => b.push_null(),
            ColumnVector::Int { values, .. } => b.push_int(values[k]),
            ColumnVector::Double { values, .. } => b.push_double(values[k]),
            c @ ColumnVector::Str { .. } => b.push_str(c.str_at(k)),
        }
    }
    Ok(EvalVec::Lane(b.finish()))
}

/// A node over one string (LIKE, SUBSTR) or Int (YEAR) operand: `f` maps
/// the operand, typed as `want`, to the result. A non-NULL row of another
/// type is the scalar conversion's error (`Value::as_str`/`as_int`), raised
/// at the first such row; a constant operand is mapped once.
fn unary<'a>(
    v: EvalVec<'_>,
    n: usize,
    want: DataType,
    f: impl Fn(&ColumnVector, usize) -> EvalVec<'static>,
) -> Result<EvalVec<'a>> {
    let v = v.normalize();
    let rows = if matches!(v, EvalVec::Scalar(_)) { n.min(1) } else { n };
    let col = match v.lane().filter(|c| c.data_type() == want) {
        Some(c) => Cow::Borrowed(c),
        None => {
            let mut b = VectorBuilder::new(want, rows);
            for r in 0..rows {
                let v = v.value_at(r);
                match want {
                    DataType::Int64 if !v.is_null() => _ = v.as_int()?,
                    DataType::Str if !v.is_null() => _ = v.as_str()?,
                    _ => {}
                }
                b.push(&v)?;
            }
            Cow::Owned(b.finish())
        }
    };
    let out = f(&col, rows);
    Ok(if rows < n { EvalVec::Scalar(out.value_at(0)) } else { out })
}

/// IN: a NULL operand is NULL; a NULL member matches nothing.
fn in_list<'a>(v: EvalVec<'_>, list: &[Value], n: usize) -> EvalVec<'a> {
    let tri = |v: &Value| if v.is_null() { T_NULL } else { list.contains(v) as u8 };
    let c = match &v {
        EvalVec::Scalar(v) if v.is_null() => return EvalVec::Scalar(Value::Null),
        EvalVec::Scalar(v) => return EvalVec::Scalar(Value::Int(list.contains(v) as i64)),
        EvalVec::Vals(vals) => return EvalVec::Bool(vals.iter().map(tri).collect()),
        lane => lane.lane().expect("the other representations are lanes"),
    };
    // The members sorted once per type, searched with `Value`'s equality: an
    // Int probe equals an Int or a Double it widens to, a Double probe a
    // Double or a widened Int, a string only a string.
    let mut ints: Vec<i64> = list.iter().filter_map(|m| m.as_int().ok()).collect();
    let mut doubles: Vec<f64> = list
        .iter()
        .filter_map(|m| if let Value::Double(d) = m { Some(*d) } else { None })
        .collect();
    let mut widened: Vec<f64> =
        doubles.iter().copied().chain(ints.iter().map(|&i| i as f64)).collect();
    let mut strs: Vec<&str> = list.iter().filter_map(|m| m.as_str().ok()).collect();
    ints.sort_unstable();
    doubles.sort_unstable_by(f64::total_cmp);
    widened.sort_unstable_by(f64::total_cmp);
    strs.sort_unstable();
    let has = |sorted: &[f64], x: f64| sorted.binary_search_by(|m| m.total_cmp(&x)).is_ok();
    EvalVec::Bool(match c {
        ColumnVector::Int { values, nulls } => lane_bool(n, nulls.as_ref(), |r| {
            ints.binary_search(&values[r]).is_ok() || has(&doubles, values[r] as f64)
        }),
        ColumnVector::Double { values, nulls } => {
            lane_bool(n, nulls.as_ref(), |r| has(&widened, values[r]))
        }
        ColumnVector::Str { nulls, .. } => {
            lane_bool(n, nulls.as_ref(), |r| strs.binary_search(&c.str_at(r)).is_ok())
        }
    })
}

/// Key-set membership: a NULL operand is NULL; a lane is tested in one
/// typed pass ([`KeyFilter`]).
fn key_filter<'a>(v: EvalVec<'_>, kf: &KeyFilter, n: usize) -> EvalVec<'a> {
    let tri = |v: &Value| if v.is_null() { T_NULL } else { kf.contains(v) as u8 };
    match &v {
        EvalVec::Scalar(v) if v.is_null() => EvalVec::Scalar(Value::Null),
        EvalVec::Scalar(v) => EvalVec::Scalar(Value::Int(kf.contains(v) as i64)),
        EvalVec::Vals(vals) => EvalVec::Bool(vals.iter().map(tri).collect()),
        lane => {
            let c = lane.lane().expect("the other representations are lanes");
            let hits = kf.hits(c);
            EvalVec::Bool(lane_bool(n, c.nulls(), |r| hits[r]))
        }
    }
}

fn tri_of(v: &Value) -> u8 {
    match v {
        Value::Null => T_NULL,
        v if truthy(v) => T_TRUE,
        _ => T_FALSE,
    }
}

/// Collapse any representation to tri-state booleans.
fn to_bool(ev: EvalVec<'_>, n: usize) -> Vec<u8> {
    match ev {
        EvalVec::Bool(b) => b,
        EvalVec::Scalar(v) => vec![tri_of(&v); n],
        EvalVec::Vals(v) => v.iter().map(tri_of).collect(),
        lane => match lane.lane().expect("the other representations are lanes") {
            ColumnVector::Int { values, nulls } => lane_bool(n, nulls.as_ref(), |r| values[r] != 0),
            ColumnVector::Double { values, nulls } => {
                lane_bool(n, nulls.as_ref(), |r| values[r] != 0.0)
            }
            c @ ColumnVector::Str { nulls, .. } => {
                lane_bool(n, nulls.as_ref(), |r| !c.str_at(r).is_empty())
            }
        },
    }
}

fn lane_bool(n: usize, nulls: Option<&BitVec>, f: impl Fn(usize) -> bool) -> Vec<u8> {
    (0..n).map(|r| if nulls.is_some_and(|nu| nu.get(r)) { T_NULL } else { f(r) as u8 }).collect()
}

/// A NULL bitmap as a lane keeps it: `None` when no row is NULL.
fn any_set(nulls: BitVec) -> Option<BitVec> {
    (nulls.count_ones() > 0).then_some(nulls)
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

fn num_side<'a>(ev: &'a EvalVec<'_>) -> Option<Num<'a>> {
    match ev {
        EvalVec::Scalar(Value::Int(i)) => Some(Num::CI(*i)),
        EvalVec::Scalar(Value::Double(d)) => Some(Num::CD(*d)),
        ev => match ev.lane()? {
            ColumnVector::Int { values, nulls } => Some(Num::I(values, nulls.as_ref())),
            ColumnVector::Double { values, nulls } => Some(Num::D(values, nulls.as_ref())),
            ColumnVector::Str { .. } => None,
        },
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

fn str_side<'a>(ev: &'a EvalVec<'_>) -> Option<StrSide<'a>> {
    match ev {
        EvalVec::Scalar(Value::Str(s)) => Some(StrSide::C(s.as_ref())),
        ev => ev.lane().filter(|c| c.data_type() == DataType::Str).map(StrSide::V),
    }
}

fn cmp_ev<'a>(op: CmpOp, a: EvalVec<'a>, b: EvalVec<'a>, n: usize) -> EvalVec<'a> {
    // A null constant operand nulls every row before any comparison.
    if matches!(a, EvalVec::Scalar(Value::Null)) || matches!(b, EvalVec::Scalar(Value::Null)) {
        return EvalVec::Bool(vec![T_NULL; n]);
    }
    if let (EvalVec::Scalar(x), EvalVec::Scalar(y)) = (&a, &b) {
        return EvalVec::Scalar(Value::Int(op.holds(x.total_cmp(y)) as i64));
    }
    let (a, b) = (a.normalize(), b.normalize());
    let mut out = vec![0u8; n];
    if let (Some(x), Some(y)) = (num_side(&a), num_side(&b)) {
        let both_int = x.is_int() && y.is_int();
        for (r, slot) in out.iter_mut().enumerate() {
            if x.null(r) || y.null(r) {
                *slot = T_NULL;
            } else {
                let ord = if both_int { x.i(r).cmp(&y.i(r)) } else { x.d(r).total_cmp(&y.d(r)) };
                *slot = op.holds(ord) as u8;
            }
        }
    } else if let (Some(x), Some(y)) = (str_side(&a), str_side(&b)) {
        for (r, slot) in out.iter_mut().enumerate() {
            *slot =
                if x.null(r) || y.null(r) { T_NULL } else { op.holds(x.s(r).cmp(y.s(r))) as u8 };
        }
    } else {
        // Mixed-rank operands: fall back to Value::total_cmp per row.
        for (r, slot) in out.iter_mut().enumerate() {
            let (va, vb) = (a.value_at(r), b.value_at(r));
            *slot = if va.is_null() || vb.is_null() {
                T_NULL
            } else {
                op.holds(va.total_cmp(&vb)) as u8
            };
        }
    }
    EvalVec::Bool(out)
}

fn arith_ev<'a>(op: ArithOp, a: EvalVec<'a>, b: EvalVec<'a>, n: usize) -> Result<EvalVec<'a>> {
    // A null constant operand short-circuits every row to NULL (the
    // scalar evaluator null-checks before any conversion can error).
    if matches!(a, EvalVec::Scalar(Value::Null)) || matches!(b, EvalVec::Scalar(Value::Null)) {
        return Ok(EvalVec::Scalar(Value::Null));
    }
    if let (EvalVec::Scalar(x), EvalVec::Scalar(y)) = (&a, &b) {
        return Ok(EvalVec::Scalar(op.apply(x, y)?));
    }
    let (a, b) = (a.normalize(), b.normalize());
    if let (Some(x), Some(y)) = (num_side(&a), num_side(&b)) {
        let mut nulls = BitVec::zeros(n);
        let lane = if x.is_int() && y.is_int() {
            let mut out = vec![0i64; n];
            for (r, slot) in out.iter_mut().enumerate() {
                if x.null(r) || y.null(r) {
                    nulls.set(r);
                } else {
                    *slot = op.ints(x.i(r), y.i(r))?;
                }
            }
            ColumnVector::Int { values: out, nulls: any_set(nulls) }
        } else {
            let mut out = vec![0f64; n];
            for (r, slot) in out.iter_mut().enumerate() {
                if x.null(r) || y.null(r) {
                    nulls.set(r);
                } else {
                    *slot = op.doubles(x.d(r), y.d(r));
                }
            }
            ColumnVector::Double { values: out, nulls: any_set(nulls) }
        };
        return Ok(EvalVec::Lane(lane));
    }
    // A string operand or per-row values: the scalar rule row by row.
    let out = (0..n).map(|r| op.apply(&a.value_at(r), &b.value_at(r)));
    Ok(EvalVec::Vals(out.collect::<Result<_>>()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2_common::date::days_from_ymd;

    fn col(vals: &[Value], dt: DataType) -> ColumnVector {
        ColumnVector::from_values(vals, dt).unwrap()
    }

    /// Assert the vectorized result equals the scalar evaluator's, row by
    /// row — the same values of the same types (`Debug`) and the same filter
    /// verdicts — or, when it errors, that the scalar path raises that error
    /// on some row.
    fn check(cols: &[ColumnVector], rows: usize, e: &Expr) {
        let get_row = |r: usize| move |c: usize| cols[c].value(r);
        match eval_vector(cols, rows, e) {
            Ok(ev) => {
                for r in 0..rows {
                    let scalar = e.eval(&get_row(r)).unwrap();
                    assert_eq!(
                        format!("{:?}", ev.value_at(r)),
                        format!("{scalar:?}"),
                        "row {r} of {e:?}"
                    );
                }
                let mask = filter_mask(cols, rows, e).unwrap();
                for r in 0..rows {
                    assert_eq!(mask.get(r), e.eval_bool(&get_row(r)).unwrap(), "mask row {r}");
                }
            }
            Err(err) => {
                // Order may differ: AND/OR do not short-circuit here.
                let scalar_errs: Vec<String> = (0..rows)
                    .filter_map(|r| e.eval(&get_row(r)).err().map(|e| e.to_string()))
                    .collect();
                assert!(
                    scalar_errs.contains(&err.to_string()),
                    "vector error {err} not produced by scalar path for {e:?}"
                );
            }
        }
    }

    /// 0 Int (NULLs, zeros), 1 Double (NULLs), 2 Str (NULLs, ""), 3 Str with
    /// multi-byte chars (NULLs), 4 Int dates (NULLs).
    fn test_cols() -> Vec<ColumnVector> {
        let n = 37;
        let nth = |every: usize, f: &dyn Fn(usize) -> Value| -> Vec<Value> {
            (0..n).map(|i| if i % every == 0 { Value::Null } else { f(i) }).collect()
        };
        vec![
            col(&nth(7, &|i| Value::Int(i as i64 % 9 - 4)), DataType::Int64),
            col(&nth(5, &|i| Value::Double(i as f64 / 3.0 - 4.0)), DataType::Double),
            col(&nth(11, &|i| Value::str(["", "air", "mail", "ship"][i % 4])), DataType::Str),
            col(
                &nth(6, &|i| Value::str(["größe", "€uro", "", "a€b", "gruße"][i % 5])),
                DataType::Str,
            ),
            col(
                &nth(8, &|i| Value::Int(days_from_ymd(1992 + i as i32 % 7, 1 + i as u32 % 12, 28))),
                DataType::Int64,
            ),
        ]
    }

    fn lit(v: impl Into<Value>) -> Box<Expr> {
        Box::new(Expr::Literal(v.into()))
    }

    fn c(i: usize) -> Box<Expr> {
        Box::new(Expr::Column(i))
    }

    /// `CASE WHEN c = 0 THEN 0 ELSE 100 / c END`: only CASE's laziness keeps
    /// it from dividing by zero.
    fn guarded_div(col: usize) -> Expr {
        Expr::Case {
            when: vec![(Expr::eq(col, 0i64), Expr::Literal(Value::Int(0)))],
            else_: Box::new(Expr::Arith(ArithOp::Div, lit(100i64), c(col))),
        }
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
                check(&cols, n, &Expr::Cmp(op, c(a), c(b)));
            }
            check(&cols, n, &Expr::Cmp(op, c(0), lit(Value::Null)));
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
        check(&cols, n, &Expr::IsNull(c(0)));
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
            check(&cols, n, &Expr::Arith(op, c(0), c(0)));
            check(&cols, n, &Expr::Arith(op, c(0), c(1)));
            check(&cols, n, &Expr::Arith(op, c(1), lit(2.5)));
            check(&cols, n, &Expr::Arith(op, c(0), lit(3i64)));
        }
        // Division by a nonzero constant, double division, null constant.
        check(&cols, n, &Expr::Arith(ArithOp::Div, c(0), lit(2i64)));
        check(&cols, n, &Expr::Arith(ArithOp::Div, c(1), lit(0.0)));
        check(&cols, n, &Expr::Arith(ArithOp::Mul, c(0), lit(Value::Null)));
        // Int division by zero and a string operand error identically.
        check(&cols, n, &Expr::Arith(ArithOp::Div, c(0), lit(0i64)));
        check(&cols, n, &Expr::Arith(ArithOp::Add, c(2), lit(1i64)));
    }

    #[test]
    fn in_like_year_substr_case_match_scalar() {
        let cols = test_cols();
        let n = cols[0].len();
        let mixed = vec![Value::Int(1), Value::Int(-2), Value::Double(0.0), Value::Null];
        check(&cols, n, &Expr::InList(c(0), mixed.clone()));
        check(
            &cols,
            n,
            &Expr::InList(c(1), vec![Value::Int(-3), Value::Double(-2.0), Value::Null]),
        );
        check(
            &cols,
            n,
            &Expr::InList(c(2), vec![Value::str("air"), Value::str("ship"), Value::Null]),
        );
        check(&cols, n, &Expr::InList(c(3), vec![Value::str("€uro"), Value::Int(1)]));
        check(&cols, n, &Expr::InList(lit(1i64), mixed.clone()));
        check(&cols, n, &Expr::InList(lit(Value::Null), mixed));
        for pattern in ["%ai%", "_i%", "a_r", "%", "", "%€%", "gr_ße", "__", "%e"] {
            check(&cols, n, &Expr::Like(c(2), pattern.into()));
            check(&cols, n, &Expr::Like(c(3), pattern.into()));
        }
        check(&cols, n, &Expr::Like(lit("mail"), "m%".into()));
        for (start, len) in [(2, 2), (0, 3), (1, 0), (4, 9), (9, 2)] {
            check(&cols, n, &Expr::Substr(c(2), start, len));
            check(&cols, n, &Expr::Substr(c(3), start, len));
        }
        check(&cols, n, &Expr::Year(c(4)));
        check(&cols, n, &Expr::Year(c(0)));
        check(&cols, n, &Expr::Year(lit(days_from_ymd(1995, 6, 15))));
        let case =
            |when: Vec<(Expr, Expr)>, else_: Expr| Expr::Case { when, else_: Box::new(else_) };
        // Int / Double / NULL arms keep each row's own type.
        check(
            &cols,
            n,
            &case(
                vec![
                    (Expr::eq(2, "air"), Expr::Literal(Value::Int(10))),
                    (Expr::cmp(0, CmpOp::Gt, 0i64), Expr::Column(1)),
                ],
                Expr::Literal(Value::Null),
            ),
        );
        check(&cols, n, &guarded_div(0));
        check(&cols, n, &Expr::Cmp(CmpOp::Gt, Box::new(guarded_div(0)), lit(5i64)));
        // Strings and numbers; one arm taking every row; no arm taking any.
        check(
            &cols,
            n,
            &case(vec![(Expr::cmp(0, CmpOp::Gt, 0i64), Expr::Column(2))], Expr::Column(0)),
        );
        check(
            &cols,
            n,
            &case(vec![(Expr::Literal(Value::Int(1)), Expr::Column(3))], Expr::Column(0)),
        );
        check(
            &cols,
            n,
            &case(vec![(Expr::Literal(Value::Int(0)), Expr::Column(3))], Expr::Column(4)),
        );
        check(&cols, n, &case(vec![], Expr::Substr(c(3), 2, 1)));
        // A nested CASE as a condition.
        check(&cols, n, &case(vec![(guarded_div(0), Expr::Year(c(4)))], Expr::Column(0)));
    }

    #[test]
    fn mistyped_operands_error_like_scalar() {
        let cols = test_cols();
        let n = cols[0].len();
        let mixed = Expr::Case {
            when: vec![(Expr::cmp(0, CmpOp::Gt, 0i64), Expr::Column(2))],
            else_: lit(7i64),
        };
        for e in [
            Expr::Like(c(0), "%1%".into()),
            Expr::Substr(c(0), 1, 2),
            Expr::Substr(c(1), 1, 2),
            Expr::Year(c(1)),
            Expr::Year(c(2)),
            Expr::Like(Box::new(mixed.clone()), "%".into()),
            Expr::Year(Box::new(mixed)),
            Expr::Like(lit(3i64), "3".into()),
        ] {
            assert!(eval_vector(&cols, n, &e).is_err(), "{e:?} must error");
            check(&cols, n, &e);
        }
        // With no row there is nothing to convert.
        assert!(eval_vector(&cols, 0, &Expr::Year(c(1))).is_ok());
    }

    /// CASE is lazy per row; AND/OR inside its condition are not.
    #[test]
    fn case_is_lazy_and_its_conditions_are_not() {
        let k: Vec<Value> = (0..200).map(|i| Value::Int(i % 7)).collect();
        let cols = [col(&k, DataType::Int64)];
        let passing =
            filter_mask(&cols, 200, &Expr::Cmp(CmpOp::Gt, Box::new(guarded_div(0)), lit(5i64)));
        assert_eq!(passing.unwrap().count_ones(), 171);
        let or = Expr::Or(vec![
            Expr::eq(0, 0i64),
            Expr::Cmp(CmpOp::Gt, Box::new(Expr::Arith(ArithOp::Div, lit(100i64), c(0))), lit(5i64)),
        ]);
        let wrapped = Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Case {
                when: vec![(or.clone(), Expr::Literal(Value::Int(1)))],
                else_: lit(0i64),
            }),
            lit(1i64),
        );
        for e in [or, wrapped] {
            let err = filter_mask(&cols, 200, &e).unwrap_err();
            assert_eq!(err.to_string(), "invalid argument: division by zero", "{e:?}");
        }
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
        for _ in 0..400 {
            let e = random_expr(&mut next, 3);
            check(&cols, n, &e);
        }
    }

    /// A numeric operand over [`test_cols`]: columns, literals, YEAR, the
    /// guarded division, CASE with Int/Double/NULL arms, arithmetic.
    fn numeric(next: &mut dyn FnMut() -> usize, depth: usize) -> Expr {
        match next() % if depth == 0 { 6 } else { 8 } {
            0 => Expr::Column(0),
            1 => Expr::Column(1),
            2 => Expr::Literal(Value::Int(next() as i64 % 7 - 3)),
            3 => Expr::Literal(Value::Double(next() as f64 % 5.0 - 2.0)),
            4 => Expr::Year(c(4)),
            5 => guarded_div(0),
            6 => Expr::Case {
                when: vec![
                    (random_expr(next, depth - 1), numeric(next, depth - 1)),
                    (random_expr(next, depth - 1), Expr::Literal(Value::Null)),
                ],
                else_: Box::new(numeric(next, depth - 1)),
            },
            _ => Expr::Arith(
                [ArithOp::Add, ArithOp::Sub, ArithOp::Mul][next() % 3],
                Box::new(numeric(next, depth - 1)),
                Box::new(numeric(next, depth - 1)),
            ),
        }
    }

    /// A string operand: plain and multi-byte columns, SUBSTR (start 0 and
    /// past the end), a CASE over strings.
    fn string(next: &mut dyn FnMut() -> usize, depth: usize) -> Expr {
        match next() % if depth == 0 { 3 } else { 4 } {
            0 => Expr::Column(2),
            1 => Expr::Column(3),
            2 => Expr::Substr(c(2 + next() % 2), [0, 1, 2, 9][next() % 4], [0, 1, 3][next() % 3]),
            _ => Expr::Case {
                when: vec![(random_expr(next, depth - 1), string(next, depth - 1))],
                else_: lit("air"),
            },
        }
    }

    /// Random error-free predicate over the test columns: no division
    /// outside the guarded CASE and no mistyped operand, so scalar
    /// short-circuit cannot dodge an error the vectorized path hits.
    fn random_expr(next: &mut dyn FnMut() -> usize, depth: usize) -> Expr {
        if depth == 0 {
            return Expr::cmp(next() % 2, CmpOp::Gt, next() as i64 % 5 - 2);
        }
        let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][next() % 6];
        match next() % 10 {
            0 => Expr::Cmp(
                op,
                Box::new(numeric(next, depth - 1)),
                Box::new(numeric(next, depth - 1)),
            ),
            1 => Expr::And((0..(next() % 3 + 1)).map(|_| random_expr(next, depth - 1)).collect()),
            2 => Expr::Or((0..(next() % 3 + 1)).map(|_| random_expr(next, depth - 1)).collect()),
            3 => Expr::Not(Box::new(random_expr(next, depth - 1))),
            4 => Expr::IsNull(Box::new(numeric(next, depth - 1))),
            5 => Expr::Cmp(
                op,
                Box::new(string(next, depth - 1)),
                lit(["", "air", "mail", "zzz", "€uro"][next() % 5]),
            ),
            6 => Expr::InList(
                Box::new(numeric(next, depth - 1)),
                vec![
                    Value::Int(0),
                    Value::Int(1),
                    Value::Null,
                    Value::Double(1.5),
                    Value::Double(-3.0),
                ],
            ),
            7 => Expr::InList(
                Box::new(string(next, depth - 1)),
                vec![Value::str("air"), Value::Null, Value::str("größe"), Value::str("")],
            ),
            8 => Expr::Like(
                Box::new(string(next, depth - 1)),
                ["%a%", "_i%", "a_r", "%", "", "%€%", "gr_ße", "__"][next() % 8].into(),
            ),
            _ => Expr::Cmp(op, Box::new(Expr::Year(c(4))), lit(1994 + next() as i64 % 4)),
        }
    }
}
