//! Scalar expressions: the predicate and projection language of the
//! execution engine. Column references are table ordinals; the scan binds
//! them to decoded vectors, other operators to batch positions.

use std::cmp::Ordering;
use std::sync::Arc;

use s2_common::{date, Error, Result, Value};

use crate::keyfilter::KeyFilter;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Whether `a <op> b` holds, given `a.cmp(b)`.
    #[inline]
    pub(crate) fn holds(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl ArithOp {
    /// Int ⊕ Int: wrapping, and division by zero is an error.
    #[inline]
    pub(crate) fn ints(self, x: i64, y: i64) -> Result<i64> {
        Ok(match self {
            ArithOp::Add => x.wrapping_add(y),
            ArithOp::Sub => x.wrapping_sub(y),
            ArithOp::Mul => x.wrapping_mul(y),
            ArithOp::Div if y == 0 => {
                return Err(Error::InvalidArgument("division by zero".into()))
            }
            ArithOp::Div => x / y,
        })
    }

    /// Any other numeric pair, in f64 (IEEE division by zero).
    #[inline]
    pub(crate) fn doubles(self, x: f64, y: f64) -> f64 {
        match self {
            ArithOp::Add => x + y,
            ArithOp::Sub => x - y,
            ArithOp::Mul => x * y,
            ArithOp::Div => x / y,
        }
    }

    /// `a <op> b` over values: NULL propagates before any conversion, and a
    /// string operand is `Value::as_double`'s error.
    pub(crate) fn apply(self, a: &Value, b: &Value) -> Result<Value> {
        Ok(match (a, b) {
            (Value::Null, _) | (_, Value::Null) => Value::Null,
            (Value::Int(x), Value::Int(y)) => Value::Int(self.ints(*x, *y)?),
            _ => Value::Double(self.doubles(a.as_double()?, b.as_double()?)),
        })
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference (table ordinal or batch position, per context).
    Column(usize),
    /// Constant.
    Literal(Value),
    /// Comparison (SQL three-valued: NULL operands yield NULL -> filters drop).
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Conjunction.
    And(Vec<Expr>),
    /// Disjunction.
    Or(Vec<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// `IS NULL`.
    IsNull(Box<Expr>),
    /// Membership in a literal list.
    InList(Box<Expr>, Vec<Value>),
    /// SQL LIKE with `%` and `_` wildcards.
    Like(Box<Expr>, String),
    /// Arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Searched CASE.
    Case {
        /// (condition, result) arms, first match wins.
        when: Vec<(Expr, Expr)>,
        /// ELSE result.
        else_: Box<Expr>,
    },
    /// EXTRACT(YEAR FROM date) over days-since-epoch ints.
    Year(Box<Expr>),
    /// SUBSTRING(expr, start (1-based), len).
    Substr(Box<Expr>, usize, usize),
    /// Membership in a join's key set ([`KeyFilter`]): true for any value
    /// the join may match, NULL for a NULL operand. Clones share the set.
    KeyFilter(Box<Expr>, Arc<KeyFilter>),
}

impl Expr {
    /// `column = literal` shorthand.
    pub fn eq(col: usize, v: impl Into<Value>) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(Expr::Column(col)), Box::new(Expr::Literal(v.into())))
    }

    /// `column <op> literal` shorthand.
    pub fn cmp(col: usize, op: CmpOp, v: impl Into<Value>) -> Expr {
        Expr::Cmp(op, Box::new(Expr::Column(col)), Box::new(Expr::Literal(v.into())))
    }

    /// `lo <= column <= hi` shorthand.
    pub fn between(col: usize, lo: impl Into<Value>, hi: impl Into<Value>) -> Expr {
        Expr::And(vec![Expr::cmp(col, CmpOp::Ge, lo), Expr::cmp(col, CmpOp::Le, hi)])
    }

    /// Conjunction of two expressions, flattening nested ANDs.
    pub fn and(self, other: Expr) -> Expr {
        match (self, other) {
            (Expr::And(mut a), Expr::And(b)) => {
                a.extend(b);
                Expr::And(a)
            }
            (Expr::And(mut a), b) => {
                a.push(b);
                Expr::And(a)
            }
            (a, Expr::And(mut b)) => {
                b.insert(0, a);
                Expr::And(b)
            }
            (a, b) => Expr::And(vec![a, b]),
        }
    }

    /// Split an AND tree into its conjuncts.
    pub fn split_conjuncts(self) -> Vec<Expr> {
        match self {
            Expr::And(parts) => parts.into_iter().flat_map(Expr::split_conjuncts).collect(),
            other => vec![other],
        }
    }

    /// All column ordinals referenced.
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        self.collect_columns(&mut cols);
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Column(c) => out.push(*c),
            Expr::Literal(_) => {}
            Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::And(xs) | Expr::Or(xs) => xs.iter().for_each(|x| x.collect_columns(out)),
            Expr::Not(x) | Expr::IsNull(x) | Expr::Year(x) | Expr::Substr(x, _, _) => {
                x.collect_columns(out)
            }
            Expr::InList(x, _) | Expr::Like(x, _) | Expr::KeyFilter(x, _) => x.collect_columns(out),
            Expr::Case { when, else_ } => {
                for (c, r) in when {
                    c.collect_columns(out);
                    r.collect_columns(out);
                }
                else_.collect_columns(out);
            }
        }
    }

    /// If this is `column = literal`, return (column, literal).
    pub fn as_eq_literal(&self) -> Option<(usize, Value)> {
        if let Expr::Cmp(CmpOp::Eq, a, b) = self {
            match (a.as_ref(), b.as_ref()) {
                (Expr::Column(c), Expr::Literal(v)) | (Expr::Literal(v), Expr::Column(c)) => {
                    return Some((*c, v.clone()));
                }
                _ => {}
            }
        }
        None
    }

    /// If this is `column IN (literals)`, return (column, values).
    pub fn as_in_list(&self) -> Option<(usize, &[Value])> {
        if let Expr::InList(e, vals) = self {
            if let Expr::Column(c) = e.as_ref() {
                return Some((*c, vals));
            }
        }
        None
    }

    /// If this is a key filter over a column, return (column, filter).
    pub fn as_key_filter(&self) -> Option<(usize, &KeyFilter)> {
        if let Expr::KeyFilter(e, kf) = self {
            if let Expr::Column(c) = e.as_ref() {
                return Some((*c, kf));
            }
        }
        None
    }

    /// If this clause bounds a single column by literals, return
    /// (column, lower, upper) — both bounds inclusive-ized for min/max
    /// segment elimination (which only needs a conservative answer).
    pub fn as_column_range(&self) -> Option<(usize, Option<Value>, Option<Value>)> {
        if let Some((c, v)) = self.as_eq_literal() {
            return Some((c, Some(v.clone()), Some(v)));
        }
        if let Some((c, kf)) = self.as_key_filter() {
            let (lo, hi) = kf.range()?;
            return Some((c, Some(lo.clone()), Some(hi.clone())));
        }
        if let Expr::Cmp(op, a, b) = self {
            let (col, lit, op) = match (a.as_ref(), b.as_ref()) {
                (Expr::Column(c), Expr::Literal(v)) => (*c, v.clone(), *op),
                (Expr::Literal(v), Expr::Column(c)) => {
                    // Flip: lit OP col == col FLIP(OP) lit
                    let flipped = match op {
                        CmpOp::Lt => CmpOp::Gt,
                        CmpOp::Le => CmpOp::Ge,
                        CmpOp::Gt => CmpOp::Lt,
                        CmpOp::Ge => CmpOp::Le,
                        other => *other,
                    };
                    (*c, v.clone(), flipped)
                }
                _ => return None,
            };
            return match op {
                CmpOp::Lt | CmpOp::Le => Some((col, None, Some(lit))),
                CmpOp::Gt | CmpOp::Ge => Some((col, Some(lit), None)),
                CmpOp::Eq => Some((col, Some(lit.clone()), Some(lit))),
                CmpOp::Ne => None,
            };
        }
        if let Expr::And(parts) = self {
            // Merge ranges over the same column (e.g. BETWEEN).
            let mut merged: Option<(usize, Option<Value>, Option<Value>)> = None;
            for p in parts {
                let (c, lo, hi) = p.as_column_range()?;
                match &mut merged {
                    None => merged = Some((c, lo, hi)),
                    Some((mc, mlo, mhi)) => {
                        if *mc != c {
                            return None;
                        }
                        if let Some(lo) = lo {
                            *mlo = Some(match mlo.take() {
                                Some(cur) => cur.max(lo),
                                None => lo,
                            });
                        }
                        if let Some(hi) = hi {
                            *mhi = Some(match mhi.take() {
                                Some(cur) => cur.min(hi),
                                None => hi,
                            });
                        }
                    }
                }
            }
            return merged;
        }
        None
    }

    /// Rewrite every column reference through `f` (e.g. table ordinals to
    /// batch positions).
    pub fn remap_columns(&self, f: &dyn Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Column(c) => Expr::Column(f(*c)),
            Expr::Literal(v) => Expr::Literal(v.clone()),
            Expr::Cmp(op, a, b) => {
                Expr::Cmp(*op, Box::new(a.remap_columns(f)), Box::new(b.remap_columns(f)))
            }
            Expr::And(xs) => Expr::And(xs.iter().map(|x| x.remap_columns(f)).collect()),
            Expr::Or(xs) => Expr::Or(xs.iter().map(|x| x.remap_columns(f)).collect()),
            Expr::Not(x) => Expr::Not(Box::new(x.remap_columns(f))),
            Expr::IsNull(x) => Expr::IsNull(Box::new(x.remap_columns(f))),
            Expr::InList(x, vals) => Expr::InList(Box::new(x.remap_columns(f)), vals.clone()),
            Expr::Like(x, p) => Expr::Like(Box::new(x.remap_columns(f)), p.clone()),
            Expr::Arith(op, a, b) => {
                Expr::Arith(*op, Box::new(a.remap_columns(f)), Box::new(b.remap_columns(f)))
            }
            Expr::Case { when, else_ } => Expr::Case {
                when: when.iter().map(|(c, r)| (c.remap_columns(f), r.remap_columns(f))).collect(),
                else_: Box::new(else_.remap_columns(f)),
            },
            Expr::Year(x) => Expr::Year(Box::new(x.remap_columns(f))),
            Expr::Substr(x, a, b) => Expr::Substr(Box::new(x.remap_columns(f)), *a, *b),
            Expr::KeyFilter(x, kf) => Expr::KeyFilter(Box::new(x.remap_columns(f)), kf.clone()),
        }
    }

    /// Evaluate with a column accessor. NULL propagates SQL-style.
    pub fn eval(&self, get: &dyn Fn(usize) -> Value) -> Result<Value> {
        Ok(match self {
            Expr::Column(c) => get(*c),
            Expr::Literal(v) => v.clone(),
            Expr::Cmp(op, a, b) => {
                let va = a.eval(get)?;
                let vb = b.eval(get)?;
                if va.is_null() || vb.is_null() {
                    return Ok(Value::Null);
                }
                Value::Int(op.holds(va.total_cmp(&vb)) as i64)
            }
            Expr::And(parts) => {
                let mut saw_null = false;
                for p in parts {
                    match p.eval(get)? {
                        Value::Null => saw_null = true,
                        v if truthy(&v) => {}
                        _ => return Ok(Value::Int(0)),
                    }
                }
                if saw_null {
                    Value::Null
                } else {
                    Value::Int(1)
                }
            }
            Expr::Or(parts) => {
                let mut saw_null = false;
                for p in parts {
                    match p.eval(get)? {
                        Value::Null => saw_null = true,
                        v if truthy(&v) => return Ok(Value::Int(1)),
                        _ => {}
                    }
                }
                if saw_null {
                    Value::Null
                } else {
                    Value::Int(0)
                }
            }
            Expr::Not(x) => match x.eval(get)? {
                Value::Null => Value::Null,
                v => Value::Int(!truthy(&v) as i64),
            },
            Expr::IsNull(x) => Value::Int(x.eval(get)?.is_null() as i64),
            Expr::InList(x, vals) => {
                let v = x.eval(get)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                Value::Int(vals.contains(&v) as i64)
            }
            Expr::Like(x, pattern) => {
                let v = x.eval(get)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                Value::Int(LikePattern::new(pattern).matches(v.as_str()?) as i64)
            }
            Expr::Arith(op, a, b) => op.apply(&a.eval(get)?, &b.eval(get)?)?,
            Expr::Case { when, else_ } => {
                for (cond, result) in when {
                    if truthy(&cond.eval(get)?) {
                        return result.eval(get);
                    }
                }
                else_.eval(get)?
            }
            Expr::Year(x) => {
                let v = x.eval(get)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                Value::Int(i64::from(date::year_of(v.as_int()?)))
            }
            Expr::Substr(x, start, len) => {
                let v = x.eval(get)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                Value::str(substr(v.as_str()?, *start, *len))
            }
            Expr::KeyFilter(x, kf) => {
                let v = x.eval(get)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                Value::Int(kf.contains(&v) as i64)
            }
        })
    }

    /// Evaluate as a filter predicate (NULL -> false).
    pub fn eval_bool(&self, get: &dyn Fn(usize) -> Value) -> Result<bool> {
        Ok(truthy(&self.eval(get)?))
    }
}

#[inline]
pub(crate) fn truthy(v: &Value) -> bool {
    match v {
        Value::Int(i) => *i != 0,
        Value::Double(d) => *d != 0.0,
        Value::Null => false,
        Value::Str(s) => !s.is_empty(),
    }
}

/// A compiled SQL LIKE pattern: `%` = any run, `_` = any single char.
pub(crate) struct LikePattern(Vec<char>);

impl LikePattern {
    /// Compile `pattern` once for many matches.
    pub(crate) fn new(pattern: &str) -> LikePattern {
        LikePattern(pattern.chars().collect())
    }

    /// Whether `s` matches: an iterative two-pointer walk over `s`'s chars
    /// (byte offsets, nothing collected) with backtracking to the last `%`.
    pub(crate) fn matches(&self, s: &str) -> bool {
        let p = &self.0;
        let (mut si, mut pi) = (0usize, 0usize);
        let mut star: Option<(usize, usize)> = None; // (pattern pos after %, s offset)
        while let Some(c) = s[si..].chars().next() {
            if pi < p.len() && (p[pi] == '_' || p[pi] == c) {
                si += c.len_utf8();
                pi += 1;
            } else if pi < p.len() && p[pi] == '%' {
                star = Some((pi + 1, si));
                pi += 1;
            } else if let Some((sp, ss)) = star {
                let skipped = s[ss..].chars().next().map_or(0, char::len_utf8);
                (pi, si) = (sp, ss + skipped);
                star = Some((sp, si));
            } else {
                return false;
            }
        }
        p[pi..].iter().all(|&c| c == '%')
    }
}

/// `SUBSTRING(s, start, len)` in chars: 1-based, and start 0 acts as 1.
pub(crate) fn substr(s: &str, start: usize, len: usize) -> &str {
    let from = s.char_indices().nth(start.saturating_sub(1)).map_or(s.len(), |(i, _)| i);
    let rest = &s[from..];
    &rest[..rest.char_indices().nth(len).map_or(rest.len(), |(i, _)| i)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: Vec<Value>) -> impl Fn(usize) -> Value {
        move |i| vals[i].clone()
    }

    #[test]
    fn comparisons_and_nulls() {
        let get = row(vec![Value::Int(5), Value::Null]);
        assert!(Expr::cmp(0, CmpOp::Gt, 3i64).eval_bool(&get).unwrap());
        assert!(!Expr::cmp(0, CmpOp::Gt, 5i64).eval_bool(&get).unwrap());
        // NULL comparison -> NULL -> false as a filter.
        assert!(!Expr::cmp(1, CmpOp::Eq, 1i64).eval_bool(&get).unwrap());
        assert!(Expr::IsNull(Box::new(Expr::Column(1))).eval_bool(&get).unwrap());
    }

    #[test]
    fn three_valued_and_or() {
        let get = row(vec![Value::Null, Value::Int(1)]);
        // NULL AND TRUE = NULL (false as filter); NULL OR TRUE = TRUE.
        let null_cmp = Expr::cmp(0, CmpOp::Eq, 1i64);
        let true_cmp = Expr::cmp(1, CmpOp::Eq, 1i64);
        assert!(!Expr::And(vec![null_cmp.clone(), true_cmp.clone()]).eval_bool(&get).unwrap());
        assert!(Expr::Or(vec![null_cmp.clone(), true_cmp]).eval_bool(&get).unwrap());
        // NULL OR FALSE = NULL -> false.
        let false_cmp = Expr::cmp(1, CmpOp::Eq, 2i64);
        assert!(!Expr::Or(vec![null_cmp, false_cmp]).eval_bool(&get).unwrap());
    }

    #[test]
    fn arithmetic() {
        let get = row(vec![Value::Int(10), Value::Double(2.5)]);
        let e = Expr::Arith(ArithOp::Mul, Box::new(Expr::Column(0)), Box::new(Expr::Column(1)));
        assert_eq!(e.eval(&get).unwrap(), Value::Double(25.0));
        let div0 = Expr::Arith(
            ArithOp::Div,
            Box::new(Expr::Column(0)),
            Box::new(Expr::Literal(Value::Int(0))),
        );
        assert!(div0.eval(&get).is_err());
    }

    #[test]
    fn like_patterns() {
        let like_match = |s: &str, p: &str| LikePattern::new(p).matches(s);
        assert!(like_match("hello world", "hello%"));
        assert!(like_match("hello world", "%world"));
        assert!(like_match("hello world", "%lo wo%"));
        assert!(like_match("hello", "h_llo"));
        assert!(!like_match("hello", "h_llo_"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "%%abc%%"));
        assert!(!like_match("special requests", "%special%deposits%"));
        assert!(like_match("special pending deposits", "%special%deposits%"));
        // `_` takes one char, not one byte; backtracking steps whole chars.
        assert!(like_match("größe", "gr_ße"));
        assert!(like_match("€€x€", "%€x_"));
        assert!(!like_match("€", "__"));
    }

    #[test]
    fn substr_counts_chars_from_one() {
        assert_eq!(substr("BRAZIL", 1, 3), "BRA");
        assert_eq!(substr("BRAZIL", 0, 3), "BRA", "start 0 acts as 1");
        assert_eq!(substr("BRAZIL", 5, 10), "IL");
        assert_eq!(substr("BRAZIL", 9, 2), "");
        assert_eq!(substr("größe", 3, 2), "öß");
    }

    #[test]
    fn case_and_year_and_substr() {
        let date = s2_common::date::days_from_ymd(1995, 6, 15);
        let get = row(vec![Value::Int(date), Value::str("BRAZIL")]);
        assert_eq!(Expr::Year(Box::new(Expr::Column(0))).eval(&get).unwrap(), Value::Int(1995));
        let case = Expr::Case {
            when: vec![(Expr::eq(1, "BRAZIL"), Expr::Literal(Value::Int(1)))],
            else_: Box::new(Expr::Literal(Value::Int(0))),
        };
        assert_eq!(case.eval(&get).unwrap(), Value::Int(1));
        assert_eq!(
            Expr::Substr(Box::new(Expr::Column(1)), 1, 3).eval(&get).unwrap(),
            Value::str("BRA")
        );
    }

    #[test]
    fn range_extraction() {
        let e = Expr::between(2, 10i64, 20i64);
        assert_eq!(e.as_column_range(), Some((2, Some(Value::Int(10)), Some(Value::Int(20)))));
        let e = Expr::cmp(1, CmpOp::Lt, 5i64);
        assert_eq!(e.as_column_range(), Some((1, None, Some(Value::Int(5)))));
        let e = Expr::eq(0, "x");
        assert_eq!(e.as_eq_literal(), Some((0, Value::str("x"))));
        // Mixed columns: no single range.
        let mixed = Expr::cmp(0, CmpOp::Lt, 1i64).and(Expr::cmp(1, CmpOp::Gt, 2i64));
        assert_eq!(mixed.as_column_range(), None);
    }

    #[test]
    fn conjunct_splitting_and_columns() {
        let e = Expr::eq(0, 1i64).and(Expr::eq(2, 2i64)).and(Expr::eq(5, 3i64));
        let parts = e.clone().split_conjuncts();
        assert_eq!(parts.len(), 3);
        assert_eq!(e.referenced_columns(), vec![0, 2, 5]);
    }
}
