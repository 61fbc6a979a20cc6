//! Operator equivalence: the typed, vectorized `hash_join`, `hash_aggregate`,
//! `sort_batch`, `Batch::filter` and `Batch::eval_expr` against a
//! row-at-a-time `Value` reference model kept here — the kernel bodies these
//! operators had before they were typed (a `Vec<Value>` key per row, a
//! `HashMap` on it, `Value::total_cmp` per comparison, `Expr::eval` per
//! row). Results must be byte-identical, row order and group order included.
//!
//! The reference aggregate returns rows of `Value`s rather than a batch: its
//! old output assembly typed every column from the first group, which is the
//! bug the `null_first_*` regressions pin.

use std::collections::HashMap;

use proptest::prelude::*;
use s2_common::hash::hash_values;
use s2_common::{DataType, Result, Value};
use s2_encoding::{ColumnVector, VectorBuilder};
use s2_exec::expr::{ArithOp, CmpOp};
use s2_exec::{
    hash_aggregate, hash_join, sort_batch, AggFunc, Aggregate, Batch, Expr, JoinType, SortDir,
};

// ------------------------------------------------------------ reference model

fn ref_key(batch: &Batch, cols: &[usize], row: usize) -> Vec<Value> {
    cols.iter().map(|&c| batch.value(c, row)).collect()
}

/// The row-at-a-time hash join: build a `HashMap<hash, rows>` on the right,
/// probe left rows in order, verify equality on `Value`s, evaluate the
/// residual per candidate pair, emit cell by cell.
fn ref_hash_join(
    left: &Batch,
    right: &Batch,
    left_keys: &[usize],
    right_keys: &[usize],
    join_type: JoinType,
    residual: Option<&Expr>,
) -> Result<Vec<Vec<Value>>> {
    let mut table: HashMap<u64, Vec<usize>> = HashMap::new();
    for ri in 0..right.rows() {
        if right_keys.iter().any(|&c| right.columns[c].is_null(ri)) {
            continue;
        }
        table.entry(hash_values(ref_key(right, right_keys, ri).iter())).or_default().push(ri);
    }
    let mut out = Vec::new();
    let emit = |out: &mut Vec<Vec<Value>>, li: usize, ri: Option<Option<usize>>| {
        let mut row: Vec<Value> = (0..left.width()).map(|c| left.value(c, li)).collect();
        match ri {
            None => {}
            Some(Some(ri)) => row.extend((0..right.width()).map(|c| right.value(c, ri))),
            Some(None) => row.extend((0..right.width()).map(|_| Value::Null)),
        }
        out.push(row);
    };
    for li in 0..left.rows() {
        let mut matched = false;
        if !left_keys.iter().any(|&c| left.columns[c].is_null(li)) {
            let key = ref_key(left, left_keys, li);
            for &ri in table.get(&hash_values(key.iter())).map_or(&[][..], Vec::as_slice) {
                if !left_keys
                    .iter()
                    .zip(right_keys)
                    .all(|(&lc, &rc)| left.value(lc, li) == right.value(rc, ri))
                {
                    continue;
                }
                if let Some(res) = residual {
                    let get = |c: usize| {
                        if c < left.width() {
                            left.value(c, li)
                        } else {
                            right.value(c - left.width(), ri)
                        }
                    };
                    if !res.eval_bool(&get)? {
                        continue;
                    }
                }
                matched = true;
                match join_type {
                    JoinType::Inner | JoinType::Left => emit(&mut out, li, Some(Some(ri))),
                    JoinType::Semi => {
                        emit(&mut out, li, None);
                        break;
                    }
                    JoinType::Anti => break,
                }
            }
        }
        match join_type {
            JoinType::Left if !matched => emit(&mut out, li, Some(None)),
            JoinType::Anti if !matched => emit(&mut out, li, None),
            _ => {}
        }
    }
    Ok(out)
}

#[derive(Clone)]
struct RefAggState {
    count: u64,
    sum: f64,
    min: Option<Value>,
    max: Option<Value>,
}

impl RefAggState {
    fn update(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        self.count += 1;
        if let Ok(d) = v.as_double() {
            self.sum += d;
        }
        match &self.min {
            None => self.min = Some(v.clone()),
            Some(m) if v < m => self.min = Some(v.clone()),
            _ => {}
        }
        match &self.max {
            None => self.max = Some(v.clone()),
            Some(m) if v > m => self.max = Some(v.clone()),
            _ => {}
        }
    }

    fn finish(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum if self.count > 0 => Value::Double(self.sum),
            AggFunc::Avg if self.count > 0 => Value::Double(self.sum / self.count as f64),
            AggFunc::Sum | AggFunc::Avg => Value::Null,
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

/// The row-at-a-time aggregation: a `Vec<Value>` key per row into a
/// `HashMap`, groups in first-seen order, one `Value` per aggregate input
/// per row. One output row (keys then aggregates) per group.
fn ref_hash_aggregate(
    batch: &Batch,
    group_by: &[Expr],
    aggregates: &[Aggregate],
) -> Result<Vec<Vec<Value>>> {
    let fresh = || RefAggState { count: 0, sum: 0.0, min: None, max: None };
    let mut groups: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut states: Vec<Vec<RefAggState>> = Vec::new();
    for ri in 0..batch.rows() {
        let get = |c: usize| batch.value(c, ri);
        let key: Vec<Value> = group_by.iter().map(|g| g.eval(&get)).collect::<Result<_>>()?;
        let slot = *groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            states.push(vec![fresh(); aggregates.len()]);
            states.len() - 1
        });
        for (s, a) in states[slot].iter_mut().zip(aggregates) {
            s.update(&a.input.eval(&get)?);
        }
    }
    if group_by.is_empty() && order.is_empty() {
        order.push(Vec::new());
        states.push(vec![fresh(); aggregates.len()]);
    }
    Ok(order
        .into_iter()
        .zip(states)
        .map(|(mut key, st)| {
            key.extend(st.iter().zip(aggregates).map(|(s, a)| s.finish(a.func)));
            key
        })
        .collect())
}

/// Stable sort on `Value::total_cmp`, then truncate.
fn ref_sort(batch: &Batch, keys: &[(usize, SortDir)], limit: Option<usize>) -> Vec<Vec<Value>> {
    let mut idx: Vec<usize> = (0..batch.rows()).collect();
    idx.sort_by(|&a, &b| {
        for &(c, dir) in keys {
            let o = batch.value(c, a).total_cmp(&batch.value(c, b));
            if o != std::cmp::Ordering::Equal {
                return if dir == SortDir::Asc { o } else { o.reverse() };
            }
        }
        std::cmp::Ordering::Equal
    });
    idx.truncate(limit.unwrap_or(usize::MAX));
    let rows = rows_of(batch);
    idx.into_iter().map(|r| rows[r].clone()).collect()
}

fn rows_of(b: &Batch) -> Vec<Vec<Value>> {
    (0..b.rows()).map(|r| (0..b.width()).map(|c| b.value(c, r)).collect()).collect()
}

/// Exact `Debug` rendering — tells `Int(3)` from `Double(3.0)`, `-0.0` from
/// `0.0`, and keeps row order.
fn dbg(rows: &[Vec<Value>]) -> Vec<String> {
    rows.iter().map(|r| format!("{r:?}")).collect()
}

// ------------------------------------------------------------------ generators

struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize].clone()
    }
}

/// Doubles that meet every equality edge: integral values equal to the int
/// keys, both zeros, NaN, a fraction.
const DOUBLES: [f64; 8] = [0.0, -0.0, 1.0, 2.0, 3.0, f64::NAN, 2.5, -7.0];
const STRS: [&str; 6] = ["", "a", "ab", "b", "zz", "é€a"];

/// Columns: 0 Int key, 1 Double key, 2 Str key, 3 Int payload (distinct),
/// 4 second Int key. Every key column has NULLs (about one row in six) and
/// duplicates; `null_first` forces the leading rows' keys to NULL.
fn gen_batch(g: &mut Gen, rows: usize, null_first: bool) -> Batch {
    let types =
        [DataType::Int64, DataType::Double, DataType::Str, DataType::Int64, DataType::Int64];
    let mut b: Vec<VectorBuilder> = types.iter().map(|&t| VectorBuilder::new(t, rows)).collect();
    for r in 0..rows {
        let forced = null_first && r < 3;
        let null = |g: &mut Gen| forced || g.below(6) == 0;
        let cells = [
            if null(g) { Value::Null } else { Value::Int(g.below(5) as i64 - 1) },
            if null(g) { Value::Null } else { Value::Double(g.pick(&DOUBLES)) },
            if null(g) { Value::Null } else { Value::str(g.pick(&STRS)) },
            Value::Int(r as i64 * 3 - 20),
            if null(g) { Value::Null } else { Value::Int(g.below(3) as i64) },
        ];
        for (b, v) in b.iter_mut().zip(&cells) {
            b.push(v).unwrap();
        }
    }
    Batch::new(b.into_iter().map(VectorBuilder::finish).collect())
}

fn col(c: usize) -> Box<Expr> {
    Box::new(Expr::Column(c))
}

fn lit(v: impl Into<Value>) -> Box<Expr> {
    Box::new(Expr::Literal(v.into()))
}

// ------------------------------------------------------------------ properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All four join types x key shapes (Int, Double, Str, Int x Double
    /// cross-type both ways, two-column) x residuals, over sides with NULL
    /// keys, duplicates on both sides, NaN / -0.0 and empty sides.
    #[test]
    fn join_matches_reference(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let sizes = [0usize, 1, 7, 40];
        let (left_rows, right_rows) = (g.pick(&sizes), g.pick(&sizes));
        let left = gen_batch(&mut g, left_rows, false);
        let right = gen_batch(&mut g, right_rows, false);
        let w = left.width();
        let key_shapes: [(&[usize], &[usize]); 8] = [
            (&[0], &[0]),
            (&[1], &[1]),
            (&[2], &[2]),
            (&[0], &[1]),
            (&[1], &[0]),
            (&[0, 2], &[0, 2]),
            (&[0, 4], &[4, 0]),
            (&[], &[]),
        ];
        let residuals = [
            None,
            // left payload < right payload
            Some(Expr::Cmp(CmpOp::Lt, col(3), col(w + 3))),
            // NULL-able operands, OR, arithmetic across both sides
            Some(Expr::Or(vec![
                Expr::Cmp(CmpOp::Eq, col(2), col(w + 2)),
                Expr::Cmp(
                    CmpOp::Gt,
                    Box::new(Expr::Arith(ArithOp::Add, col(4), col(w + 1))),
                    lit(2.0),
                ),
            ])),
        ];
        for (lk, rk) in key_shapes {
            for jt in [JoinType::Inner, JoinType::Left, JoinType::Semi, JoinType::Anti] {
                for residual in &residuals {
                    let expected = ref_hash_join(&left, &right, lk, rk, jt, residual.as_ref()).unwrap();
                    let got = hash_join(&left, &right, lk, rk, jt, residual.as_ref()).unwrap();
                    prop_assert_eq!(
                        dbg(&expected), dbg(&rows_of(&got)),
                        "keys {:?}/{:?} {:?} residual {:?}", lk, rk, jt, residual
                    );
                    // Column types are the inputs', also for zero rows.
                    let want_width = if matches!(jt, JoinType::Inner | JoinType::Left) { 2 * w } else { w };
                    prop_assert_eq!(got.width(), want_width);
                    for (c, out) in got.columns.iter().enumerate() {
                        let src = if c < w { &left.columns[c] } else { &right.columns[c - w] };
                        prop_assert_eq!(out.data_type(), src.data_type());
                    }
                }
            }
        }
    }

    /// Grouped and global aggregates: every function x input lane (Int,
    /// Double, Str, constant, arithmetic, CASE with a NULL arm), over key
    /// shapes incl. NULL-first groups and zero rows.
    #[test]
    fn aggregate_matches_reference(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let rows = g.pick(&[0usize, 1, 9, 60]);
        let null_first = g.below(2) == 0;
        let batch = gen_batch(&mut g, rows, null_first);
        let inputs = [
            Expr::Column(0),
            Expr::Column(1),
            Expr::Column(2),
            Expr::Literal(Value::Int(1)),
            Expr::Literal(Value::Null),
            Expr::Arith(ArithOp::Mul, col(3), lit(0.5)),
            Expr::Case {
                when: vec![(Expr::Cmp(CmpOp::Gt, col(3), lit(0i64)), Expr::Column(4))],
                else_: lit(Value::Null),
            },
        ];
        let group_shapes: [Vec<Expr>; 7] = [
            vec![],
            vec![Expr::Column(0)],
            vec![Expr::Column(1)],
            vec![Expr::Column(2)],
            vec![Expr::Column(2), Expr::Column(4)],
            vec![Expr::Arith(ArithOp::Add, col(0), col(4))],
            vec![Expr::Literal(Value::Int(7)), Expr::Column(0)],
        ];
        let funcs = [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max];
        for group_by in &group_shapes {
            for input in &inputs {
                let aggregates: Vec<Aggregate> =
                    funcs.iter().map(|&func| Aggregate { func, input: input.clone() }).collect();
                let expected = ref_hash_aggregate(&batch, group_by, &aggregates).unwrap();
                let got = hash_aggregate(&batch, group_by, &aggregates).unwrap();
                prop_assert_eq!(
                    dbg(&expected), dbg(&rows_of(&got)),
                    "group {:?} input {:?}", group_by, input
                );
            }
        }
    }

    /// Sort with ties, NULLs, mixed directions and limits 0 / 1 / N / > rows.
    #[test]
    fn sort_matches_reference(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let rows = g.pick(&[0usize, 1, 2, 50]);
        let batch = gen_batch(&mut g, rows, false);
        let dirs = [SortDir::Asc, SortDir::Desc];
        for _ in 0..12 {
            let n_keys = 1 + g.below(3) as usize;
            let keys: Vec<(usize, SortDir)> =
                (0..n_keys).map(|_| (g.pick(&[0usize, 1, 2, 4]), g.pick(&dirs))).collect();
            for limit in [None, Some(0), Some(1), Some(rows / 2), Some(rows), Some(rows + 5)] {
                let expected = ref_sort(&batch, &keys, limit);
                let got = sort_batch(&batch, &keys, limit);
                prop_assert_eq!(
                    dbg(&expected), dbg(&rows_of(&got)), "keys {:?} limit {:?}", keys, limit
                );
            }
        }
    }

    /// `Batch::filter` / `Batch::eval_expr` against scalar `Expr::eval`: the
    /// same rows and values, or — for a tree with a mistyped operand — an
    /// error the scalar path raises on some row.
    #[test]
    fn filter_and_project_match_scalar_eval(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let rows = g.pick(&[0usize, 1, 33]);
        let batch = gen_batch(&mut g, rows, false);
        for _ in 0..20 {
            let e = random_expr(&mut g, 3, true);
            let scalar: Result<Vec<Value>> =
                (0..rows).map(|r| e.eval(&|c| batch.value(c, r))).collect();
            let scalar = match scalar {
                Ok(values) => values,
                Err(_) => {
                    let errs: Vec<String> = (0..rows)
                        .filter_map(|r| e.eval(&|c| batch.value(c, r)).err())
                        .map(|e| e.to_string())
                        .collect();
                    let got = batch.filter(&e, None).unwrap_err().to_string();
                    prop_assert!(errs.contains(&got), "{:?}: {} not in {:?}", e, got, errs);
                    let got = batch.eval_expr(&e, DataType::Int64).unwrap_err().to_string();
                    prop_assert!(errs.contains(&got), "{:?}: {} not in {:?}", e, got, errs);
                    continue;
                }
            };
            let passing: Vec<u32> = (0..rows as u32)
                .filter(|&r| e.eval_bool(&|c| batch.value(c, r as usize)).unwrap())
                .collect();
            prop_assert_eq!(&batch.filter(&e, None).unwrap(), &passing, "filter {:?}", e);
            // A selection that repeats and reorders rows.
            let sel: Vec<u32> = (0..rows as u32).rev().chain(0..rows.min(3) as u32).collect();
            let expected: Vec<u32> = sel.iter().copied().filter(|r| passing.contains(r)).collect();
            prop_assert_eq!(&batch.filter(&e, Some(&sel)).unwrap(), &expected, "filter {:?}", e);

            let out_type = scalar.iter().filter_map(Value::data_type).fold(
                DataType::Int64,
                |acc, t| if acc == DataType::Int64 { t } else { acc },
            );
            let expected = ColumnVector::from_values(&scalar, out_type);
            match (expected, batch.eval_expr(&e, out_type)) {
                (Ok(expected), Ok(got)) => {
                    prop_assert_eq!(got.data_type(), out_type);
                    for r in 0..rows {
                        prop_assert_eq!(
                            format!("{:?}", expected.value(r)), format!("{:?}", got.value(r)),
                            "row {} of {:?}", r, e
                        );
                    }
                }
                // Mixed Int/Double rows into an Int64 column: both refuse.
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                (a, b) => prop_assert!(false, "{:?}: scalar {:?} vs vectorized {:?}", e, a.is_ok(), b.is_ok()),
            }
        }
    }
}

/// `CASE WHEN c = 0 THEN 0 ELSE 100 / c END`: CASE's laziness alone keeps
/// it from dividing by zero.
fn guarded_div(c: usize) -> Expr {
    Expr::Case {
        when: vec![(Expr::Cmp(CmpOp::Eq, col(c), lit(0i64)), Expr::Literal(Value::Int(0)))],
        else_: Box::new(Expr::Arith(ArithOp::Div, lit(100i64), col(c))),
    }
}

/// A numeric operand over [`gen_batch`]'s columns: columns, literals, YEAR
/// over an int column, the guarded division, CASE with Int/Double/NULL arms.
fn numeric(g: &mut Gen, depth: usize) -> Expr {
    match g.below(if depth == 0 { 8 } else { 9 }) {
        0 => Expr::Column(0),
        1 => Expr::Column(1),
        2 => Expr::Column(3),
        3 => Expr::Column(4),
        4 => Expr::Literal(Value::Int(g.below(7) as i64 - 3)),
        5 => Expr::Literal(Value::Double(g.pick(&DOUBLES))),
        6 => Expr::Year(col(3)),
        7 => guarded_div(g.pick(&[0, 4])),
        _ => Expr::Case {
            when: vec![
                (random_expr(g, depth - 1, false), numeric(g, depth - 1)),
                (random_expr(g, depth - 1, false), Expr::Literal(Value::Null)),
            ],
            else_: Box::new(numeric(g, depth - 1)),
        },
    }
}

/// A string operand: the string column, SUBSTR (start 0, past the end,
/// multi-byte), a CASE over strings.
fn string(g: &mut Gen, depth: usize) -> Expr {
    match g.below(if depth == 0 { 2 } else { 3 }) {
        0 => Expr::Column(2),
        1 => Expr::Substr(col(2), g.pick(&[0, 1, 2, 4]), g.pick(&[0, 1, 2])),
        _ => Expr::Case {
            when: vec![(random_expr(g, depth - 1, false), string(g, depth - 1))],
            else_: lit(g.pick(&STRS)),
        },
    }
}

/// Random expression tree over [`gen_batch`]'s columns. Division only under
/// CASE's guard and no arithmetic on strings, so only a mistyped operand
/// (LIKE or SUBSTR over a number, YEAR over a double) errors — and only
/// where `may_err` allows it: never under AND/OR, whose scalar
/// short-circuit could hide an error the vectorized evaluator raises.
fn random_expr(g: &mut Gen, depth: usize, may_err: bool) -> Expr {
    let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
    if depth == 0 {
        return Expr::Cmp(g.pick(&ops), Box::new(numeric(g, 0)), Box::new(numeric(g, 0)));
    }
    let kids =
        |g: &mut Gen| (0..1 + g.below(3)).map(|_| random_expr(g, depth - 1, false)).collect();
    match g.below(if may_err { 14 } else { 12 }) {
        0 => Expr::And(kids(g)),
        1 => Expr::Or(kids(g)),
        2 => Expr::Not(Box::new(random_expr(g, depth - 1, may_err))),
        3 => Expr::IsNull(Box::new(numeric(g, depth - 1))),
        4 => Expr::Cmp(g.pick(&ops), Box::new(string(g, depth - 1)), lit(g.pick(&STRS))),
        5 => Expr::Arith(
            g.pick(&[ArithOp::Add, ArithOp::Sub, ArithOp::Mul]),
            Box::new(numeric(g, depth - 1)),
            Box::new(numeric(g, depth - 1)),
        ),
        6 => Expr::InList(
            Box::new(numeric(g, depth - 1)),
            vec![
                Value::Int(0),
                Value::Null,
                Value::Double(2.5),
                Value::Int(-1),
                Value::Double(-0.0),
            ],
        ),
        7 => Expr::InList(
            Box::new(string(g, depth - 1)),
            vec![Value::str("a"), Value::Null, Value::str("é€a"), Value::str("")],
        ),
        8 => Expr::Like(
            Box::new(string(g, depth - 1)),
            g.pick(&["%a%", "_", "a_", "%b", "", "%", "é%", "_€_"]).into(),
        ),
        9 => Expr::Case {
            when: vec![(random_expr(g, depth - 1, may_err), string(g, depth - 1))],
            else_: lit("other"),
        },
        10 => Expr::Cmp(g.pick(&ops), Box::new(numeric(g, depth)), Box::new(numeric(g, depth - 1))),
        11 => string(g, depth),
        12 => match g.below(3) {
            0 => Expr::Like(Box::new(numeric(g, depth - 1)), "%1%".into()),
            1 => Expr::Substr(Box::new(numeric(g, depth - 1)), 1, 2),
            _ => Expr::Year(col(1)),
        },
        _ => Expr::Cmp(CmpOp::Gt, Box::new(random_expr(g, depth - 1, may_err)), lit(0i64)),
    }
}

// ---------------------------------------------------------------- regressions

fn batch_of(rows: &[Vec<Value>], types: &[DataType]) -> Batch {
    let mut b: Vec<VectorBuilder> =
        types.iter().map(|&t| VectorBuilder::new(t, rows.len())).collect();
    for row in rows {
        for (b, v) in b.iter_mut().zip(row) {
            b.push(v).unwrap();
        }
    }
    Batch::new(b.into_iter().map(VectorBuilder::finish).collect())
}

/// `GROUP BY s` whose first-seen key is NULL used to type the key column
/// `Int64` and fail with "cannot push a into Int64 vector".
#[test]
fn null_first_group_key_keeps_its_lane_type() {
    let b = batch_of(
        &[vec![Value::Null], vec![Value::str("a")], vec![Value::Null], vec![Value::str("a")]],
        &[DataType::Str],
    );
    let count = Aggregate { func: AggFunc::Count, input: Expr::Literal(Value::Int(1)) };
    let out = hash_aggregate(&b, &[Expr::Column(0)], &[count]).unwrap();
    assert_eq!(
        rows_of(&out),
        [vec![Value::Null, Value::Int(2)], vec![Value::str("a"), Value::Int(2)]]
    );
    assert_eq!(out.columns[0].data_type(), DataType::Str);
}

/// A grouped MIN/MAX over strings whose first group is all-NULL used to type
/// the aggregate column `Double` and fail with "cannot push z into Double
/// vector".
#[test]
fn null_first_group_min_max_keeps_its_lane_type() {
    let b = batch_of(
        &[
            vec![Value::Int(1), Value::Null],
            vec![Value::Int(2), Value::str("z")],
            vec![Value::Int(2), Value::str("m")],
        ],
        &[DataType::Int64, DataType::Str],
    );
    let aggs = [
        Aggregate { func: AggFunc::Min, input: Expr::Column(1) },
        Aggregate { func: AggFunc::Max, input: Expr::Column(1) },
    ];
    let out = hash_aggregate(&b, &[Expr::Column(0)], &aggs).unwrap();
    assert_eq!(
        rows_of(&out),
        [
            vec![Value::Int(1), Value::Null, Value::Null],
            vec![Value::Int(2), Value::str("m"), Value::str("z")]
        ]
    );
    assert_eq!(out.columns[1].data_type(), DataType::Str);
}
