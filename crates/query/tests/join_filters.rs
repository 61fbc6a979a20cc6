//! Join key filters against a naive reference: random 2–4-level join trees
//! over tables with NULL, duplicate and cross-type keys (Int vs Double,
//! `-0.0`/`0.0`, NaN, ints past 2^53, strings) execute to exactly the batch
//! — row order and f64 bits included — that scans with no pushed filter
//! joined by the plain `hash_join` kernel (always built on the right input)
//! produce. Whichever side runs first, wherever its key sets land, and
//! whichever input the table is built on, only the rows that flow change.

use std::sync::Arc;

use proptest::prelude::*;
use s2_common::schema::ColumnDef;
use s2_common::{DataType, Row, Schema, TableOptions, Value};
use s2_core::{MemFileStore, Partition, PartitionSnapshot};
use s2_exec::{
    hash_aggregate, hash_join, scan, sort_batch, AggFunc, Aggregate, Batch, CmpOp, Expr, JoinType,
    ScanOptions, SortDir,
};
use s2_query::{execute_with_stats, ExecOptions, ExecStats, Plan, QueryContext};
use s2_wal::Log;

/// Deterministic splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())].clone()
    }
}

const BIG: i64 = (1 << 53) + 1;

/// Table columns: 0 id, 1 ki (Int key), 2 kd (Double key), 3 ks (Str key),
/// 4 v (Double payload).
const TABLES: [&str; 3] = ["ta", "tb", "tc"];
const KI: usize = 1;
const KD: usize = 2;
const KS: usize = 3;
const V: usize = 4;

fn build(seed: u64) -> Arc<Partition> {
    let mut rng = Rng(seed);
    let p = Partition::new("jf", Arc::new(Log::in_memory()), Arc::new(MemFileStore::new()));
    let ints = [Value::Int(0), Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(BIG)];
    let ints = [&ints[..], &[Value::Int(-BIG), Value::Int(7), Value::Null]].concat();
    let dbls = [0.0, -0.0, 1.0, 2.0, 3.5, f64::NAN, BIG as f64, 7.0];
    let dbls: Vec<Value> = dbls.iter().map(|&d| Value::Double(d)).chain([Value::Null]).collect();
    let strs = ["a", "b", "c", "", "zz"];
    let strs: Vec<Value> = strs.iter().map(|s| Value::str(*s)).chain([Value::Null]).collect();
    // Without the far ints a table's Int keys are dense (a bitmap set).
    let small_ints: Vec<Value> =
        ints.iter().filter(|v| v.as_int().is_ok_and(|i| i.abs() < 8)).cloned().collect();
    for (ti, name) in TABLES.iter().enumerate() {
        let ints = if rng.below(2) == 0 { &ints } else { &small_ints };
        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int64),
            ColumnDef::nullable("ki", DataType::Int64),
            ColumnDef::nullable("kd", DataType::Double),
            ColumnDef::nullable("ks", DataType::Str),
            ColumnDef::new("v", DataType::Double),
        ])
        .unwrap();
        let mut opts = TableOptions::new()
            .with_unique("pk", vec![0])
            .with_sort_key(vec![1 + ti])
            .with_segment_rows(8 + rng.below(24));
        if rng.below(2) == 0 {
            opts = opts.with_index("by_ki", vec![KI]);
        }
        if rng.below(2) == 0 {
            opts = opts.with_index("by_ks", vec![KS]);
        }
        let t = p.create_table(*name, schema, opts).unwrap();
        let mut id = 0i64;
        let batches = 1 + rng.below(3);
        for b in 0..=batches {
            let mut txn = p.begin();
            for _ in 0..rng.below(40) {
                let row = vec![
                    Value::Int(id),
                    rng.pick(ints),
                    rng.pick(&dbls),
                    rng.pick(&strs),
                    Value::Double(rng.below(1000) as f64 / 8.0),
                ];
                txn.insert(t, Row::new(row)).unwrap();
                id += 1;
            }
            txn.commit().unwrap();
            // The last batch stays in the rowstore.
            if b < batches {
                p.flush_table(t, true).unwrap();
            }
        }
    }
    p
}

/// What a plan's output column holds, for choosing join keys.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Num,
    Str,
    Other,
}

fn scan_kinds() -> Vec<Kind> {
    vec![Kind::Other, Kind::Num, Kind::Num, Kind::Str, Kind::Other]
}

/// A random plan of `depth` join levels, with its output kinds.
fn gen_plan(rng: &mut Rng, depth: usize) -> (Plan, Vec<Kind>) {
    if depth == 0 {
        let table = rng.pick(&TABLES);
        let filter = match rng.below(4) {
            0 => None,
            1 => Some(Expr::cmp(V, CmpOp::Lt, rng.below(140) as f64)),
            2 => Some(Expr::cmp(V, CmpOp::Lt, -1.0)), // an empty side
            _ => Some(Expr::cmp(V, CmpOp::Ge, rng.below(100) as f64)),
        };
        return (Plan::scan(table, (0..5).collect(), filter), scan_kinds());
    }
    let (left, lk) = gen_plan(rng, depth - 1);
    let right_depth = rng.below(depth);
    let (right, rk) = gen_plan(rng, right_depth);
    let numeric = |ks: &[Kind]| (0..ks.len()).filter(|&i| ks[i] == Kind::Num).collect::<Vec<_>>();
    let strings = |ks: &[Kind]| (0..ks.len()).filter(|&i| ks[i] == Kind::Str).collect::<Vec<_>>();
    let (mut left_keys, mut right_keys) = (Vec::new(), Vec::new());
    for _ in 0..1 + rng.below(2) {
        let (ls, rs) = if rng.below(3) == 0 {
            (strings(&lk), strings(&rk))
        } else {
            (numeric(&lk), numeric(&rk))
        };
        if ls.is_empty() || rs.is_empty() {
            continue;
        }
        left_keys.push(rng.pick(&ls));
        right_keys.push(rng.pick(&rs));
    }
    if left_keys.is_empty() {
        left_keys.push(0);
        right_keys.push(0);
    }
    let join_type = rng.pick(&[JoinType::Inner, JoinType::Left, JoinType::Semi, JoinType::Anti]);
    // Left column 0 at most right column 0 (positions of the combined row;
    // values of any two types compare).
    let residual = (rng.below(4) == 0)
        .then(|| Expr::Cmp(CmpOp::Le, Box::new(Expr::Column(0)), Box::new(Expr::Column(lk.len()))));
    let mut kinds = lk.clone();
    if matches!(join_type, JoinType::Inner | JoinType::Left) {
        kinds.extend(&rk);
    }
    let plan = left.join_full(right, left_keys, right_keys, join_type, residual);
    wrap(rng, plan, kinds)
}

/// Put a node a filter may (or may not) travel through on top of `plan`.
fn wrap(rng: &mut Rng, plan: Plan, kinds: Vec<Kind>) -> (Plan, Vec<Kind>) {
    match rng.below(6) {
        0 => (plan.sort(vec![(0, SortDir::Asc)], None), kinds),
        1 => (plan.sort(vec![(0, SortDir::Desc)], Some(7)), kinds),
        2 => (plan.filter(Expr::Not(Box::new(Expr::IsNull(Box::new(Expr::Column(0)))))), kinds),
        3 => {
            // Group by every key-like column, counting rows.
            let groups: Vec<usize> =
                (0..kinds.len()).filter(|&i| kinds[i] != Kind::Other).collect();
            let mut out: Vec<Kind> = groups.iter().map(|&g| kinds[g]).collect();
            out.push(Kind::Other);
            let count = Aggregate { func: AggFunc::Count, input: Expr::Literal(Value::Int(1)) };
            let max = Aggregate { func: AggFunc::Max, input: Expr::Column(0) };
            out.push(Kind::Other);
            let group_by = groups.into_iter().map(Expr::Column).collect();
            (plan.aggregate(group_by, vec![count, max]), out)
        }
        4 => {
            // Every column, reversed, as bare column references (typed by
            // [`typed`] once the input's types are known).
            let exprs = (0..kinds.len()).rev().map(|c| (Expr::Column(c), DataType::Int64));
            let kinds = kinds.iter().rev().copied().collect();
            (plan.project(exprs.collect()), kinds)
        }
        _ => (plan, kinds),
    }
}

/// The naive reference: every scan unfiltered by any key set, every join
/// the `hash_join` kernel built on the right input.
fn reference(plan: &Plan, ctx: &dyn QueryContext) -> Batch {
    match plan {
        Plan::Scan { table, projection, filter } => {
            let parts: Vec<Batch> = ctx
                .snapshots(table)
                .unwrap()
                .iter()
                .map(|s| scan(s, projection, filter.as_ref(), &ScanOptions::default()).unwrap().0)
                .collect();
            Batch::concat(parts).unwrap()
        }
        Plan::Filter { input, predicate } => {
            let b = reference(input, ctx);
            let sel = b.filter(predicate, None).unwrap();
            b.gather(&sel)
        }
        Plan::Project { input, exprs } => {
            let b = reference(input, ctx);
            let cols = exprs.iter().map(|(e, _)| {
                let t = match e {
                    Expr::Column(c) => b.columns[*c].data_type(),
                    _ => DataType::Int64,
                };
                b.eval_expr(e, t).unwrap()
            });
            Batch::new(cols.collect())
        }
        Plan::Join { left, right, left_keys, right_keys, join_type, residual } => {
            let (l, r) = (reference(left, ctx), reference(right, ctx));
            hash_join(&l, &r, left_keys, right_keys, *join_type, residual.as_ref()).unwrap()
        }
        Plan::Aggregate { input, group_by, aggregates } => {
            hash_aggregate(&reference(input, ctx), group_by, aggregates).unwrap()
        }
        Plan::Sort { input, keys, limit } => sort_batch(&reference(input, ctx), keys, *limit),
        Plan::Limit { input, n } => {
            let b = reference(input, ctx);
            b.gather(&(0..b.rows().min(*n) as u32).collect::<Vec<_>>())
        }
    }
}

/// Projects built by [`wrap`] carry placeholder types; give each bare
/// column its input's type, as the planner would.
fn typed(plan: Plan, ctx: &dyn QueryContext) -> Plan {
    match plan {
        Plan::Project { input, exprs } => {
            let input = typed(*input, ctx);
            let b = reference(&input, ctx);
            let exprs = exprs
                .into_iter()
                .map(|(e, t)| match e {
                    Expr::Column(c) => (e, b.columns[c].data_type()),
                    _ => (e, t),
                })
                .collect();
            Plan::Project { input: Box::new(input), exprs }
        }
        Plan::Filter { input, predicate } => typed(*input, ctx).filter(predicate),
        Plan::Join { left, right, left_keys, right_keys, join_type, residual } => typed(*left, ctx)
            .join_full(typed(*right, ctx), left_keys, right_keys, join_type, residual),
        Plan::Aggregate { input, group_by, aggregates } => {
            typed(*input, ctx).aggregate(group_by, aggregates)
        }
        Plan::Sort { input, keys, limit } => typed(*input, ctx).sort(keys, limit),
        Plan::Limit { input, n } => typed(*input, ctx).limit(n),
        scan @ Plan::Scan { .. } => scan,
    }
}

/// Every cell, doubles by their bits.
fn cells(b: &Batch) -> Vec<String> {
    let cell = |v: Value| match v {
        Value::Double(d) => format!("D{:016x}", d.to_bits()),
        other => format!("{other:?}"),
    };
    (0..b.rows()).map(|r| (0..b.width()).map(|c| cell(b.value(c, r))).collect()).collect()
}

fn check(plan: &Plan, snap: &PartitionSnapshot) -> ExecStats {
    let mut stats = ExecStats::default();
    let got = execute_with_stats(plan, snap, &ExecOptions::default(), &mut stats).unwrap();
    let want = reference(plan, snap);
    assert_eq!(got.width(), want.width(), "plan {plan:?}");
    assert_eq!(cells(&got), cells(&want), "plan {plan:?}");
    stats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn join_trees_match_the_naive_reference(seed in any::<u64>()) {
        let p = build(seed);
        let snap = p.read_snapshot();
        let mut rng = Rng(seed ^ 0x5eed);
        for _ in 0..6 {
            let depth = 2 + rng.below(3);
            let (plan, _) = gen_plan(&mut rng, depth);
            let plan = typed(plan, &snap);
            check(&plan, &snap);
        }
    }
}

/// A key set travels two levels: the tiny `tc` slice runs first and its
/// `ki` keys pass through a Sort and the Inner join below to the `ta` scan,
/// and through `tb`'s side too, where the key columns have other names.
#[test]
fn key_set_travels_two_levels_to_both_scans() {
    for seed in 0..8u64 {
        let p = build(seed);
        let snap = p.read_snapshot();
        let ab = Plan::scan("ta", (0..5).collect(), None)
            .join(Plan::scan("tb", (0..5).collect(), None), vec![KI], vec![KI])
            .sort(vec![(0, SortDir::Asc)], None);
        let small = Plan::scan("tc", (0..5).collect(), Some(Expr::cmp(V, CmpOp::Lt, 10.0)));
        let plan = ab.join(small, vec![KI], vec![KD]);
        let stats = check(&plan, &snap);
        assert_eq!(stats.join_index_filters + stats.hash_joins, 2);
    }
    // Keys typed apart: Int keys against Double keys and string keys.
    let p = build(99);
    let snap = p.read_snapshot();
    for (lk, rk) in [(KD, KI), (KS, KS), (KI, KD)] {
        let plan = Plan::scan("ta", (0..5).collect(), None).join_full(
            Plan::scan("tb", (0..5).collect(), Some(Expr::cmp(V, CmpOp::Lt, 30.0))),
            vec![lk, KI],
            vec![rk, KI],
            JoinType::Semi,
            None,
        );
        check(&plan, &snap);
    }
}
