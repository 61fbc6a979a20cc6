//! Encoded-domain execution equivalence: the scan's compiled code-domain
//! predicates and vectorized evaluation must be *byte-identical* to an
//! unfiltered scan followed by a scalar `Expr::eval_bool` per row, and the fused
//! encoded aggregation to `scan` + `hash_aggregate` — same rows, same
//! order, same `Debug` rendering of every value — over randomized
//! multi-segment tables that hit every encoding (bit-packed ints, RLE
//! runs, int and string dictionaries, plain doubles/strings, LZ strings)
//! with NULLs, deletes and a rowstore tail. A scan's outcome must also not
//! depend on which LSM level holds a row: flushing the tail changes nothing.

use std::sync::Arc;

use proptest::prelude::*;
use s2_common::schema::ColumnDef;
use s2_common::{DataType, Row, Schema, TableOptions, Value};
use s2_core::{MemFileStore, Partition};
use s2_exec::expr::CmpOp;
use s2_exec::{hash_aggregate, scan, scan_aggregate, AggFunc, Aggregate, Batch, Expr, ScanOptions};
use s2_wal::Log;

/// Deterministic splitmix64 so failures replay from the proptest seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Table whose columns are shaped to land on every encoding the analyzer
/// can pick:
///   0 id      Int     sequential            -> BitPackInt (sort key, pk)
///   1 grp     Str     5 distinct, NULLs     -> DictStr
///   2 amount  Double  random, NULLs         -> PlainDouble
///   3 runs    Int     long runs, wide range -> RleInt
///   4 tag     Str     long unique strings   -> LzStr
///   5 nint    Int     random, many NULLs    -> BitPackInt + null bitmap
///   6 sparse  Int     4 huge distinct       -> DictInt
fn build_table(seed: u64) -> (Arc<Partition>, u32) {
    let mut rng = seed;
    let p = Partition::new("pe", Arc::new(Log::in_memory()), Arc::new(MemFileStore::new()));
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int64),
        ColumnDef::nullable("grp", DataType::Str),
        ColumnDef::nullable("amount", DataType::Double),
        ColumnDef::new("runs", DataType::Int64),
        ColumnDef::new("tag", DataType::Str),
        ColumnDef::nullable("nint", DataType::Int64),
        ColumnDef::new("sparse", DataType::Int64),
    ])
    .unwrap();
    let opts = TableOptions::new()
        .with_sort_key(vec![0])
        .with_unique("pk", vec![0])
        .with_index("by_grp", vec![1])
        .with_segment_rows(48 + (next(&mut rng) % 48) as usize);
    let t = p.create_table("enc", schema, opts).unwrap();
    let batches = 3 + (next(&mut rng) % 3) as i64;
    let per_batch = 60 + (next(&mut rng) % 80) as i64;
    let mut id = 0i64;
    let sparse_vals = [10_000_019i64, 77_000_003, 123_456_789, 500_000_029];
    for _ in 0..batches {
        let mut txn = p.begin();
        for _ in 0..per_batch {
            let grp = if next(&mut rng).is_multiple_of(7) {
                Value::Null
            } else {
                Value::str(["a", "b", "c", "d", "e"][(next(&mut rng) % 5) as usize])
            };
            let amount = if next(&mut rng).is_multiple_of(11) {
                Value::Null
            } else {
                Value::Double((next(&mut rng) % 1000) as f64 / 4.0)
            };
            let nint = if next(&mut rng).is_multiple_of(3) {
                Value::Null
            } else {
                Value::Int((next(&mut rng) % 100) as i64)
            };
            txn.insert(
                t,
                Row::new(vec![
                    Value::Int(id),
                    grp,
                    amount,
                    Value::Int((id / 17) * 1_000_003),
                    Value::str(format!("tag-padding-padding-{id}")),
                    nint,
                    Value::Int(sparse_vals[(next(&mut rng) % 4) as usize]),
                ]),
            )
            .unwrap();
            id += 1;
        }
        txn.commit().unwrap();
        p.flush_table(t, true).unwrap();
    }
    // Deletes scattered over the flushed segments.
    let mut txn = p.begin();
    for _ in 0..(next(&mut rng) % (id as u64 / 5).max(1)) {
        let victim = (next(&mut rng) % id as u64) as i64;
        let _ = txn.delete_unique(t, &[Value::Int(victim)]).unwrap();
    }
    txn.commit().unwrap();
    // Rowstore tail: unflushed rows.
    let mut txn = p.begin();
    for _ in 0..(next(&mut rng) % 40) {
        txn.insert(
            t,
            Row::new(vec![
                Value::Int(id),
                Value::str("tail"),
                Value::Double(id as f64),
                Value::Int(-1),
                Value::str("tag-tail"),
                Value::Null,
                Value::Int(sparse_vals[0]),
            ]),
        )
        .unwrap();
        id += 1;
    }
    txn.commit().unwrap();
    (p, t)
}

fn opts() -> ScanOptions {
    ScanOptions { threads: 1, ..Default::default() }
}

/// Exact per-row `Debug` rendering — the byte-identity witness.
fn rows_dbg(b: &Batch) -> Vec<String> {
    (0..b.rows()).map(|i| format!("{:?}", b.row(i))).collect()
}

/// Filters spanning every clause strategy: compiled dict/RLE bitmaps,
/// vectorized regular clauses, group filters, LIKE and IN, null semantics,
/// and index-probe interactions.
fn filter_suite() -> Vec<Option<Expr>> {
    vec![
        None,
        Some(Expr::eq(1, "b")),                        // DictStr bitmap
        Some(Expr::cmp(3, CmpOp::Lt, 3_000_009i64)),   // RLE bitmap
        Some(Expr::eq(6, 77_000_003i64)),              // DictInt bitmap
        Some(Expr::cmp(2, CmpOp::Lt, 125.0)),          // double, vectorized regular
        Some(Expr::cmp(0, CmpOp::Ge, 40i64)),          // bit-packed range
        Some(Expr::IsNull(Box::new(Expr::Column(5)))), // null bitmap
        Some(Expr::Not(Box::new(Expr::IsNull(Box::new(Expr::Column(2)))))),
        Some(Expr::eq(1, "c").and(Expr::cmp(2, CmpOp::Lt, 200.0)).and(Expr::cmp(
            0,
            CmpOp::Ge,
            5i64,
        ))),
        Some(Expr::cmp(2, CmpOp::Ge, 1.0).and(Expr::cmp(0, CmpOp::Ge, 1i64))), // group filter
        Some(Expr::InList(
            Box::new(Expr::Column(1)),
            vec![Value::str("a"), Value::str("d"), Value::Null],
        )),
        Some(Expr::Like(Box::new(Expr::Column(4)), "%padding-1%".into())),
    ]
}

/// Values the flush-invariance guard row holds that no flushed row of
/// [`build_table`] does: its bit-packed `id` and its RLE `runs`. Its DictInt
/// `sparse` value is one most flushed segments hold too.
const GUARD_ID: i64 = 1_000_000;
const GUARD_RUNS: i64 = -7;
const GUARD_SPARSE: i64 = 10_000_019;

/// `100 / (col - v) > 5`: divides by zero on a row holding `v`.
fn divides_by(col: usize, v: i64) -> Expr {
    let lit = |i: i64| Box::new(Expr::Literal(Value::Int(i)));
    let arith = |op, a, b| Box::new(Expr::Arith(op, a, b));
    let col_minus_v = arith(s2_exec::ArithOp::Sub, Box::new(Expr::Column(col)), lit(v));
    Expr::Cmp(CmpOp::Gt, arith(s2_exec::ArithOp::Div, lit(100), col_minus_v), lit(5))
}

/// `col = v OR 100 / (col - v) > 5`: only a per-row `OR` short-circuit keeps
/// a row holding `v` from dividing by zero, and the vectorized evaluator has
/// none — so the scan errors, wherever and however encoded that row lives.
fn guarded_division(col: usize, v: i64) -> Expr {
    Expr::Or(vec![Expr::eq(col, v), divides_by(col, v)])
}

/// `col <> v AND 100 / (col - v) > 5`, in both written orders: the conjunct
/// rule counts the division's error only on rows `col <> v` accepts, so
/// neither order errors, at any level and under any clause plan.
fn conjunct_guarded_division(col: usize, v: i64) -> [Expr; 2] {
    let ne = Expr::cmp(col, CmpOp::Ne, v);
    [ne.clone().and(divides_by(col, v)), divides_by(col, v).and(ne)]
}

/// A scan's observable outcome: rendered rows, or the error message.
fn outcome(r: s2_common::Result<(Batch, s2_exec::ScanStats)>) -> Result<Vec<String>, String> {
    r.map(|(b, _)| rows_dbg(&b)).map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Scans: a filtered scan returns exactly the rows that scalar
    /// `Expr::eval_bool` keeps from an unfiltered scan, for every clause
    /// strategy.
    #[test]
    fn scan_filter_matches_scalar_filter(seed in any::<u64>()) {
        let (p, t) = build_table(seed);
        let snap = p.read_snapshot();
        let ts = snap.table(t).unwrap();
        let proj: Vec<usize> = (0..7).collect();
        let (all, _) = scan(ts, &proj, None, &opts()).unwrap();
        for filter in filter_suite().iter().flatten() {
            let passing: Vec<u32> = (0..all.rows() as u32)
                .filter(|&r| filter.eval_bool(&|c| all.value(c, r as usize)).unwrap())
                .collect();
            let expected = all.gather(&passing);
            let (got, _) = scan(ts, &proj, Some(filter), &opts()).unwrap();
            prop_assert_eq!(rows_dbg(&expected), rows_dbg(&got), "filter {:?}", filter);
        }
    }

    /// Flush invariance: `scan` and `scan_aggregate` return the same rows —
    /// or the same error — whether the tail rows sit in the rowstore or in
    /// a freshly flushed segment (with a cold and then a warm decision
    /// cache), with adaptive reordering on and off, for the whole filter
    /// suite plus divisions by zero that a tail row trips on a bit-packed, a
    /// dictionary and an RLE column: guarded by `OR` they error everywhere,
    /// guarded by a conjunct they error nowhere.
    #[test]
    fn flush_does_not_change_scan_outcome(seed in any::<u64>()) {
        let (p, t) = build_table(seed);
        let mut txn = p.begin();
        txn.insert(
            t,
            Row::new(vec![
                Value::Int(GUARD_ID),
                Value::str("tail"),
                Value::Double(0.5),
                Value::Int(GUARD_RUNS),
                Value::str("tag-guard"),
                Value::Null,
                Value::Int(GUARD_SPARSE),
            ]),
        )
        .unwrap();
        txn.commit().unwrap();
        let proj: Vec<usize> = (0..7).collect();
        let group_by = [Expr::Column(1)];
        let aggregates = [
            Aggregate { func: AggFunc::Count, input: Expr::Literal(Value::Int(1)) },
            Aggregate { func: AggFunc::Sum, input: Expr::Column(2) },
        ];
        let guards = [(0, GUARD_ID), (6, GUARD_SPARSE), (3, GUARD_RUNS)];
        let suite = filter_suite();
        let or_guarded: Vec<Option<Expr>> =
            guards.iter().map(|&(c, v)| Some(guarded_division(c, v))).collect();
        let and_guarded: Vec<Option<Expr>> =
            guards.iter().flat_map(|&(c, v)| conjunct_guarded_division(c, v)).map(Some).collect();
        let filters: Vec<&Option<Expr>> =
            suite.iter().chain(&or_guarded).chain(&and_guarded).collect();
        let run = |filter: &Option<Expr>, adaptive_reorder: bool| {
            let o = ScanOptions { adaptive_reorder, ..opts() };
            let snap = p.read_snapshot();
            let ts = snap.table(t).unwrap();
            let rows = outcome(scan(ts, &proj, filter.as_ref(), &o));
            let agg = outcome(scan_aggregate(
                std::slice::from_ref(ts),
                &proj,
                filter.as_ref(),
                &group_by,
                &aggregates,
                &o,
            ));
            (rows, agg)
        };
        let all_runs = || {
            filters.iter().flat_map(|f| [true, false].map(|a| run(f, a))).collect::<Vec<_>>()
        };
        let before = all_runs();
        prop_assert!(p.flush_table(t, true).unwrap() > 0, "the tail flushes into a segment");
        for cache in ["cold", "warm"] {
            let after = all_runs();
            for (i, (before, after)) in before.iter().zip(&after).enumerate() {
                prop_assert_eq!(before, after, "{} cache, filter {:?}", cache, filters[i / 2]);
            }
        }
        let guarded = &before[2 * suite.len()..];
        let (or_runs, and_runs) = guarded.split_at(2 * or_guarded.len());
        for r in or_runs {
            prop_assert!(r.0.is_err() && r.1.is_err(), "{:?}", r);
        }
        for r in and_runs {
            prop_assert!(r.0.is_ok() && r.1.is_ok(), "{:?}", r);
        }
    }

    /// Aggregates: the fused encoded aggregation (dict-code groups, typed
    /// lanes, rowstore tail) is byte-identical to scan + hash_aggregate.
    #[test]
    fn aggregate_fused_matches_hash(seed in any::<u64>()) {
        let (p, t) = build_table(seed);
        let snap = p.read_snapshot();
        let ts = snap.table(t).unwrap();
        let proj: Vec<usize> = (0..7).collect();
        let revenue = Expr::Arith(
            s2_exec::ArithOp::Mul,
            Box::new(Expr::Column(2)),
            Box::new(Expr::Arith(
                s2_exec::ArithOp::Sub,
                Box::new(Expr::Literal(Value::Double(1.0))),
                Box::new(Expr::Column(2)),
            )),
        );
        let agg = |f: AggFunc, input: Expr| Aggregate { func: f, input };
        // (group_by over projection positions, aggregates, filter)
        let cases: Vec<(Vec<Expr>, Vec<Aggregate>, Option<Expr>)> = vec![
            // Global aggregates, every function, including COUNT / SUM / AVG
            // over an RLE column (3) and a no-null column (0).
            (vec![], vec![
                agg(AggFunc::Count, Expr::Literal(Value::Int(1))),
                agg(AggFunc::Count, Expr::Column(0)),
                agg(AggFunc::Count, Expr::Column(3)),
                agg(AggFunc::Sum, Expr::Column(0)),
                agg(AggFunc::Avg, Expr::Column(0)),
                agg(AggFunc::Avg, Expr::Column(3)),
                agg(AggFunc::Sum, Expr::Column(3)),
                agg(AggFunc::Sum, Expr::Column(2)),
                agg(AggFunc::Avg, Expr::Column(5)),
                agg(AggFunc::Min, Expr::Column(0)),
                agg(AggFunc::Max, Expr::Column(2)),
            ], None),
            // Dict-coded single group key (with NULL groups).
            (vec![Expr::Column(1)], vec![
                agg(AggFunc::Count, Expr::Literal(Value::Int(1))),
                agg(AggFunc::Sum, Expr::Column(2)),
                agg(AggFunc::Avg, revenue.clone()),
            ], None),
            // Code-tuple group: DictStr x DictInt.
            (vec![Expr::Column(1), Expr::Column(6)], vec![
                agg(AggFunc::Sum, Expr::Column(0)),
                agg(AggFunc::Count, Expr::Column(5)),
            ], None),
            // Non-dict group expression falls to the general path.
            (vec![Expr::Column(3)], vec![
                agg(AggFunc::Sum, Expr::Column(2)),
                agg(AggFunc::Min, Expr::Column(0)),
            ], Some(Expr::cmp(0, CmpOp::Ge, 10i64))),
            // Filtered + grouped, mixed clause strategies upstream.
            (vec![Expr::Column(1)], vec![
                agg(AggFunc::Sum, revenue),
                agg(AggFunc::Count, Expr::Literal(Value::Int(1))),
            ], Some(Expr::eq(6, 10_000_019i64).and(Expr::cmp(2, CmpOp::Ge, 50.0)))),
        ];
        for (group_by, aggregates, filter) in &cases {
            let (base, _) = scan(ts, &proj, filter.as_ref(), &opts()).unwrap();
            let legacy = hash_aggregate(&base, group_by, aggregates);
            let fused = scan_aggregate(
                std::slice::from_ref(ts),
                &proj,
                filter.as_ref(),
                group_by,
                aggregates,
                &opts(),
            );
            match (&legacy, &fused) {
                (Ok(l), Ok((f, _))) => prop_assert_eq!(
                    rows_dbg(l),
                    rows_dbg(f),
                    "group {:?} filter {:?}",
                    group_by,
                    filter
                ),
                // Errors (e.g. a NULL first group key over a string column)
                // must match message-for-message.
                (Err(le), Err(fe)) => prop_assert_eq!(le.to_string(), fe.to_string()),
                _ => prop_assert!(
                    false,
                    "one path failed: legacy {:?} fused ok={:?} (group {:?} filter {:?})",
                    legacy.as_ref().err(),
                    fused.is_ok(),
                    group_by,
                    filter
                ),
            }
        }
    }
}

/// RLE sums whose partials leave f64's exact-integer range (past 2^52) round
/// exactly as scan + hash_aggregate's row-order adds do.
#[test]
fn rle_sum_past_exact_range_matches_hash() {
    let p = Partition::new("po", Arc::new(Log::in_memory()), Arc::new(MemFileStore::new()));
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int64),
        ColumnDef::new("big", DataType::Int64),
    ])
    .unwrap();
    let topts =
        TableOptions::new().with_sort_key(vec![0]).with_unique("pk", vec![0]).with_segment_rows(64);
    let t = p.create_table("ov", schema, topts).unwrap();
    let mut txn = p.begin();
    for id in 0..128i64 {
        // Runs of 16 identical huge values: 3e15 * 16 rows blows through
        // the 2^52 (~4.5e15) exact-integer window mid-segment.
        txn.insert(
            t,
            Row::new(vec![Value::Int(id), Value::Int((id / 16) * 3_000_000_000_000_000)]),
        )
        .unwrap();
    }
    txn.commit().unwrap();
    p.flush_table(t, true).unwrap();
    let snap = p.read_snapshot();
    let ts = snap.table(t).unwrap();
    let aggs = vec![Aggregate { func: AggFunc::Sum, input: Expr::Column(1) }];
    let (base, _) = scan(ts, &[0, 1], None, &opts()).unwrap();
    let legacy = hash_aggregate(&base, &[], &aggs).unwrap();
    let (fused, _) =
        scan_aggregate(std::slice::from_ref(ts), &[0, 1], None, &[], &aggs, &opts()).unwrap();
    assert_eq!(rows_dbg(&legacy), rows_dbg(&fused));
}

/// Output column types come from the key and input lanes, not from the first
/// group: a NULL first-seen `GROUP BY` key over strings (dictionary-code path
/// and rowstore tail) used to fail with "cannot push a into Int64 vector",
/// and a grouped MIN/MAX over strings whose first group is all-NULL with
/// "cannot push … into Double vector".
#[test]
fn null_first_groups_keep_their_lane_types() {
    let p = Partition::new("pn", Arc::new(Log::in_memory()), Arc::new(MemFileStore::new()));
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int64),
        ColumnDef::nullable("grp", DataType::Str),
        ColumnDef::new("bucket", DataType::Int64),
        ColumnDef::nullable("tag", DataType::Str),
    ])
    .unwrap();
    let topts =
        TableOptions::new().with_sort_key(vec![0]).with_unique("pk", vec![0]).with_segment_rows(16);
    let t = p.create_table("nf", schema, topts).unwrap();
    let row = |id: i64| {
        Row::new(vec![
            Value::Int(id),
            if id < 3 { Value::Null } else { Value::str(["a", "b"][(id % 2) as usize]) },
            Value::Int(id / 4),
            if id < 4 { Value::Null } else { Value::str(format!("tag-{:02}", 40 - id)) },
        ])
    };
    let mut txn = p.begin();
    (0..32).for_each(|id| txn.insert(t, row(id)).unwrap());
    txn.commit().unwrap();
    p.flush_table(t, true).unwrap();
    let mut txn = p.begin();
    (32..40).for_each(|id| txn.insert(t, row(id)).unwrap());
    txn.commit().unwrap();

    let snap = p.read_snapshot();
    let ts = snap.table(t).unwrap();
    let proj = [0, 1, 2, 3];
    let count = Aggregate { func: AggFunc::Count, input: Expr::Literal(Value::Int(1)) };
    let min = Aggregate { func: AggFunc::Min, input: Expr::Column(3) };
    let max = Aggregate { func: AggFunc::Max, input: Expr::Column(3) };
    for (group_by, aggregates, first) in [
        (Expr::Column(1), vec![count], "[Null, Int(3)]"),
        (Expr::Column(2), vec![min, max], "[Int(0), Null, Null]"),
    ] {
        let (fused, _) = scan_aggregate(
            std::slice::from_ref(ts),
            &proj,
            None,
            std::slice::from_ref(&group_by),
            &aggregates,
            &opts(),
        )
        .unwrap();
        assert_eq!(rows_dbg(&fused)[0], format!("Row({first})"));
        let (base, _) = scan(ts, &proj, None, &opts()).unwrap();
        let hashed = hash_aggregate(&base, &[group_by], &aggregates).unwrap();
        assert_eq!(rows_dbg(&hashed), rows_dbg(&fused));
        assert!(fused.columns.iter().skip(1).all(|c| c.data_type() != DataType::Double));
    }
}

/// The conjunct rule at every level: over 200 rows with `k = i % 7`,
/// `k <> 0 AND 100 / k > 5` keeps 171 rows in both written orders —
/// unflushed, flushed with a cold and a warm decision cache, adaptive
/// reordering on and off, through `scan` and `scan_aggregate` — and so
/// does the CASE-guarded division; a bare or `OR`-guarded division errors
/// everywhere.
#[test]
fn conjunct_rule_holds_at_every_level() {
    let p = Partition::new("pc", Arc::new(Log::in_memory()), Arc::new(MemFileStore::new()));
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int64),
        ColumnDef::new("k", DataType::Int64),
    ])
    .unwrap();
    let topts = TableOptions::new().with_sort_key(vec![0]).with_unique("pk", vec![0]);
    let t = p.create_table("conj", schema, topts).unwrap();
    let mut txn = p.begin();
    for i in 0..200i64 {
        txn.insert(t, Row::new(vec![Value::Int(i), Value::Int(i % 7)])).unwrap();
    }
    txn.commit().unwrap();
    let [kept_a, kept_b] = conjunct_guarded_division(1, 0);
    let case_guarded = Expr::Cmp(
        CmpOp::Gt,
        Box::new(Expr::Case {
            when: vec![(Expr::eq(1, 0i64), Expr::Literal(Value::Int(0)))],
            else_: Box::new(Expr::Arith(
                s2_exec::ArithOp::Div,
                Box::new(Expr::Literal(Value::Int(100))),
                Box::new(Expr::Column(1)),
            )),
        }),
        Box::new(Expr::Literal(Value::Int(5))),
    );
    let count = [Aggregate { func: AggFunc::Count, input: Expr::Literal(Value::Int(1)) }];
    let check = |level: &str| {
        for adaptive_reorder in [true, false] {
            let o = ScanOptions { adaptive_reorder, ..opts() };
            let snap = p.read_snapshot();
            let ts = snap.table(t).unwrap();
            let run = |f: &Expr| scan(ts, &[0, 1], Some(f), &o);
            let agg = |f: &Expr| {
                scan_aggregate(std::slice::from_ref(ts), &[0, 1], Some(f), &[], &count, &o)
            };
            for f in [&kept_a, &kept_b, &case_guarded] {
                let at = format!("{level}, adaptive {adaptive_reorder}: {f:?}");
                assert_eq!(run(f).expect(&at).0.rows(), 171, "{at}");
                assert_eq!(agg(f).expect(&at).0.value(0, 0), Value::Int(171), "{at}");
            }
            for f in [divides_by(1, 0), guarded_division(1, 0)] {
                let at = format!("{level}, adaptive {adaptive_reorder}: {f:?}");
                assert_eq!(
                    outcome(run(&f)).unwrap_err(),
                    "invalid argument: division by zero",
                    "{at}"
                );
                assert!(agg(&f).is_err(), "{at}");
            }
        }
    };
    check("unflushed");
    p.flush_table(t, true).unwrap();
    check("flushed, cold cache");
    check("flushed, warm cache");
}

/// Only live rows decide whether a scan fails: a dictionary entry that
/// divides by zero but is held by deleted rows alone does not, exactly as
/// if the column were decoded row by row.
#[test]
fn dead_dictionary_entry_cannot_fail_a_scan() {
    let p = Partition::new("pd", Arc::new(Log::in_memory()), Arc::new(MemFileStore::new()));
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int64),
        ColumnDef::new("sparse", DataType::Int64),
    ])
    .unwrap();
    let topts = TableOptions::new().with_sort_key(vec![0]).with_unique("pk", vec![0]);
    let t = p.create_table("dead", schema, topts).unwrap();
    let sparse_vals = [10_000_019i64, 77_000_003, 123_456_789, 500_000_029];
    let mut txn = p.begin();
    for id in 0..200i64 {
        txn.insert(t, Row::new(vec![Value::Int(id), Value::Int(sparse_vals[(id % 4) as usize])]))
            .unwrap();
    }
    txn.commit().unwrap();
    p.flush_table(t, true).unwrap();
    let filter = guarded_division(1, sparse_vals[0]);
    let run = || {
        let snap = p.read_snapshot();
        scan(snap.table(t).unwrap(), &[0, 1], Some(&filter), &opts())
    };
    assert!(run().is_err(), "live rows hold the dividing-by-zero entry");
    let mut txn = p.begin();
    for id in (0..200i64).step_by(4) {
        assert!(txn.delete_unique(t, &[Value::Int(id)]).unwrap());
    }
    txn.commit().unwrap();
    let (got, _) = run().unwrap();
    let snap = p.read_snapshot();
    let (all, _) = scan(snap.table(t).unwrap(), &[0, 1], None, &opts()).unwrap();
    let expected = all.gather(&all.filter(&filter, None).unwrap());
    assert_eq!(rows_dbg(&expected), rows_dbg(&got));
}

/// The new obs counters actually advance: compiled clause bitmaps, fused
/// aggregation rows, and decode skipping are all observable.
#[test]
fn encoded_stats_advance() {
    let (p, t) = build_table(0xec0ded);
    let snap = p.read_snapshot();
    let ts = snap.table(t).unwrap();
    let aggs = vec![Aggregate { func: AggFunc::Count, input: Expr::Literal(Value::Int(1)) }];
    // Filter the DictInt column: unlike `grp` it has no secondary index, so
    // the clause must reach the compiled-bitmap path instead of an index
    // probe.
    let filter = Expr::eq(6, 77_000_003i64);
    let (_, stats) =
        scan_aggregate(std::slice::from_ref(ts), &[0, 1, 2], Some(&filter), &[], &aggs, &opts())
            .unwrap();
    assert!(stats.encoded_clause_total > 0, "dict filter must compile: {stats:?}");
    assert!(stats.encoded_agg_rows > 0, "fused aggregation must run: {stats:?}");
    assert!(stats.decode_skipped_rows > 0, "COUNT(1) needs no decode: {stats:?}");
}
