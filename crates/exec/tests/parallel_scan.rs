//! Parallel-scan equivalence and adaptive-decision-cache behaviour.
//!
//! The morsel executor must be invisible in results: any thread count
//! produces the identical batch (fragments reassemble in segment order) and
//! — once the decision cache is warm, so the sampled plan is shared — the
//! identical merged [`ScanStats`]. The same holds for whole plans: joins,
//! aggregates and sorts over parallel scans return byte-identical batches
//! and the same operator counts at every thread count. The cache itself must be observably hit
//! on a repeated scan and observably missed after a columnstore merge
//! rewrites segments under new ids, and after deletes change a segment's
//! visible row set.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use s2_common::schema::ColumnDef;
use s2_common::{DataType, Row, Schema, TableOptions, Value};
use s2_core::{MemFileStore, Partition};
use s2_exec::expr::{ArithOp, CmpOp};
use s2_exec::{
    hash_aggregate, scan, scan_aggregate, AggFunc, Aggregate, Batch, Expr, JoinType, ScanOptions,
    ScanStats, SortDir,
};
use s2_query::{execute, execute_with_stats, ExecOptions, ExecStats, OpKind, Plan, UnionContext};
use s2_wal::Log;

/// Held by the tests that read `exec.pool.morsels`: one of them asserts
/// that the counter does *not* move, which a concurrent pool user breaks.
static POOL_COUNTER: Mutex<()> = Mutex::new(());

/// Deterministic splitmix64 for seed-derived table shapes.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Build a partition with a multi-segment table derived from `seed`:
/// several flushed batches (small segments), randomized deletes, and a
/// rowstore tail.
fn build_table(seed: u64) -> (Arc<Partition>, u32) {
    let mut rng = seed;
    let p = Partition::new("pp", Arc::new(Log::in_memory()), Arc::new(MemFileStore::new()));
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int64),
        ColumnDef::new("grp", DataType::Str),
        ColumnDef::new("amount", DataType::Double),
    ])
    .unwrap();
    let opts = TableOptions::new()
        .with_sort_key(vec![0])
        .with_unique("pk", vec![0])
        .with_index("by_grp", vec![1])
        .with_segment_rows(32 + (next(&mut rng) % 48) as usize);
    let t = p.create_table("rt", schema, opts).unwrap();
    let batches = 3 + (next(&mut rng) % 3) as i64; // 3..=5 flushed batches
    let per_batch = 40 + (next(&mut rng) % 60) as i64;
    let mut id = 0i64;
    for _ in 0..batches {
        let mut txn = p.begin();
        for _ in 0..per_batch {
            txn.insert(
                t,
                Row::new(vec![
                    Value::Int(id),
                    Value::str(["a", "b", "c", "d", "e"][(next(&mut rng) % 5) as usize]),
                    Value::Double((next(&mut rng) % 1000) as f64),
                ]),
            )
            .unwrap();
            id += 1;
        }
        txn.commit().unwrap();
        p.flush_table(t, true).unwrap();
    }
    // Randomized deletes across the flushed segments.
    let deletes = next(&mut rng) % (id as u64 / 4).max(1);
    let mut txn = p.begin();
    for _ in 0..deletes {
        let victim = (next(&mut rng) % id as u64) as i64;
        let _ = txn.delete_unique(t, &[Value::Int(victim)]).unwrap();
    }
    txn.commit().unwrap();
    // Rowstore tail.
    let mut txn = p.begin();
    for _ in 0..(next(&mut rng) % 30) {
        txn.insert(
            t,
            Row::new(vec![
                Value::Int(id),
                Value::str("tail"),
                Value::Double((next(&mut rng) % 1000) as f64),
            ]),
        )
        .unwrap();
        id += 1;
    }
    txn.commit().unwrap();
    (p, t)
}

/// Render a batch as a sorted multiset of row strings.
fn sorted_rows(b: &Batch) -> Vec<String> {
    let mut rows: Vec<String> = (0..b.rows()).map(|i| format!("{:?}", b.row(i))).collect();
    rows.sort();
    rows
}

fn opts_with_threads(threads: usize) -> ScanOptions {
    ScanOptions { threads, ..Default::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite: `S2_SCAN_THREADS=1` and `=8` equivalents (explicit
    /// `threads` option) must produce identical sorted result sets and
    /// identical merged skip/filter counters on randomized multi-segment
    /// tables with deletes.
    #[test]
    fn one_and_eight_threads_agree(seed in any::<u64>()) {
        let (p, t) = build_table(seed);
        let snap = p.read_snapshot();
        let ts = snap.table(t).unwrap();
        let filters: Vec<Option<Expr>> = vec![
            None,
            Some(Expr::cmp(2, CmpOp::Lt, 500.0)),
            Some(Expr::eq(1, "b")),
            // Two non-selective clauses: exercises group-filter formation.
            Some(Expr::cmp(2, CmpOp::Ge, 1.0).and(Expr::cmp(0, CmpOp::Ge, 1i64))),
            // Index probe + residual.
            Some(Expr::eq(1, "c").and(Expr::cmp(2, CmpOp::Lt, 800.0))),
        ];
        for filter in &filters {
            // Warm the decision cache so serial and parallel runs replay the
            // same sampled plan (the sampling pass itself is timing-driven).
            scan(ts, &[0, 1, 2], filter.as_ref(), &opts_with_threads(1)).unwrap();
            let (b1, s1) = scan(ts, &[0, 1, 2], filter.as_ref(), &opts_with_threads(1)).unwrap();
            let (b8, s8) = scan(ts, &[0, 1, 2], filter.as_ref(), &opts_with_threads(8)).unwrap();
            // Parallel reassembly is in segment order: results are not just
            // set-equal but byte-identical.
            prop_assert_eq!(b1.rows(), b8.rows(), "filter {:?}", filter);
            for i in 0..b1.rows() {
                prop_assert_eq!(format!("{:?}", b1.row(i)), format!("{:?}", b8.row(i)));
            }
            prop_assert_eq!(sorted_rows(&b1), sorted_rows(&b8));
            let (mut m1, mut m8) = (ScanStats::default(), ScanStats::default());
            m1.merge(&s1);
            m8.merge(&s8);
            prop_assert_eq!(m1, m8, "filter {:?}", filter);
        }
    }
}

/// A small dimension table next to `rt`, keyed by `rt.grp`: every group
/// but "e" and the tail has a row, "a" has two (duplicate build keys), one
/// key is NULL and one matches nothing.
fn add_dim_table(p: &Arc<Partition>) {
    let schema = Schema::new(vec![
        ColumnDef::nullable("dgrp", DataType::Str),
        ColumnDef::new("weight", DataType::Int64),
    ])
    .unwrap();
    let t = p.create_table("dim", schema, TableOptions::new()).unwrap();
    let mut txn = p.begin();
    let keys = [Some("a"), Some("b"), Some("c"), Some("d"), Some("a"), None, Some("zz")];
    for (i, k) in keys.iter().enumerate() {
        let key = k.map_or(Value::Null, Value::str);
        txn.insert(t, Row::new(vec![key, Value::Int(100 * i as i64)])).unwrap();
    }
    txn.commit().unwrap();
    p.flush_table(t, true).unwrap();
}

/// Join / aggregate / sort plans over `rt` (positions 0 id, 1 grp,
/// 2 amount) and `dim` (3 dgrp, 4 weight after a join).
fn plan_suite() -> Vec<Plan> {
    let rt = || Plan::scan("rt", vec![0, 1, 2], Some(Expr::cmp(2, CmpOp::Lt, 800.0)));
    let dim = || Plan::scan("dim", vec![0, 1], None);
    let join = |join_type, residual| Plan::Join {
        left: Box::new(rt()),
        right: Box::new(dim()),
        left_keys: vec![1],
        right_keys: vec![0],
        join_type,
        residual,
    };
    let id_below_weight =
        Expr::Cmp(CmpOp::Lt, Box::new(Expr::Column(0)), Box::new(Expr::Column(4)));
    let agg = |func, c| Aggregate { func, input: Expr::Column(c) };
    let count = Aggregate { func: AggFunc::Count, input: Expr::Literal(Value::Int(1)) };
    let mut plans = vec![
        // Fused aggregate-over-scan, then hash aggregate over a join.
        Plan::Aggregate {
            input: Box::new(rt()),
            group_by: vec![Expr::Column(1)],
            aggregates: vec![agg(AggFunc::Sum, 2), agg(AggFunc::Min, 0), count.clone()],
        },
        Plan::Aggregate {
            input: Box::new(join(JoinType::Inner, None)),
            group_by: vec![Expr::Column(3), Expr::Column(4)],
            aggregates: vec![agg(AggFunc::Avg, 2), agg(AggFunc::Max, 0), count],
        },
        Plan::Sort {
            input: Box::new(join(JoinType::Left, Some(id_below_weight.clone()))),
            keys: vec![(4, SortDir::Desc), (2, SortDir::Asc)],
            limit: Some(25),
        },
    ];
    for join_type in [JoinType::Inner, JoinType::Left, JoinType::Semi, JoinType::Anti] {
        plans.push(join(join_type, None));
        plans.push(join(join_type, Some(id_below_weight.clone())));
    }
    // Nested joins: the small `rt` slice runs first and its ids travel down
    // through a Sort and an Inner (or the preserved side of a Left) join to
    // the `rt` scan two levels below; grouped `rt` keys filter by `dim`.
    let small_rt = || Plan::scan("rt", vec![0, 2], Some(Expr::cmp(2, CmpOp::Lt, 100.0)));
    for below in [JoinType::Inner, JoinType::Left] {
        plans.push(join(below, None).sort(vec![(2, SortDir::Asc)], None).join(
            small_rt(),
            vec![0],
            vec![0],
        ));
    }
    let grouped = Plan::Aggregate {
        input: Box::new(rt()),
        group_by: vec![Expr::Column(1)],
        aggregates: vec![agg(AggFunc::Sum, 2)],
    };
    plans.push(grouped.join_full(dim(), vec![0], vec![0], JoinType::Semi, None));
    plans
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Threads = 1 vs 8 over join, aggregate and sort plans, nested joins
    /// whose key filters travel two levels included: identical batches,
    /// identical join-strategy and scan counters, identical operator calls
    /// and rows out.
    #[test]
    fn plans_agree_at_one_and_eight_threads(seed in any::<u64>()) {
        let (p, _) = build_table(seed);
        add_dim_table(&p);
        let snap = p.read_snapshot();
        for plan in plan_suite() {
            let run = |threads: usize| {
                let opts = ExecOptions { scan: opts_with_threads(threads) };
                let mut stats = ExecStats::default();
                let batch = execute_with_stats(&plan, &snap, &opts, &mut stats).unwrap();
                (batch, stats)
            };
            run(1); // warm the decision cache: both runs replay one sampled plan
            let (b1, s1) = run(1);
            let (b8, s8) = run(8);
            prop_assert_eq!(b1.rows(), b8.rows(), "plan {:?}", plan);
            for i in 0..b1.rows() {
                prop_assert_eq!(format!("{:?}", b1.row(i)), format!("{:?}", b8.row(i)));
            }
            prop_assert_eq!(&s1.scan, &s8.scan, "plan {:?}", plan);
            prop_assert_eq!(
                (s1.hash_joins, s1.join_index_filters),
                (s8.hash_joins, s8.join_index_filters)
            );
            for kind in OpKind::ALL {
                let (o1, o8) = (s1.op(kind), s8.op(kind));
                prop_assert_eq!((o1.calls, o1.rows_out), (o8.calls, o8.rows_out), "{:?}", kind);
            }
        }
    }
}

#[test]
fn thread_count_sweep_is_deterministic() {
    let (p, t) = build_table(0xfeed);
    let snap = p.read_snapshot();
    let ts = snap.table(t).unwrap();
    let f = Expr::cmp(2, CmpOp::Lt, 750.0);
    let baseline = scan(ts, &[0, 1, 2], Some(&f), &opts_with_threads(1)).unwrap().0;
    for threads in [2usize, 3, 4, 8, 16] {
        let (b, _) = scan(ts, &[0, 1, 2], Some(&f), &opts_with_threads(threads)).unwrap();
        assert_eq!(sorted_rows(&baseline), sorted_rows(&b), "threads={threads}");
    }
}

/// Satellite: cached clause order is used on the second scan (observable
/// via per-scan stats *and* the global obs counters) and invalidated after
/// a columnstore merge rewrites the segments.
#[test]
fn decision_cache_hits_then_merge_invalidates() {
    let p = Partition::new("pc", Arc::new(Log::in_memory()), Arc::new(MemFileStore::new()));
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int64),
        ColumnDef::new("grp", DataType::Str),
        ColumnDef::new("amount", DataType::Double),
    ])
    .unwrap();
    let topts =
        TableOptions::new().with_sort_key(vec![0]).with_unique("pk", vec![0]).with_segment_rows(50);
    let t = p.create_table("ct", schema, topts).unwrap();
    // 5 flushed runs so the default merge policy (max_runs = 4) has work.
    for batch in 0..5i64 {
        let mut txn = p.begin();
        for i in 0..50i64 {
            let id = batch * 50 + i;
            txn.insert(
                t,
                Row::new(vec![
                    Value::Int(id),
                    Value::str(["x", "y"][(id % 2) as usize]),
                    Value::Double(id as f64),
                ]),
            )
            .unwrap();
        }
        txn.commit().unwrap();
        p.flush_table(t, true).unwrap();
    }
    // A residual-only filter with literals unique to this test, so the cache
    // key cannot alias another test's entries.
    let f = Expr::cmp(2, CmpOp::Ge, 17.25).and(Expr::cmp(2, CmpOp::Lt, 231.75));
    let opts = opts_with_threads(1);
    let snap = p.read_snapshot();
    let ts = snap.table(t).unwrap();

    let obs_hits_before = s2_obs::global().snapshot().counter("exec.scan.decision_cache_hits");
    let (_, cold) = scan(ts, &[0, 2], Some(&f), &opts).unwrap();
    assert!(cold.decision_cache_misses > 0, "{cold:?}");
    assert_eq!(cold.decision_cache_hits, 0, "{cold:?}");

    let (_, warm) = scan(ts, &[0, 2], Some(&f), &opts).unwrap();
    assert_eq!(warm.decision_cache_misses, 0, "{warm:?}");
    assert_eq!(warm.decision_cache_hits, cold.decision_cache_misses, "{warm:?}");
    let obs_hits_after = s2_obs::global().snapshot().counter("exec.scan.decision_cache_hits");
    assert!(
        obs_hits_after >= obs_hits_before + warm.decision_cache_hits as u64,
        "global counter must reflect the hits: {obs_hits_before} -> {obs_hits_after}"
    );

    // Merge rewrites data into new segment ids -> the cached decisions can
    // no longer be reached.
    let mut merged = false;
    while p.merge_table(t).unwrap() {
        merged = true;
    }
    assert!(merged, "expected at least one merge with 5 runs");
    let snap2 = p.read_snapshot();
    let ts2 = snap2.table(t).unwrap();
    let (_, post) = scan(ts2, &[0, 2], Some(&f), &opts).unwrap();
    assert!(post.decision_cache_misses > 0, "merged segments must re-plan: {post:?}");
}

/// Deletes shift selectivities, so they invalidate the affected segment's
/// cached plan (delete-count mismatch) while untouched segments still hit.
#[test]
fn decision_cache_invalidated_by_deletes() {
    let (p, t) = build_table(0xdead_0001);
    let f = Expr::cmp(2, CmpOp::Ge, 3.125).and(Expr::cmp(0, CmpOp::Ge, 1i64));
    let opts = opts_with_threads(1);
    {
        let snap = p.read_snapshot();
        let ts = snap.table(t).unwrap();
        scan(ts, &[0], Some(&f), &opts).unwrap();
        let (_, warm) = scan(ts, &[0], Some(&f), &opts).unwrap();
        assert_eq!(warm.decision_cache_misses, 0, "{warm:?}");
        assert!(warm.decision_cache_hits > 0, "{warm:?}");
    }
    // Delete one row from the first flushed segment (id 0 is columnstore).
    let mut txn = p.begin();
    assert!(txn.delete_unique(t, &[Value::Int(0)]).unwrap());
    txn.commit().unwrap();
    let snap = p.read_snapshot();
    let ts = snap.table(t).unwrap();
    let (_, post) = scan(ts, &[0], Some(&f), &opts).unwrap();
    assert!(post.decision_cache_misses > 0, "deleted segment must re-plan: {post:?}");
    assert!(post.decision_cache_hits > 0, "untouched segments still hit: {post:?}");
}

/// Pool metrics advance when a parallel scan over a large table runs, and
/// small scans (at or below [`s2_exec::scan::SMALL_SCAN_INLINE_ROWS`]) stay
/// inline on the calling thread even at high thread counts.
#[test]
fn pool_metrics_advance() {
    let _counter = POOL_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    // Small table: a few hundred rows across several segments -> inline.
    let (p_small, t_small) = build_table(0xdead_0003);
    let snap = p_small.read_snapshot();
    let ts_small = snap.table(t_small).unwrap();
    let f = Expr::cmp(2, CmpOp::Ge, 0.0);
    let before_small = s2_obs::global().snapshot().counter("exec.pool.morsels");
    scan(ts_small, &[0, 1, 2], Some(&f), &opts_with_threads(4)).unwrap();
    let after_small = s2_obs::global().snapshot().counter("exec.pool.morsels");
    assert_eq!(
        after_small, before_small,
        "sub-morsel scans must run inline, not on the pool: {before_small} -> {after_small}"
    );

    // Large table: well above the inline threshold -> pool morsels.
    let p = Partition::new("pm", Arc::new(Log::in_memory()), Arc::new(MemFileStore::new()));
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int64),
        ColumnDef::new("grp", DataType::Str),
        ColumnDef::new("amount", DataType::Double),
    ])
    .unwrap();
    let topts = TableOptions::new()
        .with_sort_key(vec![0])
        .with_unique("pk", vec![0])
        .with_segment_rows(2000);
    let t = p.create_table("big", schema, topts).unwrap();
    for batch in 0..3i64 {
        let mut txn = p.begin();
        for i in 0..2000i64 {
            let id = batch * 2000 + i;
            txn.insert(
                t,
                Row::new(vec![
                    Value::Int(id),
                    Value::str(["x", "y"][(id % 2) as usize]),
                    Value::Double(id as f64),
                ]),
            )
            .unwrap();
        }
        txn.commit().unwrap();
        p.flush_table(t, true).unwrap();
    }
    let snap = p.read_snapshot();
    let ts = snap.table(t).unwrap();
    let before = s2_obs::global().snapshot().counter("exec.pool.morsels");
    scan(ts, &[0, 1, 2], Some(&f), &opts_with_threads(4)).unwrap();
    let after = s2_obs::global().snapshot().counter("exec.pool.morsels");
    assert!(after > before, "parallel scan must execute morsels on the pool: {before} -> {after}");
}

/// A table well above the small-scan inline gate, so the fused aggregate
/// runs on the pool: 10 segments from one flush, deletes, and a rowstore
/// tail of at least 10 rows whose `grp` is "tail".
///   0 id     Int     sequential from `base` (sort key, pk)
///   1 grp    Str     5 distinct                -> dictionary codes
///   2 k      Int     6 distinct, NULLs
///   3 d      Double  4 distinct, NULLs
///   4 amount Double  0..1429, in sevenths (so f64 sums depend on order)
///   5 q      Int     1..=5, except 0 on one row of the second-to-last
///                    segment (never deleted)
fn build_wide_table(seed: u64, base: i64) -> (Arc<Partition>, u32) {
    let mut rng = seed;
    let p = Partition::new("pw", Arc::new(Log::in_memory()), Arc::new(MemFileStore::new()));
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int64),
        ColumnDef::new("grp", DataType::Str),
        ColumnDef::nullable("k", DataType::Int64),
        ColumnDef::nullable("d", DataType::Double),
        ColumnDef::new("amount", DataType::Double),
        ColumnDef::new("q", DataType::Int64),
    ])
    .unwrap();
    let seg_rows = 600 + (next(&mut rng) % 300) as i64;
    let opts = TableOptions::new()
        .with_sort_key(vec![0])
        .with_unique("pk", vec![0])
        .with_segment_rows(seg_rows as usize);
    let t = p.create_table("wide", schema, opts).unwrap();
    let rows = 10 * seg_rows;
    let zero_at = base + 8 * seg_rows + (next(&mut rng) % seg_rows as u64) as i64;
    let row = |id: i64, grp: &str, rng: &mut u64| {
        let k = match next(rng) % 7 {
            0 => Value::Null,
            v => Value::Int(v as i64),
        };
        let d = match next(rng) % 5 {
            0 => Value::Null,
            v => Value::Double(v as f64 * 0.3),
        };
        let q = if id == zero_at { 0 } else { 1 + id % 5 };
        let amount = Value::Double((next(rng) % 10_000) as f64 / 7.0);
        Row::new(vec![Value::Int(id), Value::str(grp), k, d, amount, Value::Int(q)])
    };
    let mut txn = p.begin();
    for id in base..base + rows {
        let grp = ["a", "b", "c", "d", "e"][(next(&mut rng) % 5) as usize];
        txn.insert(t, row(id, grp, &mut rng)).unwrap();
    }
    txn.commit().unwrap();
    p.flush_table(t, true).unwrap();
    let mut txn = p.begin();
    for _ in 0..next(&mut rng) % (rows as u64 / 20) {
        let victim = base + (next(&mut rng) % rows as u64) as i64;
        if victim != zero_at {
            txn.delete_unique(t, &[Value::Int(victim)]).unwrap();
        }
    }
    txn.commit().unwrap();
    let mut txn = p.begin();
    for id in base + rows..base + rows + 10 + (next(&mut rng) % 40) as i64 {
        txn.insert(t, row(id, "tail", &mut rng)).unwrap();
    }
    txn.commit().unwrap();
    (p, t)
}

/// Every row of a batch, in order, by `Debug`.
fn rows_dbg(b: &Batch) -> Vec<String> {
    (0..b.rows()).map(|i| format!("{:?}", b.row(i))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The fused aggregate on the pool: at 1, 2 and 8 threads, global and
    /// grouped (dictionary-coded `Str` keys, `Int`/`Double` keys with NULLs,
    /// a computed key), every function and an expression input, it returns
    /// the rows of `hash_aggregate(scan(..))`, byte for byte and in order.
    /// An input that divides by zero in a late segment, beside another that
    /// fails only on the rowstore tail, fails with the earlier error in scan
    /// order at every thread count. (`hash_aggregate` over the whole batch
    /// reports the other one: it evaluates one aggregate over every row
    /// before the next, where the fused path goes morsel by morsel.)
    #[test]
    fn fused_aggregate_on_the_pool_matches_hash_aggregate(seed in any::<u64>()) {
        let _counter = POOL_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
        let (p, t) = build_wide_table(seed, 0);
        let snap = p.read_snapshot();
        let ts = snap.table(t).unwrap();
        let snaps = [Arc::clone(ts)];
        let projection = [0, 1, 2, 3, 4, 5];
        let col = |c| Box::new(Expr::Column(c));
        let agg = |func, input| Aggregate { func, input };
        let aggregates = vec![
            agg(AggFunc::Count, Expr::Literal(Value::Int(1))),
            agg(AggFunc::Sum, Expr::Column(4)),
            agg(AggFunc::Avg, Expr::Column(3)),
            agg(AggFunc::Min, Expr::Column(2)),
            agg(AggFunc::Max, Expr::Column(1)),
            agg(AggFunc::Count, Expr::Column(2)),
            agg(AggFunc::Sum, Expr::Arith(ArithOp::Mul, col(4), col(3))),
        ];
        let group_bys = vec![
            vec![],
            vec![Expr::Column(1)],
            vec![Expr::Column(2)],
            vec![Expr::Column(3)],
            vec![Expr::Column(1), Expr::Column(2)],
            vec![Expr::Arith(ArithOp::Mul, col(2), Box::new(Expr::Literal(Value::Int(2))))],
        ];
        let filters = [None, Some(Expr::cmp(4, CmpOp::Lt, 1300.0))];
        let outcome = |group_by: &[Expr], aggs: &[Aggregate], filter: Option<&Expr>, threads| {
            let opts = opts_with_threads(threads);
            scan_aggregate(&snaps, &projection, filter, group_by, aggs, &opts)
                .map(|(b, _)| rows_dbg(&b))
                .map_err(|e| e.to_string())
        };
        let reference = |group_by: &[Expr], aggs: &[Aggregate], filter: Option<&Expr>| {
            let (batch, _) = scan(ts, &projection, filter, &opts_with_threads(1)).unwrap();
            hash_aggregate(&batch, group_by, aggs).map(|b| rows_dbg(&b)).map_err(|e| e.to_string())
        };

        let morsels_before = s2_obs::global().snapshot().counter("exec.pool.morsels");
        for filter in &filters {
            for group_by in &group_bys {
                let expect = reference(group_by, &aggregates, filter.as_ref());
                prop_assert!(expect.is_ok(), "{:?}", expect);
                for threads in [1, 2, 8] {
                    let got = outcome(group_by, &aggregates, filter.as_ref(), threads);
                    prop_assert_eq!(
                        &got, &expect, "threads {} group_by {:?} filter {:?}",
                        threads, group_by, filter
                    );
                }
            }
        }
        let morsels_after = s2_obs::global().snapshot().counter("exec.pool.morsels");
        prop_assert!(morsels_after > morsels_before, "the fused aggregate never reached the pool");

        // `id / q` divides by zero on one late segment row; the CASE's
        // string arm fails `* 2.0` on the tail rows only, later in scan order.
        let tail_str = Expr::Case {
            when: vec![(Expr::eq(1, "tail"), Expr::Column(1))],
            else_: col(4),
        };
        let failing = vec![
            agg(AggFunc::Sum, Expr::Arith(ArithOp::Mul, Box::new(tail_str), Box::new(Expr::Literal(Value::Double(2.0))))),
            agg(AggFunc::Sum, Expr::Arith(ArithOp::Div, col(0), col(5))),
        ];
        let expect = Err("invalid argument: division by zero".to_string());
        for group_by in [&group_bys[0], &group_bys[1], &group_bys[5]] {
            for threads in [1, 2, 8] {
                prop_assert_eq!(&outcome(group_by, &failing, None, threads), &expect);
            }
        }
    }
}

/// Ids of partition `i` of the multi-partition table start at `i * PART_IDS`.
const PART_IDS: i64 = 1_000_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A plain scan over 3–4 partition snapshots, each above the inline
    /// gate with deletes and a live rowstore tail, run through the executor
    /// at 1, 2 and 8 threads: the rows are the serial concatenation of one
    /// `scan` per snapshot, in order, the stats their sum, and the morsels
    /// reach the pool. The rows come in partition, segment, tail order (an
    /// `id` check that does not go through `scan`). A clause failing on
    /// partition 0's rowstore tail fails the scan before one failing on a
    /// segment of partition 1, at every thread count.
    #[test]
    fn multi_partition_scan_matches_per_partition_scans(seed in any::<u64>(), parts in 3i64..=4) {
        let _counter = POOL_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
        let snaps: Vec<_> = (0..parts)
            .map(|i| {
                let (p, t) = build_wide_table(seed ^ i as u64, i * PART_IDS);
                Arc::clone(p.read_snapshot().table(t).unwrap())
            })
            .collect();
        let mut ctx = UnionContext::new();
        ctx.add_table("wide", snaps.clone());
        let reference = |projection: &[usize], filter: Option<&Expr>| {
            let (mut rows, mut stats) = (Vec::new(), ScanStats::default());
            for ts in &snaps {
                let (b, s) = scan(ts, projection, filter, &opts_with_threads(1))
                    .map_err(|e| e.to_string())?;
                rows.extend(rows_dbg(&b));
                stats.merge(&s);
            }
            Ok((rows, stats))
        };
        let run = |projection: &[usize], filter: Option<&Expr>, threads| {
            let plan = Plan::scan("wide", projection.to_vec(), filter.cloned());
            let opts = ExecOptions { scan: opts_with_threads(threads) };
            let mut stats = ExecStats::default();
            execute_with_stats(&plan, &ctx, &opts, &mut stats)
                .map(|b| (rows_dbg(&b), stats.scan))
                .map_err(|e| e.to_string())
        };

        let projections = [vec![0, 1, 2, 3, 4, 5], vec![4, 1]];
        let filters = [None, Some(Expr::cmp(4, CmpOp::Lt, 1300.0)), Some(Expr::eq(1, "b"))];
        let morsels_before = s2_obs::global().snapshot().counter("exec.pool.morsels");
        for projection in &projections {
            for filter in &filters {
                // Warm the decision cache so every run replays one sampled plan.
                reference(projection, filter.as_ref()).unwrap();
                let expect = reference(projection, filter.as_ref());
                prop_assert!(expect.is_ok(), "{:?}", expect);
                for threads in [1, 2, 8] {
                    prop_assert_eq!(
                        &run(projection, filter.as_ref(), threads), &expect,
                        "threads {} projection {:?} filter {:?}", threads, projection, filter
                    );
                }
            }
        }
        let morsels_after = s2_obs::global().snapshot().counter("exec.pool.morsels");
        prop_assert!(morsels_after > morsels_before, "the multi-partition scan never reached the pool");

        // Without `scan`: one sorted flush laid out each partition's
        // segments in `id` order and its tail holds its largest ids, so
        // partition, segment, tail order is ascending `id`.
        let plan = Plan::scan("wide", vec![0], None);
        let batch = execute(&plan, &ctx, &ExecOptions { scan: opts_with_threads(8) }).unwrap();
        let ids: Vec<Value> = (0..batch.rows()).map(|i| batch.value(0, i)).collect();
        prop_assert!(ids.windows(2).all(|w| w[0].total_cmp(&w[1]).is_lt()), "rows out of scan order");
        prop_assert_eq!(ids.len(), snaps.iter().map(|ts| ts.live_row_count()).sum::<usize>());

        // Partitions 1.. divide `id` by `q`, which is 0 on one segment row of
        // each; partition 0 multiplies `grp` by 2.0 on its tail rows only.
        let col = |c| Box::new(Expr::Column(c));
        let case = Expr::Case {
            when: vec![
                (Expr::cmp(0, CmpOp::Ge, PART_IDS), Expr::Arith(ArithOp::Div, col(0), col(5))),
                (
                    Expr::eq(1, "tail"),
                    Expr::Arith(ArithOp::Mul, col(1), Box::new(Expr::Literal(Value::Double(2.0)))),
                ),
            ],
            else_: Box::new(Expr::Literal(Value::Int(1))),
        };
        let failing = Expr::Cmp(CmpOp::Gt, Box::new(case), Box::new(Expr::Literal(Value::Int(-1))));
        let expect = reference(&[0], Some(&failing));
        prop_assert!(
            matches!(&expect, Err(e) if !e.contains("division by zero")),
            "partition 0's tail error must come first: {:?}", expect
        );
        for threads in [1, 2, 8] {
            prop_assert_eq!(&run(&[0], Some(&failing), threads), &expect, "threads {}", threads);
        }
    }
}
