//! Ablation: the adaptive join (the small side runs first and its key set
//! filters the fact scan, here answered by index probes) vs a plain hash
//! join of two independently scanned inputs (paper §5.1: "it runs much
//! faster (with a small joined table) by performing index probes instead of
//! a table scan").

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use s2_common::schema::ColumnDef;
use s2_common::{DataType, Row, Schema, TableOptions, Value};
use s2_core::{MemFileStore, Partition};
use s2_exec::{hash_join, scan, CmpOp, Expr, JoinType, ScanOptions};
use s2_query::{execute, ExecOptions, Plan};
use s2_wal::Log;

const FACT_ROWS: i64 = 200_000;
const DIM_ROWS: i64 = 2_000;

fn setup() -> Arc<Partition> {
    let p = Partition::new("b", Arc::new(Log::in_memory()), Arc::new(MemFileStore::new()));
    let fact = Schema::new(vec![
        ColumnDef::new("id", DataType::Int64),
        ColumnDef::new("dim_id", DataType::Int64),
        ColumnDef::new("amount", DataType::Double),
    ])
    .unwrap();
    let t = p
        .create_table(
            "fact",
            fact,
            TableOptions::new()
                .with_unique("pk", vec![0])
                .with_index("by_dim", vec![1])
                .with_segment_rows(FACT_ROWS as usize),
        )
        .unwrap();
    let dim = Schema::new(vec![
        ColumnDef::new("id", DataType::Int64),
        ColumnDef::new("class", DataType::Int64),
    ])
    .unwrap();
    let d = p.create_table("dim", dim, TableOptions::new().with_unique("pk", vec![0])).unwrap();

    for chunk in 0..(FACT_ROWS / 10_000) {
        let mut txn = p.begin();
        for i in 0..10_000 {
            let id = chunk * 10_000 + i;
            txn.insert(
                t,
                Row::new(vec![
                    Value::Int(id),
                    Value::Int(id % DIM_ROWS),
                    Value::Double((id % 97) as f64),
                ]),
            )
            .unwrap();
        }
        txn.commit().unwrap();
    }
    let mut txn = p.begin();
    for i in 0..DIM_ROWS {
        txn.insert(d, Row::new(vec![Value::Int(i), Value::Int(i % 100)])).unwrap();
    }
    txn.commit().unwrap();
    p.flush_table(t, true).unwrap();
    p.flush_table(d, true).unwrap();
    while p.merge_table(t).unwrap() {}
    p.vacuum().unwrap();
    p
}

fn bench(c: &mut Criterion) {
    let p = setup();
    // Build side: ~20 dim rows of one class -> probe side via index.
    let dim_filter = Expr::cmp(1, CmpOp::Eq, 7i64);
    let plan = Plan::scan("fact", vec![0, 1, 2], None).join(
        Plan::scan("dim", vec![0], Some(dim_filter.clone())),
        vec![1],
        vec![0],
    );
    let expected = (FACT_ROWS / DIM_ROWS) * (DIM_ROWS / 100);

    let mut group = c.benchmark_group("small_build_join");
    group.sample_size(15);
    group.bench_function("join_index_filter", |b| {
        let opts = ExecOptions::default();
        b.iter(|| {
            let snap = p.read_snapshot();
            let out = execute(&plan, &snap, &opts).unwrap();
            assert_eq!(out.rows() as i64, expected);
        })
    });
    group.bench_function("plain_hash_join", |b| {
        let opts = ScanOptions::default();
        b.iter(|| {
            let snap = p.read_snapshot();
            let fact = scan(snap.table_by_name("fact").unwrap(), &[0, 1, 2], None, &opts).unwrap();
            let dim = snap.table_by_name("dim").unwrap();
            let dim = scan(dim, &[0], Some(&dim_filter), &opts).unwrap();
            let out = hash_join(&fact.0, &dim.0, &[1], &[0], JoinType::Inner, None).unwrap();
            assert_eq!(out.rows() as i64, expected);
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
