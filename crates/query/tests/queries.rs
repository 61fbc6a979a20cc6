//! Query-engine integration tests: plans spanning scans, joins (including
//! the join key filters the smaller side pushes into the other side's
//! scans), aggregation and sorting over real unified-table data.

use std::sync::Arc;

use s2_common::schema::ColumnDef;
use s2_common::{DataType, Row, Schema, TableOptions, Value};
use s2_core::{MemFileStore, Partition};
use s2_exec::{hash_join, scan, AggFunc, Aggregate, CmpOp, Expr, JoinType, ScanOptions, SortDir};
use s2_query::{execute, execute_with_stats, ExecOptions, ExecStats, Plan};
use s2_wal::Log;

/// orders(id, customer, amount) + customers(id, name, region)
fn setup() -> Arc<Partition> {
    let p = Partition::new("p0", Arc::new(Log::in_memory()), Arc::new(MemFileStore::new()));
    let orders_schema = Schema::new(vec![
        ColumnDef::new("o_id", DataType::Int64),
        ColumnDef::new("o_cust", DataType::Int64),
        ColumnDef::new("o_amount", DataType::Double),
    ])
    .unwrap();
    let orders_opts = TableOptions::new()
        .with_sort_key(vec![0])
        .with_unique("pk", vec![0])
        .with_index("by_cust", vec![1])
        .with_segment_rows(200);
    let orders = p.create_table("orders", orders_schema, orders_opts).unwrap();

    let cust_schema = Schema::new(vec![
        ColumnDef::new("c_id", DataType::Int64),
        ColumnDef::new("c_name", DataType::Str),
        ColumnDef::new("c_region", DataType::Str),
    ])
    .unwrap();
    let cust_opts = TableOptions::new().with_unique("pk", vec![0]);
    let customers = p.create_table("customers", cust_schema, cust_opts).unwrap();

    let mut txn = p.begin();
    for c in 0..20i64 {
        txn.insert(
            customers,
            Row::new(vec![
                Value::Int(c),
                Value::str(format!("cust{c}")),
                Value::str(["NA", "EU", "APAC"][(c % 3) as usize]),
            ]),
        )
        .unwrap();
    }
    for o in 0..500i64 {
        txn.insert(
            orders,
            Row::new(vec![Value::Int(o), Value::Int(o % 20), Value::Double((o % 50) as f64)]),
        )
        .unwrap();
    }
    txn.commit().unwrap();
    p.flush_table(orders, true).unwrap();
    p.flush_table(customers, true).unwrap();
    p
}

#[test]
fn scan_filter_project() {
    let p = setup();
    let snap = p.read_snapshot();
    let plan = Plan::scan("orders", vec![0, 2], Some(Expr::cmp(0, CmpOp::Lt, 10i64)));
    let out = execute(&plan, &snap, &ExecOptions::default()).unwrap();
    assert_eq!(out.rows(), 10);
}

#[test]
fn join_orders_customers() {
    let p = setup();
    let snap = p.read_snapshot();
    // orders (o_cust at position 1) join customers (c_id at position 0).
    let plan = Plan::scan("orders", vec![0, 1, 2], None).join(
        Plan::scan("customers", vec![0, 1, 2], None),
        vec![1],
        vec![0],
    );
    let out = execute(&plan, &snap, &ExecOptions::default()).unwrap();
    assert_eq!(out.rows(), 500, "every order has a customer");
    assert_eq!(out.width(), 6);
}

#[test]
fn join_index_filter_fires_for_small_build_side() {
    let p = setup();
    let snap = p.read_snapshot();
    // Build side: customers in region EU (7 rows) -> probe orders via index.
    let plan = Plan::scan("orders", vec![0, 1, 2], None).join(
        Plan::scan("customers", vec![0, 2], Some(Expr::eq(2, "EU"))),
        vec![1],
        vec![0],
    );
    let mut stats = ExecStats::default();
    let out = execute_with_stats(&plan, &snap, &ExecOptions::default(), &mut stats).unwrap();
    // Customers 1,4,7,10,13,16,19 (c % 3 == 1): 7 customers × 25 orders each.
    assert_eq!(out.rows(), 175);
    assert_eq!(stats.join_index_filters, 1);
    assert_eq!(stats.hash_joins, 0);

    // The 7 customer keys filtered the orders scan down to their orders.
    assert_eq!(stats.scan.rows_output, 7 + 175, "{:?}", stats.scan);

    // Two unfiltered scans and the plain hash-join kernel: same batch.
    let opts = ScanOptions::default();
    let orders = scan(snap.table_by_name("orders").unwrap(), &[0, 1, 2], None, &opts).unwrap().0;
    let eu = Expr::eq(2, "EU");
    let customers =
        scan(snap.table_by_name("customers").unwrap(), &[0, 2], Some(&eu), &opts).unwrap().0;
    let naive = hash_join(&orders, &customers, &[1], &[0], JoinType::Inner, None).unwrap();
    assert_eq!(format!("{:?}", out.columns), format!("{:?}", naive.columns));

    // The same keys against the orders primary key, a column they cover
    // sparsely (7 of 500 ids): the scan answers them with index probes.
    let plan = Plan::scan("orders", vec![0, 1, 2], None).join(
        Plan::scan("customers", vec![0, 2], Some(Expr::eq(2, "EU"))),
        vec![0],
        vec![0],
    );
    let mut stats = ExecStats::default();
    let out = execute_with_stats(&plan, &snap, &ExecOptions::default(), &mut stats).unwrap();
    assert!(stats.scan.index_filters >= 1, "{:?}", stats.scan);
    assert!(stats.scan.segments_skipped_index >= 1, "{:?}", stats.scan);
    let naive = hash_join(&orders, &customers, &[0], &[0], JoinType::Inner, None).unwrap();
    assert_eq!(out.rows(), 7);
    assert_eq!(format!("{:?}", out.columns), format!("{:?}", naive.columns));
}

#[test]
fn empty_first_side_skips_every_segment_of_the_other_scan() {
    let p = setup();
    let snap = p.read_snapshot();
    let orders_segments = snap.table_by_name("orders").unwrap().segments.len();
    assert!(orders_segments >= 2);
    // No customer is in region "MARS": the customers side runs first, comes
    // out empty, and its empty key set eliminates every orders segment.
    let plan = Plan::scan("orders", vec![0, 1, 2], None).join(
        Plan::scan("customers", vec![0, 2], Some(Expr::eq(2, "MARS"))),
        vec![1],
        vec![0],
    );
    let mut stats = ExecStats::default();
    let out = execute_with_stats(&plan, &snap, &ExecOptions::default(), &mut stats).unwrap();
    assert_eq!(out.rows(), 0);
    assert_eq!(stats.scan.segments_skipped_minmax, orders_segments, "{:?}", stats.scan);
    assert_eq!(stats.join_index_filters, 1);
    assert_eq!(out.width(), 5);
}

#[test]
fn aggregate_by_region() {
    let p = setup();
    let snap = p.read_snapshot();
    let plan = Plan::scan("orders", vec![0, 1, 2], None)
        .join(Plan::scan("customers", vec![0, 2], None), vec![1], vec![0])
        // positions: 0 o_id, 1 o_cust, 2 o_amount, 3 c_id, 4 c_region
        .aggregate(
            vec![Expr::Column(4)],
            vec![
                Aggregate { func: AggFunc::Count, input: Expr::Literal(Value::Int(1)) },
                Aggregate { func: AggFunc::Sum, input: Expr::Column(2) },
            ],
        )
        .sort(vec![(0, SortDir::Asc)], None);
    let out = execute(&plan, &snap, &ExecOptions::default()).unwrap();
    assert_eq!(out.rows(), 3);
    assert_eq!(out.value(0, 0), Value::str("APAC"));
    let total: f64 = (0..3).map(|r| out.value(2, r).as_double().unwrap()).sum();
    let expected: f64 = (0..500).map(|o| (o % 50) as f64).sum();
    assert!((total - expected).abs() < 1e-6);
}

#[test]
fn semi_and_anti_join_plans() {
    let p = setup();
    let snap = p.read_snapshot();
    // Customers with at least one order of amount > 48.
    let big_orders = Plan::scan("orders", vec![1], Some(Expr::cmp(2, CmpOp::Gt, 48.0)));
    let plan = Plan::scan("customers", vec![0, 1], None).join_full(
        big_orders.clone(),
        vec![0],
        vec![0],
        JoinType::Semi,
        None,
    );
    let out = execute(&plan, &snap, &ExecOptions::default()).unwrap();
    // Orders with amount 49: o % 50 == 49 -> customers o % 20: 9, 49%20=9, 69%20=9...
    // o = 49, 99, 149, ..., 499 -> customers 9, 19, 9, 19... -> {9, 19}.
    assert_eq!(out.rows(), 2);

    let plan = Plan::scan("customers", vec![0], None).join_full(
        big_orders,
        vec![0],
        vec![0],
        JoinType::Anti,
        None,
    );
    let out = execute(&plan, &snap, &ExecOptions::default()).unwrap();
    assert_eq!(out.rows(), 18);
}

#[test]
fn sort_limit_and_plain_limit() {
    let p = setup();
    let snap = p.read_snapshot();
    let plan = Plan::scan("orders", vec![0, 2], None)
        .sort(vec![(1, SortDir::Desc), (0, SortDir::Asc)], Some(5));
    let out = execute(&plan, &snap, &ExecOptions::default()).unwrap();
    assert_eq!(out.rows(), 5);
    assert_eq!(out.value(1, 0), Value::Double(49.0));
    assert_eq!(out.value(0, 0), Value::Int(49), "ties broken by o_id asc");

    let plan = Plan::scan("orders", vec![0], None).limit(7);
    assert_eq!(execute(&plan, &snap, &ExecOptions::default()).unwrap().rows(), 7);
}

#[test]
fn project_with_case_expression() {
    let p = setup();
    let snap = p.read_snapshot();
    // share of "high" amounts (>= 25).
    let plan = Plan::scan("orders", vec![2], None)
        .project(vec![(
            Expr::Case {
                when: vec![(Expr::cmp(0, CmpOp::Ge, 25.0), Expr::Literal(Value::Double(1.0)))],
                else_: Box::new(Expr::Literal(Value::Double(0.0))),
            },
            DataType::Double,
        )])
        .aggregate(vec![], vec![Aggregate { func: AggFunc::Avg, input: Expr::Column(0) }]);
    let out = execute(&plan, &snap, &ExecOptions::default()).unwrap();
    assert_eq!(out.value(0, 0), Value::Double(0.5));
}

#[test]
fn query_sees_snapshot_not_later_writes() {
    let p = setup();
    let snap = p.read_snapshot();
    let mut txn = p.begin();
    let orders = p.table_by_name("orders").unwrap().id;
    txn.insert(orders, Row::new(vec![Value::Int(9999), Value::Int(0), Value::Double(1.0)]))
        .unwrap();
    txn.commit().unwrap();
    let plan = Plan::scan("orders", vec![0], None);
    let out = execute(&plan, &snap, &ExecOptions::default()).unwrap();
    assert_eq!(out.rows(), 500, "snapshot predates the insert");
    let snap2 = p.read_snapshot();
    let out2 = execute(&plan, &snap2, &ExecOptions::default()).unwrap();
    assert_eq!(out2.rows(), 501);
}
