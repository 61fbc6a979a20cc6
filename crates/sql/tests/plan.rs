//! Planner integration tests: pushdown, pruning, folding, cost-based
//! ordering and end-to-end SQL execution against a real partition.

use std::sync::Arc;

use s2_common::schema::ColumnDef;
use s2_common::{DataType, Row, Schema, TableOptions, Value};
use s2_core::{MemFileStore, Partition};
use s2_exec::{AggFunc, Aggregate, CmpOp, Expr, SortDir};
use s2_query::{execute, format_batch, ExecOptions, Plan};
use s2_sql::SqlContext;
use s2_wal::Log;

/// orders(o_id, o_cust, o_amount, o_status) + customers(c_id, c_name,
/// c_region) + tiny regions(r_name, r_prio).
fn setup() -> Arc<Partition> {
    let p = Partition::new("p0", Arc::new(Log::in_memory()), Arc::new(MemFileStore::new()));
    let orders_schema = Schema::new(vec![
        ColumnDef::new("o_id", DataType::Int64),
        ColumnDef::new("o_cust", DataType::Int64),
        ColumnDef::new("o_amount", DataType::Double),
        ColumnDef::new("o_status", DataType::Str),
    ])
    .unwrap();
    let orders_opts = TableOptions::new()
        .with_sort_key(vec![0])
        .with_unique("pk", vec![0])
        .with_segment_rows(200);
    let orders = p.create_table("orders", orders_schema, orders_opts).unwrap();

    let cust_schema = Schema::new(vec![
        ColumnDef::new("c_id", DataType::Int64),
        ColumnDef::new("c_name", DataType::Str),
        ColumnDef::new("c_region", DataType::Str),
    ])
    .unwrap();
    let customers = p
        .create_table("customers", cust_schema, TableOptions::new().with_unique("pk", vec![0]))
        .unwrap();

    let region_schema = Schema::new(vec![
        ColumnDef::new("r_name", DataType::Str),
        ColumnDef::new("r_prio", DataType::Int64),
    ])
    .unwrap();
    let regions = p
        .create_table("regions", region_schema, TableOptions::new().with_unique("pk", vec![0]))
        .unwrap();

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
            Row::new(vec![
                Value::Int(o),
                Value::Int(o % 20),
                Value::Double((o % 50) as f64),
                Value::str(if o % 7 == 0 { "open" } else { "done" }),
            ]),
        )
        .unwrap();
    }
    for (i, r) in ["NA", "EU", "APAC"].iter().enumerate() {
        txn.insert(regions, Row::new(vec![Value::str(*r), Value::Int(i as i64)])).unwrap();
    }
    txn.commit().unwrap();
    p.flush_table(orders, true).unwrap();
    p.flush_table(customers, true).unwrap();
    p.flush_table(regions, true).unwrap();
    p
}

fn run(p: &Arc<Partition>, sql: &str) -> s2_exec::Batch {
    p.read_snapshot().query(sql).unwrap()
}

fn plan_of(p: &Arc<Partition>, sql: &str) -> Plan {
    let snap = p.read_snapshot();
    s2_sql::plan(&snap, sql).unwrap().plan
}

#[test]
fn where_pushes_into_scan_filter() {
    let p = setup();
    let plan = plan_of(&p, "SELECT o_id FROM orders WHERE o_amount > 40.0 AND o_cust = 3");
    // Both conjuncts land in the scan filter (table-ordinal space); the
    // cheap, selective equality is ranked ahead of the range clause.
    let Plan::Scan { table, projection, filter } = plan else {
        panic!("expected bare scan, got {plan:?}")
    };
    assert_eq!(table, "orders");
    // Scan filters evaluate in table-ordinal space, so only the output
    // column survives projection pruning.
    assert_eq!(projection, vec![0]);
    let Some(Expr::And(parts)) = filter else { panic!("expected AND filter: {filter:?}") };
    assert_eq!(parts.len(), 2);
    assert_eq!(parts[0], Expr::eq(1, 3i64));
    assert_eq!(parts[1], Expr::cmp(2, CmpOp::Gt, 40.0));
}

#[test]
fn projection_prunes_to_demanded_columns() {
    let p = setup();
    let plan = plan_of(&p, "SELECT o_amount FROM orders");
    let Plan::Scan { projection, .. } = plan else { panic!("expected bare scan: {plan:?}") };
    assert_eq!(projection, vec![2]);
}

#[test]
fn constant_expressions_fold() {
    let p = setup();
    let plan = plan_of(&p, "SELECT o_id FROM orders WHERE o_amount < 10.0 * (1 + 2)");
    let Plan::Scan { filter, .. } = plan else { panic!("expected scan") };
    assert_eq!(filter, Some(Expr::cmp(2, CmpOp::Lt, 30.0)));
}

#[test]
fn comma_joins_are_cost_ordered() {
    let p = setup();
    // Written smallest-first; the planner must drive from `orders` (500
    // rows) and build hash tables on customers (20) then regions (3).
    let plan = plan_of(
        &p,
        "SELECT o_id FROM regions, customers, orders \
         WHERE o_cust = c_id AND c_region = r_name",
    );
    let Plan::Project { input, .. } = plan else { panic!("expected project") };
    let Plan::Join { left, right, .. } = *input else { panic!("expected join") };
    let Plan::Scan { table: build2, .. } = *right else { panic!("expected scan build") };
    let Plan::Join { left: inner_left, right: inner_right, .. } = *left else {
        panic!("expected inner join")
    };
    let Plan::Scan { table: driver, .. } = *inner_left else { panic!("expected driver scan") };
    let Plan::Scan { table: build1, .. } = *inner_right else { panic!("expected scan") };
    assert_eq!(driver, "orders");
    assert_eq!(build1, "customers");
    assert_eq!(build2, "regions");
}

#[test]
fn explain_shows_ranked_filters_and_costs() {
    let p = setup();
    let snap = p.read_snapshot();
    let text = snap
        .explain(
            "SELECT c_region, COUNT(*) FROM orders, customers \
             WHERE o_cust = c_id AND o_status LIKE 'do%' AND o_id < 100 \
             GROUP BY c_region",
        )
        .unwrap();
    assert!(text.contains("Scan orders"), "{text}");
    assert!(text.contains("rank="), "{text}");
    assert!(text.contains("HashJoin Inner"), "{text}");
    assert!(text.contains("Aggregate"), "{text}");
    // The cheap range clause must be ranked ahead of the LIKE.
    let lt = text.find("(#0 < Int(100))").expect("range clause in explain");
    let like = text.find("LIKE").expect("like clause in explain");
    assert!(lt < like, "{text}");
}

#[test]
fn explain_join_shows_the_side_that_runs_first_and_its_estimate() {
    let p = setup();
    let text = p
        .read_snapshot()
        .explain(
            "SELECT o_id, c_name FROM orders JOIN customers ON o_cust = c_id \
             WHERE c_region = 'EU'",
        )
        .unwrap();
    // 20 customers at the flat 0.1 string-equality selectivity: 2 rows, so
    // the customers side runs first. Join: 500 · 2 / max(ndv) where o_cust
    // spans 20 values and c_id's 20 are capped by the side's 2 rows.
    assert!(text.contains("HashJoin Inner keys=[#1=#0] first=right est=50"), "{text}");
    assert!(text.contains("Scan customers [c_id, c_name] rows=20 est=2"), "{text}");
}

#[test]
fn in_list_with_a_repeated_member_returns_the_row_once() {
    let p = setup();
    // A fresh order stays in the rowstore, where the index probe answers it.
    let orders = p.table_by_name("orders").unwrap().id;
    let mut txn = p.begin();
    let row = vec![Value::Int(900), Value::Int(1), Value::Double(1.0), Value::str("open")];
    txn.insert(orders, Row::new(row)).unwrap();
    txn.commit().unwrap();
    for list in ["900, 900", "900, 900.0", "900, 7, 900, 7.0"] {
        let sql = format!("SELECT o_id FROM orders WHERE o_id IN ({list}) ORDER BY o_id");
        let out = run(&p, &sql);
        let want = if list.contains('7') { 2 } else { 1 };
        assert_eq!(out.rows(), want, "{sql}");
        assert_eq!(out.value(0, out.rows() - 1), Value::Int(900), "{sql}");
    }
}

#[test]
fn explain_statement_returns_plan_column() {
    let p = setup();
    let out = run(&p, "EXPLAIN SELECT o_id FROM orders WHERE o_cust = 1");
    assert_eq!(out.width(), 1);
    assert!(out.rows() >= 2);
    let first = out.value(0, 0);
    assert!(format!("{first:?}").contains("Scan orders"));
}

#[test]
fn sql_matches_hand_built_plan_bytes() {
    let p = setup();
    let snap = p.read_snapshot();
    // Hand-built: scan orders, join customers, aggregate per region,
    // sort by revenue desc.
    let hand = Plan::scan("orders", vec![1, 2], Some(Expr::cmp(2, CmpOp::Ge, 10.0)))
        .join(Plan::scan("customers", vec![0, 2], None), vec![0], vec![0])
        .aggregate(
            vec![Expr::Column(3)],
            vec![Aggregate { func: AggFunc::Sum, input: Expr::Column(1) }],
        )
        .sort(vec![(1, SortDir::Desc), (0, SortDir::Asc)], None);
    let expect = execute(&hand, &snap, &ExecOptions::default()).unwrap();

    let got = snap
        .query(
            "SELECT c_region, SUM(o_amount) AS rev \
             FROM orders JOIN customers ON o_cust = c_id \
             WHERE o_amount >= 10.0 \
             GROUP BY c_region ORDER BY rev DESC, c_region",
        )
        .unwrap();
    let headers = ["c_region", "rev"];
    assert_eq!(format_batch(&got, &headers), format_batch(&expect, &headers));
}

#[test]
fn distinct_derived_semi_and_limit_execute() {
    let p = setup();
    let out = run(&p, "SELECT DISTINCT c_region FROM customers ORDER BY c_region");
    assert_eq!(out.rows(), 3);
    assert_eq!(out.value(0, 0), Value::str("APAC"));

    let out = run(
        &p,
        "SELECT c_name FROM customers SEMI JOIN \
           (SELECT o_cust FROM orders WHERE o_amount > 48.0) AS big \
           ON c_id = big.o_cust \
         ORDER BY c_name LIMIT 5",
    );
    assert_eq!(out.rows(), 2, "only o_amount 49.0 passes; customers 9 and 19 have such orders");
    assert_eq!(out.value(0, 0), Value::str("cust19"));
    assert_eq!(out.value(0, 1), Value::str("cust9"));
}

#[test]
fn having_and_case_execute() {
    let p = setup();
    let out = run(
        &p,
        "SELECT o_cust, SUM(CASE WHEN o_status = 'open' THEN 1 ELSE 0 END) AS opens \
         FROM orders GROUP BY o_cust HAVING COUNT(*) > 10 ORDER BY o_cust",
    );
    assert_eq!(out.rows(), 20);
    // Every customer has 25 orders; opens is a double sum of 0/1 flags.
    assert!(matches!(out.value(1, 0), Value::Double(_)));
}

/// Aggregate output columns are typed by their key / input lanes: a NULL
/// first-seen `GROUP BY` key and an all-NULL first group under MIN/MAX over
/// strings used to fail with "cannot push x into Int64 vector" / "cannot
/// push m into Double vector".
#[test]
fn null_first_group_executes() {
    let p = setup();
    let schema = Schema::new(vec![
        ColumnDef::new("n_id", DataType::Int64),
        ColumnDef::nullable("n_grp", DataType::Str),
        ColumnDef::nullable("n_tag", DataType::Str),
    ])
    .unwrap();
    let notes =
        p.create_table("notes", schema, TableOptions::new().with_unique("pk", vec![0])).unwrap();
    let mut txn = p.begin();
    for (id, grp, tag) in [(0, None, None), (1, Some("x"), Some("m")), (2, None, None)] {
        let cell = |s: Option<&str>| s.map_or(Value::Null, Value::str);
        txn.insert(notes, Row::new(vec![Value::Int(id), cell(grp), cell(tag)])).unwrap();
    }
    txn.commit().unwrap();
    p.flush_table(notes, true).unwrap();
    // One more row stays in the rowstore.
    let mut txn = p.begin();
    txn.insert(notes, Row::new(vec![Value::Int(3), Value::str("x"), Value::str("z")])).unwrap();
    txn.commit().unwrap();

    let out = run(&p, "SELECT n_grp, COUNT(*), MIN(n_tag), MAX(n_tag) FROM notes GROUP BY n_grp");
    let rows: Vec<Vec<Value>> =
        (0..out.rows()).map(|r| (0..4).map(|c| out.value(c, r)).collect()).collect();
    assert_eq!(
        rows,
        [
            vec![Value::Null, Value::Int(2), Value::Null, Value::Null],
            vec![Value::str("x"), Value::Int(2), Value::str("m"), Value::str("z")],
        ]
    );
}

#[test]
fn errors_are_descriptive_not_panics() {
    let p = setup();
    let snap = p.read_snapshot();
    let e = snap.query("SELECT nope FROM orders").unwrap_err();
    assert!(format!("{e}").contains("nope"), "{e}");
    let e = snap.query("SELECT FROM WHERE").unwrap_err();
    assert!(format!("{e}").contains('^'), "caret diagnostic: {e}");
    let e = snap.query("SELECT c_id FROM customers, orders WHERE o_id = c_id AND o_id = o_id GROUP BY c_id, nope").unwrap_err();
    assert!(format!("{e}").contains("nope"), "{e}");
}
