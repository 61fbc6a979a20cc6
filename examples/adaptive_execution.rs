//! Watch the adaptive query execution machinery (paper §5) decide: segment
//! skipping via index probes and min/max metadata, encoded vs regular filter
//! strategies, and a join whose small side's key set filters the big side's
//! scan, next to the same join done as two full scans and a hash join.
//!
//! ```sh
//! cargo run --release --example adaptive_execution
//! ```

use s2db_repro::cluster::{Cluster, ClusterConfig};
use s2db_repro::common::schema::ColumnDef;
use s2db_repro::common::{DataType, Row, Schema, TableOptions, Value};
use s2db_repro::exec::{hash_join, scan, Batch, CmpOp, Expr, JoinType, ScanOptions};
use s2db_repro::query::{ExecOptions, ExecStats, Plan, QueryContext};

fn main() {
    let cluster = Cluster::new(
        "adaptive",
        ClusterConfig {
            partitions: 1,
            ha_replicas: 0,
            sync_replication: false,
            ..Default::default()
        },
    )
    .unwrap();
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int64),
        ColumnDef::new("status", DataType::Str), // 4 distinct values -> dictionary
        ColumnDef::new("day", DataType::Int64),  // sort key -> min/max prunes
    ])
    .unwrap();
    cluster
        .create_table(
            "events",
            schema,
            TableOptions::new()
                .with_sort_key(vec![2])
                .with_shard_key(vec![0])
                .with_unique("pk", vec![0])
                .with_index("by_status", vec![1])
                .with_segment_rows(20_000),
        )
        .unwrap();
    let statuses = ["ok", "warn", "error", "fatal"];
    for batch in 0..5i64 {
        let mut txn = cluster.begin();
        for i in 0..20_000 {
            let id = batch * 20_000 + i;
            txn.insert(
                "events",
                Row::new(vec![
                    Value::Int(id),
                    Value::str(statuses[(id % 4) as usize]),
                    Value::Int(batch * 30 + i % 30), // days cluster per batch
                ]),
            )
            .unwrap();
        }
        txn.commit().unwrap();
        cluster.flush_table("events").unwrap();
    }
    println!("loaded 100k events into 5 day-sorted segments\n");

    let opts = ExecOptions::default();
    let run = |label: &str, plan: &Plan| {
        let mut stats = ExecStats::default();
        let t0 = std::time::Instant::now();
        let out = cluster.execute_with_stats(plan, &opts, &mut stats).unwrap();
        println!("{label}:");
        println!("  rows out             : {}", out.rows());
        println!("  elapsed              : {:?}", t0.elapsed());
        println!("  segments total       : {}", stats.scan.segments_total);
        println!("  skipped via index    : {}", stats.scan.segments_skipped_index);
        println!("  skipped via min/max  : {}", stats.scan.segments_skipped_minmax);
        println!("  encoded filters      : {}", stats.scan.encoded_filters);
        println!("  regular filters      : {}", stats.scan.regular_filters);
        println!("  index-answered probes: {}", stats.scan.index_filters);
        println!("  join index filters   : {}", stats.join_index_filters);
        println!("  plain hash joins     : {}\n", stats.hash_joins);
    };

    // 1. Sort-key range: min/max metadata eliminates 4 of 5 segments.
    run(
        "range on the sort key (min/max segment elimination)",
        &Plan::scan("events", vec![0], Some(Expr::between(2, 10i64, 20i64))),
    );

    // 2. Dictionary column equality: answered by the secondary index; the
    //    residual work runs as encoded filters on compressed data.
    run(
        "equality on a dictionary column (secondary index + encoded execution)",
        &Plan::scan("events", vec![0, 1], Some(Expr::eq(1, "fatal"))),
    );

    // 3. Point lookup by primary key: one index probe, zero scans.
    run(
        "point lookup by unique key",
        &Plan::scan("events", vec![0, 1, 2], Some(Expr::eq(0, 31_415i64))),
    );

    // 4. Join with a 20-row side: it runs first, and its key set filters
    //    the big side's scan (answered by the primary-key index).
    let dim = Plan::scan("events", vec![0], Some(Expr::cmp(0, CmpOp::Lt, 20i64)));
    run(
        "join with a 20-row side (join key filter pushed into the scan)",
        &Plan::scan("events", vec![0, 1], None).join(dim, vec![0], vec![0]),
    );

    // 5. The same join as two independent scans and the plain hash-join
    //    kernel: what the engine would do without the key filter.
    let ctx = cluster.context().unwrap();
    let t0 = std::time::Instant::now();
    let (mut big, mut small) = (Vec::new(), Vec::new());
    for snap in ctx.snapshots("events").unwrap() {
        let scan_opts = ScanOptions::default();
        big.push(scan(&snap, &[0, 1], None, &scan_opts).unwrap().0);
        let dim_filter = Expr::cmp(0, CmpOp::Lt, 20i64);
        small.push(scan(&snap, &[0], Some(&dim_filter), &scan_opts).unwrap().0);
    }
    let (big, small) = (Batch::concat(big).unwrap(), Batch::concat(small).unwrap());
    let out = hash_join(&big, &small, &[0], &[0], JoinType::Inner, None).unwrap();
    println!("same join, two full scans + plain hash join:");
    println!("  rows out             : {}", out.rows());
    println!("  elapsed              : {:?}", t0.elapsed());
}
