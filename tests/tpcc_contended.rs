//! Contended TPC-C over a sync-replicated cluster with the group-commit
//! pipeline on (paper §3: commits are durable once in the local WAL and
//! acknowledged after the replica ack; group commit amortizes both).
//!
//! Eight terminals hammer one warehouse with the full five-transaction mix
//! and no think time, then the TPC-C consistency conditions are checked:
//!
//! - W_YTD equals the sum of its districts' D_YTD (payment atomicity);
//! - per district, the order count equals `d_next_o_id - 1`, the new_order
//!   count equals the undelivered window, and the order-line count equals
//!   the sum of the orders' `o_ol_cnt` (new-order / delivery atomicity);
//! - the group-commit pipeline actually grouped: strictly fewer master
//!   fsyncs than committed engine transactions over the run.
//!
//! One `#[test]` on purpose: the fsync/commit counters are process-global.

use std::sync::Arc;
use std::time::Duration;

use s2db_repro::cluster::{Cluster, ClusterConfig};
use s2db_repro::exec::Expr;
use s2db_repro::query::{ExecOptions, Plan};
use s2db_repro::workloads::tpcc::backend::{load_cluster, ClusterBackend, TpccBackend};
use s2db_repro::workloads::tpcc::driver::{run, DriverConfig};
use s2db_repro::workloads::tpcc::TpccScale;

const W: i64 = 1;

fn sum_col(cluster: &Arc<Cluster>, plan: &Plan, col: usize) -> f64 {
    let out = cluster.execute(plan, &ExecOptions::default()).expect("scan");
    (0..out.rows()).map(|r| out.value(col, r).as_double().unwrap()).sum()
}

/// `(count, sum of `sum_col`)` per district for rows matching `w_id == W`.
fn per_district(
    cluster: &Arc<Cluster>,
    table: &str,
    d_col_in_proj: usize,
    sum_col_in_proj: Option<usize>,
    proj: Vec<usize>,
) -> std::collections::BTreeMap<i64, (i64, i64)> {
    let plan = Plan::scan(table, proj, Some(Expr::eq(0, W)));
    let out = cluster.execute(&plan, &ExecOptions::default()).expect("scan");
    let mut m = std::collections::BTreeMap::new();
    for r in 0..out.rows() {
        let d = out.value(d_col_in_proj, r).as_int().unwrap();
        let s = match sum_col_in_proj {
            Some(c) => out.value(c, r).as_int().unwrap(),
            None => 0,
        };
        let e = m.entry(d).or_insert((0i64, 0i64));
        e.0 += 1;
        e.1 += s;
    }
    m
}

#[test]
fn contended_tpcc_consistency_and_grouped_fsyncs() {
    let scale =
        TpccScale { warehouses: W, districts: 10, customers: 30, items: 100, preload_orders: 10 };
    let cluster = Cluster::new(
        "tpcc_mt",
        ClusterConfig {
            partitions: 2,
            ha_replicas: 1,
            sync_replication: true,
            blob: None,
            ..Default::default()
        },
    )
    .expect("cluster");
    load_cluster(&cluster, &scale, 7).expect("load");
    cluster.set_group_flush_window_us(200);

    let commits0 = s2db_repro::obs::counter!("core.txn.commits").get();
    let fsyncs0 = s2db_repro::obs::counter!("wal.fsync.calls").get();

    let backend: Arc<dyn TpccBackend> = Arc::new(ClusterBackend::new(Arc::clone(&cluster), scale));
    let config = DriverConfig {
        scale,
        terminals_per_warehouse: 8,
        wait_scale: f64::INFINITY,
        duration: Duration::from_secs(2),
        seed: 42,
    };
    let result = run(backend, &config);
    assert!(result.new_orders > 0, "no new-orders committed under contention: {result:?}");
    assert!(result.payments > 0, "no payments committed under contention: {result:?}");

    let commits = s2db_repro::obs::counter!("core.txn.commits").get() - commits0;
    let fsyncs = s2db_repro::obs::counter!("wal.fsync.calls").get() - fsyncs0;

    // Payment atomicity: W_YTD == sum of D_YTD across the districts.
    let w_ytd = sum_col(&cluster, &Plan::scan("warehouse", vec![3], Some(Expr::eq(0, W))), 0);
    let d_ytd_sum = sum_col(&cluster, &Plan::scan("district", vec![4], Some(Expr::eq(0, W))), 0);
    assert!(
        (w_ytd - d_ytd_sum).abs() < 0.01,
        "W_YTD {w_ytd} != sum of D_YTD {d_ytd_sum} after {} payments",
        result.payments
    );

    // Per-district order-id bookkeeping: district columns 1=d_id,
    // 5=d_next_o_id, 6=d_next_del_o_id.
    let dplan = Plan::scan("district", vec![1, 5, 6], Some(Expr::eq(0, W)));
    let dout = cluster.execute(&dplan, &ExecOptions::default()).expect("district scan");
    assert_eq!(dout.rows(), scale.districts as usize);
    let orders = per_district(&cluster, "orders", 0, Some(1), vec![1, 6]);
    let new_orders = per_district(&cluster, "new_order", 0, None, vec![1, 2]);
    let order_lines = per_district(&cluster, "order_line", 0, None, vec![1, 2]);
    for r in 0..dout.rows() {
        let d = dout.value(0, r).as_int().unwrap();
        let next_o = dout.value(1, r).as_int().unwrap();
        let next_del = dout.value(2, r).as_int().unwrap();
        let (o_count, ol_cnt_sum) = *orders.get(&d).expect("district has orders");
        assert_eq!(o_count, next_o - 1, "district {d}: {o_count} orders but d_next_o_id {next_o}");
        let no_count = new_orders.get(&d).map(|(c, _)| *c).unwrap_or(0);
        assert_eq!(
            no_count,
            next_o - next_del,
            "district {d}: {no_count} new_order rows, expected window [{next_del}, {next_o})"
        );
        let ol_count = order_lines.get(&d).map(|(c, _)| *c).unwrap_or(0);
        assert_eq!(
            ol_count, ol_cnt_sum,
            "district {d}: {ol_count} order lines but orders claim {ol_cnt_sum}"
        );
    }

    // The pipeline grouped: one leader fsync covers many commits, so the
    // master fsync count must come in strictly under the commit count.
    assert!(commits > 0, "driver committed nothing");
    assert!(fsyncs < commits, "group commit did not batch: {fsyncs} fsyncs for {commits} commits");
}
