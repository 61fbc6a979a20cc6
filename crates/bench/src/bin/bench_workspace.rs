//! Workspace elasticity baseline (paper §3.1–§3.2): how fast can read-only
//! workspaces be provisioned as the fleet grows, and how does crash
//! recovery scale with WAL length?
//!
//! Two sweeps:
//!
//! - **Provisioning vs fleet size**: a cluster with separated storage is
//!   loaded and synced to blob, then fleets of 1/2/4/8 workspaces are
//!   provisioned concurrently; total and per-workspace wall time reported.
//! - **Recovery vs WAL length**: one partition, several tables, fixed data
//!   size; update churn multiplies the WAL length (1×/2×/4×) without
//!   growing the data. One `Partition::recover` is timed per churn level.
//!   `sublinear_ok` holds when 4× the churn costs less than 3.5× the 1×
//!   recovery time — replay work per byte must not grow with log length.
//!
//! `--json` prints the result as one JSON object. Knobs: `S2_RUNS` (timed
//! runs per config, default 3), `S2_WS_ROWS` (rows per table, default 400),
//! `S2_WS_TABLES` (tables in the recovery sweep, default 8).

use std::sync::Arc;
use std::time::{Duration, Instant};

use s2_bench::env_u64;
use s2_blob::{MemoryStore, ObjectStore};
use s2_cluster::{Cluster, ClusterConfig, StorageConfig, WorkspaceManager, WorkspaceManagerConfig};
use s2_common::schema::ColumnDef;
use s2_common::{DataType, Row, Schema, TableOptions, Value};
use s2_core::{DataFileStore, MemFileStore, Partition};
use s2_wal::Log;

const FLEET_SIZES: [usize; 4] = [1, 2, 4, 8];
const CHURN_MULTS: [u64; 3] = [1, 2, 4];

fn kv_schema() -> Schema {
    Schema::new(vec![ColumnDef::new("k", DataType::Int64), ColumnDef::new("v", DataType::Int64)])
        .unwrap()
}

fn kv_options() -> TableOptions {
    TableOptions::new()
        .with_sort_key(vec![0])
        .with_unique("pk", vec![0])
        .with_flush_threshold(256)
        .with_segment_rows(512)
}

// ---------------------------------------------------------------- provisioning

struct ProvisionPoint {
    workspaces: usize,
    total_ms: f64,
    mean_ms: f64,
}

fn provisioning_sweep(rows: i64) -> Vec<ProvisionPoint> {
    let blob: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let cluster = Cluster::new(
        "bench_ws",
        ClusterConfig {
            partitions: 2,
            ha_replicas: 0,
            sync_replication: true,
            blob: Some(Arc::clone(&blob)),
            cache_bytes: 64 * 1024 * 1024,
            storage: StorageConfig {
                tick: Duration::from_millis(2),
                snapshot_interval_bytes: 64 * 1024,
                ..Default::default()
            },
            breaker: None,
        },
    )
    .unwrap();
    cluster.create_table("t", kv_schema(), kv_options().with_shard_key(vec![0])).unwrap();
    let mut txn = cluster.begin();
    for k in 0..rows {
        txn.insert("t", Row::new(vec![Value::Int(k), Value::Int(k % 97)])).unwrap();
    }
    txn.commit().unwrap();
    cluster.flush_table("t").unwrap();
    cluster.sync_to_blob().unwrap();

    let mgr = WorkspaceManager::new(&cluster, WorkspaceManagerConfig::default()).unwrap();
    FLEET_SIZES
        .iter()
        .map(|&n| {
            let names: Vec<String> = (0..n).map(|i| format!("fleet{n}_{i}")).collect();
            let t0 = Instant::now();
            let results = mgr.provision_many(&names);
            let total_ms = t0.elapsed().as_secs_f64() * 1e3;
            for (name, res) in &results {
                assert!(res.is_ok(), "provision {name} failed: {:?}", res.as_ref().err());
            }
            assert!(mgr.catch_up_all(Duration::from_secs(30)));
            mgr.detach_all();
            ProvisionPoint { workspaces: n, total_ms, mean_ms: total_ms / n as f64 }
        })
        .collect()
}

// -------------------------------------------------------------------- recovery

struct RecoveryPoint {
    churn: u64,
    wal_bytes: u64,
    recover_ms: f64,
}

/// Fixed data size, churn-scaled WAL: `tables × rows` inserts once, then
/// `churn × rows` update ops spread across the tables with periodic
/// flushes (updates against flushed segments become §4.2 move records).
fn build_log(tables: usize, rows: i64, churn: u64) -> (Vec<u8>, Arc<MemFileStore>) {
    let files = Arc::new(MemFileStore::new());
    let p = Partition::new(
        "bench_rec",
        Arc::new(Log::in_memory()),
        Arc::clone(&files) as Arc<dyn DataFileStore>,
    );
    let tids: Vec<u32> = (0..tables)
        .map(|i| p.create_table(format!("t{i}"), kv_schema(), kv_options()).unwrap())
        .collect();
    for &t in &tids {
        let mut txn = p.begin();
        for k in 0..rows {
            txn.insert(t, Row::new(vec![Value::Int(k), Value::Int(0)])).unwrap();
        }
        txn.commit().unwrap();
        p.flush_table(t, true).unwrap();
    }
    let total_updates = churn * rows as u64 * tables as u64;
    let mut txn = p.begin();
    for i in 0..total_updates {
        let t = tids[(i as usize) % tids.len()];
        let k = (i as i64 * 31) % rows;
        txn.update_unique(t, &[Value::Int(k)], Row::new(vec![Value::Int(k), Value::Int(i as i64)]))
            .unwrap();
        if i % 64 == 63 {
            let (_ts, _lp) = txn.commit().unwrap();
            txn = p.begin();
        }
    }
    txn.commit().unwrap();
    p.log.sync().unwrap();
    let bytes = p.log.read_range(0, p.log.end_lp()).unwrap();
    (bytes, files)
}

fn time_recover(bytes: &[u8], files: &Arc<MemFileStore>, runs: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let log = Log::in_memory();
        log.append_raw(bytes);
        let t0 = Instant::now();
        let p = Partition::recover(
            "bench_rec",
            Arc::new(log),
            Arc::clone(files) as Arc<dyn DataFileStore>,
            None,
            None,
        )
        .unwrap();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        best = best.min(ms);
        drop(p);
    }
    best
}

fn recovery_sweep(tables: usize, rows: i64, runs: usize) -> Vec<RecoveryPoint> {
    CHURN_MULTS
        .iter()
        .map(|&churn| {
            let (bytes, files) = build_log(tables, rows, churn);
            let wal_bytes = bytes.len() as u64;
            let recover_ms = time_recover(&bytes, &files, runs);
            RecoveryPoint { churn, wal_bytes, recover_ms }
        })
        .collect()
}

fn main() {
    let json = s2_bench::json_enabled();
    let runs = env_u64("S2_RUNS", 3) as usize;
    let rows = env_u64("S2_WS_ROWS", 400) as i64;
    let tables = env_u64("S2_WS_TABLES", 8) as usize;
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());

    if !json {
        println!(
            "== Workspace elasticity baseline ({tables} tables x {rows} rows, \
             {runs} runs/config, host parallelism {host}) =="
        );
    }

    let provisioning = provisioning_sweep(rows * tables as i64);
    let recovery = recovery_sweep(tables, rows, runs);

    let base = recovery.first().map_or(1.0, |r| r.recover_ms);
    let worst = recovery.last().map_or(1.0, |r| r.recover_ms);
    let ratio_4x = if base > 0.0 { worst / base } else { 1.0 };
    let sublinear_ok = ratio_4x < 3.5;

    if json {
        let prov: Vec<String> = provisioning
            .iter()
            .map(|p| {
                format!(
                    "{{\"workspaces\":{},\"total_ms\":{:.3},\"mean_ms\":{:.3}}}",
                    p.workspaces, p.total_ms, p.mean_ms
                )
            })
            .collect();
        let rec: Vec<String> = recovery
            .iter()
            .map(|r| {
                format!(
                    "{{\"churn\":{},\"wal_bytes\":{},\"recover_ms\":{:.3}}}",
                    r.churn, r.wal_bytes, r.recover_ms
                )
            })
            .collect();
        println!(
            "{{\"bench\":\"bench_workspace\",\"host_parallelism\":{host},\"tables\":{tables},\
             \"rows_per_table\":{rows},\"runs_per_config\":{runs},\
             \"provisioning\":[{}],\"recovery\":[{}],\
             \"recovery_ratio_4x\":{ratio_4x:.3},\"sublinear_ok\":{sublinear_ok}}}",
            prov.join(","),
            rec.join(",")
        );
        return;
    }

    println!("\nprovisioning (concurrent fleet):");
    for p in &provisioning {
        println!(
            "  {:>2} workspaces: {:8.2} ms total, {:8.2} ms/workspace",
            p.workspaces, p.total_ms, p.mean_ms
        );
    }
    println!("\nrecovery (fixed data, churn-scaled WAL):");
    for r in &recovery {
        println!(
            "  churn {}x: {:>9} WAL bytes, recover {:8.2} ms",
            r.churn, r.wal_bytes, r.recover_ms
        );
    }
    println!(
        "\nrecovery 4x/1x ratio: {ratio_4x:.2} (sublinear_ok: {sublinear_ok}, \
         host parallelism {host})"
    );
}
