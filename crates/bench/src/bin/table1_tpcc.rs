//! Reproduces **Table 1: TPC-C results** — tpmC and %-of-max for the CDB
//! model and S2DB at one warehouse count, plus S2DB at 4x warehouses to show
//! the paper's near-linear scaling row (the paper used 1,000 and 10,000
//! warehouses on 32 and 256 vCPUs; scale here is set by `S2_WAREHOUSES`).
//!
//! Both engines run the full five-transaction mix with spec keying/think
//! times divided by `S2_WAIT_SCALE`, so the per-warehouse
//! ceiling semantics (12.86 tpmC/warehouse max) are preserved: a result near
//! 100% means the engine keeps up with the terminals, exactly the paper's
//! finding for both S2DB and CDB.
//!
//! Knobs: `S2_WAREHOUSES` (default 2), `S2_DURATION_SECS` (default 10),
//! `S2_WAIT_SCALE` (default 300; on a single-core host higher values saturate the CPU before the terminals do).
//! Flags: `--threads N` (scan pool size), `--json` (machine-readable output).
//!
//! `--clients N[,M,...]` switches to the contended group-commit mode: for
//! each client count, a fresh sync-replicated cluster (1 HA replica) runs
//! the full mix with no think time, reporting commit latency percentiles
//! (`wal.commit.latency_us`: full enqueue→durable span) and fsyncs per
//! commit — the group-commit pipeline's amortization curve. Output goes to
//! stdout as `{"bench":"tpcc_mt",...}` JSON with `--json`.

use std::sync::Arc;
use std::time::Duration;

use s2_baseline::CdbEngine;
use s2_bench::{bench_cluster, cli_value, env_f64, env_u64, print_table};
use s2_cluster::{Cluster, ClusterConfig};
use s2_workloads::tpcc::backend::{CdbBackend, ClusterBackend, TpccBackend};
use s2_workloads::tpcc::driver::{run, DriverConfig, MAX_TPMC_PER_WAREHOUSE};
use s2_workloads::tpcc::TpccScale;

struct RunResult {
    label: String,
    warehouses: i64,
    tpmc: f64,
    pct_of_max: f64,
    errors: u64,
}

fn one_run(
    label: &str,
    backend: Arc<dyn TpccBackend>,
    scale: TpccScale,
    wait_scale: f64,
    duration: Duration,
) -> RunResult {
    let config =
        DriverConfig { scale, terminals_per_warehouse: 10, wait_scale, duration, seed: 42 };
    let result = run(backend, &config);
    RunResult {
        label: label.to_string(),
        warehouses: scale.warehouses,
        tpmc: result.tpmc(wait_scale),
        pct_of_max: result.pct_of_max(&config),
        errors: result.errors,
    }
}

/// Group-commit leader flush window for the contended runs.
const FLUSH_WINDOW_US: u64 = 200;

struct MtRun {
    clients: usize,
    tpm: f64,
    p50_us: u64,
    p99_us: u64,
    commits: u64,
    fsyncs: u64,
}

/// One contended run: `clients` terminals on one warehouse, no think time,
/// against a fresh sync-replicated cluster.
fn contended_run(clients: usize, duration: Duration) -> MtRun {
    let scale =
        TpccScale { warehouses: 1, districts: 10, customers: 100, items: 500, preload_orders: 20 };
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
    s2_workloads::tpcc::backend::load_cluster(&cluster, &scale, 7).expect("load");
    cluster.set_group_flush_window_us(FLUSH_WINDOW_US);

    let latency = s2_obs::global().histogram("wal.commit.latency_us");
    latency.reset();
    let commits0 = s2_obs::global().counter("core.txn.commits").get();
    let fsyncs0 = s2_obs::global().counter("wal.fsync.calls").get();

    let backend: Arc<dyn TpccBackend> = Arc::new(ClusterBackend::new(cluster, scale));
    let config = DriverConfig {
        scale,
        terminals_per_warehouse: clients,
        wait_scale: f64::INFINITY,
        duration,
        seed: 42,
    };
    let result = run(backend, &config);

    let commits = s2_obs::global().counter("core.txn.commits").get() - commits0;
    let fsyncs = s2_obs::global().counter("wal.fsync.calls").get() - fsyncs0;
    let summary = latency.summary();
    MtRun {
        clients,
        tpm: result.raw_tpm(),
        p50_us: summary.p50,
        p99_us: summary.p99,
        commits,
        fsyncs,
    }
}

fn contended_mode(spec: &str, json: bool) {
    let duration = Duration::from_secs(env_u64("S2_DURATION_SECS", 3));
    let counts: Vec<usize> =
        spec.split(',').filter_map(|s| s.trim().parse().ok()).filter(|&n| n > 0).collect();
    if counts.is_empty() {
        eprintln!("--clients needs a comma-separated list of positive integers");
        std::process::exit(2);
    }
    if !json {
        println!(
            "== Contended TPC-C: group-commit pipeline, 1 warehouse, sync replication \
             ({duration:?}/run, flush window {FLUSH_WINDOW_US}us) =="
        );
    }
    let runs: Vec<MtRun> = counts.iter().map(|&n| contended_run(n, duration)).collect();
    if json {
        let items: Vec<String> = runs
            .iter()
            .map(|r| {
                format!(
                    "{{\"clients\":{},\"tpm\":{:.1},\"p50_us\":{},\"p99_us\":{},\
                     \"commits\":{},\"fsyncs\":{},\"fsyncs_per_commit\":{:.3}}}",
                    r.clients,
                    r.tpm,
                    r.p50_us,
                    r.p99_us,
                    r.commits,
                    r.fsyncs,
                    r.fsyncs as f64 / r.commits.max(1) as f64
                )
            })
            .collect();
        println!("{{\"bench\":\"tpcc_mt\",\"runs\":[{}]}}", items.join(","));
        return;
    }
    let cells: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.clients),
                format!("{:.0}", r.tpm),
                format!("{}", r.p50_us),
                format!("{}", r.p99_us),
                format!("{}", r.commits),
                format!("{}", r.fsyncs),
                format!("{:.3}", r.fsyncs as f64 / r.commits.max(1) as f64),
            ]
        })
        .collect();
    print_table(
        &["Clients", "new-orders/min", "p50 us", "p99 us", "commits", "fsyncs", "fsyncs/commit"],
        &cells,
    );
    println!("\nshape check: fsyncs/commit falls below 1 as clients grow (batched group fsync)");
}

fn main() {
    s2_bench::apply_thread_flag();
    let json = s2_bench::json_enabled();
    if let Some(spec) = cli_value("--clients") {
        contended_mode(&spec, json);
        return;
    }
    let w = env_u64("S2_WAREHOUSES", 2) as i64;
    let duration = Duration::from_secs(env_u64("S2_DURATION_SECS", 10));
    let wait_scale = env_f64("S2_WAIT_SCALE", 300.0);
    if !json {
        println!(
            "== Table 1: TPC-C results (ceiling {:.2} tpmC/warehouse; waits / {wait_scale}) ==",
            MAX_TPMC_PER_WAREHOUSE
        );
    }

    let mut rows = Vec::new();

    // CDB @ W warehouses.
    {
        let scale = TpccScale::bench(w);
        let engine = Arc::new(CdbEngine::new());
        s2_workloads::tpcc::backend::load_cdb(&engine, &scale, 7).expect("load cdb");
        let backend: Arc<dyn TpccBackend> = Arc::new(CdbBackend { engine, scale });
        rows.push(one_run("CDB", backend, scale, wait_scale, duration));
    }
    // S2DB @ W warehouses.
    {
        let scale = TpccScale::bench(w);
        let cluster = bench_cluster(4);
        s2_workloads::tpcc::backend::load_cluster(&cluster, &scale, 7).expect("load s2");
        let backend: Arc<dyn TpccBackend> = Arc::new(ClusterBackend::new(cluster, scale));
        rows.push(one_run("S2DB", backend, scale, wait_scale, duration));
    }
    // S2DB @ 4x warehouses (the paper's 10x row, scaled).
    {
        let scale = TpccScale::bench(w * 4);
        let cluster = bench_cluster(8);
        s2_workloads::tpcc::backend::load_cluster(&cluster, &scale, 7).expect("load s2 big");
        let backend: Arc<dyn TpccBackend> = Arc::new(ClusterBackend::new(cluster, scale));
        rows.push(one_run("S2DB", backend, scale, wait_scale, duration));
    }

    if json {
        let runs: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"product\":\"{}\",\"warehouses\":{},\"tpmc\":{:.1},\
                     \"pct_of_max\":{:.1},\"errors\":{}}}",
                    r.label, r.warehouses, r.tpmc, r.pct_of_max, r.errors
                )
            })
            .collect();
        println!(
            "{{\"bench\":\"table1_tpcc\",\"threads\":{},\"runs\":[{}]}}",
            s2_exec::effective_threads(0),
            runs.join(",")
        );
        return;
    }
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{}", r.warehouses),
                format!("{:.1}", r.tpmc),
                format!("{:.1}%", r.pct_of_max),
                format!("{}", r.errors),
            ]
        })
        .collect();
    print_table(
        &["Product", "Size (warehouses)", "Throughput (tpmC)", "Throughput (% of max)", "errors"],
        &cells,
    );
    println!(
        "\npaper shape check: both engines near the ceiling; S2DB scales ~linearly with warehouses"
    );
    s2_bench::report_metrics();
}
