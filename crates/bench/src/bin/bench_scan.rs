//! Parallel-scan baseline: runs the scan-heavy TPC-H and CH-BenCHmark
//! queries at 1/2/4/8 scan threads on one process and reports per-query
//! runtimes, cross-thread-count result equality (the executor's
//! determinism guarantee) and the speedup at 8 threads.
//!
//! `--json > BENCH_scan.json` produces the committed baseline. The
//! document records `host_parallelism`: on a single-core host the
//! executor cannot go faster than serial (there is one core to share),
//! so speedups near 1.0 with `host_parallelism: 1` are the honest
//! expectation — the byte-identical results across thread counts are
//! the invariant this bin guards everywhere.
//!
//! Knobs: `S2_SF` (default 0.02), `S2_SEGMENT_ROWS` (default 4096 — small
//! segments so every table yields many morsels), `S2_RUNS` (timed runs per
//! query per thread count, default 3), `S2_WAREHOUSES` (default 2).
//! Flags: `--json` (machine-readable output only).

use std::sync::Arc;
use std::time::Instant;

use s2_bench::{bench_cluster, env_f64, env_u64, print_table};
use s2_cluster::Cluster;
use s2_exec::Batch;
use s2_query::ExecOptions;
use s2_workloads::tpch::load::ClusterRunner;
use s2_workloads::tpch::queries::run_query;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Canonical rendering of a batch for equality checks: every cell via
/// `Value`'s Debug, row-major. Byte-identical strings mean byte-identical
/// results.
fn render(batch: &Batch) -> String {
    let mut out = String::new();
    for ri in 0..batch.rows() {
        for ci in 0..batch.width() {
            out.push_str(&format!("{:?}|", batch.value(ci, ri)));
        }
        out.push('\n');
    }
    out
}

struct QueryResult {
    suite: &'static str,
    name: String,
    /// Mean runtime in ms, one per swept thread count.
    mean_ms: Vec<f64>,
    /// Rendered results identical across all thread counts.
    identical: bool,
}

/// Time `f` at each thread count: one warm-up run (also warms the
/// decision cache so every timed run replays the same cached plan), then
/// `runs` timed runs, and checks renderings agree across thread counts.
fn sweep(
    suite: &'static str,
    name: &str,
    thread_counts: &[usize],
    runs: usize,
    mut f: impl FnMut(usize) -> Batch,
) -> QueryResult {
    let mut mean_ms = Vec::with_capacity(thread_counts.len());
    let mut reference: Option<String> = None;
    let mut identical = true;
    for &t in thread_counts {
        let warm = render(&f(t));
        match &reference {
            None => reference = Some(warm),
            Some(r) => identical &= *r == warm,
        }
        let t0 = Instant::now();
        for _ in 0..runs.max(1) {
            let batch = f(t);
            identical &= reference.as_deref() == Some(render(&batch).as_str());
        }
        mean_ms.push(t0.elapsed().as_secs_f64() * 1e3 / runs.max(1) as f64);
    }
    QueryResult { suite, name: name.to_string(), mean_ms, identical }
}

fn tpch_cluster(sf: f64, segment_rows: usize) -> Arc<Cluster> {
    let mut data = s2_workloads::tpch::generate(sf, 42);
    for t in &mut data.tables {
        t.options = t.options.clone().with_segment_rows(segment_rows);
    }
    let cluster = bench_cluster(4);
    s2_workloads::tpch::load::load_cluster(&cluster, &data).expect("load tpch");
    cluster
}

fn ch_cluster(warehouses: i64) -> Arc<Cluster> {
    let scale = s2_workloads::tpcc::TpccScale::bench(warehouses);
    let cluster = bench_cluster(4);
    s2_workloads::tpcc::backend::load_cluster(&cluster, &scale, 7).expect("load tpcc");
    // Push the loaded rows into columnstore segments so the scan-heavy
    // queries exercise the segment path, not just the rowstore tail.
    cluster.maintenance().expect("maintenance");
    cluster
}

fn main() {
    let json = s2_bench::json_enabled();
    let sf = env_f64("S2_SF", 0.02);
    let segment_rows = env_u64("S2_SEGMENT_ROWS", 4096) as usize;
    let runs = env_u64("S2_RUNS", 3) as usize;
    let warehouses = env_u64("S2_WAREHOUSES", 2) as i64;
    let thread_counts = THREAD_COUNTS;
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());

    if !json {
        println!(
            "== Parallel scan baseline (sf {sf}, {segment_rows}-row segments, \
             {runs} runs/config, host parallelism {host}) =="
        );
    }

    let mut results: Vec<QueryResult> = Vec::new();

    // TPC-H scan-heavy queries: Q1 (full fact-table aggregation) and Q6
    // (tight range filter over the fact table).
    let tpch = tpch_cluster(sf, segment_rows);
    for q in [1usize, 6] {
        results.push(sweep("tpch", &format!("q{q}"), &thread_counts, runs, |t| {
            let mut opts = ExecOptions::default();
            opts.scan.threads = t;
            let runner = ClusterRunner { cluster: &tpch, opts };
            run_query(q, &runner).expect("query")
        }));
    }
    drop(tpch);

    // CH-BenCHmark scan-heavy queries over the TPC-C schema.
    let ch = ch_cluster(warehouses);
    let scan_heavy = ["revenue_by_district", "live_revenue", "hot_items", "top_customers"];
    for (name, plan) in s2_workloads::ch::queries() {
        if !scan_heavy.contains(&name) {
            continue;
        }
        let cluster = Arc::clone(&ch);
        results.push(sweep("ch", name, &thread_counts, runs, move |t| {
            let mut opts = ExecOptions::default();
            opts.scan.threads = t;
            cluster.execute(&plan, &opts).expect("query")
        }));
    }

    let speedup = |r: &QueryResult| r.mean_ms[0] / r.mean_ms[thread_counts.len() - 1];
    let geomean_speedup = (results.iter().map(|r| speedup(r).max(1e-9).ln()).sum::<f64>()
        / results.len() as f64)
        .exp();
    let all_identical = results.iter().all(|r| r.identical);

    if json {
        let queries: Vec<String> = results
            .iter()
            .map(|r| {
                let per_thread: Vec<String> = thread_counts
                    .iter()
                    .zip(&r.mean_ms)
                    .map(|(t, ms)| format!("{{\"threads\":{t},\"mean_ms\":{ms:.3}}}"))
                    .collect();
                format!(
                    "{{\"suite\":\"{}\",\"name\":\"{}\",\"identical_across_threads\":{},\
                     \"speedup_at_8\":{:.3},\"per_thread\":[{}]}}",
                    r.suite,
                    r.name,
                    r.identical,
                    speedup(r),
                    per_thread.join(",")
                )
            })
            .collect();
        let counts: Vec<String> = thread_counts.iter().map(usize::to_string).collect();
        println!(
            "{{\"bench\":\"bench_scan\",\"host_parallelism\":{host},\"scale_factor\":{sf},\
             \"segment_rows\":{segment_rows},\"runs_per_config\":{runs},\
             \"thread_counts\":[{}],\"all_identical\":{all_identical},\
             \"geomean_speedup_at_8\":{geomean_speedup:.3},\"queries\":[{}]}}",
            counts.join(","),
            queries.join(",")
        );
        return;
    }

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let mut row = vec![format!("{}/{}", r.suite, r.name)];
            row.extend(r.mean_ms.iter().map(|ms| format!("{ms:.2}")));
            row.push(format!("{:.2}x", speedup(r)));
            row.push(if r.identical { "yes".into() } else { "NO".into() });
            row
        })
        .collect();
    let mut headers: Vec<String> = vec!["Query".into()];
    headers.extend(thread_counts.iter().map(|t| format!("{t}T ms")));
    headers.push("speedup".into());
    headers.push("identical".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(&header_refs, &rows);
    println!(
        "\ngeomean speedup at {} threads: {geomean_speedup:.2}x (host parallelism {host})",
        thread_counts.last().copied().unwrap_or(1)
    );
    println!(
        "results byte-identical across thread counts: {}",
        if all_identical { "yes" } else { "NO" }
    );
    s2_bench::report_metrics();
}
