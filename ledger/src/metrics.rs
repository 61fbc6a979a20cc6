//! The metric catalog: what `BENCHMARK.json` lists, how each workload's own
//! metric names map onto the end-to-end slots, and the value type the
//! workloads report.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The reported value: the median over `rounds` when there are rounds.
    pub value: f64,
    pub unit: &'static str,
    /// One value per measured round (repeated measurements within a run).
    pub rounds: Vec<f64>,
    /// Raw samples behind the value, pooled over rounds (0 for a scalar).
    pub n: usize,
    /// Highest percentile with at least ten samples beyond it.
    pub tail: Option<(f64, f64)>,
}

/// Metrics by name.
pub type Metrics = BTreeMap<String, Metric>;

impl Metric {
    pub fn scalar(value: f64, unit: &'static str) -> Metric {
        Metric { value, unit, rounds: Vec::new(), n: 0, tail: None }
    }

    /// Median over per-round values.
    pub fn of_rounds(rounds: Vec<f64>, unit: &'static str) -> Metric {
        Metric { value: stats::median(&rounds), unit, rounds, n: 0, tail: None }
    }

    /// Attach the pooled raw samples' count and tail percentile.
    pub fn with_samples(mut self, samples: &[f64]) -> Metric {
        self.n = samples.len();
        self.tail = stats::tail(samples);
        self
    }

    pub fn to_json(&self) -> Json {
        let mut j = Json::obj().with("value", self.value).with("unit", self.unit);
        if !self.rounds.is_empty() {
            j.set("rounds", self.rounds.iter().map(|&r| Json::Num(r)).collect::<Vec<_>>());
        }
        if self.n > 0 {
            j.set("samples", self.n);
        }
        if let Some((level, value)) = self.tail {
            j.set("tail", Json::obj().with("percentile", level * 100.0).with("value", value));
        }
        j
    }
}

/// Insert a scalar.
pub fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(name.to_string(), Metric::scalar(value, unit));
}

/// `(name, why)` of the four workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "oltp_tpcc",
        "Commit path (rowstore locks, core apply, wal group commit, replication ack) does nearly all the work; scan and encoding layers almost none.",
    ),
    (
        "olap_tpch",
        "exec, encoding, columnstore, pool, sql and query do all the work and wal/rowstore none; scan-bound and join-bound query sets are told apart.",
    ),
    (
        "htap_ch",
        "Scans over a live rowstore level and fresh segments while commits, flush/merge and log tailing run beside them; the only place freshness is measured.",
    ),
    (
        "restart",
        "Recovery and elasticity: wal read, core replay and index rebuild, blob get and PITR on a working set colder than every cache.",
    ),
];

/// Index of a workload in [`WORKLOADS`].
pub fn workload_index(name: &str) -> Option<usize> {
    WORKLOADS.iter().position(|(n, _)| *n == name)
}

/// One end-to-end metric of `BENCHMARK.json`. Every run prints every slot,
/// so a slot names a role and `native` says which of the workload's own
/// metrics fills it (in [`WORKLOADS`] order).
pub struct Slot {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
    pub native: [&'static str; 4],
}

pub const SLOTS: [Slot; 5] = [
    Slot {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        native: ["setup_s"; 4],
    },
    Slot {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
        native: ["txn_per_s", "query_per_s", "txn_per_s", "cycle_per_s"],
    },
    Slot {
        name: "primary_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.2,
        native: ["neworder_p50_ms", "scan_q_ms", "neworder_p50_ms", "recover_ms"],
    },
    Slot {
        name: "secondary_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
        native: ["payment_p50_ms", "join_q_ms", "ch_q_ms", "provision_ms"],
    },
    Slot {
        name: "tertiary_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
        native: ["neworder_p95_ms", "max_q_ms", "neworder_p95_ms", "restore_ms"],
    },
];

/// `(name, unit, higher_is_better)` of every per-layer metric a traced run
/// prints. Time-valued entries are layer probes, which run on every workload;
/// what the registry or the spans attribute to a layer is given as a count, a
/// ratio or a share of the clients' time, so a layer a workload never enters
/// reads 0.
pub const PER_LAYER: [(&str, &str, bool); 65] = [
    ("rowstore.write_ns", "ns", false),
    ("rowstore.get_ns", "ns", false),
    ("rowstore.lock_conflicts", "count", false),
    ("rowstore.lock_timeouts", "count", false),
    ("wal.append_sync_us", "us", false),
    ("wal.append_sync_file_us", "us", false),
    ("wal.scan_mb_per_s", "MB/s", true),
    ("wal.bytes_per_user_byte", "ratio", false),
    ("wal.fsyncs_per_commit", "ratio", false),
    ("wal.batch_size_mean", "count", true),
    ("wal.commit_share", "share", false),
    ("wal.group_wait_share", "share", false),
    ("wal.group_flush_share", "share", false),
    ("core.commit_us", "us", false),
    ("core.recover_mb_per_s", "MB/s", true),
    ("core.flush_rows", "count", false),
    ("core.flush_share", "share", false),
    ("core.merge_runs", "count", false),
    ("core.merge_share", "share", false),
    ("core.vacuum_versions_freed", "count", true),
    ("core.unique_miss_retries", "count", false),
    ("cluster.commit_us", "us", false),
    ("cluster.ack_share", "share", false),
    ("cluster.ack_timeouts", "count", false),
    ("cluster.workspace_lag_bytes_p50", "bytes", false),
    ("cluster.stale_read_retries", "count", false),
    ("blob.put_count", "count", false),
    ("blob.put_bytes", "bytes", false),
    ("blob.get_count", "count", false),
    ("blob.get_bytes", "bytes", false),
    ("blob.cache_hit_rate", "share", true),
    ("blob.upload_retries", "count", false),
    ("index.probe_ns", "ns", false),
    ("index.build_ns_per_row", "ns", false),
    ("index.segments_skipped_share", "share", true),
    ("encoding.encode_ns_per_row", "ns", false),
    ("encoding.decode_ns_per_row", "ns", false),
    ("encoding.filter_ns_per_row", "ns", false),
    ("encoding.bytes_per_value", "bytes", false),
    ("columnstore.build_ms_per_krow", "ms", false),
    ("columnstore.merge_ms_per_krow", "ms", false),
    ("exec.scan_q1_ms", "ms", false),
    ("exec.scan_q6_ms", "ms", false),
    ("exec.scan_rows_per_s", "1/s", true),
    ("exec.segments_skipped_share", "share", true),
    ("exec.encoded_filter_share", "share", true),
    ("exec.decision_cache_hit_rate", "share", true),
    ("exec.encoded_agg_rows", "count", true),
    ("exec.decode_skipped_rows", "count", true),
    ("pool.dispatch_us", "us", false),
    ("pool.morsels", "count", false),
    ("pool.steals", "count", false),
    ("pool.caller_share", "share", true),
    ("query.hash_joins", "count", false),
    ("query.join_index_filters", "count", true),
    ("span.tpcc_share", "share", false),
    ("span.sql_plan_share", "share", false),
    ("span.query_execute_share", "share", false),
    ("span.marker_share", "share", false),
    ("span.core_recover_share", "share", false),
    ("span.cluster_provision_share", "share", false),
    ("span.cluster_catch_up_share", "share", false),
    ("span.cluster_restore_share", "share", false),
    ("tpcc.conflict_retries", "count", false),
    ("trace_overhead_share", "share", false),
];

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

fn better(higher: bool) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

/// The contents of `BENCHMARK.json`, generated from the catalog so the file
/// and the driver cannot disagree (`ledger spec` prints it; a test compares
/// it with the committed file).
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "ledger/Cargo.toml",
        "--",
    ];
    Json::obj()
        .with("command", command.iter().map(|&s| Json::from(s)).collect::<Vec<_>>())
        .with("paths", vec![Json::from("ledger")])
        .with("run_seconds", RUN_SECONDS)
        .with(
            "workloads",
            WORKLOADS
                .iter()
                .map(|(name, why)| Json::obj().with("name", *name).with("why", *why))
                .collect::<Vec<_>>(),
        )
        .with(
            "end_to_end",
            SLOTS
                .iter()
                .map(|s| {
                    Json::obj()
                        .with("name", s.name)
                        .with("unit", s.unit)
                        .with("better", better(s.higher_is_better))
                        .with("bound", s.bound)
                })
                .collect::<Vec<_>>(),
        )
        .with(
            "per_layer",
            PER_LAYER
                .iter()
                .map(|(name, unit, higher)| {
                    Json::obj()
                        .with("name", *name)
                        .with("unit", *unit)
                        .with("better", better(*higher))
                })
                .collect::<Vec<_>>(),
        )
}

/// The slot values of one workload, taken from its native metrics.
pub fn slots_of(workload: usize, native: &Metrics) -> Metrics {
    SLOTS
        .iter()
        .filter_map(|s| native.get(s.native[workload]).map(|m| (s.name.to_string(), m.clone())))
        .collect()
}

/// Every metric name ISSUE 11 lists: each must appear in `ledger.json` under
/// at least one workload (checked by the smoke test).
#[cfg(test)]
pub fn issue_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "setup_s",
        "error_share",
        "txn_per_s",
        "neworder_p50_ms",
        "neworder_p95_ms",
        "payment_p50_ms",
        "query_per_s",
        "scan_q_ms",
        "join_q_ms",
        "ch_q_ms",
        "freshness_p50_ms",
        "freshness_p95_ms",
        "recover_ms",
        "provision_ms",
        "bytes_per_user_byte",
        "rowstore.write_ns",
        "rowstore.get_ns",
        "rowstore.lock_conflicts",
        "rowstore.lock_timeouts",
        "wal.append_sync_us",
        "wal.scan_mb_per_s",
        "wal.fsyncs_per_commit",
        "wal.batch_size_mean",
        "wal.group_wait_us_per_commit",
        "wal.group_flush_us_per_commit",
        "wal.commit_us_per_commit",
        "wal.bytes_per_user_byte",
        "core.commit_us",
        "core.flush_ms_total",
        "core.flush_rows",
        "core.merge_ms_total",
        "core.merge_runs",
        "core.vacuum_versions_freed",
        "core.recover_mb_per_s",
        "cluster.commit_us",
        "cluster.ack_us_per_commit",
        "cluster.ack_timeouts",
        "cluster.provision_ms",
        "cluster.catch_up_ms",
        "cluster.restore_ms",
        "cluster.workspace_lag_bytes_p50",
        "blob.put_count",
        "blob.put_bytes",
        "blob.get_count",
        "blob.get_bytes",
        "blob.cache_hit_rate",
        "blob.upload_ms_mean",
        "blob.upload_retries",
        "index.probe_ns",
        "index.build_ns_per_row",
        "index.segments_skipped_share",
        "encoding.encode_ns_per_row",
        "encoding.decode_ns_per_row",
        "encoding.filter_ns_per_row",
        "encoding.bytes_per_value",
        "columnstore.build_ms_per_krow",
        "columnstore.merge_ms_per_krow",
        "exec.scan_q1_ms",
        "exec.scan_q6_ms",
        "exec.scan_rows_per_s",
        "exec.segments_skipped_share",
        "exec.encoded_filter_share",
        "exec.decision_cache_hit_rate",
        "exec.encoded_agg_rows",
        "exec.decode_skipped_rows",
        "pool.dispatch_us",
        "pool.morsels",
        "pool.steals",
        "pool.caller_share",
        "query.exec_ms",
        "query.hash_joins",
        "query.join_index_filters",
        "sql.plan_us",
        "tpcc.order_status_p50_ms",
        "tpcc.delivery_p50_ms",
        "tpcc.stock_level_p50_ms",
        "tpcc.neworder_p99_ms",
        "tpcc.conflict_retries",
        "trace_overhead_share",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    names.extend((1..=22).map(|q| format!("tpch.q{q:02}_ms")));
    names.extend(crate::engine::ch_queries().iter().map(|(name, _)| format!("ch.{name}_ms")));
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let charset =
            name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'));
        charset && name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric()
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_charsets() {
        let mut seen = std::collections::BTreeSet::new();
        let names = SLOTS
            .iter()
            .map(|s| (s.name, s.unit))
            .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
            .chain(WORKLOADS.iter().map(|(n, _)| (*n, "count")));
        for (name, unit) in names {
            assert!(name_ok(name), "bad metric name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
            assert!(
                unit.len() <= 16
                    && unit.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "bad unit {unit:?}"
            );
        }
        for name in issue_names() {
            assert!(name_ok(&name), "bad issue metric name {name:?}");
        }
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        assert!(SLOTS.iter().all(|s| s.bound > 0.0 && s.bound <= 0.25));
        assert!(SLOTS.iter().any(|s| s.name == "setup_s" && s.unit == "s" && !s.higher_is_better));
    }

    #[test]
    fn committed_benchmark_json_is_the_catalog() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(Json::parse(committed).unwrap(), benchmark_json());
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn metric_of_rounds_reports_the_median() {
        let m = Metric::of_rounds(vec![3.0, 1.0, 2.0], "ms").with_samples(&[1.0; 40]);
        assert_eq!((m.value, m.n), (2.0, 40));
        assert_eq!(m.tail, Some((0.75, 1.0)));
        let j = m.to_json();
        assert_eq!(j.get("value").and_then(Json::as_f64), Some(2.0));
        assert_eq!(j.get("rounds").map(|r| r.items().len()), Some(3));
    }
}
