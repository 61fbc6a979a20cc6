//! Per-layer attribution of a traced run from two sources that add no code
//! to an engine crate: deltas of the `s2-obs` registry around the traced
//! blocks (source O) and the driver's own spans (source S). Layer probes
//! (source P) are in `probes.rs`.
//!
//! Time the registry attributes to a layer is reported twice: under the
//! ledger's per-operation name (`wal.commit_us_per_commit`) and as a share of
//! the clients' time (`wal.commit_share`). `BENCHMARK.json` lists the shares,
//! which read 0 on a workload that never enters the layer.

use crate::engine::{BlobCounts, QueryStats};
use crate::metrics::{put, Metrics};
use crate::obs::{ratio, ObsDelta};
use crate::stats;
use crate::trace::{self, Span};

/// Everything a workload's traced blocks accumulate.
#[derive(Default)]
pub struct LayerAcc {
    pub obs: ObsDelta,
    pub spans: Vec<Span>,
    /// Sum over traced blocks of `clients * wall`, in µs.
    pub client_us: f64,
    /// Sum over traced blocks of wall time, in µs.
    pub wall_us: f64,
    /// Throughput of each traced block and of its untraced partner.
    pub traced_rate: Vec<f64>,
    pub untraced_rate: Vec<f64>,
    pub blob: BlobCounts,
    pub query: QueryStats,
    pub queries: u64,
    pub plan_us: f64,
    pub exec_us: f64,
    pub conflict_retries: u64,
    /// Transactions re-run after a unique-key lookup missed a row in transit.
    pub unique_miss_retries: u64,
    /// Workspace reads repeated because they differed from the primary's.
    pub stale_read_retries: u64,
    /// Workspace lag samples in bytes (`htap_ch` reader).
    pub lag_bytes: Vec<f64>,
}

impl LayerAcc {
    /// Fold one traced block in.
    pub fn add_block(&mut self, obs: &ObsDelta, spans: Vec<Span>, clients: usize, wall_s: f64) {
        self.obs.add(obs);
        self.spans.extend(spans);
        self.client_us += clients as f64 * wall_s * 1e6;
        self.wall_us += wall_s * 1e6;
    }

    pub fn add_blob(&mut self, before: BlobCounts, after: BlobCounts) {
        self.blob.put_count += after.put_count - before.put_count;
        self.blob.put_bytes += after.put_bytes - before.put_bytes;
        self.blob.get_count += after.get_count - before.get_count;
        self.blob.get_bytes += after.get_bytes - before.get_bytes;
    }

    pub fn add_query(&mut self, plan_us: f64, exec_us: f64, stats: QueryStats) {
        self.queries += 1;
        self.plan_us += plan_us;
        self.exec_us += exec_us;
        self.query.hash_joins += stats.hash_joins;
        self.query.join_index_filters += stats.join_index_filters;
    }

    /// The per-layer metrics of sources O and S.
    pub fn metrics(&self) -> Metrics {
        let d = &self.obs;
        let mut m = Metrics::new();
        let commits = d.counter("core.txn.commits");

        put(&mut m, "rowstore.lock_conflicts", d.counter("rowstore.lock.conflicts"), "count");
        put(&mut m, "rowstore.lock_timeouts", d.counter("rowstore.lock.timeouts"), "count");

        let wal_commit_us = d.hist_sum("wal.commit.latency_us");
        let wait_us = d.hist_sum("wal.group.wait_us");
        let flush_us = d.hist_sum("wal.group.flush_us");
        put(&mut m, "wal.fsyncs_per_commit", ratio(d.counter("wal.fsync.calls"), commits), "ratio");
        put(&mut m, "wal.batch_size_mean", d.hist_mean("wal.group.batch_size"), "count");
        put(&mut m, "wal.commit_us_per_commit", ratio(wal_commit_us, commits), "us");
        put(&mut m, "wal.group_wait_us_per_commit", ratio(wait_us, commits), "us");
        put(&mut m, "wal.group_flush_us_per_commit", ratio(flush_us, commits), "us");
        put(&mut m, "wal.commit_share", ratio(wal_commit_us, self.client_us), "share");
        put(&mut m, "wal.group_wait_share", ratio(wait_us, self.client_us), "share");
        put(&mut m, "wal.group_flush_share", ratio(flush_us, self.client_us), "share");

        let core_flush_us = d.hist_sum("core.flush.latency_us");
        let core_merge_us = d.hist_sum("core.merge.latency_us");
        put(&mut m, "core.flush_ms_total", core_flush_us / 1e3, "ms");
        put(&mut m, "core.flush_rows", d.counter("core.flush.rows"), "count");
        put(&mut m, "core.flush_share", ratio(core_flush_us, self.wall_us), "share");
        put(&mut m, "core.merge_ms_total", core_merge_us / 1e3, "ms");
        put(&mut m, "core.merge_runs", d.counter("core.merge.runs"), "count");
        put(&mut m, "core.merge_share", ratio(core_merge_us, self.wall_us), "share");
        put(&mut m, "core.vacuum_versions_freed", d.counter("core.vacuum.versions_freed"), "count");

        let ack_us = d.hist_sum("cluster.replication.ack_latency_us");
        put(&mut m, "cluster.ack_us_per_commit", ratio(ack_us, commits), "us");
        put(&mut m, "cluster.ack_share", ratio(ack_us, self.client_us), "share");
        put(&mut m, "cluster.stale_read_retries", self.stale_read_retries as f64, "count");
        put(&mut m, "cluster.ack_timeouts", d.counter("cluster.replication.ack_timeouts"), "count");
        put(
            &mut m,
            "cluster.workspace_lag_bytes_p50",
            zero_if_nan(stats::median(&self.lag_bytes)),
            "bytes",
        );

        put(&mut m, "blob.put_count", self.blob.put_count as f64, "count");
        put(&mut m, "blob.put_bytes", self.blob.put_bytes as f64, "bytes");
        put(&mut m, "blob.get_count", self.blob.get_count as f64, "count");
        put(&mut m, "blob.get_bytes", self.blob.get_bytes as f64, "bytes");
        let (hit, miss) = (d.counter("blob.cache.hit"), d.counter("blob.cache.miss"));
        put(&mut m, "blob.cache_hit_rate", ratio(hit, hit + miss), "share");
        put(&mut m, "blob.upload_ms_mean", d.hist_mean("blob.upload.latency_us") / 1e3, "ms");
        put(&mut m, "blob.upload_retries", d.counter("blob.upload.retries"), "count");

        let segments = d.counter("exec.scan.segments_total");
        let by_index = d.counter("exec.scan.segments_skipped_index");
        let by_minmax = d.counter("exec.scan.segments_skipped_minmax");
        put(&mut m, "index.segments_skipped_share", ratio(by_index, segments), "share");
        put(&mut m, "exec.segments_skipped_share", ratio(by_index + by_minmax, segments), "share");
        let (enc, reg) =
            (d.counter("exec.scan.encoded_filters"), d.counter("exec.scan.regular_filters"));
        put(&mut m, "exec.encoded_filter_share", ratio(enc, enc + reg), "share");
        let (hits, misses) = (
            d.counter("exec.scan.decision_cache_hits"),
            d.counter("exec.scan.decision_cache_misses"),
        );
        put(&mut m, "exec.decision_cache_hit_rate", ratio(hits, hits + misses), "share");
        put(&mut m, "exec.encoded_agg_rows", d.counter("exec.scan.encoded_agg_rows"), "count");
        put(
            &mut m,
            "exec.decode_skipped_rows",
            d.counter("exec.scan.decode_skipped_rows"),
            "count",
        );

        let morsels = d.counter("exec.pool.morsels");
        put(&mut m, "pool.morsels", morsels, "count");
        put(&mut m, "pool.steals", d.counter("exec.pool.steals"), "count");
        put(
            &mut m,
            "pool.caller_share",
            ratio(d.counter("exec.pool.caller_morsels"), morsels),
            "share",
        );

        put(&mut m, "query.hash_joins", self.query.hash_joins as f64, "count");
        put(&mut m, "query.join_index_filters", self.query.join_index_filters as f64, "count");
        put(&mut m, "query.exec_ms", ratio(self.exec_us, self.queries as f64) / 1e3, "ms");
        put(&mut m, "sql.plan_us", ratio(self.plan_us, self.queries as f64), "us");

        put(&mut m, "tpcc.conflict_retries", self.conflict_retries as f64, "count");
        put(&mut m, "core.unique_miss_retries", self.unique_miss_retries as f64, "count");
        let overhead =
            1.0 - ratio(stats::median(&self.traced_rate), stats::median(&self.untraced_rate));
        put(&mut m, "trace_overhead_share", zero_if_nan(overhead), "share");

        self.span_metrics(&mut m);
        m
    }

    /// Self time per layer as a share of all root-span time, and the median
    /// duration of the restart spans.
    fn span_metrics(&self, m: &mut Metrics) {
        let table = trace::by_name(&self.spans);
        let root_ns: u64 =
            self.spans.iter().filter(|s| s.parent == 0).map(|s| s.end_ns - s.start_ns).sum();
        let share_of = |prefix: &str| {
            let ns: u64 =
                table.iter().filter(|(n, _)| n.starts_with(prefix)).map(|(_, t)| t.0).sum();
            ratio(ns as f64, root_ns as f64)
        };
        for (name, span_prefix) in [
            ("span.tpcc_share", "tpcc."),
            ("span.sql_plan_share", "sql.plan"),
            ("span.query_execute_share", "query.execute"),
            ("span.marker_share", "marker."),
            ("span.core_recover_share", "core.recover"),
            ("span.cluster_provision_share", "cluster.provision"),
            ("span.cluster_catch_up_share", "cluster.catch_up"),
            ("span.cluster_restore_share", "cluster.restore"),
        ] {
            put(m, name, share_of(span_prefix), "share");
        }
        for (metric, span) in [
            ("cluster.provision_ms", "cluster.provision"),
            ("cluster.catch_up_ms", "cluster.catch_up"),
            ("cluster.restore_ms", "cluster.restore"),
        ] {
            let ms: Vec<f64> = self
                .spans
                .iter()
                .filter(|s| s.name == span)
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
                .collect();
            put(m, metric, zero_if_nan(stats::median(&ms)), "ms");
        }
    }
}

fn zero_if_nan(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_accumulator_reports_zeros_not_nans() {
        let m = LayerAcc::default().metrics();
        assert!(m.values().all(|v| v.value == 0.0), "{m:?}");
        assert!(m.contains_key("wal.commit_share") && m.contains_key("span.core_recover_share"));
    }

    #[test]
    fn span_shares_split_root_time_by_layer() {
        let s = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            request_id: 1,
            name,
            start_ns,
            end_ns,
        };
        let acc = LayerAcc {
            spans: vec![
                s(1, 0, "query", 0, 100),
                s(2, 1, "sql.plan", 10, 30),
                s(3, 1, "query.execute", 30, 90),
                s(4, 0, "tpcc.payment", 100, 200),
            ],
            ..Default::default()
        };
        let m = acc.metrics();
        assert_eq!(m["span.sql_plan_share"].value, 0.1);
        assert_eq!(m["span.query_execute_share"].value, 0.3);
        assert_eq!(m["span.tpcc_share"].value, 0.5);
    }
}
