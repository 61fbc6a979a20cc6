//! The plan executor.
//!
//! Notable adaptivity (paper §5.1): small build sides turn equi-joins into
//! *join index filters* — the build side's distinct keys are pushed into the
//! probe side's scan as an IN-list, which the adaptive scan answers with
//! secondary-index probes when cheap and falls back to a full scan (and the
//! join to a plain hash join) when the key count is too high. The index
//! filter has no false positives, and the hash join afterwards re-verifies
//! equality anyway.

use std::collections::HashSet;
use std::sync::Arc;

use s2_common::{Result, Value};
use s2_core::TableSnapshot;
use s2_exec::{hash_aggregate, hash_join, scan, sort_batch, Batch, Expr, ScanOptions, ScanStats};

use crate::plan::Plan;

/// Source of table snapshots for a query: a single partition or (in the
/// cluster layer) an aggregator that unions partitions.
pub trait QueryContext {
    /// Resolve a table to one or more snapshots whose scan results are
    /// unioned (one per partition holding a shard of the table).
    fn snapshots(&self, table: &str) -> Result<Vec<Arc<TableSnapshot>>>;
}

/// Execution tuning knobs.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Options forwarded to every table scan.
    pub scan: ScanOptions,
    /// Build sides at or below this row count are pushed into the probe
    /// scan as a join index filter. 0 disables the optimization.
    pub join_index_threshold: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions { scan: ScanOptions::default(), join_index_threshold: 128 }
    }
}

/// Cumulative statistics for one query execution.
#[derive(Debug, Default, Clone)]
pub struct ExecStats {
    /// Aggregated scan counters.
    pub scan: ScanStats,
    /// Joins executed as join index filters.
    pub join_index_filters: usize,
    /// Joins executed as plain hash joins.
    pub hash_joins: usize,
}

/// Execute `plan` against `ctx`.
pub fn execute(plan: &Plan, ctx: &dyn QueryContext, opts: &ExecOptions) -> Result<Batch> {
    let mut stats = ExecStats::default();
    execute_with_stats(plan, ctx, opts, &mut stats)
}

/// Execute, accumulating statistics.
pub fn execute_with_stats(
    plan: &Plan,
    ctx: &dyn QueryContext,
    opts: &ExecOptions,
    stats: &mut ExecStats,
) -> Result<Batch> {
    match plan {
        Plan::Scan { table, projection, filter } => {
            let snaps = ctx.snapshots(table)?;
            // Scatter: partition snapshots fan into the shared morsel pool,
            // like the paper's leaves ("leaf nodes ... are responsible for
            // the bulk of compute"). Each partition scan then fans its own
            // segments into the same pool (nested runs are deadlock-free:
            // the waiting caller drains queued morsels itself). Results come
            // back in partition order, so output is deterministic.
            // Small scans (by metadata estimate) stay serial: pool handoff
            // costs more than sub-morsel scans save.
            let threads = s2_exec::effective_threads(opts.scan.threads);
            let est: usize =
                snaps.iter().map(|s| s2_exec::scan::estimate_scan_rows(s, filter.as_ref())).sum();
            let fan_out =
                snaps.len() > 1 && threads > 1 && est > s2_exec::scan::SMALL_SCAN_INLINE_ROWS;
            let parts: Vec<Result<(Batch, ScanStats)>> = if fan_out {
                let projection = projection.clone();
                let filter = filter.clone();
                let scan_opts = opts.scan.clone();
                s2_exec::ScanPool::global().run(threads, snaps, move |snap| {
                    scan(&snap, &projection, filter.as_ref(), &scan_opts)
                })
            } else {
                snaps.iter().map(|s| scan(s, projection, filter.as_ref(), &opts.scan)).collect()
            };
            let mut batches = Vec::with_capacity(parts.len());
            for p in parts {
                let (batch, s) = p?;
                stats.scan.merge(&s);
                batches.push(batch);
            }
            Batch::concat(&batches)
        }
        Plan::Filter { input, predicate } => {
            let batch = execute_with_stats(input, ctx, opts, stats)?;
            let sel = batch.filter(predicate, None)?;
            Ok(batch.gather(&sel))
        }
        Plan::Project { input, exprs } => {
            let batch = execute_with_stats(input, ctx, opts, stats)?;
            let mut cols = Vec::with_capacity(exprs.len());
            for (e, t) in exprs {
                cols.push(batch.eval_expr(e, *t)?);
            }
            Ok(Batch::new(cols))
        }
        Plan::Join { left, right, left_keys, right_keys, join_type, residual } => {
            let right_batch = execute_with_stats(right, ctx, opts, stats)?;
            // Adaptive join index filter: push the (small) build side's keys
            // into a probe-side scan.
            // Only Inner/Semi joins may restrict the probe side: Left and
            // Anti joins must still see unmatched probe rows.
            let filter_ok = matches!(join_type, s2_exec::JoinType::Inner | s2_exec::JoinType::Semi);
            let left_plan = if filter_ok {
                maybe_push_join_filter(left, &right_batch, left_keys, right_keys, opts, stats)
            } else {
                None
            };
            let left_batch = match &left_plan {
                Some(pushed) => execute_with_stats(pushed, ctx, opts, stats)?,
                None => execute_with_stats(left, ctx, opts, stats)?,
            };
            if left_plan.is_none() {
                stats.hash_joins += 1;
            }
            hash_join(
                &left_batch,
                &right_batch,
                left_keys,
                right_keys,
                *join_type,
                residual.as_ref(),
            )
        }
        Plan::Aggregate { input, group_by, aggregates } => {
            // Aggregate-over-scan fuses into the encoded-domain path: group
            // keys on dictionary codes, typed accumulation lanes, no
            // intermediate batch. Bit-identical to scan + hash_aggregate.
            if let Plan::Scan { table, projection, filter } = input.as_ref() {
                let snaps = ctx.snapshots(table)?;
                let (batch, s) = s2_exec::scan_aggregate(
                    &snaps,
                    projection,
                    filter.as_ref(),
                    group_by,
                    aggregates,
                    &opts.scan,
                )?;
                stats.scan.merge(&s);
                return Ok(batch);
            }
            let batch = execute_with_stats(input, ctx, opts, stats)?;
            hash_aggregate(&batch, group_by, aggregates)
        }
        Plan::Sort { input, keys, limit } => {
            let batch = execute_with_stats(input, ctx, opts, stats)?;
            Ok(sort_batch(&batch, keys, *limit))
        }
        Plan::Limit { input, n } => {
            let batch = execute_with_stats(input, ctx, opts, stats)?;
            let sel: Vec<u32> = (0..batch.rows().min(*n) as u32).collect();
            Ok(batch.gather(&sel))
        }
    }
}

/// If the join qualifies, return a rewritten probe-side plan whose scan
/// carries an IN-list of the build side's distinct keys.
fn maybe_push_join_filter(
    left: &Plan,
    right_batch: &Batch,
    left_keys: &[usize],
    right_keys: &[usize],
    opts: &ExecOptions,
    stats: &mut ExecStats,
) -> Option<Plan> {
    if opts.join_index_threshold == 0
        || left_keys.len() != 1
        || right_batch.rows() == 0
        || right_batch.rows() > opts.join_index_threshold
    {
        return None;
    }
    let Plan::Scan { table, projection, filter } = left else {
        return None;
    };
    // Map the probe key from batch position to table ordinal.
    let table_col = *projection.get(left_keys[0])?;
    let mut keys: HashSet<Value> = HashSet::new();
    for ri in 0..right_batch.rows() {
        let v = right_batch.value(right_keys[0], ri);
        if !v.is_null() {
            keys.insert(v);
        }
    }
    if keys.is_empty() || keys.len() > opts.join_index_threshold {
        return None;
    }
    let mut key_list: Vec<Value> = keys.into_iter().collect();
    key_list.sort();
    let in_list = Expr::InList(Box::new(Expr::Column(table_col)), key_list);
    let new_filter = match filter {
        Some(f) => Some(f.clone().and(in_list)),
        None => Some(in_list),
    };
    stats.join_index_filters += 1;
    Some(Plan::Scan { table: table.clone(), projection: projection.clone(), filter: new_filter })
}

/// Render a batch as aligned text rows (examples and debugging).
pub fn format_batch(batch: &Batch, headers: &[&str]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    let mut cells: Vec<Vec<String>> = Vec::with_capacity(batch.rows());
    for ri in 0..batch.rows() {
        let row: Vec<String> =
            (0..batch.width()).map(|ci| format_value(&batch.value(ci, ri))).collect();
        for (w, c) in widths.iter_mut().zip(&row) {
            *w = (*w).max(c.len());
        }
        cells.push(row);
    }
    let mut out = String::new();
    let fmt_row = |cols: &[String], widths: &[usize]| -> String {
        cols.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    for row in &cells {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

fn format_value(v: &Value) -> String {
    match v {
        Value::Double(d) => format!("{d:.2}"),
        other => other.to_string(),
    }
}
