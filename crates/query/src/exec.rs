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
use std::fmt::Write;
use std::sync::Arc;
use std::time::Instant;

use s2_common::{Result, Value};
use s2_core::TableSnapshot;
use s2_exec::{hash_aggregate, scan, sort_batch, Batch, Expr, JoinTable, ScanOptions, ScanStats};

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

/// The operator kinds a query's time is attributed to (index into
/// [`ExecStats::ops`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Table scans (`Plan::Scan`, partitions concatenated).
    Scan,
    /// `Plan::Filter`.
    Filter,
    /// `Plan::Project`.
    Project,
    /// Hash-join build side: key hashing and the chained table.
    JoinBuild,
    /// Hash-join probe, residual and output gather.
    JoinProbe,
    /// `Plan::Aggregate`; the fused aggregate-over-scan counts here whole,
    /// its scan included.
    Aggregate,
    /// `Plan::Sort` and `Plan::Limit`.
    Sort,
}

impl OpKind {
    /// Every kind, in [`ExecStats::ops`] order.
    pub const ALL: [OpKind; 7] = [
        OpKind::Scan,
        OpKind::Filter,
        OpKind::Project,
        OpKind::JoinBuild,
        OpKind::JoinProbe,
        OpKind::Aggregate,
        OpKind::Sort,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Scan => "scan",
            OpKind::Filter => "filter",
            OpKind::Project => "project",
            OpKind::JoinBuild => "join build",
            OpKind::JoinProbe => "join probe",
            OpKind::Aggregate => "aggregate",
            OpKind::Sort => "sort",
        }
    }
}

/// What the plan's operators of one kind did, summed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpStat {
    /// Operators of this kind executed.
    pub calls: u64,
    /// Time spent in them, their inputs' execution excluded.
    pub self_ns: u64,
    /// Rows they emitted (a join build: rows linked into the table).
    pub rows_out: u64,
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
    /// Per-operator-kind self time and rows out, indexed by [`OpKind`].
    /// Every operator adds its own share after its inputs have added
    /// theirs, so the self times sum to the query's execution time.
    pub ops: [OpStat; 7],
}

impl ExecStats {
    /// The totals of one operator kind.
    pub fn op(&self, kind: OpKind) -> &OpStat {
        &self.ops[kind as usize]
    }

    /// Charge one operator that started its own work at `started` and
    /// emitted `rows_out` rows; returns the elapsed microseconds.
    fn record(&mut self, kind: OpKind, started: Instant, rows_out: usize) -> u64 {
        let elapsed = started.elapsed();
        let op = &mut self.ops[kind as usize];
        op.calls += 1;
        op.self_ns += elapsed.as_nanos() as u64;
        op.rows_out += rows_out as u64;
        elapsed.as_micros() as u64
    }

    /// The per-operator profile as an aligned text table (kinds that ran).
    pub fn profile(&self) -> String {
        let mut out =
            format!("{:<12}{:>6}{:>12}{:>12}\n", "operator", "calls", "rows out", "self ms");
        for kind in OpKind::ALL {
            let op = self.op(kind);
            if op.calls > 0 {
                let ms = op.self_ns as f64 / 1e6;
                let _ = writeln!(
                    out,
                    "{:<12}{:>6}{:>12}{:>12.3}",
                    kind.name(),
                    op.calls,
                    op.rows_out,
                    ms
                );
            }
        }
        out
    }
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
            let started = Instant::now();
            let snaps = ctx.snapshots(table)?;
            // Scatter: partition snapshots fan into the shared morsel pool,
            // like the paper's leaves ("leaf nodes ... are responsible for
            // the bulk of compute"). Each partition scan then fans its own
            // segments into the same pool (nested runs are deadlock-free:
            // the waiting caller drains queued morsels itself). Results come
            // back in partition order, so output is deterministic.
            // Small scans (by metadata estimate) stay serial: pool handoff
            // costs more than sub-morsel scans save.
            let est: usize =
                snaps.iter().map(|s| s2_exec::scan::estimate_scan_rows(s, filter.as_ref())).sum();
            let threads = if est > s2_exec::scan::SMALL_SCAN_INLINE_ROWS {
                s2_exec::effective_threads(opts.scan.threads)
            } else {
                1
            };
            let parts: Vec<Result<(Batch, ScanStats)>> =
                s2_exec::ScanPool::global().run(threads, snaps.iter().collect(), |snap| {
                    scan(snap, projection, filter.as_ref(), &opts.scan)
                });
            let mut batches = Vec::with_capacity(parts.len());
            for p in parts {
                let (batch, s) = p?;
                stats.scan.merge(&s);
                batches.push(batch);
            }
            let out = Batch::concat(batches)?;
            stats.record(OpKind::Scan, started, out.rows());
            Ok(out)
        }
        Plan::Filter { input, predicate } => {
            let batch = execute_with_stats(input, ctx, opts, stats)?;
            let started = Instant::now();
            let sel = batch.filter(predicate, None)?;
            let out = if sel.len() == batch.rows() { batch } else { batch.gather(&sel) };
            stats.record(OpKind::Filter, started, out.rows());
            Ok(out)
        }
        Plan::Project { input, exprs } => {
            let batch = execute_with_stats(input, ctx, opts, stats)?;
            let started = Instant::now();
            let mut cols = Vec::with_capacity(exprs.len());
            for (e, t) in exprs {
                cols.push(batch.eval_expr(e, *t)?);
            }
            let out = Batch::new(cols);
            stats.record(OpKind::Project, started, out.rows());
            Ok(out)
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
            let started = Instant::now();
            let table = JoinTable::build(&right_batch, right_keys);
            let us = stats.record(OpKind::JoinBuild, started, right_batch.rows());
            s2_exec::obs::histogram!("query.join.build_us").record(us);
            let started = Instant::now();
            let out = table.probe(&left_batch, left_keys, *join_type, residual.as_ref())?;
            let us = stats.record(OpKind::JoinProbe, started, out.rows());
            s2_exec::obs::histogram!("query.join.probe_us").record(us);
            Ok(out)
        }
        Plan::Aggregate { input, group_by, aggregates } => {
            // Aggregate-over-scan fuses into the encoded-domain path: group
            // keys on dictionary codes, typed accumulation lanes, no
            // intermediate batch. Bit-identical to scan + hash_aggregate.
            let (started, out) = if let Plan::Scan { table, projection, filter } = input.as_ref() {
                let started = Instant::now();
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
                (started, batch)
            } else {
                let batch = execute_with_stats(input, ctx, opts, stats)?;
                let started = Instant::now();
                (started, hash_aggregate(&batch, group_by, aggregates)?)
            };
            let us = stats.record(OpKind::Aggregate, started, out.rows());
            s2_exec::obs::histogram!("query.aggregate_us").record(us);
            Ok(out)
        }
        Plan::Sort { input, keys, limit } => {
            let batch = execute_with_stats(input, ctx, opts, stats)?;
            let started = Instant::now();
            let out = sort_batch(&batch, keys, *limit);
            stats.record(OpKind::Sort, started, out.rows());
            Ok(out)
        }
        Plan::Limit { input, n } => {
            let batch = execute_with_stats(input, ctx, opts, stats)?;
            let started = Instant::now();
            let sel: Vec<u32> = (0..batch.rows().min(*n) as u32).collect();
            let out = batch.gather(&sel);
            stats.record(OpKind::Sort, started, out.rows());
            Ok(out)
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
