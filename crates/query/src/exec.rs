//! The plan executor.
//!
//! **Joins** (paper §5.1's adaptive join, one path). At every join the input
//! the shared estimator ([`crate::stats`]) puts smaller runs first
//! ([`stats::runs_first`]). Each of its key lanes becomes a typed
//! [`KeyFilter`] that travels down the other input's plan to the scan
//! producing that key column, where it is one more scan clause: min/max
//! segment elimination (an empty set eliminates every segment), a
//! secondary-index probe for a small exact set, evaluation once per
//! dictionary entry on encoded columns, and the `(1-P)/cost` ranking and
//! decision cache — and a scan drops it on segments where it keeps nearly
//! every row. Filters travel through `Filter`, a bare-column `Project`, both
//! inputs of an Inner join, the left (preserved) input of Left/Semi/Anti, an
//! `Aggregate`'s group-by columns and a `Sort` without a limit; never
//! through a `Limit` or a top-N. A filter reaches the left input of its own
//! join only for Inner and Semi joins (Left and Anti joins must see every
//! unmatched left row). A filter never rejects a key the join would match
//! and the join re-checks every pair, so where filters land changes how
//! many rows flow, never the result.
//!
//! The hash table is built on the input that came out smaller for Inner
//! joins, and on the right input for Left/Semi/Anti; a table built on the
//! left input restores ascending (left row, right row) output order, so
//! the output — and every f64 sum above it — is the same either way.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::Arc;
use std::time::Instant;

use s2_common::{Result, Value};
use s2_core::TableSnapshot;
use s2_exec::{
    hash_aggregate, scan_partitions, sort_batch, Batch, Expr, JoinTable, JoinType, KeyFilter,
    ScanOptions, ScanStats,
};

use crate::plan::Plan;
use crate::stats::{self, Side, TableStats};

/// Source of table snapshots for a query: a single partition or (in the
/// cluster layer) an aggregator that unions partitions.
pub trait QueryContext {
    /// Resolve a table to one or more snapshots whose scan results are
    /// unioned (one per partition holding a shard of the table).
    fn snapshots(&self, table: &str) -> Result<Vec<Arc<TableSnapshot>>>;
}

/// Execution options.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Options forwarded to every table scan.
    pub scan: ScanOptions,
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
    /// Joins whose first side's key set reached at least one scan of the
    /// other side (join index filters).
    pub join_index_filters: usize,
    /// Joins no key set of which reached a scan: plain hash joins.
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
    let mut exec =
        Executor { ctx, opts, stats, tables: RefCell::new(HashMap::new()), reached: Vec::new() };
    exec.run(plan, Vec::new())
}

/// A key filter on its way down a plan: `pos` is the column it tests, as a
/// position of the current node's output; `join` indexes
/// [`Executor::reached`].
#[derive(Clone)]
struct Pushed {
    pos: usize,
    filter: Arc<KeyFilter>,
    join: usize,
}

impl Pushed {
    fn at(&self, pos: usize) -> Pushed {
        Pushed { pos, ..self.clone() }
    }
}

struct Executor<'a> {
    ctx: &'a dyn QueryContext,
    opts: &'a ExecOptions,
    stats: &'a mut ExecStats,
    /// Table statistics for the estimator, collected once per table.
    tables: RefCell<HashMap<String, Option<Arc<TableStats>>>>,
    /// Per join that pushed key filters: whether one reached a scan.
    reached: Vec<bool>,
}

impl Executor<'_> {
    fn table_stats(&self, table: &str) -> Option<Arc<TableStats>> {
        if let Some(s) = self.tables.borrow().get(table) {
            return s.clone();
        }
        let s = self.ctx.snapshots(table).ok().map(|snaps| Arc::new(TableStats::collect(&snaps)));
        self.tables.borrow_mut().insert(table.to_string(), s.clone());
        s
    }

    fn estimate(&self, plan: &Plan) -> stats::Estimate {
        stats::estimate(plan, &|t| self.table_stats(t))
    }

    /// Execute `plan`, with `pushed` key filters over its output columns.
    fn run(&mut self, plan: &Plan, pushed: Vec<Pushed>) -> Result<Batch> {
        match plan {
            Plan::Scan { table, projection, filter } => {
                let filter = self.with_key_filters(filter, projection, &pushed);
                self.scan(table, projection, filter.as_ref().as_ref())
            }
            Plan::Filter { input, predicate } => {
                let batch = self.run(input, pushed)?;
                let started = Instant::now();
                let sel = batch.filter(predicate, None)?;
                let out = if sel.len() == batch.rows() { batch } else { batch.gather(&sel) };
                self.stats.record(OpKind::Filter, started, out.rows());
                Ok(out)
            }
            Plan::Project { input, exprs } => {
                let through = pushed
                    .iter()
                    .filter_map(|p| match exprs[p.pos].0 {
                        Expr::Column(c) => Some(p.at(c)),
                        _ => None,
                    })
                    .collect();
                let batch = self.run(input, through)?;
                let started = Instant::now();
                let mut cols = Vec::with_capacity(exprs.len());
                for (e, t) in exprs {
                    cols.push(batch.eval_expr(e, *t)?);
                }
                let out = Batch::new(cols);
                self.stats.record(OpKind::Project, started, out.rows());
                Ok(out)
            }
            Plan::Join { left, right, left_keys, right_keys, join_type, residual } => {
                let left_width = left.width();
                let (mut into_left, mut into_right) = (Vec::new(), Vec::new());
                for p in pushed {
                    if p.pos < left_width {
                        into_left.push(p);
                    } else if *join_type == JoinType::Inner {
                        into_right.push(p.at(p.pos - left_width));
                    }
                }
                let first = stats::runs_first(&self.estimate(left), &self.estimate(right));
                let (first_plan, first_keys, other_plan, other_keys) = match first {
                    Side::Left => (left, left_keys, right, right_keys),
                    Side::Right => (right, right_keys, left, left_keys),
                };
                let (first_pushed, mut other_pushed) = match first {
                    Side::Left => (into_left, into_right),
                    Side::Right => (into_right, into_left),
                };
                let first_batch = self.run(first_plan, first_pushed)?;
                // Left and Anti joins keep unmatched left rows: nothing may
                // filter their left input.
                let may_filter =
                    first == Side::Left || matches!(join_type, JoinType::Inner | JoinType::Semi);
                let join = self.reached.len();
                self.reached.push(false);
                let started = Instant::now();
                if may_filter {
                    for (&fk, &ok) in first_keys.iter().zip(other_keys.iter()) {
                        let filter = Arc::new(KeyFilter::build(&first_batch.columns[fk]));
                        other_pushed.push(Pushed { pos: ok, filter, join });
                    }
                }
                let filter_ns = started.elapsed().as_nanos() as u64;
                let other_batch = self.run(other_plan, other_pushed)?;
                if self.reached[join] {
                    self.stats.join_index_filters += 1;
                } else {
                    self.stats.hash_joins += 1;
                }
                let (left_batch, right_batch) = match first {
                    Side::Left => (first_batch, other_batch),
                    Side::Right => (other_batch, first_batch),
                };
                self.join(
                    &left_batch,
                    &right_batch,
                    left_keys,
                    right_keys,
                    *join_type,
                    residual,
                    filter_ns,
                )
            }
            Plan::Aggregate { input, group_by, aggregates } => {
                let through: Vec<Pushed> = pushed
                    .iter()
                    .filter_map(|p| match group_by.get(p.pos) {
                        Some(Expr::Column(c)) => Some(p.at(*c)),
                        _ => None,
                    })
                    .collect();
                // Aggregate-over-scan fuses into the encoded-domain path:
                // every partition's morsels on the pool, group keys on
                // dictionary codes, no intermediate batch. Bit-identical to
                // scan + hash_aggregate at every thread count.
                let (started, out) =
                    if let Plan::Scan { table, projection, filter } = input.as_ref() {
                        let filter = self.with_key_filters(filter, projection, &through);
                        let started = Instant::now();
                        let snaps = self.ctx.snapshots(table)?;
                        let (batch, s) = s2_exec::scan_aggregate(
                            &snaps,
                            projection,
                            filter.as_ref().as_ref(),
                            group_by,
                            aggregates,
                            &self.opts.scan,
                        )?;
                        self.stats.scan.merge(&s);
                        (started, batch)
                    } else {
                        let batch = self.run(input, through)?;
                        let started = Instant::now();
                        (started, hash_aggregate(&batch, group_by, aggregates)?)
                    };
                let us = self.stats.record(OpKind::Aggregate, started, out.rows());
                s2_exec::obs::histogram!("query.aggregate_us").record(us);
                Ok(out)
            }
            Plan::Sort { input, keys, limit } => {
                // A top-N keeps the first rows of its whole input: filtering
                // that input would let other rows in.
                let through = if limit.is_none() { pushed } else { Vec::new() };
                let batch = self.run(input, through)?;
                let started = Instant::now();
                let out = sort_batch(&batch, keys, *limit);
                self.stats.record(OpKind::Sort, started, out.rows());
                Ok(out)
            }
            Plan::Limit { input, n } => {
                let batch = self.run(input, Vec::new())?;
                let started = Instant::now();
                let sel: Vec<u32> = (0..batch.rows().min(*n) as u32).collect();
                let out = batch.gather(&sel);
                self.stats.record(OpKind::Sort, started, out.rows());
                Ok(out)
            }
        }
    }

    /// `filter` with one key-filter clause per pushed filter (projection
    /// positions mapped to table ordinals), marking their joins reached.
    fn with_key_filters<'f>(
        &mut self,
        filter: &'f Option<Expr>,
        projection: &[usize],
        pushed: &[Pushed],
    ) -> Cow<'f, Option<Expr>> {
        if pushed.is_empty() {
            return Cow::Borrowed(filter);
        }
        let mut out = filter.clone();
        for p in pushed {
            self.reached[p.join] = true;
            let clause =
                Expr::KeyFilter(Box::new(Expr::Column(projection[p.pos])), p.filter.clone());
            out = Some(match out {
                Some(f) => f.and(clause),
                None => clause,
            });
        }
        Cow::Owned(out)
    }

    fn scan(&mut self, table: &str, projection: &[usize], filter: Option<&Expr>) -> Result<Batch> {
        let started = Instant::now();
        let snaps = self.ctx.snapshots(table)?;
        // Every partition snapshot's surviving segments and rowstore tail
        // go through one morsel run, like the paper's leaves ("leaf nodes
        // ... are responsible for the bulk of compute"); rows come back in
        // partition order.
        let (out, s) = scan_partitions(&snaps, projection, filter, &self.opts.scan)?;
        self.stats.scan.merge(&s);
        self.stats.record(OpKind::Scan, started, out.rows());
        Ok(out)
    }

    /// Hash-join two executed inputs: an Inner join builds on the smaller
    /// batch, the others on the right one. `filter_ns` (the key filters'
    /// build) is charged to the build.
    #[allow(clippy::too_many_arguments)]
    fn join(
        &mut self,
        left: &Batch,
        right: &Batch,
        left_keys: &[usize],
        right_keys: &[usize],
        join_type: JoinType,
        residual: &Option<Expr>,
        filter_ns: u64,
    ) -> Result<Batch> {
        let build_left = join_type == JoinType::Inner && left.rows() < right.rows();
        let started = Instant::now();
        let table = if build_left {
            JoinTable::build(left, left_keys)
        } else {
            JoinTable::build(right, right_keys)
        };
        let built_rows = if build_left { left.rows() } else { right.rows() };
        let us = self.stats.record(OpKind::JoinBuild, started, built_rows);
        self.stats.ops[OpKind::JoinBuild as usize].self_ns += filter_ns;
        s2_exec::obs::histogram!("query.join.build_us").record(us);
        let started = Instant::now();
        let out = if build_left {
            table.probe_inner_from_right(right, right_keys, residual.as_ref())?
        } else {
            table.probe(left, left_keys, join_type, residual.as_ref())?
        };
        let us = self.stats.record(OpKind::JoinProbe, started, out.rows());
        s2_exec::obs::histogram!("query.join.probe_us").record(us);
        Ok(out)
    }
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
