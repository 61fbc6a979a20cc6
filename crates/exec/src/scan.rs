//! The adaptive table scan (paper §5), morsel-parallel, encoded-domain
//! aware.
//!
//! Data access has three steps: (1) find the segments to read — global
//! secondary-index probes first, then min/max metadata elimination (§5.1);
//! (2) run filters to find the rows in each segment — choosing per segment
//! between index postings, encoded filters, regular filters and group
//! filters, and dynamically reordering clauses by `(1 - P) / cost` measured
//! on a sample (§5.2); (3) selectively decode only the projected columns for
//! the rows that survived (late materialization).
//!
//! In step (2), every clause is answered by the vectorized evaluator
//! ([`crate::veval`]), so a row is filtered the same way — same verdict,
//! same error — whichever LSM level and encoding hold it, and under the
//! conjunct rule ([`crate::veval::narrow`]) a clause's error counts only on
//! rows every other clause accepts, whatever order the planner picks.
//! Clauses over dictionary/RLE columns evaluate once per segment over the
//! code domain — one accept bit per dictionary entry or run
//! ([`s2_encoding::CodePredicate`]) — and every row is answered by a code
//! lookup into that bitmap; remaining clauses, and every clause over
//! rowstore rows, evaluate over decoded typed column lanes. Aggregations
//! directly over a scan can additionally bypass materialization entirely
//! via the fused encoded-domain path in [`crate::encoded`].
//!
//! Parallelism: step (1) and the per-segment *skip* checks run on the
//! calling thread for every partition snapshot (they are cheap and their
//! order defines the stats). What survives is one flat morsel list
//! ([`morsels`]): partition by partition, each surviving segment, then the
//! partition's rowstore (L0) tail. The list goes through one `run` on the
//! shared [`crate::pool`] — each morsel filtered, decoded and materialized
//! independently — and the fragments are reassembled **in list order**, so
//! results are byte-identical at every thread count. The fused aggregate
//! ([`crate::encoded`]) runs the same list. Scans whose candidate rows fit
//! in a single morsel ([`SMALL_SCAN_INLINE_ROWS`]) skip the pool and run
//! inline: pool handoff costs more than it saves on sub-morsel work. The
//! §5.2 sampling pass is amortized by the per-segment [`crate::cache`] of
//! planning decisions.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use s2_common::{DataType, Error, Result, Row, Schema, Value};
use s2_core::{SegmentSnap, TableSnapshot};
use s2_encoding::{CodePredicate, ColumnVector};

use crate::batch::Batch;
use crate::cache::{self, ClauseStrategy, PlannedClause};
use crate::expr::Expr;
use crate::pool::{self, ScanPool};
use crate::veval;

/// Scans whose total candidate rows are at or below this run inline on the
/// calling thread even when a pool is available: the handoff + wakeup cost
/// of a sub-morsel scan exceeds the scan itself (the `live_revenue` bench
/// point regressed 2.4× at threads≥2 before this gate).
pub const SMALL_SCAN_INLINE_ROWS: usize = 4096;

/// Executing threads for scan work over `candidate_rows` rows: one (inline
/// on the calling thread) at or below [`SMALL_SCAN_INLINE_ROWS`], else the
/// pool size `opts.threads` resolves to. The one inline gate, for plain
/// scans and fused aggregates alike.
pub fn scan_threads(candidate_rows: usize, opts: &ScanOptions) -> usize {
    if candidate_rows > SMALL_SCAN_INLINE_ROWS {
        pool::effective_threads(opts.threads)
    } else {
        1
    }
}

/// Rows sampled per segment for §5.2 clause costing.
const SAMPLE_ROWS: usize = 1024;

/// Index probes are skipped when the probe keys exceed `rows /
/// INDEX_KEY_DIVISOR` (paper §5.1: "dynamically disables the use of a
/// secondary index if the number of keys to look up is too high relative to
/// the table size").
const INDEX_KEY_DIVISOR: usize = 64;

/// A join key filter is dropped on a segment whose sample it passes at
/// more than this rate (see [`apply_clauses`]).
const KEY_FILTER_DROP_PASS_RATE: f64 = 0.9;

/// Knobs controlling the adaptive machinery — each maps to an ablation bench.
#[derive(Debug, Clone)]
pub struct ScanOptions {
    /// Use secondary indexes for equality/IN clauses.
    pub use_index: bool,
    /// Allow encoded execution (filters on compressed data).
    pub use_encoded: bool,
    /// Dynamically reorder filter clauses by `(1-P)/cost`.
    pub adaptive_reorder: bool,
    /// Executing threads for scan morsels
    /// (0 = `S2_SCAN_THREADS` env, falling back to available parallelism;
    /// 1 = strictly serial on the calling thread).
    pub threads: usize,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions { use_index: true, use_encoded: true, adaptive_reorder: true, threads: 0 }
    }
}

/// Counters describing what a scan actually did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ScanStats {
    /// Segments in the snapshot.
    pub segments_total: usize,
    /// Segments skipped by the secondary index.
    pub segments_skipped_index: usize,
    /// Segments skipped by min/max metadata.
    pub segments_skipped_minmax: usize,
    /// Clauses answered from index postings.
    pub index_filters: usize,
    /// Clause evaluations done on compressed data.
    pub encoded_filters: usize,
    /// Clause evaluations done on decoded data.
    pub regular_filters: usize,
    /// Clause *groups* evaluated together on decoded data (paper §5.2's
    /// group filter, chosen when every clause in the run is non-selective).
    pub group_filters: usize,
    /// Rows emitted.
    pub rows_output: usize,
    /// Segments whose §5.2 planning pass was answered from the decision
    /// cache (no sampling).
    pub decision_cache_hits: usize,
    /// Segments that had to run the sampling pass.
    pub decision_cache_misses: usize,
    /// Clauses answered from a compiled code-domain bitmap
    /// (`ClauseStrategy::EncodedBitmap`), a subset of `encoded_filters`.
    pub encoded_clause_total: usize,
    /// Rows aggregated by the fused encoded-domain path without building
    /// an intermediate batch (`crate::encoded`).
    pub encoded_agg_rows: usize,
    /// Row-decodes skipped by the fused path: projected columns that no
    /// group key or aggregate references are never decoded.
    pub decode_skipped_rows: usize,
}

impl ScanStats {
    /// Fold another stats block into this one (per-worker fragments, and
    /// per-scan aggregation in the query executor).
    pub fn merge(&mut self, other: &ScanStats) {
        self.segments_total += other.segments_total;
        self.segments_skipped_index += other.segments_skipped_index;
        self.segments_skipped_minmax += other.segments_skipped_minmax;
        self.index_filters += other.index_filters;
        self.encoded_filters += other.encoded_filters;
        self.regular_filters += other.regular_filters;
        self.group_filters += other.group_filters;
        self.rows_output += other.rows_output;
        self.decision_cache_hits += other.decision_cache_hits;
        self.decision_cache_misses += other.decision_cache_misses;
        self.encoded_clause_total += other.encoded_clause_total;
        self.encoded_agg_rows += other.encoded_agg_rows;
        self.decode_skipped_rows += other.decode_skipped_rows;
    }
}

/// One queued segment morsel: the segment plus the initial selection the
/// caller-side skip checks produced.
pub(crate) struct SegMorsel<'a> {
    pub(crate) seg: &'a SegmentSnap,
    pub(crate) sel: Option<Vec<u32>>,
}

/// What every morsel of one partition snapshot shares: the caller-thread
/// front half of its scan (index probe, residual-clause extraction,
/// rowstore row collection).
pub(crate) struct Part<'a> {
    /// Conjuncts not answered by the index probe.
    pub(crate) residual: Vec<Expr>,
    /// The residual's decision-cache fingerprint.
    pub(crate) fingerprint: u64,
    /// The snapshot's table schema.
    pub(crate) schema: &'a Schema,
    /// The table's Arc address: the decision cache's table key (segment ids
    /// repeat across tables).
    pub(crate) table_key: usize,
    /// Live rowstore (L0) rows — probe-matched when a probe ran.
    pub(crate) rowstore_rows: Vec<Row>,
}

/// One morsel of a scan, in scan order.
pub(crate) enum Step<'p, 'a> {
    /// A surviving segment of the partition.
    Segment(&'p Part<'a>, SegMorsel<'a>),
    /// The partition's live rowstore rows.
    Tail(&'p Part<'a>),
    /// The next partition's front half failed: its error counts after every
    /// morsel before it.
    Failed(Error),
}

impl Step<'_, '_> {
    /// Rows still under consideration.
    fn candidate_rows(&self) -> usize {
        match self {
            Step::Segment(_, m) => m.sel.as_ref().map_or(m.seg.core.meta.row_count, Vec::len),
            Step::Tail(part) => part.rowstore_rows.len(),
            Step::Failed(_) => 0,
        }
    }
}

/// The one morsel list of a scan over `snapshots` (one per partition), with
/// the executing threads its candidate rows call for ([`scan_threads`]):
/// partition by partition, each surviving segment, then the partition's
/// rowstore tail. Every partition's front half runs here, on the calling
/// thread, into `parts`, which the steps borrow; segment, skip and index
/// counters land in `stats`. A partition whose front half fails ends the
/// list with [`Step::Failed`].
pub(crate) fn morsels<'p, 'a, S: Borrow<TableSnapshot>>(
    parts: &'p mut Vec<Part<'a>>,
    snapshots: &'a [S],
    filter: Option<&Expr>,
    opts: &ScanOptions,
    stats: &mut ScanStats,
) -> (Vec<Step<'p, 'a>>, usize) {
    let mut segments = Vec::with_capacity(snapshots.len());
    let mut failed = None;
    for snapshot in snapshots {
        let snapshot = snapshot.borrow();
        stats.segments_total += snapshot.segments.len();
        match prepare_scan(snapshot, filter, opts, stats) {
            Ok((part, morsels)) => {
                parts.push(part);
                segments.push(morsels);
            }
            Err(e) => {
                failed = Some(Step::Failed(e));
                break;
            }
        }
    }
    let parts: &'p Vec<Part<'a>> = parts;
    let mut steps = Vec::new();
    for (part, morsels) in parts.iter().zip(segments) {
        steps.extend(morsels.into_iter().map(|m| Step::Segment(part, m)));
        steps.push(Step::Tail(part));
    }
    steps.extend(failed);
    let candidate_rows = steps.iter().map(Step::candidate_rows).sum();
    (steps, scan_threads(candidate_rows, opts))
}

/// Scan `snapshot`, returning the projected columns of rows passing `filter`.
pub fn scan(
    snapshot: &TableSnapshot,
    projection: &[usize],
    filter: Option<&Expr>,
    opts: &ScanOptions,
) -> Result<(Batch, ScanStats)> {
    scan_partitions(std::slice::from_ref(snapshot), projection, filter, opts)
}

/// Scan every snapshot of `snapshots` (one per partition of a table) as one
/// morsel list on the pool. The rows and stats are those of one [`scan`] per
/// snapshot, concatenated and summed in snapshot order, and the first error
/// in that order wins.
pub fn scan_partitions<S: Borrow<TableSnapshot>>(
    snapshots: &[S],
    projection: &[usize],
    filter: Option<&Expr>,
    opts: &ScanOptions,
) -> Result<(Batch, ScanStats)> {
    let mut stats = ScanStats::default();
    let mut parts = Vec::with_capacity(snapshots.len());
    let (steps, threads) = morsels(&mut parts, snapshots, filter, opts, &mut stats);
    let fragments = ScanPool::global().run(threads, steps, |step| {
        let mut stats = ScanStats::default();
        let batch = match step {
            Step::Segment(part, m) => scan_segment(part, m, opts, projection, &mut stats)?,
            Step::Tail(part) => rowstore_tail(part, projection, &mut stats)?,
            Step::Failed(e) => return Err(e),
        };
        Ok((batch, stats))
    });

    // Deterministic reassembly: fragments arrive in scan order.
    let mut out_batches: Vec<Batch> = Vec::new();
    for fragment in fragments {
        let (batch, frag_stats) = fragment?;
        stats.merge(&frag_stats);
        out_batches.extend(batch);
    }
    let result = match snapshots.first() {
        Some(snapshot) if out_batches.is_empty() => {
            let schema = snapshot.borrow().schema();
            let types: Vec<DataType> =
                projection.iter().map(|&c| schema.column(c).data_type).collect();
            Batch::empty(&types)
        }
        _ => Batch::concat(out_batches)?,
    };
    record_scan_stats(&stats);
    Ok((result, stats))
}

/// Filter and project a partition's live rowstore (L0) rows: `None` when no
/// row passes. Clauses run through the same vectorized evaluator as decoded
/// segment columns ([`eval_regular`]), under the same conjunct rule
/// ([`Batch::filter`]), so a predicate's outcome (rows or error) does not
/// change when its rows are flushed.
pub(crate) fn rowstore_tail(
    part: &Part,
    projection: &[usize],
    stats: &mut ScanStats,
) -> Result<Option<Batch>> {
    let (rows, residual) = (&part.rowstore_rows, &part.residual);
    if rows.is_empty() {
        return Ok(None);
    }
    // Build a batch over projection + residual-filter columns.
    let mut needed: Vec<usize> = projection.to_vec();
    for c in residual {
        needed.extend(c.referenced_columns());
    }
    needed.sort_unstable();
    needed.dedup();
    let types: Vec<DataType> = needed.iter().map(|&c| part.schema.column(c).data_type).collect();
    let mut batch = Batch::from_rows(rows, &needed, &types)?;
    let pos: HashMap<usize, usize> = needed.iter().enumerate().map(|(i, &c)| (c, i)).collect();
    if !residual.is_empty() {
        let remapped = residual.iter().map(|c| c.remap_columns(&|c| pos[&c])).collect();
        let sel = batch.filter(&Expr::And(remapped), None)?;
        stats.regular_filters += residual.len();
        if sel.len() < batch.rows() {
            batch = batch.gather(&sel);
        }
    }
    if batch.rows() == 0 {
        return Ok(None);
    }
    stats.rows_output += batch.rows();
    let cols: Vec<ColumnVector> =
        projection.iter().map(|c| batch.columns[pos[c]].clone()).collect();
    Ok(Some(Batch::new(cols)))
}

/// Run the caller-thread front half of one snapshot's scan: split the
/// filter, probe secondary indexes, apply per-segment skip checks, and
/// collect the live rowstore rows. Returns the partition's shared part and
/// its surviving segments in segment order. Counters for skips and index
/// filters land in `stats`.
fn prepare_scan<'a>(
    snapshot: &'a TableSnapshot,
    filter: Option<&Expr>,
    opts: &ScanOptions,
    stats: &mut ScanStats,
) -> Result<(Part<'a>, Vec<SegMorsel<'a>>)> {
    let schema = snapshot.schema();
    let table_key = Arc::as_ptr(&snapshot.table) as usize;
    let mut conjuncts: Vec<Expr> = match filter {
        None => Vec::new(),
        Some(f) => f.clone().split_conjuncts(),
    };
    // A join key set holding every value the segments' ranges allow would
    // pass every segment row: leave it out (the join re-checks the keys of
    // any rowstore row it would have rejected).
    conjuncts.retain(|c| match c.as_key_filter() {
        Some((col, kf)) => {
            !segments_range(snapshot, col).is_some_and(|(lo, hi)| kf.covers(&lo, &hi))
        }
        None => true,
    });

    // An empty join key set passes no row: every segment is eliminated.
    if conjuncts.iter().any(|c| c.as_key_filter().is_some_and(|(_, kf)| kf.is_empty())) {
        stats.segments_skipped_minmax += snapshot.segments.len();
        let part = Part {
            residual: conjuncts,
            fingerprint: 0,
            schema,
            table_key,
            rowstore_rows: Vec::new(),
        };
        return Ok((part, Vec::new()));
    }

    // ---- step 1a: secondary-index probe --------------------------------
    let total_rows = snapshot.live_row_count().max(1);
    let key_budget = (total_rows / INDEX_KEY_DIVISOR).max(4);
    let mut probe_result = None;
    let mut consumed: Vec<usize> = Vec::new(); // conjunct indices answered by the index
    if opts.use_index {
        // Collect single-column equality clauses on indexed columns.
        let mut eq_cols: Vec<usize> = Vec::new();
        let mut eq_vals: Vec<Value> = Vec::new();
        let mut eq_idx: Vec<usize> = Vec::new();
        for (i, c) in conjuncts.iter().enumerate() {
            if let Some((col, v)) = c.as_eq_literal() {
                if snapshot.table.columns_indexed(&[col]) && !eq_cols.contains(&col) {
                    eq_cols.push(col);
                    eq_vals.push(v);
                    eq_idx.push(i);
                }
            }
        }
        if !eq_cols.is_empty() {
            if let Some(probe) = snapshot.index_probe(&eq_cols, &eq_vals)? {
                probe_result = Some(probe);
                consumed = eq_idx;
                stats.index_filters += eq_cols.len();
            }
        } else {
            // IN-list or join key-set probe on one indexed column, subject
            // to the key budget.
            for (i, c) in conjuncts.iter().enumerate() {
                let Some((col, vals)) = probe_members(c, snapshot) else { continue };
                if vals.len() > key_budget {
                    continue;
                }
                if let Some(probe) = snapshot.index_probe_any(col, vals)? {
                    probe_result = Some(probe);
                    consumed = vec![i];
                    stats.index_filters += 1;
                    break;
                }
            }
        }
    }

    let residual: Vec<Expr> = conjuncts
        .iter()
        .enumerate()
        .filter(|(i, _)| !consumed.contains(i))
        .map(|(_, c)| c.clone())
        .collect();
    let fingerprint =
        if residual.is_empty() { 0 } else { cache::fingerprint(&residual, opts.use_encoded) };

    // Ranges for min/max elimination come from *all* conjuncts.
    let ranges: Vec<(usize, Option<Value>, Option<Value>)> =
        conjuncts.iter().filter_map(Expr::as_column_range).collect();

    // ---- per-segment skip checks (caller thread) ------------------------
    // Map segment id -> probed rows when an index probe ran.
    let probed_rows: Option<HashMap<u64, Vec<u32>>> = probe_result
        .as_ref()
        .map(|p| p.segments.iter().map(|(core, rows)| (core.meta.id, rows.clone())).collect());

    let mut morsels: Vec<SegMorsel> = Vec::new();
    for seg in &snapshot.segments {
        let meta = &seg.core.meta;
        // Index skipping: a probe that didn't return this segment rules it out.
        let initial_sel: Option<Vec<u32>> = match &probed_rows {
            Some(map) => match map.get(&meta.id) {
                Some(rows) => Some(rows.clone()),
                None => {
                    stats.segments_skipped_index += 1;
                    continue;
                }
            },
            None => None,
        };
        // Min/max elimination (§5.1: after the index check, which cheaply
        // reduced the candidate set).
        if ranges.iter().any(|(c, lo, hi)| !meta.may_overlap_range(*c, lo.as_ref(), hi.as_ref())) {
            stats.segments_skipped_minmax += 1;
            continue;
        }

        // Deleted-row filter (bit vector, not merge-on-read). `None` keeps
        // the "all rows" fast paths (e.g. RLE run-range emission) intact.
        let sel: Option<Vec<u32>> = match initial_sel {
            Some(s) => Some(s), // probe already applied the snapshot's bits
            None => {
                if seg.deleted.count_ones() == 0 {
                    None
                } else {
                    Some(
                        (0..meta.row_count as u32)
                            .filter(|&r| !seg.deleted.get(r as usize))
                            .collect(),
                    )
                }
            }
        };
        if sel.as_ref().is_some_and(Vec::is_empty) {
            continue;
        }
        morsels.push(SegMorsel { seg, sel });
    }

    // Rowstore (L0) rows: probe-matched when a probe ran, else all live.
    let rowstore_rows: Vec<Row> = match &probe_result {
        Some(p) => p.rowstore.iter().map(|(_, r)| r.clone()).collect(),
        None => snapshot.rowstore_rows().iter().map(|(_, r)| r.clone()).collect(),
    };

    Ok((Part { residual, fingerprint, schema, table_key, rowstore_rows }, morsels))
}

/// The members of an IN list, or of a join key set small enough to be
/// exact whose keys have the column's type (the index then finds exactly
/// the rows the join matches), with the column they test. A key set must
/// also be selective: at most `1 / INDEX_KEY_DIVISOR` of the column's
/// numeric value range, or its probes (each walking every posting of one
/// value) cost more than the scan they replace.
fn probe_members<'e>(clause: &'e Expr, snapshot: &TableSnapshot) -> Option<(usize, &'e [Value])> {
    if let Some(members) = clause.as_in_list() {
        return Some(members);
    }
    let (col, kf) = clause.as_key_filter()?;
    let same_type = kf.key_type() == snapshot.schema().column(col).data_type;
    let selective = match segments_range(snapshot, col) {
        Some((Value::Int(lo), Value::Int(hi))) => {
            (kf.keys() as i128) * (INDEX_KEY_DIVISOR as i128) <= hi as i128 - lo as i128 + 1
        }
        _ => true,
    };
    (same_type && selective && kf.key_type() != DataType::Double).then_some((col, kf.values()?))
}

/// Min and max of column `col` over the segments' metadata (`None` when
/// no segment holds a non-NULL value of it).
fn segments_range(snapshot: &TableSnapshot, col: usize) -> Option<(Value, Value)> {
    let mut out: Option<(Value, Value)> = None;
    for (lo, hi) in snapshot.segments.iter().filter_map(|s| s.core.meta.min_max[col].as_ref()) {
        out = Some(match out {
            None => (lo.clone(), hi.clone()),
            Some((a, b)) => (a.min(lo.clone()), b.max(hi.clone())),
        });
    }
    out
}

/// Filter and materialize one segment morsel: `None` when no row passes.
/// Runs on any pool thread; all state it touches is shared and immutable.
fn scan_segment(
    part: &Part,
    m: SegMorsel,
    opts: &ScanOptions,
    projection: &[usize],
    stats: &mut ScanStats,
) -> Result<Option<Batch>> {
    let sel = apply_clauses(part, m.seg, m.sel, opts, stats)?;
    if sel.as_ref().is_some_and(Vec::is_empty) {
        return Ok(None);
    }
    stats.rows_output += sel.as_ref().map_or(m.seg.core.meta.row_count, Vec::len);

    // Step 3: late materialization of the projection.
    let mut cols = Vec::with_capacity(projection.len());
    for &c in projection {
        cols.push(m.seg.core.reader.column(c)?.decode_vector(sel.as_deref())?);
    }
    Ok(Some(Batch::new(cols)))
}

/// Fold one scan's [`ScanStats`] into the global metrics registry, so
/// aggregate skip rates and filter-strategy choices are visible in a metrics
/// snapshot without threading per-query stats around. (Decision-cache
/// hit/miss counters are recorded at the cache itself.)
pub(crate) fn record_scan_stats(stats: &ScanStats) {
    s2_obs::counter!("exec.scan.scans").inc();
    s2_obs::counter!("exec.scan.segments_total").add(stats.segments_total as u64);
    s2_obs::counter!("exec.scan.segments_skipped_index").add(stats.segments_skipped_index as u64);
    s2_obs::counter!("exec.scan.segments_skipped_minmax").add(stats.segments_skipped_minmax as u64);
    s2_obs::counter!("exec.scan.index_filters").add(stats.index_filters as u64);
    s2_obs::counter!("exec.scan.encoded_filters").add(stats.encoded_filters as u64);
    s2_obs::counter!("exec.scan.regular_filters").add(stats.regular_filters as u64);
    s2_obs::counter!("exec.scan.group_filters").add(stats.group_filters as u64);
    s2_obs::counter!("exec.scan.rows_output").add(stats.rows_output as u64);
    s2_obs::counter!("exec.scan.encoded_clause_total").add(stats.encoded_clause_total as u64);
    s2_obs::counter!("exec.scan.encoded_agg_rows").add(stats.encoded_agg_rows as u64);
    s2_obs::counter!("exec.scan.decode_skipped_rows").add(stats.decode_skipped_rows as u64);
}

/// Evaluate residual clauses over one segment with per-segment strategy
/// choice and adaptive ordering. The plan (clause order, per-clause
/// strategy, sampled selectivities) is remembered in the decision cache,
/// keyed by the residual's fingerprint, so a repeated query skips the
/// sampling pass. A join key filter whose sample kept more than
/// [`KEY_FILTER_DROP_PASS_RATE`] of the rows is not run on the segment: the
/// join re-checks every key, so it would only cost time.
pub(crate) fn apply_clauses(
    part: &Part,
    seg: &SegmentSnap,
    sel: Option<Vec<u32>>,
    opts: &ScanOptions,
    stats: &mut ScanStats,
) -> Result<Option<Vec<u32>>> {
    let (residual, fp, table_key) = (&part.residual, part.fingerprint, part.table_key);
    if residual.is_empty() {
        return Ok(sel);
    }
    let seg_rows = seg.core.meta.row_count;
    let sel_len = |sel: &Option<Vec<u32>>| sel.as_ref().map_or(seg_rows, Vec::len);

    // Cache lookup: only adaptive plans are cached (non-adaptive planning
    // does no sampling, so there is nothing worth remembering).
    let use_cache = opts.adaptive_reorder;
    let deleted = seg.deleted.count_ones();
    let cached: Option<Vec<PlannedClause>> = if use_cache {
        cache::global().get(table_key, seg.core.meta.id, fp, deleted)
    } else {
        None
    };
    if use_cache {
        if cached.is_some() {
            stats.decision_cache_hits += 1;
        } else {
            stats.decision_cache_misses += 1;
        }
    }

    let planned: Vec<PlannedClause> = match cached {
        Some(plan) => plan,
        None => {
            // Plan: measure each clause on a sample of the current selection.
            struct Costed {
                clause: PlannedClause,
                priority: f64,
            }
            let mut costed: Vec<Costed> = Vec::with_capacity(residual.len());
            let sample: Vec<u32> = match &sel {
                Some(s) => s.iter().copied().take(SAMPLE_ROWS).collect(),
                None => (0..seg_rows.min(SAMPLE_ROWS) as u32).collect(),
            };
            for (idx, clause) in residual.iter().enumerate() {
                let cols = clause.referenced_columns();
                let single = cols.len() == 1;
                // Encoded execution pays a fixed cost proportional to the
                // compressed domain (dictionary entries / runs) and then
                // near-zero per row; it wins when the domain is small relative
                // to the rows under consideration (paper §5.2: "ideal with a
                // small set of possible values ... worse if the dictionary
                // size is greater than the number of rows that passed the
                // previous filters").
                let can_encode = opts.use_encoded && single && {
                    let reader = seg.core.reader.column(cols[0])?;
                    reader.encoding().supports_encoded_execution()
                        && reader
                            .encoded_domain_size()
                            .is_some_and(|domain| domain * 4 <= sel_len(&sel).max(1))
                };
                let strategy = if can_encode {
                    ClauseStrategy::EncodedBitmap
                } else {
                    ClauseStrategy::Regular
                };
                if !opts.adaptive_reorder {
                    costed.push(Costed {
                        clause: PlannedClause { idx, strategy, selectivity: 0.5 },
                        priority: 0.0,
                    });
                    continue;
                }
                // Time the chosen strategy on a prefix sample to estimate cost
                // and selectivity; clauses are then ordered by `(1-P)/cost`
                // (the paper's per-segment costing, §5.2). The cost in the
                // formula is the *projected full-selection* cost: a regular
                // filter scales linearly with rows, while an encoded filter's
                // cost is dominated by the fixed pass over its compressed
                // domain, which the sample already paid in full.
                let t0 = Instant::now();
                let mut scratch = ScanStats::default();
                let out = match strategy {
                    ClauseStrategy::EncodedBitmap => {
                        eval_encoded_bitmap(seg, clause, cols[0], Some(&sample), &mut scratch)
                    }
                    ClauseStrategy::Regular => eval_regular(seg, clause, &cols, Some(&sample)),
                };
                let sample_cost = t0.elapsed().as_nanos() as f64;
                let scale = sel_len(&sel).max(1) as f64 / sample.len().max(1) as f64;
                let est_total_cost = if can_encode { sample_cost } else { sample_cost * scale };
                // A clause that errors on the sample is planned last: the
                // conjunct rule decides whether its error counts.
                let (selectivity, priority) = match out {
                    Ok(out) => {
                        let selectivity = out.len() as f64 / sample.len().max(1) as f64;
                        (selectivity, (1.0 - selectivity) / est_total_cost.max(1.0))
                    }
                    Err(_) => (0.0, f64::NEG_INFINITY),
                };
                costed.push(Costed {
                    clause: PlannedClause { idx, strategy, selectivity },
                    priority,
                });
            }
            if opts.adaptive_reorder {
                costed.sort_by(|a, b| b.priority.total_cmp(&a.priority));
            }
            let plan: Vec<PlannedClause> = costed.into_iter().map(|c| c.clause).collect();
            if use_cache {
                cache::global().put(table_key, seg.core.meta.id, fp, deleted, plan.clone());
            }
            plan
        }
    };

    let droppable = |p: &PlannedClause| {
        opts.adaptive_reorder
            && p.selectivity > KEY_FILTER_DROP_PASS_RATE
            && residual[p.idx].as_key_filter().is_some()
    };
    let planned: Vec<PlannedClause> = planned.into_iter().filter(|p| !droppable(p)).collect();

    // Group filter (paper §5.2's fourth strategy): when adjacent clauses in
    // the chosen order are all non-selective ("most rows pass each individual
    // filter clause"), evaluating them together on the decoded columns avoids
    // the cost of combining selection vectors clause by clause. Encoded
    // clauses are never grouped — running on compressed data beats grouping.
    const GROUP_PASS_RATE: f64 = 0.75;
    let groupable = |p: &PlannedClause| {
        opts.adaptive_reorder
            && p.strategy == ClauseStrategy::Regular
            && p.selectivity >= GROUP_PASS_RATE
    };
    let mut steps: Vec<Vec<usize>> = Vec::new();
    for (i, p) in planned.iter().enumerate() {
        match steps.last_mut() {
            Some(run) if groupable(p) && run.last().is_some_and(|&j| groupable(&planned[j])) => {
                run.push(i)
            }
            _ => steps.push(vec![i]),
        }
    }
    veval::narrow(steps, sel, |step, sel| {
        if sel.as_ref().is_some_and(Vec::is_empty) {
            return Ok(Some(Vec::new()));
        }
        let sel = sel.as_deref();
        Ok(Some(match step {
            &[i] if planned[i].strategy == ClauseStrategy::EncodedBitmap => {
                let clause = &residual[planned[i].idx];
                let col = clause.referenced_columns()[0];
                stats.encoded_filters += 1;
                eval_encoded_bitmap(seg, clause, col, sel, stats)?
            }
            &[i] => {
                let clause = &residual[planned[i].idx];
                stats.regular_filters += 1;
                eval_regular(seg, clause, &clause.referenced_columns(), sel)?
            }
            run => {
                let combined = run
                    .iter()
                    .map(|&i| residual[planned[i].idx].clone())
                    .reduce(Expr::and)
                    .expect("a run of at least two clauses");
                stats.group_filters += 1;
                eval_regular(seg, &combined, &combined.referenced_columns(), sel)?
            }
        }))
    })
}

/// Regular filter: decode the clause's columns for the selected rows, then
/// evaluate the predicate over the decoded lanes ([`crate::veval`]).
fn eval_regular(
    seg: &SegmentSnap,
    clause: &Expr,
    cols: &[usize],
    sel: Option<&[u32]>,
) -> Result<Vec<u32>> {
    let mut vectors = Vec::with_capacity(cols.len());
    for &c in cols {
        vectors.push(seg.core.reader.column(c)?.decode_vector(sel)?);
    }
    let pos: HashMap<usize, usize> = cols.iter().enumerate().map(|(i, &c)| (c, i)).collect();
    let remapped = clause.remap_columns(&|c| pos[&c]);
    let rows = sel.map_or(seg.core.meta.row_count, <[u32]>::len);
    let mask = veval::filter_mask(&vectors, rows, &remapped)?;
    Ok(match sel {
        Some(sel) => mask.iter_ones().map(|i| sel[i]).collect(),
        None => mask.iter_ones().map(|i| i as u32).collect(),
    })
}

/// Encoded-domain bitmap filter (`ClauseStrategy::EncodedBitmap`): run the
/// clause once over the column's code domain — every dictionary entry / run
/// value as one [`crate::veval`] lane — into an accept bitmap, then answer
/// every candidate row with a code lookup; no `Value` is built per row.
/// Falls back to the regular filter when the encoding has no code domain
/// (plain/bit-packed data), and when the clause errors on some domain entry:
/// only the candidate rows decide whether the scan fails, and an entry may
/// be held by deleted or already-filtered rows alone.
fn eval_encoded_bitmap(
    seg: &SegmentSnap,
    clause: &Expr,
    col: usize,
    sel: Option<&[u32]>,
    stats: &mut ScanStats,
) -> Result<Vec<u32>> {
    let reader = seg.core.reader.column(col)?;
    if let Some(domain) = reader.domain_vector() {
        let over_domain = clause.remap_columns(&|_| 0);
        let entries = domain.len();
        if let Ok(accept) = veval::filter_mask(&[domain], entries, &over_domain) {
            stats.encoded_clause_total += 1;
            return Ok(reader.predicate_rows(&CodePredicate::new(accept), sel));
        }
    }
    eval_regular(seg, clause, &[col], sel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2_common::schema::ColumnDef;
    use s2_common::{Schema, TableOptions};
    use s2_core::{MemFileStore, Partition};
    use s2_wal::Log;
    use std::sync::Arc;

    fn setup() -> (Arc<Partition>, u32) {
        let p = Partition::new("p0", Arc::new(Log::in_memory()), Arc::new(MemFileStore::new()));
        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int64),
            ColumnDef::new("grp", DataType::Str),
            ColumnDef::new("amount", DataType::Double),
        ])
        .unwrap();
        let opts = TableOptions::new()
            .with_sort_key(vec![0])
            .with_unique("pk", vec![0])
            .with_index("by_grp", vec![1])
            .with_segment_rows(100);
        let t = p.create_table("tx", schema, opts).unwrap();
        // 3 segments of 100 rows, plus 25 rowstore rows.
        for batch in 0..3i64 {
            let mut txn = p.begin();
            for i in 0..100i64 {
                let id = batch * 100 + i;
                txn.insert(
                    t,
                    Row::new(vec![
                        Value::Int(id),
                        Value::str(["a", "b", "c", "d"][(id % 4) as usize]),
                        Value::Double(id as f64),
                    ]),
                )
                .unwrap();
            }
            txn.commit().unwrap();
            p.flush_table(t, true).unwrap();
        }
        let mut txn = p.begin();
        for id in 300..325i64 {
            txn.insert(
                t,
                Row::new(vec![
                    Value::Int(id),
                    Value::str(["a", "b", "c", "d"][(id % 4) as usize]),
                    Value::Double(id as f64),
                ]),
            )
            .unwrap();
        }
        txn.commit().unwrap();
        (p, t)
    }

    #[test]
    fn full_scan_no_filter() {
        let (p, t) = setup();
        let snap = p.read_snapshot();
        let (batch, stats) =
            scan(snap.table(t).unwrap(), &[0, 2], None, &ScanOptions::default()).unwrap();
        assert_eq!(batch.rows(), 325);
        assert_eq!(stats.segments_total, 3);
    }

    #[test]
    fn minmax_segment_elimination() {
        let (p, t) = setup();
        let snap = p.read_snapshot();
        // ids 0..99 live in segment 1 only (sort key = id).
        let f = Expr::between(0, 10i64, 20i64);
        let (batch, stats) =
            scan(snap.table(t).unwrap(), &[0], Some(&f), &ScanOptions::default()).unwrap();
        assert_eq!(batch.rows(), 11);
        assert_eq!(stats.segments_skipped_minmax, 2);
    }

    #[test]
    fn index_probe_scan() {
        let (p, t) = setup();
        let snap = p.read_snapshot();
        let f = Expr::eq(0, 42i64);
        let (batch, stats) =
            scan(snap.table(t).unwrap(), &[0, 1], Some(&f), &ScanOptions::default()).unwrap();
        assert_eq!(batch.rows(), 1);
        assert_eq!(batch.value(0, 0), Value::Int(42));
        assert!(stats.index_filters >= 1);
        assert!(stats.segments_skipped_index >= 2);
    }

    #[test]
    fn index_disabled_falls_back() {
        let (p, t) = setup();
        let snap = p.read_snapshot();
        let f = Expr::eq(0, 42i64);
        let opts = ScanOptions { use_index: false, ..Default::default() };
        let (batch, stats) = scan(snap.table(t).unwrap(), &[0], Some(&f), &opts).unwrap();
        assert_eq!(batch.rows(), 1);
        assert_eq!(stats.index_filters, 0);
    }

    #[test]
    fn secondary_index_on_group_column() {
        let (p, t) = setup();
        let snap = p.read_snapshot();
        let f = Expr::eq(1, "b");
        let (batch, _) =
            scan(snap.table(t).unwrap(), &[0, 1], Some(&f), &ScanOptions::default()).unwrap();
        // ids where id % 4 == 1: 1, 5, ..., 321 -> 81 rows.
        assert_eq!(batch.rows(), 81);
        for i in 0..batch.rows() {
            assert_eq!(batch.value(1, i), Value::str("b"));
        }
    }

    #[test]
    fn conjunction_of_index_and_residual() {
        let (p, t) = setup();
        let snap = p.read_snapshot();
        let f = Expr::eq(1, "b").and(Expr::cmp(2, crate::expr::CmpOp::Lt, 50.0));
        let (batch, _) =
            scan(snap.table(t).unwrap(), &[0], Some(&f), &ScanOptions::default()).unwrap();
        // id % 4 == 1 and id < 50: 1,5,...,49 -> 13 rows.
        assert_eq!(batch.rows(), 13);
    }

    #[test]
    fn in_list_probe() {
        let (p, t) = setup();
        let snap = p.read_snapshot();
        let f = Expr::InList(
            Box::new(Expr::Column(0)),
            vec![Value::Int(3), Value::Int(150), Value::Int(310), Value::Int(9999)],
        );
        let (batch, _) =
            scan(snap.table(t).unwrap(), &[0], Some(&f), &ScanOptions::default()).unwrap();
        assert_eq!(batch.rows(), 3);
    }

    #[test]
    fn in_list_repeated_member_returns_each_row_once() {
        let (p, t) = setup();
        let snap = p.read_snapshot();
        // 310 is a rowstore row, 42 a segment row: each comes back once
        // however often (and in whichever numeric type) the list names it.
        for members in [
            vec![Value::Int(310), Value::Int(310)],
            vec![Value::Int(310), Value::Double(310.0)],
            vec![Value::Int(42), Value::Int(310), Value::Double(42.0), Value::Int(310)],
        ] {
            let f = Expr::InList(Box::new(Expr::Column(0)), members.clone());
            let rows = |use_index| {
                let opts = ScanOptions { use_index, ..Default::default() };
                let (batch, stats) = scan(snap.table(t).unwrap(), &[0], Some(&f), &opts).unwrap();
                assert_eq!(stats.index_filters > 0, use_index, "{members:?}");
                (0..batch.rows()).map(|i| batch.value(0, i)).collect::<Vec<_>>()
            };
            assert_eq!(rows(true), rows(false), "{members:?}");
            assert_eq!(rows(true).len(), members.len() / 2, "{members:?}");
        }
    }

    #[test]
    fn deleted_rows_filtered() {
        let (p, t) = setup();
        let mut txn = p.begin();
        assert!(txn.delete_unique(t, &[Value::Int(10)]).unwrap());
        assert!(txn.delete_unique(t, &[Value::Int(310)]).unwrap()); // rowstore row
        txn.commit().unwrap();
        let snap = p.read_snapshot();
        let (batch, _) = scan(snap.table(t).unwrap(), &[0], None, &ScanOptions::default()).unwrap();
        assert_eq!(batch.rows(), 323);
    }

    #[test]
    fn group_filter_fires_for_non_selective_clauses() {
        let (p, t) = setup();
        let snap = p.read_snapshot();
        // Both clauses pass almost every row -> grouped into one evaluation
        // per segment under the adaptive planner.
        let f = Expr::cmp(2, crate::expr::CmpOp::Ge, 1.0).and(Expr::cmp(
            0,
            crate::expr::CmpOp::Ge,
            1i64,
        ));
        let (batch, stats) =
            scan(snap.table(t).unwrap(), &[0], Some(&f), &ScanOptions::default()).unwrap();
        assert_eq!(batch.rows(), 324, "ids 1..=324");
        assert!(stats.group_filters > 0, "{stats:?}");
        // Same filter without adaptivity: evaluated clause by clause.
        let opts = ScanOptions { adaptive_reorder: false, ..Default::default() };
        let (batch2, stats2) = scan(snap.table(t).unwrap(), &[0], Some(&f), &opts).unwrap();
        assert_eq!(batch2.rows(), 324);
        assert_eq!(stats2.group_filters, 0);
    }

    #[test]
    fn all_option_combinations_agree() {
        let (p, t) = setup();
        let snap = p.read_snapshot();
        let f = Expr::eq(1, "c").and(Expr::between(0, 40i64, 290i64));
        let mut counts = Vec::new();
        for use_index in [false, true] {
            for use_encoded in [false, true] {
                for adaptive_reorder in [false, true] {
                    let opts = ScanOptions {
                        use_index,
                        use_encoded,
                        adaptive_reorder,
                        ..Default::default()
                    };
                    let (batch, _) = scan(snap.table(t).unwrap(), &[0], Some(&f), &opts).unwrap();
                    counts.push(batch.rows());
                }
            }
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn thread_counts_agree() {
        let (p, t) = setup();
        let snap = p.read_snapshot();
        let f = Expr::cmp(2, crate::expr::CmpOp::Lt, 260.0);
        let mut rendered = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let opts = ScanOptions { threads, ..Default::default() };
            let (batch, _) = scan(snap.table(t).unwrap(), &[0, 1, 2], Some(&f), &opts).unwrap();
            let rows: Vec<String> =
                (0..batch.rows()).map(|i| format!("{:?}", batch.row(i))).collect();
            rendered.push(rows);
        }
        assert!(rendered.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(rendered[0].len(), 260);
    }
}
