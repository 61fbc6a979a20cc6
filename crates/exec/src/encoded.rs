//! Encoded-domain fused scan+aggregate (paper §5.2's "operating directly
//! on encoded data", taken through the aggregation operator).
//!
//! [`scan_aggregate`] evaluates `GROUP BY` + aggregates directly over the
//! scan, without materializing the intermediate projection batch:
//!
//! - **Group keys on dictionary codes.** When every group key is a plain
//!   projected column stored dictionary-encoded, the per-row group id is
//!   computed from the columns' *codes* — the key columns are never
//!   decoded and no per-row `Value` key is built. A flat
//!   `code-space -> slot` table memoizes the (tiny) set of distinct code
//!   tuples; only a first-seen tuple pays the dictionary lookup that
//!   builds the output key.
//! - **RLE run arithmetic.** A global `SUM`/`AVG`/`COUNT` over a plain
//!   run-length-encoded integer column multiplies each run's value by its
//!   length instead of iterating rows — guarded by an exact-integer
//!   shadow computation so the result is bit-identical to sequential f64
//!   accumulation (any run that could round falls back to per-row adds).
//! - **Typed lanes.** Every other key, every aggregate input and the
//!   rowstore rows go through the shared `GroupTable`: the vectorized
//!   evaluator ([`crate::veval`]) into typed key lanes and per-function
//!   accumulators — the code `hash_aggregate` runs.
//! - **Late materialization to nothing.** Projected columns that no group
//!   key or aggregate references are never decoded
//!   ([`ScanStats::decode_skipped_rows`]).
//!
//! Byte-identity with `scan` + [`crate::kernels::hash_aggregate`] is
//! load-bearing and test-enforced: accumulators are *global* (never
//! per-segment partials merged after the fact, which would reorder
//! non-associative f64 additions) and are updated in exactly the scan's
//! row order — snapshots in order, segments in order, then rowstore rows.
//! Reordering the per-row/per-aggregate loop nest is safe because each
//! (group, aggregate) accumulator still sees its rows in the same
//! ascending order either way.

use std::sync::Arc;

use s2_common::{DataType, Result, Value};
use s2_core::{SegmentSnap, TableSnapshot};
use s2_encoding::ColumnVector;

use crate::batch::Batch;
use crate::expr::Expr;
use crate::kernels::{AggFunc, Aggregate, GroupTable, SlotMap};
use crate::scan::{self, ScanOptions, ScanStats};
use crate::veval;

/// Largest flat code-space (product of per-column `dict_len + 1`) the
/// dictionary group path will allocate a slot table for; larger spaces fall
/// back to hash-keyed grouping.
const MAX_GID_SPACE: usize = 1 << 16;

/// Largest magnitude for which every integer partial sum is exactly
/// representable in f64 (with margin): run-multiplied sums must stay inside
/// this bound to be bit-identical to sequential accumulation.
const MAX_EXACT_SUM: i128 = 1 << 52;

/// How one aggregate consumes one segment.
enum AggPlan {
    /// `COUNT(col)` over a no-null column with every row selected: just add
    /// the row count, decode nothing.
    AddCount(u64),
    /// Run-multiplied `SUM`/`AVG` over a no-null RLE integer column: the
    /// final sum was precomputed exactly (see [`MAX_EXACT_SUM`]).
    RunExact { sum: f64, count: u64 },
    /// Evaluate the input per row (vectorized) and accumulate with a typed
    /// lane.
    PerRow,
}

/// Fused scan+aggregate over `snapshots` (one per partition, processed in
/// order). Semantically identical — bit-for-bit, including group output
/// order and f64 rounding — to scanning each snapshot, concatenating, and
/// running [`crate::kernels::hash_aggregate`]; `group_by` and the aggregate
/// inputs are expressions over *projection positions*, `filter` over table
/// ordinals, exactly as in that pipeline.
pub fn scan_aggregate(
    snapshots: &[Arc<TableSnapshot>],
    projection: &[usize],
    filter: Option<&Expr>,
    group_by: &[Expr],
    aggregates: &[Aggregate],
    opts: &ScanOptions,
) -> Result<(Batch, ScanStats)> {
    let mut stats = ScanStats::default();
    let mut gt = GroupTable::new(group_by.len(), aggregates);
    for snapshot in snapshots {
        stats.segments_total += snapshot.segments.len();
        let schema = snapshot.schema().clone();
        let proj_types: Vec<DataType> =
            projection.iter().map(|&c| schema.column(c).data_type).collect();
        let prep = scan::prepare_scan(snapshot, filter, opts, &mut stats)?;
        let table_key = Arc::as_ptr(&snapshot.table) as usize;
        for m in prep.morsels {
            let sel =
                scan::apply_clauses(m.seg, &prep.residual, m.sel, opts, &mut stats, table_key)?;
            if sel.as_ref().is_some_and(Vec::is_empty) {
                continue;
            }
            aggregate_segment(
                m.seg,
                sel,
                projection,
                &proj_types,
                group_by,
                aggregates,
                &mut gt,
                &mut stats,
            )?;
        }
        if let Some(tail) = scan::rowstore_tail(
            &schema,
            &prep.rowstore_rows,
            &prep.residual,
            projection,
            &mut stats,
        )? {
            gt.consume(&tail.columns, tail.rows(), group_by, aggregates)?;
        }
    }
    let batch = gt.finish()?;
    scan::record_scan_stats(&stats);
    Ok((batch, stats))
}

/// Accumulate one filtered segment into the global group table.
#[allow(clippy::too_many_arguments)]
fn aggregate_segment(
    seg: &SegmentSnap,
    sel: Option<Vec<u32>>,
    projection: &[usize],
    proj_types: &[DataType],
    group_by: &[Expr],
    aggregates: &[Aggregate],
    gt: &mut GroupTable,
    stats: &mut ScanStats,
) -> Result<()> {
    let seg_rows = seg.core.meta.row_count;
    let n = sel.as_ref().map_or(seg_rows, Vec::len);
    if n == 0 {
        return Ok(());
    }
    stats.rows_output += n;
    stats.encoded_agg_rows += n;
    let sel_ref = sel.as_deref();

    // A global aggregate has one slot; dictionary-coded keys get their
    // slots from the codes (no decode of the key columns); any other key
    // is grouped after decoding, below.
    let global = group_by.is_empty();
    let slots: Option<SlotMap> = if global {
        Some(gt.slots(&[], n)?)
    } else {
        dict_group_slots(seg, sel_ref, n, projection, group_by, gt)?.map(SlotMap::PerRow)
    };

    // Plan each aggregate's fast path before deciding what to decode.
    let plans: Vec<AggPlan> = aggregates
        .iter()
        .enumerate()
        .map(|(ai, a)| plan_fast_agg(seg, sel_ref, n, projection, a, global, gt, ai))
        .collect::<Result<_>>()?;

    // Decode only what the per-row work references.
    let mut need = vec![false; projection.len()];
    for (a, p) in aggregates.iter().zip(&plans) {
        if matches!(p, AggPlan::PerRow) {
            for c in a.input.referenced_columns() {
                need[c] = true;
            }
        }
    }
    if slots.is_none() {
        for g in group_by {
            for c in g.referenced_columns() {
                need[c] = true;
            }
        }
    }
    let cols: Vec<ColumnVector> = (0..projection.len())
        .map(|pos| {
            if need[pos] {
                seg.core.reader.column(projection[pos])?.decode_vector(sel_ref)
            } else {
                stats.decode_skipped_rows += n;
                Ok(ColumnVector::empty(proj_types[pos]))
            }
        })
        .collect::<Result<_>>()?;

    // General grouping: typed key lanes into the group table, every
    // aggregate per row (the fast plans need the single global slot).
    let Some(slots) = slots else {
        return gt.consume(&cols, n, group_by, aggregates);
    };
    for ((acc, a), plan) in gt.accs.iter_mut().zip(aggregates).zip(&plans) {
        match plan {
            AggPlan::AddCount(c) => acc.add_count(0, *c),
            AggPlan::RunExact { sum, count } => {
                *acc.sum_mut(0) = *sum;
                acc.add_count(0, *count);
            }
            AggPlan::PerRow => acc.update(veval::eval_vector(&cols, n, &a.input)?, &slots, n)?,
        }
    }
    Ok(())
}

/// Decide whether one aggregate can consume this segment without any
/// per-row work (see [`AggPlan`]). Requires a global aggregate with every
/// row selected, a plain no-null column input, and — for the run path — an
/// RLE column whose exact run-multiplied sum provably equals sequential
/// f64 accumulation.
#[allow(clippy::too_many_arguments)]
fn plan_fast_agg(
    seg: &SegmentSnap,
    sel: Option<&[u32]>,
    n: usize,
    projection: &[usize],
    a: &Aggregate,
    global: bool,
    gt: &mut GroupTable,
    ai: usize,
) -> Result<AggPlan> {
    if !global || sel.is_some() {
        return Ok(AggPlan::PerRow);
    }
    let Expr::Column(pos) = &a.input else { return Ok(AggPlan::PerRow) };
    let reader = seg.core.reader.column(projection[*pos])?;
    if reader.nulls().is_some() {
        return Ok(AggPlan::PerRow);
    }
    match a.func {
        AggFunc::Count => Ok(AggPlan::AddCount(n as u64)),
        AggFunc::Sum | AggFunc::Avg => {
            let Some(runs) = reader.runs() else { return Ok(AggPlan::PerRow) };
            let cur = *gt.accs[ai].sum_mut(0);
            // Sequential accumulation equals the exact integer result iff
            // every partial sum stays exactly representable. Partials move
            // monotonically within a run, so checking the accumulator at
            // each run boundary bounds every per-row partial.
            if cur.fract() != 0.0 || cur.abs() > MAX_EXACT_SUM as f64 {
                return Ok(AggPlan::PerRow);
            }
            let mut acc = cur as i128;
            for (v, start, end) in runs {
                acc += v as i128 * (end - start) as i128;
                if acc.abs() > MAX_EXACT_SUM {
                    return Ok(AggPlan::PerRow);
                }
            }
            Ok(AggPlan::RunExact { sum: acc as f64, count: n as u64 })
        }
        _ => Ok(AggPlan::PerRow),
    }
}

/// Compute per-row group slots from dictionary codes, or `None` when any
/// key column is not dictionary-encoded (or the combined code space is too
/// large to tabulate). Null rows use the extension code `dict_len`.
fn dict_group_slots(
    seg: &SegmentSnap,
    sel: Option<&[u32]>,
    n: usize,
    projection: &[usize],
    group_by: &[Expr],
    gt: &mut GroupTable,
) -> Result<Option<Vec<u32>>> {
    let mut readers = Vec::with_capacity(group_by.len());
    for g in group_by {
        let Expr::Column(pos) = g else { return Ok(None) };
        let reader = seg.core.reader.column(projection[*pos])?;
        if reader.dict_len().is_none() {
            return Ok(None);
        }
        readers.push(reader);
    }
    let dims: Vec<usize> = readers.iter().map(|r| r.dict_len().expect("checked") + 1).collect();
    let mut space = 1usize;
    for &d in &dims {
        space = space.saturating_mul(d);
        if space > MAX_GID_SPACE {
            return Ok(None);
        }
    }
    let mut code_cols: Vec<Vec<u32>> = Vec::with_capacity(readers.len());
    for r in &readers {
        match r.codes() {
            Some(c) => code_cols.push(c),
            None => return Ok(None),
        }
    }
    // Null rows carry a placeholder dictionary code; redirect them to the
    // extension code so they key as `Value::Null`.
    for (r, codes) in readers.iter().zip(&mut code_cols) {
        if let Some(nulls) = r.nulls() {
            let ext = r.dict_len().expect("checked") as u32;
            for i in nulls.iter_ones() {
                codes[i] = ext;
            }
        }
    }

    let mut slot_of_gid: Vec<u32> = vec![u32::MAX; space];
    let mut out = Vec::with_capacity(n);
    let mut slot_for_row = |row: usize, gt: &mut GroupTable| -> Result<u32> {
        let mut gid = 0usize;
        for (codes, &dim) in code_cols.iter().zip(&dims) {
            gid = gid * dim + codes[row] as usize;
        }
        let memo = slot_of_gid[gid];
        if memo != u32::MAX {
            return Ok(memo);
        }
        let key: Vec<Value> = readers
            .iter()
            .zip(&code_cols)
            .map(|(r, codes)| {
                let code = codes[row] as usize;
                if code == r.dict_len().expect("checked") {
                    Value::Null
                } else {
                    r.dict_value(code).expect("code within dictionary")
                }
            })
            .collect();
        let slot = gt.slot_of(&key)?;
        slot_of_gid[gid] = slot;
        Ok(slot)
    };
    match sel {
        Some(sel) => {
            for &row in sel {
                out.push(slot_for_row(row as usize, gt)?);
            }
        }
        None => {
            for row in 0..seg.core.meta.row_count {
                out.push(slot_for_row(row, gt)?);
            }
        }
    }
    Ok(Some(out))
}
