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
//! - **Typed lanes.** Every other key, every aggregate input and the
//!   rowstore rows go through the shared `GroupTable`: the vectorized
//!   evaluator ([`crate::veval`]) into typed key lanes and per-function
//!   accumulators — the code `hash_aggregate` runs. There is no second
//!   accumulation path: a global `COUNT`/`SUM` over an RLE column adds its
//!   decoded rows like any other lane.
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
use crate::kernels::{Aggregate, GroupTable, SlotMap};
use crate::scan::{self, ScanOptions, ScanStats};
use crate::veval;

/// Largest flat code-space (product of per-column `dict_len + 1`) the
/// dictionary group path will allocate a slot table for; larger spaces fall
/// back to hash-keyed grouping.
const MAX_GID_SPACE: usize = 1 << 16;

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
            let residual = (prep.residual.as_slice(), prep.fingerprint);
            let sel = scan::apply_clauses(m.seg, residual, m.sel, opts, &mut stats, table_key)?;
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
    let slots: Option<SlotMap> = if group_by.is_empty() {
        Some(gt.slots(&[], n)?)
    } else {
        dict_group_slots(seg, sel_ref, n, projection, group_by, gt)?.map(SlotMap::PerRow)
    };

    // Decode only what the group keys (when not code-slotted) and the
    // aggregate inputs reference.
    let mut need = vec![false; projection.len()];
    let keys = if slots.is_none() { group_by } else { &[] };
    for e in keys.iter().chain(aggregates.iter().map(|a| &a.input)) {
        for c in e.referenced_columns() {
            need[c] = true;
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

    // Other keys group over their decoded typed lanes.
    let Some(slots) = slots else {
        return gt.consume(&cols, n, group_by, aggregates);
    };
    for (acc, a) in gt.accs.iter_mut().zip(aggregates) {
        acc.update(veval::eval_vector(&cols, n, &a.input)?, &slots, n)?;
    }
    Ok(())
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
