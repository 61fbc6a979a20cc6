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
//! - **Typed lanes.** Aggregate inputs are evaluated through the
//!   vectorized evaluator ([`crate::veval`]) and accumulated with
//!   per-function loops that touch only the fields the function's
//!   `finish` reads.
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

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use s2_common::{DataType, Result, Value};
use s2_core::{SegmentSnap, TableSnapshot};
use s2_encoding::ColumnVector;

use crate::batch::Batch;
use crate::expr::Expr;
use crate::kernels::{assemble_aggregate_output, AggFunc, AggState, Aggregate};
use crate::scan::{self, ScanOptions, ScanStats};
use crate::veval::{self, EvalVec};

/// Largest flat code-space (product of per-column `dict_len + 1`) the
/// dictionary group path will allocate a slot table for; larger spaces fall
/// back to hash-keyed grouping.
const MAX_GID_SPACE: usize = 1 << 16;

/// Largest magnitude for which every integer partial sum is exactly
/// representable in f64 (with margin): run-multiplied sums must stay inside
/// this bound to be bit-identical to sequential accumulation.
const MAX_EXACT_SUM: i128 = 1 << 52;

/// Global grouping state shared across segments, partitions and the
/// rowstore: one accumulator row per distinct key, in first-seen order
/// (matching `hash_aggregate`'s insertion order).
struct GroupTable {
    groups: HashMap<Vec<Value>, u32>,
    order: Vec<Vec<Value>>,
    states: Vec<Vec<AggState>>,
    n_aggs: usize,
}

impl GroupTable {
    fn new(n_aggs: usize) -> GroupTable {
        GroupTable { groups: HashMap::new(), order: Vec::new(), states: Vec::new(), n_aggs }
    }

    fn slot_of(&mut self, key: Vec<Value>) -> u32 {
        match self.groups.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let slot = self.order.len() as u32;
                self.order.push(e.key().clone());
                self.states.push(vec![AggState::new(); self.n_aggs]);
                e.insert(slot);
                slot
            }
        }
    }
}

/// Per-row slot lookup: a global aggregate has one slot for every row, a
/// grouped one a per-row vector.
enum SlotMap {
    Uniform(u32),
    PerRow(Vec<u32>),
}

impl SlotMap {
    #[inline]
    fn get(&self, i: usize) -> usize {
        match self {
            SlotMap::Uniform(s) => *s as usize,
            SlotMap::PerRow(v) => v[i] as usize,
        }
    }
}

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
    let mut gt = GroupTable::new(aggregates.len());
    for snapshot in snapshots {
        stats.segments_total += snapshot.segments.len();
        let schema = snapshot.schema().clone();
        let proj_types: Vec<DataType> =
            projection.iter().map(|&c| schema.column(c).data_type).collect();
        let prep = scan::prepare_scan(snapshot, filter, opts, &mut stats)?;
        let table_key = Arc::as_ptr(&snapshot.table) as usize;
        for m in prep.morsels {
            let sel =
                scan::apply_clauses(&m.seg, &prep.residual, m.sel, opts, &mut stats, table_key)?;
            if sel.as_ref().is_some_and(Vec::is_empty) {
                continue;
            }
            aggregate_segment(
                &m.seg,
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
            aggregate_rowstore(&tail, group_by, aggregates, &mut gt)?;
        }
    }
    let batch = assemble_aggregate_output(group_by.len(), gt.order, gt.states, aggregates)?;
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

    // A global aggregate's single group exists as soon as any row does
    // (matching hash_aggregate, which inserts the empty key at row one).
    let uniform_slot: Option<u32> =
        if group_by.is_empty() { Some(gt.slot_of(Vec::new())) } else { None };

    // Plan each aggregate's fast path before deciding what to decode.
    let plans: Vec<AggPlan> = aggregates
        .iter()
        .enumerate()
        .map(|(ai, a)| plan_fast_agg(seg, sel_ref, n, projection, a, uniform_slot, gt, ai))
        .collect::<Result<_>>()?;

    // Dictionary-code grouping (no decode of the key columns).
    let dict_slots: Option<Vec<u32>> = if uniform_slot.is_some() {
        None
    } else {
        dict_group_slots(seg, sel_ref, n, projection, group_by, gt)?
    };
    let general_group = uniform_slot.is_none() && dict_slots.is_none();

    // Decode only what the per-row work references.
    let mut need = vec![false; projection.len()];
    for (a, p) in aggregates.iter().zip(&plans) {
        if matches!(p, AggPlan::PerRow) {
            for c in a.input.referenced_columns() {
                need[c] = true;
            }
        }
    }
    if general_group {
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

    let slots: SlotMap = if let Some(s) = uniform_slot {
        SlotMap::Uniform(s)
    } else if let Some(v) = dict_slots {
        SlotMap::PerRow(v)
    } else {
        // General grouping: vectorized key evaluation, per-row hash lookup.
        let evs: Vec<EvalVec> =
            group_by.iter().map(|g| veval::eval_vector(&cols, n, g)).collect::<Result<_>>()?;
        let mut v = Vec::with_capacity(n);
        for i in 0..n {
            let key: Vec<Value> = evs.iter().map(|e| e.value_at(i)).collect();
            v.push(gt.slot_of(key));
        }
        SlotMap::PerRow(v)
    };

    for (ai, (a, plan)) in aggregates.iter().zip(&plans).enumerate() {
        match plan {
            AggPlan::AddCount(c) => {
                gt.states[slots.get(0)][ai].count += c;
            }
            AggPlan::RunExact { sum, count } => {
                let st = &mut gt.states[slots.get(0)][ai];
                st.sum = *sum;
                st.count += count;
            }
            AggPlan::PerRow => {
                let ev = veval::eval_vector(&cols, n, &a.input)?;
                update_per_row(&mut gt.states, ai, a.func, &ev, &slots, n);
            }
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
    uniform_slot: Option<u32>,
    gt: &GroupTable,
    ai: usize,
) -> Result<AggPlan> {
    let Some(slot) = uniform_slot else { return Ok(AggPlan::PerRow) };
    if sel.is_some() {
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
            let cur = gt.states[slot as usize][ai].sum;
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
    let mut slot_for_row = |row: usize, gt: &mut GroupTable| {
        let mut gid = 0usize;
        for (codes, &dim) in code_cols.iter().zip(&dims) {
            gid = gid * dim + codes[row] as usize;
        }
        let memo = slot_of_gid[gid];
        if memo != u32::MAX {
            return memo;
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
        let slot = gt.slot_of(key);
        slot_of_gid[gid] = slot;
        slot
    };
    match sel {
        Some(sel) => {
            for &row in sel {
                out.push(slot_for_row(row as usize, gt));
            }
        }
        None => {
            for row in 0..seg.core.meta.row_count {
                out.push(slot_for_row(row, gt));
            }
        }
    }
    Ok(Some(out))
}

/// Accumulate one aggregate over `n` rows with a per-function lane that
/// maintains only the fields its `finish` reads — updates are observably
/// identical to [`AggState::update`] in scan row order, per group.
fn update_per_row(
    states: &mut [Vec<AggState>],
    ai: usize,
    func: AggFunc,
    ev: &EvalVec,
    slots: &SlotMap,
    n: usize,
) {
    use ColumnVector as CV;
    match (func, ev) {
        (AggFunc::Count, EvalVec::Scalar(v)) => {
            if !v.is_null() {
                for i in 0..n {
                    states[slots.get(i)][ai].count += 1;
                }
            }
        }
        (AggFunc::Count, ev) => {
            for i in 0..n {
                if !null_at(ev, i) {
                    states[slots.get(i)][ai].count += 1;
                }
            }
        }
        (AggFunc::Sum | AggFunc::Avg, EvalVec::Col(CV::Int { values, nulls }))
        | (AggFunc::Sum | AggFunc::Avg, EvalVec::Int(values, nulls)) => match nulls {
            None => {
                for i in 0..n {
                    let st = &mut states[slots.get(i)][ai];
                    st.count += 1;
                    st.sum += values[i] as f64;
                }
            }
            Some(b) => {
                for i in 0..n {
                    if !b.get(i) {
                        let st = &mut states[slots.get(i)][ai];
                        st.count += 1;
                        st.sum += values[i] as f64;
                    }
                }
            }
        },
        (AggFunc::Sum | AggFunc::Avg, EvalVec::Col(CV::Double { values, nulls }))
        | (AggFunc::Sum | AggFunc::Avg, EvalVec::Double(values, nulls)) => match nulls {
            None => {
                for i in 0..n {
                    let st = &mut states[slots.get(i)][ai];
                    st.count += 1;
                    st.sum += values[i];
                }
            }
            Some(b) => {
                for i in 0..n {
                    if !b.get(i) {
                        let st = &mut states[slots.get(i)][ai];
                        st.count += 1;
                        st.sum += values[i];
                    }
                }
            }
        },
        // Strings under SUM/AVG: count advances, the sum does not
        // (`Value::as_double` fails) — mirror that without building values.
        (AggFunc::Sum | AggFunc::Avg, EvalVec::Col(CV::Str { .. })) => {
            for i in 0..n {
                if !null_at(ev, i) {
                    states[slots.get(i)][ai].count += 1;
                }
            }
        }
        _ => {
            for i in 0..n {
                states[slots.get(i)][ai].update(&ev.value_at(i));
            }
        }
    }
}

/// Whether `ev`'s row `i` is NULL.
#[inline]
fn null_at(ev: &EvalVec, i: usize) -> bool {
    match ev {
        EvalVec::Scalar(v) => v.is_null(),
        EvalVec::Col(c) => c.is_null(i),
        EvalVec::Int(_, nulls) | EvalVec::Double(_, nulls) => {
            nulls.as_ref().is_some_and(|b| b.get(i))
        }
        EvalVec::Vals(v) => v[i].is_null(),
    }
}

/// Fold the filtered, projected rowstore (L0) rows in with the literal
/// `hash_aggregate` per-row update.
fn aggregate_rowstore(
    tail: &Batch,
    group_by: &[Expr],
    aggregates: &[Aggregate],
    gt: &mut GroupTable,
) -> Result<()> {
    for ri in 0..tail.rows() {
        let get = |c: usize| tail.value(c, ri);
        let key: Vec<Value> = group_by.iter().map(|g| g.eval(&get)).collect::<Result<_>>()?;
        let slot = gt.slot_of(key) as usize;
        for (s, a) in gt.states[slot].iter_mut().zip(aggregates) {
            s.update(&a.input.eval(&get)?);
        }
    }
    Ok(())
}
