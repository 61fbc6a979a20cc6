//! Encoded-domain fused scan+aggregate (paper §5.2's "operating directly
//! on encoded data", taken through the aggregation operator), morsel
//! parallel.
//!
//! [`scan_aggregate`] evaluates `GROUP BY` + aggregates directly over the
//! scan, without materializing the intermediate projection batch. Its
//! morsels are the plain scan's one list ([`scan::morsels`]: every
//! surviving segment of every partition snapshot, then that partition's
//! rowstore (L0) tail), and go through three phases:
//!
//! 1. **Per-morsel work, on the pool.** Each morsel runs its filter
//!    clauses ([`scan::apply_clauses`]), computes morsel-local group ids,
//!    decodes only the columns it needs and evaluates every aggregate input
//!    into an owned lane ([`crate::veval`]). When every group key is a
//!    plain projected column stored dictionary-encoded, a row's local group
//!    id comes from the columns' *codes* — the key columns are never
//!    decoded — through a flat `code-space -> id` table holding the morsel's
//!    distinct code tuples in first-seen order; any other key is evaluated
//!    into typed key lanes. Projected columns that no group key or
//!    aggregate references are never decoded
//!    ([`ScanStats::decode_skipped_rows`]).
//! 2. **Global slots, on the caller, in scan order** (partition, then
//!    segment, then the partition's rowstore tail). A dictionary morsel
//!    takes one [`GroupTable::slot_of`] per distinct tuple; any other takes
//!    [`GroupTable::slots`] over its key lanes — the code `hash_aggregate`
//!    runs. Stats merge in the same order, and the first error in scan
//!    order wins, a morsel's input-evaluation error counting after its
//!    slots, as in `hash_aggregate`.
//! 3. **Fold, one pool job per aggregate.** Each job feeds its accumulator
//!    every morsel's input lane in scan order (`Acc::feed`, the one
//!    accumulation path).
//!
//! Morsels go in waves sized from the pool's thread count, each wave
//! folded before the next is evaluated, so the lanes held at once are one
//! wave's. At one thread (or under the inline gate, [`scan::scan_threads`])
//! the same phases run inline on the caller.
//!
//! **Invariant.** Every (group, aggregate) accumulator sees exactly the
//! rows of a serial scan followed by [`crate::kernels::hash_aggregate`],
//! in the same order, and groups take slots in first-seen scan order.
//! There are no per-morsel partials merged after the fact (which would
//! reorder non-associative f64 additions), so results are byte-identical
//! to that pipeline at every thread count. Byte-identity is test-enforced.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use s2_common::{Result, Value};
use s2_core::{SegmentSnap, TableSnapshot};
use s2_encoding::ColumnVector;

use crate::batch::Batch;
use crate::expr::Expr;
use crate::kernels::{AccInput, Aggregate, GroupTable, SlotMap};
use crate::pool::ScanPool;
use crate::scan::{self, ScanOptions, ScanStats, Step};
use crate::veval;

/// Largest flat code-space (product of per-column `dict_len + 1`) the
/// dictionary group path will allocate an id table for; larger spaces fall
/// back to key lanes.
const MAX_GID_SPACE: usize = 1 << 16;

/// Morsels per wave for each executing thread.
const WAVE_MORSELS_PER_THREAD: usize = 4;

/// Fused scan+aggregate over `snapshots` (one per partition, processed in
/// order). Semantically identical — bit-for-bit, including group output
/// order and f64 rounding — to [`scan::scan_partitions`] followed by
/// [`crate::kernels::hash_aggregate`]; `group_by` and the aggregate
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
    let mut parts = Vec::with_capacity(snapshots.len());
    let (steps, threads) = scan::morsels(&mut parts, snapshots, filter, opts, &mut stats);
    let wave = threads * WAVE_MORSELS_PER_THREAD;

    let pool = ScanPool::global();
    let mut gt = GroupTable::new(group_by.len(), aggregates);
    let (mut scan_us, mut slots_us, mut fold_us) = (0u64, 0u64, 0u64);
    let mut steps = steps.into_iter();
    loop {
        let chunk: Vec<Step> = steps.by_ref().take(wave).collect();
        if chunk.is_empty() {
            break;
        }
        // Phase 1: clauses, group ids, decode and input lanes per morsel.
        let t = Instant::now();
        let evaluated =
            pool.run(threads, chunk, |step| evaluate(step, projection, group_by, aggregates, opts));
        scan_us += t.elapsed().as_micros() as u64;

        // Phase 2: global slots in scan order.
        let t = Instant::now();
        let mut pieces = Vec::with_capacity(evaluated.len());
        for out in evaluated {
            let (morsel_stats, ev) = out?;
            stats.merge(&morsel_stats);
            let Some(ev) = ev else { continue };
            let slots = match ev.keys {
                Keys::Dict { mut ids, tuples } => {
                    let slot_of_id =
                        tuples.iter().map(|key| gt.slot_of(key)).collect::<Result<Vec<u32>>>()?;
                    ids.iter_mut().for_each(|id| *id = slot_of_id[*id as usize]);
                    SlotMap::PerRow(ids)
                }
                Keys::Lanes(lanes) => {
                    let lanes: Vec<&ColumnVector> = lanes.iter().map(|l| l.get(&ev.cols)).collect();
                    gt.slots(&lanes, ev.n)?
                }
            };
            pieces.push(Piece { n: ev.n, inputs: ev.inputs?, cols: ev.cols, slots });
        }
        slots_us += t.elapsed().as_micros() as u64;

        // Phase 3: each aggregate folds the wave's morsels in scan order.
        let t = Instant::now();
        let pieces = &pieces;
        pool.run(threads, gt.accs.iter_mut().enumerate().collect(), |(a, acc)| {
            for p in pieces {
                acc.feed(p.inputs[a].as_ref().map(|l| l.get(&p.cols)), &p.slots, p.n);
            }
        });
        fold_us += t.elapsed().as_micros() as u64;
    }
    let batch = gt.finish()?;
    s2_obs::histogram!("exec.agg.scan_us").record(scan_us);
    s2_obs::histogram!("exec.agg.slots_us").record(slots_us);
    s2_obs::histogram!("exec.agg.fold_us").record(fold_us);
    scan::record_scan_stats(&stats);
    Ok((batch, stats))
}

/// A lane a morsel hands back: a decoded projected column by position, or
/// one the evaluator computed.
enum Lane {
    Col(usize),
    Owned(ColumnVector),
}

impl Lane {
    fn of(cols: &[ColumnVector], n: usize, expr: &Expr) -> Result<Lane> {
        Ok(match expr {
            Expr::Column(pos) => Lane::Col(*pos),
            _ => Lane::Owned(veval::eval_vector(cols, n, expr)?.into_column(n, None)?.into_owned()),
        })
    }

    fn get<'a>(&'a self, cols: &'a [ColumnVector]) -> &'a ColumnVector {
        match self {
            Lane::Col(pos) => &cols[*pos],
            Lane::Owned(col) => col,
        }
    }
}

/// How a morsel's rows find their groups.
enum Keys {
    /// Dictionary-code tuples: each row's index into `tuples`, the morsel's
    /// distinct keys in first-seen order.
    Dict { ids: Vec<u32>, tuples: Vec<Vec<Value>> },
    /// One lane per group-by expression (none for a global aggregate).
    Lanes(Vec<Lane>),
}

/// Phase 1's output for a morsel with at least one row.
struct Evaluated {
    n: usize,
    /// The projection; columns nothing references are left empty.
    cols: Vec<ColumnVector>,
    keys: Keys,
    /// One per aggregate. An error here counts after the morsel's slots.
    inputs: Result<Vec<AccInput<Lane>>>,
}

/// A morsel with its global slots, ready to fold.
struct Piece {
    n: usize,
    cols: Vec<ColumnVector>,
    inputs: Vec<AccInput<Lane>>,
    slots: SlotMap,
}

/// Phase 1 for one morsel: its stats, and `None` when no row survives.
fn evaluate(
    step: Step,
    projection: &[usize],
    group_by: &[Expr],
    aggregates: &[Aggregate],
    opts: &ScanOptions,
) -> Result<(ScanStats, Option<Evaluated>)> {
    let mut stats = ScanStats::default();
    let (n, cols, dict) = match step {
        Step::Segment(part, m) => {
            let sel = scan::apply_clauses(part, m.seg, m.sel, opts, &mut stats)?;
            let n = sel.as_ref().map_or(m.seg.core.meta.row_count, Vec::len);
            if n == 0 {
                return Ok((stats, None));
            }
            stats.rows_output += n;
            stats.encoded_agg_rows += n;
            let sel = sel.as_deref();
            let dict = if group_by.is_empty() {
                None
            } else {
                dict_keys(m.seg, sel, projection, group_by)?
            };
            // Decode only what the group keys (when not code-grouped) and
            // the aggregate inputs reference.
            let mut need = vec![false; projection.len()];
            let keys = if dict.is_none() { group_by } else { &[] };
            for e in keys.iter().chain(aggregates.iter().map(|a| &a.input)) {
                for c in e.referenced_columns() {
                    need[c] = true;
                }
            }
            let cols = (0..projection.len())
                .map(|pos| {
                    if need[pos] {
                        m.seg.core.reader.column(projection[pos])?.decode_vector(sel)
                    } else {
                        stats.decode_skipped_rows += n;
                        Ok(ColumnVector::empty(part.schema.column(projection[pos]).data_type))
                    }
                })
                .collect::<Result<Vec<_>>>()?;
            (n, cols, dict)
        }
        Step::Tail(part) => {
            let Some(tail) = scan::rowstore_tail(part, projection, &mut stats)? else {
                return Ok((stats, None));
            };
            (tail.rows(), tail.columns, None)
        }
        Step::Failed(e) => return Err(e),
    };
    let keys = match dict {
        Some(keys) => keys,
        None => Keys::Lanes(group_by.iter().map(|g| Lane::of(&cols, n, g)).collect::<Result<_>>()?),
    };
    let inputs = aggregates
        .iter()
        .map(|a| {
            if let Expr::Column(pos) = a.input {
                return Ok(AccInput::Lane(Lane::Col(pos)));
            }
            let input = veval::eval_vector(&cols, n, &a.input)?;
            Ok(AccInput::new(a.func, input, n)?.map(|c| Lane::Owned(Cow::into_owned(c))))
        })
        .collect();
    Ok((stats, Some(Evaluated { n, cols, keys, inputs })))
}

/// Morsel-local group ids from dictionary codes ([`Keys::Dict`]), or `None`
/// when any key column is not dictionary-encoded or the combined code space
/// is too large to tabulate. Null rows use the extension code `dict_len`.
fn dict_keys(
    seg: &SegmentSnap,
    sel: Option<&[u32]>,
    projection: &[usize],
    group_by: &[Expr],
) -> Result<Option<Keys>> {
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

    let mut id_of_gid: Vec<u32> = vec![u32::MAX; space];
    let mut tuples: Vec<Vec<Value>> = Vec::new();
    let mut id_for_row = |row: usize| -> u32 {
        let mut gid = 0usize;
        for (codes, &dim) in code_cols.iter().zip(&dims) {
            gid = gid * dim + codes[row] as usize;
        }
        if id_of_gid[gid] == u32::MAX {
            id_of_gid[gid] = tuples.len() as u32;
            tuples.push(
                readers
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
                    .collect(),
            );
        }
        id_of_gid[gid]
    };
    let ids: Vec<u32> = match sel {
        Some(sel) => sel.iter().map(|&row| id_for_row(row as usize)).collect(),
        None => (0..seg.core.meta.row_count).map(&mut id_for_row).collect(),
    };
    Ok(Some(Keys::Dict { ids, tuples }))
}
