//! Typed, vectorized relational kernels: hash join, hash aggregation and
//! sort. These are the building blocks the query layer (`s2-query`)
//! composes into physical plans.
//!
//! Nothing here builds a `Value` per row. Join and group keys are hashed
//! column-at-a-time and compared as typed cells (`keys.rs`); the join
//! produces `(probe row, build row)` id vectors and builds its output by
//! typed bulk `gather`; residuals and aggregate inputs go through the
//! vectorized evaluator ([`crate::veval`], so `AND`/`OR` do not
//! short-circuit per row); every aggregate feeds its typed input lane to
//! `Acc::feed`, the one accumulation path, whose accumulators are typed
//! lanes indexed by group slot; sort compares typed cells.
//!
//! **Determinism rule.** Output never depends on hash values, thread
//! count or the input the join table was built on: join rows come out in
//! ascending (left row, right row) order, groups in first-seen order, and
//! every accumulator is fed its rows in input order (f64 addition is not
//! associative, so this fixes the sums bit for bit).

use std::borrow::Cow;
use std::cmp::Ordering;

use s2_common::{BitVec, DataType, Error, Result, Value};
use s2_encoding::{ColumnVector, VectorBuilder, NO_ROW};

use crate::batch::Batch;
use crate::expr::Expr;
use crate::keys::{cell_eq, hash_rows, null_lanes};
use crate::veval::{self, EvalVec};

/// Join type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Inner join.
    Inner,
    /// Left outer join (unmatched left rows padded with NULLs).
    Left,
    /// Left semi join (left rows with at least one match).
    Semi,
    /// Left anti join (left rows with no match).
    Anti,
}

/// Hash join `left` and `right` on equality of the given key columns.
/// Output columns = all left columns followed by all right columns (for
/// Semi/Anti: left columns only). NULL keys never match (SQL semantics).
/// Rows come out in ascending (left row, right row) order.
pub fn hash_join(
    left: &Batch,
    right: &Batch,
    left_keys: &[usize],
    right_keys: &[usize],
    join_type: JoinType,
    residual: Option<&Expr>,
) -> Result<Batch> {
    JoinTable::build(right, right_keys).probe(left, left_keys, join_type, residual)
}

/// The build side of a hash join: a flat chained table over the build
/// batch's row ids. `heads[hash & mask]` is the first row of a bucket's
/// chain, `next[row]` the following one; rows are linked in ascending
/// order, so a probe meets its matches in build-row order.
pub struct JoinTable<'a> {
    built: &'a Batch,
    keys: Vec<&'a ColumnVector>,
    hashes: Vec<u64>,
    heads: Vec<u32>,
    next: Vec<u32>,
}

impl<'a> JoinTable<'a> {
    /// Hash `built`'s key columns and link its rows (NULL keys stay out).
    pub fn build(built: &'a Batch, keys: &[usize]) -> JoinTable<'a> {
        let rows = built.rows();
        let keys: Vec<&ColumnVector> = keys.iter().map(|&c| &built.columns[c]).collect();
        let hashes = hash_rows(&keys, rows);
        let nulls = null_lanes(&keys);
        let mut heads = vec![NO_ROW; (rows * 2).next_power_of_two()];
        let mut next = vec![NO_ROW; rows];
        let mask = heads.len() - 1;
        for row in (0..rows).rev() {
            if nulls.iter().any(|n| n.get(row)) {
                continue;
            }
            let bucket = hashes[row] as usize & mask;
            next[row] = heads[bucket];
            heads[bucket] = row as u32;
        }
        JoinTable { built, keys, hashes, heads, next }
    }

    /// Join `left` with the batch this table was built on as the right
    /// input: `left` probes, `residual` filters the matching pairs, and the
    /// output gathers both sides.
    pub fn probe(
        &self,
        left: &Batch,
        left_keys: &[usize],
        join_type: JoinType,
        residual: Option<&Expr>,
    ) -> Result<Batch> {
        self.check_arity(left_keys)?;
        // Semi/Anti only ask whether a match exists; without a residual the
        // first key match answers that.
        let first_only = residual.is_none() && matches!(join_type, JoinType::Semi | JoinType::Anti);
        let (lidx, ridx) = self.matching_pairs(left, left_keys, first_only);
        assemble(left, self.built, lidx, ridx, join_type, residual)
    }

    /// Inner join with the batch this table was built on as the *left*
    /// input: `right` probes, and a counting sort by left row puts the
    /// pairs back into ascending (left row, right row) order, so the output
    /// is byte for byte the one a table built on `right` produces.
    pub fn probe_inner_from_right(
        &self,
        right: &Batch,
        right_keys: &[usize],
        residual: Option<&Expr>,
    ) -> Result<Batch> {
        self.check_arity(right_keys)?;
        let (ridx, lidx) = self.matching_pairs(right, right_keys, false);
        // Stable placement by left row: a left row's right rows keep their
        // ascending probe order.
        let mut start = vec![0u32; self.built.rows() + 1];
        for &l in &lidx {
            start[l as usize + 1] += 1;
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let (mut l_sorted, mut r_sorted) = (vec![0u32; lidx.len()], vec![0u32; lidx.len()]);
        for (&l, &r) in lidx.iter().zip(&ridx) {
            let slot = &mut start[l as usize];
            (l_sorted[*slot as usize], r_sorted[*slot as usize]) = (l, r);
            *slot += 1;
        }
        assemble(self.built, right, l_sorted, r_sorted, JoinType::Inner, residual)
    }

    fn check_arity(&self, probe_keys: &[usize]) -> Result<()> {
        if probe_keys.len() != self.keys.len() {
            return Err(Error::InvalidArgument("join key arity mismatch".into()));
        }
        Ok(())
    }

    /// `(probe row, built row)` ids of every key match, ascending in both;
    /// with `first_only`, the first match of each probe row.
    fn matching_pairs(
        &self,
        probe: &Batch,
        probe_keys: &[usize],
        first_only: bool,
    ) -> (Vec<u32>, Vec<u32>) {
        let rows = probe.rows();
        let keys: Vec<&ColumnVector> = probe_keys.iter().map(|&c| &probe.columns[c]).collect();
        let hashes = hash_rows(&keys, rows);
        let nulls = null_lanes(&keys);
        let mask = self.heads.len() - 1;
        let (mut pidx, mut bidx) = (Vec::new(), Vec::new());
        for (pi, &hash) in hashes.iter().enumerate() {
            if nulls.iter().any(|n| n.get(pi)) {
                continue;
            }
            let mut bi = self.heads[hash as usize & mask];
            while bi != NO_ROW {
                let b = bi as usize;
                // Equal hashes first: keys that compare equal but hash apart
                // (ints beyond 2^53 against their rounded double) stay
                // unmatched, as in a table keyed on the full hash.
                if self.hashes[b] == hash
                    && keys.iter().zip(&self.keys).all(|(p, bk)| cell_eq(p, pi, bk, b))
                {
                    pidx.push(pi as u32);
                    bidx.push(bi);
                    if first_only {
                        break;
                    }
                }
                bi = self.next[b];
            }
        }
        (pidx, bidx)
    }
}

/// The join output from the ascending `(left row, right row)` key matches:
/// `residual` keeps the pairs it accepts, the join type decides what an
/// unmatched left row yields, and both sides are gathered.
fn assemble(
    left: &Batch,
    right: &Batch,
    mut lidx: Vec<u32>,
    mut ridx: Vec<u32>,
    join_type: JoinType,
    residual: Option<&Expr>,
) -> Result<Batch> {
    if let Some(residual) = residual {
        // Combined row: columns 0..left.width() are left, then right.
        // Only the columns the residual reads are gathered.
        let mut cols = vec![ColumnVector::empty(DataType::Int64); left.width() + right.width()];
        for c in residual.referenced_columns() {
            cols[c] = match c.checked_sub(left.width()) {
                None => left.columns[c].gather(&lidx),
                Some(rc) => right.columns[rc].gather(&ridx),
            };
        }
        let mask = veval::filter_mask(&cols, lidx.len(), residual)?;
        let keep = |idx: &[u32]| mask.iter_ones().map(|p| idx[p]).collect::<Vec<u32>>();
        (lidx, ridx) = (keep(&lidx), keep(&ridx));
    }
    match join_type {
        JoinType::Inner => {}
        JoinType::Semi => lidx.dedup(),
        // Walk the left rows against the (ascending) matched ones.
        JoinType::Left | JoinType::Anti => {
            let (matched_l, matched_r) = (std::mem::take(&mut lidx), std::mem::take(&mut ridx));
            let mut p = 0;
            for li in 0..left.rows() as u32 {
                let start = p;
                while p < matched_l.len() && matched_l[p] == li {
                    p += 1;
                }
                if p == start {
                    lidx.push(li);
                    ridx.push(NO_ROW);
                } else if join_type == JoinType::Left {
                    lidx.extend_from_slice(&matched_l[start..p]);
                    ridx.extend_from_slice(&matched_r[start..p]);
                }
            }
        }
    }
    let mut columns: Vec<ColumnVector> = left.columns.iter().map(|c| c.gather(&lidx)).collect();
    match join_type {
        JoinType::Inner => columns.extend(right.columns.iter().map(|c| c.gather(&ridx))),
        JoinType::Left => columns.extend(right.columns.iter().map(|c| c.gather_padded(&ridx))),
        JoinType::Semi | JoinType::Anti => {}
    }
    Ok(Batch::new(columns))
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// COUNT(expr) — non-null count; with `Expr::Literal(1)` ~ COUNT(*).
    Count,
    /// SUM(expr) as double.
    Sum,
    /// AVG(expr).
    Avg,
    /// MIN(expr).
    Min,
    /// MAX(expr).
    Max,
}

/// One aggregate: function + input expression (batch positions).
#[derive(Debug, Clone)]
pub struct Aggregate {
    /// The function.
    pub func: AggFunc,
    /// Input expression.
    pub input: Expr,
}

/// Per-row group slot lookup: a global aggregate has one slot for every
/// row, a grouped one a per-row vector.
pub(crate) enum SlotMap {
    Uniform(u32),
    PerRow(Vec<u32>),
}

/// One aggregate's input over a run of rows, in the form its accumulator
/// reads it. `C` is the lane: a `Cow` straight from the evaluator, or
/// whatever owned handle a caller keeps it in until [`Acc::feed`].
pub(crate) enum AccInput<C> {
    /// COUNT of a NULL constant: no row counts.
    Nothing,
    /// COUNT of a non-NULL constant (COUNT(*)): every row counts.
    EveryRow,
    /// A typed lane, one cell per row.
    Lane(C),
}

impl<'a> AccInput<Cow<'a, ColumnVector>> {
    /// Resolve `func`'s evaluated input over `n` rows. This is the only
    /// step of an update that can fail; [`Acc::feed`] cannot.
    pub(crate) fn new(func: AggFunc, input: EvalVec<'a>, n: usize) -> Result<Self> {
        Ok(match (func, input) {
            (AggFunc::Count, EvalVec::Scalar(v)) if v.is_null() => AccInput::Nothing,
            (AggFunc::Count, EvalVec::Scalar(_)) => AccInput::EveryRow,
            (_, input) => AccInput::Lane(input.into_column(n, None)?),
        })
    }
}

impl<C> AccInput<C> {
    pub(crate) fn map<D>(self, f: impl FnOnce(C) -> D) -> AccInput<D> {
        match self {
            AccInput::Nothing => AccInput::Nothing,
            AccInput::EveryRow => AccInput::EveryRow,
            AccInput::Lane(c) => AccInput::Lane(f(c)),
        }
    }

    pub(crate) fn as_ref(&self) -> AccInput<&C> {
        match self {
            AccInput::Nothing => AccInput::Nothing,
            AccInput::EveryRow => AccInput::EveryRow,
            AccInput::Lane(c) => AccInput::Lane(c),
        }
    }
}

/// One aggregate's accumulators, one entry per group slot. Each variant
/// keeps only what its function's output reads.
pub(crate) enum Acc {
    /// COUNT: non-NULL inputs seen.
    Count(Vec<u64>),
    /// SUM / AVG: running f64 sum and non-NULL count (a string input
    /// counts but adds nothing; zero count finishes as NULL).
    Sum { sums: Vec<f64>, counts: Vec<u64>, avg: bool },
    /// MIN / MAX: best value so far (`Value::Null` = none yet; ties keep the
    /// first), and the first input lane's type for an output column whose
    /// every group stays NULL.
    Extreme { best: Vec<Value>, min: bool, lane_type: Option<DataType> },
}

impl Acc {
    fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(Vec::new()),
            AggFunc::Sum | AggFunc::Avg => {
                Acc::Sum { sums: Vec::new(), counts: Vec::new(), avg: func == AggFunc::Avg }
            }
            AggFunc::Min | AggFunc::Max => {
                Acc::Extreme { best: Vec::new(), min: func == AggFunc::Min, lane_type: None }
            }
        }
    }

    fn push_group(&mut self) {
        match self {
            Acc::Count(counts) => counts.push(0),
            Acc::Sum { sums, counts, .. } => {
                sums.push(0.0);
                counts.push(0);
            }
            Acc::Extreme { best, .. } => best.push(Value::Null),
        }
    }

    /// Feed rows `0..n` of `input` to their slots, in row order.
    pub(crate) fn feed(&mut self, input: AccInput<&ColumnVector>, slots: &SlotMap, n: usize) {
        let col = match input {
            AccInput::Nothing => return,
            AccInput::EveryRow => None,
            AccInput::Lane(col) => Some(col),
        };
        match slots {
            SlotMap::Uniform(s) => self.update_lane(col, n, |_| *s as usize),
            SlotMap::PerRow(v) => self.update_lane(col, n, |i| v[i] as usize),
        }
    }

    /// The typed accumulation loops (`col: None` = every row is a non-NULL
    /// constant, COUNT only).
    fn update_lane(&mut self, col: Option<&ColumnVector>, n: usize, slot: impl Fn(usize) -> usize) {
        use ColumnVector as CV;
        let nulls = col.and_then(CV::nulls);
        let live = |i: usize| !nulls.is_some_and(|b| b.get(i));
        match (self, col) {
            (Acc::Count(counts), _) | (Acc::Sum { counts, .. }, Some(CV::Str { .. })) => {
                (0..n).filter(|&i| live(i)).for_each(|i| counts[slot(i)] += 1)
            }
            (Acc::Sum { sums, counts, .. }, Some(CV::Int { values, .. })) => {
                for i in (0..n).filter(|&i| live(i)) {
                    let s = slot(i);
                    counts[s] += 1;
                    sums[s] += values[i] as f64;
                }
            }
            (Acc::Sum { sums, counts, .. }, Some(CV::Double { values, .. })) => {
                for i in (0..n).filter(|&i| live(i)) {
                    let s = slot(i);
                    counts[s] += 1;
                    sums[s] += values[i];
                }
            }
            (Acc::Extreme { best, min, lane_type }, Some(col)) => {
                lane_type.get_or_insert(col.data_type());
                let wanted = if *min { Ordering::Less } else { Ordering::Greater };
                // Each arm is `Value::total_cmp(candidate, best)` restated
                // for a typed candidate.
                for i in (0..n).filter(|&i| live(i)) {
                    let b = &mut best[slot(i)];
                    match col {
                        CV::Int { values, .. } => {
                            let v = values[i];
                            let ord = match &*b {
                                Value::Null => wanted,
                                Value::Int(m) => v.cmp(m),
                                Value::Double(m) => (v as f64).total_cmp(m),
                                Value::Str(_) => Ordering::Less,
                            };
                            if ord == wanted {
                                *b = Value::Int(v);
                            }
                        }
                        CV::Double { values, .. } => {
                            let v = values[i];
                            let ord = match &*b {
                                Value::Null => wanted,
                                Value::Int(m) => v.total_cmp(&(*m as f64)),
                                Value::Double(m) => v.total_cmp(m),
                                Value::Str(_) => Ordering::Less,
                            };
                            if ord == wanted {
                                *b = Value::Double(v);
                            }
                        }
                        CV::Str { .. } => {
                            let v = col.str_at(i);
                            let ord = match &*b {
                                Value::Null => wanted,
                                Value::Str(m) => v.cmp(m.as_ref()),
                                _ => Ordering::Greater,
                            };
                            if ord == wanted {
                                *b = Value::str(v);
                            }
                        }
                    }
                }
            }
            (_, None) => unreachable!("only COUNT runs without a lane"),
        }
    }

    /// The output column, one row per group.
    fn finish(self) -> Result<ColumnVector> {
        let null_where = |counts: &[u64]| {
            let mut nulls = BitVec::zeros(counts.len());
            counts.iter().enumerate().filter(|(_, &c)| c == 0).for_each(|(g, _)| nulls.set(g));
            (nulls.count_ones() > 0).then_some(nulls)
        };
        Ok(match self {
            Acc::Count(counts) => ColumnVector::Int {
                values: counts.into_iter().map(|c| c as i64).collect(),
                nulls: None,
            },
            Acc::Sum { mut sums, counts, avg } => {
                for (s, &c) in sums.iter_mut().zip(&counts) {
                    *s = match (c, avg) {
                        (0, _) => 0.0,
                        (_, true) => *s / c as f64,
                        (_, false) => *s,
                    };
                }
                ColumnVector::Double { values: sums, nulls: null_where(&counts) }
            }
            Acc::Extreme { best, lane_type, .. } => {
                // Typed by what the groups hold, never by the first group.
                let data_type = veval::widest_type(&best).or(lane_type).unwrap_or(DataType::Double);
                let mut b = VectorBuilder::new(data_type, best.len());
                best.iter().try_for_each(|v| b.push(v))?;
                b.finish()
            }
        })
    }
}

/// First-seen keys of one group-by expression: a typed column that grows
/// by one cell per new group. It takes the type of the first non-NULL key
/// (a NULL-only store is retyped, so a NULL first group decides nothing);
/// after that the builder's rules hold — NULL fits, `Int` widens into a
/// `Double` store, anything else is an error.
struct KeyStore {
    /// The keys; its own NULL bitmap is filled in at the end from `nulls`.
    col: ColumnVector,
    nulls: Vec<bool>,
}

impl KeyStore {
    fn push(&mut self, lane: &ColumnVector, row: usize) -> Result<()> {
        use ColumnVector as CV;
        let null = lane.is_null(row);
        if !null
            && self.col.data_type() != lane.data_type()
            && !matches!((&self.col, lane), (CV::Double { .. }, CV::Int { .. }))
        {
            if self.nulls.contains(&false) {
                return Err(Error::InvalidArgument(format!(
                    "cannot push {} into {:?} vector",
                    lane.value(row),
                    self.col.data_type()
                )));
            }
            self.col = ColumnVector::empty(lane.data_type())
                .gather_padded(&vec![NO_ROW; self.nulls.len()]);
        }
        match (&mut self.col, lane) {
            (CV::Int { values, .. }, _) if null => values.push(0),
            (CV::Double { values, .. }, _) if null => values.push(0.0),
            (CV::Str { offsets, bytes, .. }, _) if null => offsets.push(bytes.len() as u32),
            (CV::Int { values, .. }, CV::Int { values: v, .. }) => values.push(v[row]),
            (CV::Double { values, .. }, CV::Double { values: v, .. }) => values.push(v[row]),
            (CV::Double { values, .. }, CV::Int { values: v, .. }) => values.push(v[row] as f64),
            (CV::Str { offsets, bytes, .. }, CV::Str { .. }) => {
                bytes.extend_from_slice(lane.str_at(row).as_bytes());
                offsets.push(bytes.len() as u32);
            }
            _ => unreachable!("mismatched lanes were rejected or retyped above"),
        }
        self.nulls.push(null);
        Ok(())
    }

    #[inline]
    fn eq(&self, group: usize, lane: &ColumnVector, row: usize) -> bool {
        match (self.nulls[group], lane.is_null(row)) {
            (false, false) => cell_eq(&self.col, group, lane, row),
            (a, b) => a && b,
        }
    }

    fn finish(self) -> ColumnVector {
        let mut bits = BitVec::zeros(self.nulls.len());
        self.nulls.iter().enumerate().filter(|(_, &n)| n).for_each(|(g, _)| bits.set(g));
        let nulls = (bits.count_ones() > 0).then_some(bits);
        match self.col {
            ColumnVector::Int { values, .. } => ColumnVector::Int { values, nulls },
            ColumnVector::Double { values, .. } => ColumnVector::Double { values, nulls },
            ColumnVector::Str { offsets, bytes, .. } => ColumnVector::Str { offsets, bytes, nulls },
        }
    }
}

/// The one grouping structure: first-seen typed keys, an open-addressing
/// table from key hash to group slot, and one [`Acc`] per aggregate. Shared
/// by [`hash_aggregate`] and the fused scan path (`crate::encoded`), which
/// hands out slots morsel by morsel in scan order — so in first-seen order
/// across all of them — and feeds each accumulator its morsels in that
/// order.
pub(crate) struct GroupTable {
    keys: Vec<KeyStore>,
    hashes: Vec<u64>,
    /// `hash & mask` probes linearly to a group slot or `NO_ROW`; kept at
    /// most half full.
    table: Vec<u32>,
    pub(crate) accs: Vec<Acc>,
}

impl GroupTable {
    pub(crate) fn new(n_keys: usize, aggregates: &[Aggregate]) -> GroupTable {
        let key = || KeyStore { col: ColumnVector::empty(DataType::Int64), nulls: Vec::new() };
        GroupTable {
            keys: (0..n_keys).map(|_| key()).collect(),
            hashes: Vec::new(),
            table: vec![NO_ROW; 16],
            accs: aggregates.iter().map(|a| Acc::new(a.func)).collect(),
        }
    }

    /// The group slot of each of `n` rows keyed by `lanes` (one per group-by
    /// expression), adding first-seen keys. A global aggregate's single
    /// group exists as soon as any row does.
    pub(crate) fn slots(&mut self, lanes: &[&ColumnVector], n: usize) -> Result<SlotMap> {
        if lanes.is_empty() {
            if n > 0 && self.hashes.is_empty() {
                self.hashes.push(0);
                self.accs.iter_mut().for_each(Acc::push_group);
            }
            return Ok(SlotMap::Uniform(0));
        }
        let hashes = hash_rows(lanes, n);
        let mut out = Vec::with_capacity(n);
        for (row, &hash) in hashes.iter().enumerate() {
            let mut at = hash as usize & (self.table.len() - 1);
            let slot = loop {
                let g = self.table[at];
                if g == NO_ROW {
                    break self.add_group(hash, lanes, row, at)?;
                }
                if self.hashes[g as usize] == hash
                    && self.keys.iter().zip(lanes).all(|(k, l)| k.eq(g as usize, l, row))
                {
                    break g;
                }
                at = (at + 1) & (self.table.len() - 1);
            };
            out.push(slot);
        }
        Ok(SlotMap::PerRow(out))
    }

    /// The slot of one key given as values (the dictionary-code path
    /// resolves each morsel's distinct code tuples, in first-seen order).
    pub(crate) fn slot_of(&mut self, key: &[Value]) -> Result<u32> {
        let cols = key
            .iter()
            .map(|v| {
                let data_type = v.data_type().unwrap_or(DataType::Int64);
                ColumnVector::from_values(std::slice::from_ref(v), data_type)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(match self.slots(&cols.iter().collect::<Vec<_>>(), 1)? {
            SlotMap::Uniform(slot) => slot,
            SlotMap::PerRow(slots) => slots[0],
        })
    }

    fn add_group(
        &mut self,
        hash: u64,
        lanes: &[&ColumnVector],
        row: usize,
        at: usize,
    ) -> Result<u32> {
        let slot = self.hashes.len() as u32;
        for (k, l) in self.keys.iter_mut().zip(lanes) {
            k.push(l, row)?;
        }
        self.hashes.push(hash);
        self.accs.iter_mut().for_each(Acc::push_group);
        self.table[at] = slot;
        if self.hashes.len() * 2 > self.table.len() {
            let mask = self.table.len() * 2 - 1;
            self.table = vec![NO_ROW; mask + 1];
            for (g, &h) in self.hashes.iter().enumerate() {
                let mut at = h as usize & mask;
                while self.table[at] != NO_ROW {
                    at = (at + 1) & mask;
                }
                self.table[at] = g as u32;
            }
        }
        Ok(slot)
    }

    /// Group `cols`' `n` rows by `group_by` and feed every aggregate its
    /// input lane (expressions over `cols` positions).
    pub(crate) fn consume(
        &mut self,
        cols: &[ColumnVector],
        n: usize,
        group_by: &[Expr],
        aggregates: &[Aggregate],
    ) -> Result<()> {
        let lanes = group_by
            .iter()
            .map(|g| veval::eval_vector(cols, n, g)?.into_column(n, None))
            .collect::<Result<Vec<_>>>()?;
        let lanes: Vec<&ColumnVector> = lanes.iter().map(|l| &**l).collect();
        let slots = self.slots(&lanes, n)?;
        for (acc, a) in self.accs.iter_mut().zip(aggregates) {
            let input = AccInput::new(a.func, veval::eval_vector(cols, n, &a.input)?, n)?;
            acc.feed(input.as_ref().map(|c| &**c), &slots, n);
        }
        Ok(())
    }

    /// The output batch: group keys (in order) then one column per
    /// aggregate, groups in first-seen order. With no group keys exactly
    /// one row comes out (a global aggregate over zero rows included,
    /// SQL-style); a grouped aggregate over zero rows has zero rows, `Int64`
    /// keys and per-function aggregate types.
    pub(crate) fn finish(mut self) -> Result<Batch> {
        if self.keys.is_empty() {
            self.slots(&[], 1)?; // the global group, if no row created it
        }
        let mut columns: Vec<ColumnVector> = self.keys.into_iter().map(KeyStore::finish).collect();
        for acc in self.accs {
            columns.push(acc.finish()?);
        }
        Ok(Batch::new(columns))
    }
}

/// Hash group-by aggregation. Output columns: group keys (in order) then one
/// column per aggregate; groups in first-seen order. With no group keys,
/// emits exactly one row (global aggregate over zero input rows included,
/// SQL-style).
pub fn hash_aggregate(batch: &Batch, group_by: &[Expr], aggregates: &[Aggregate]) -> Result<Batch> {
    let mut groups = GroupTable::new(group_by.len(), aggregates);
    groups.consume(&batch.columns, batch.rows(), group_by, aggregates)?;
    groups.finish()
}

/// Sort key direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortDir {
    /// Ascending, NULLs first (total order of `Value`).
    Asc,
    /// Descending.
    Desc,
}

/// Sort a batch by the given (column, direction) keys; optional limit.
/// Ties keep input order. With a limit below the row count only the top
/// rows are selected and sorted.
pub fn sort_batch(batch: &Batch, keys: &[(usize, SortDir)], limit: Option<usize>) -> Batch {
    // The input row id as last key makes the order total, so an unstable
    // selection and sort give exactly the stable sort's result.
    let cmp = |a: &u32, b: &u32| {
        let (ra, rb) = (*a as usize, *b as usize);
        for &(c, dir) in keys {
            let col = &batch.columns[c];
            let o = match (col.is_null(ra), col.is_null(rb)) {
                (false, false) => match col {
                    ColumnVector::Int { values, .. } => values[ra].cmp(&values[rb]),
                    ColumnVector::Double { values, .. } => values[ra].total_cmp(&values[rb]),
                    ColumnVector::Str { .. } => col.str_at(ra).cmp(col.str_at(rb)),
                },
                (na, nb) => nb.cmp(&na),
            };
            if o != Ordering::Equal {
                return if dir == SortDir::Asc { o } else { o.reverse() };
            }
        }
        a.cmp(b)
    };
    let mut idx: Vec<u32> = (0..batch.rows() as u32).collect();
    if let Some(limit) = limit.filter(|&l| l < idx.len()) {
        if limit > 0 {
            idx.select_nth_unstable_by(limit - 1, cmp);
        }
        idx.truncate(limit);
    }
    idx.sort_unstable_by(cmp);
    batch.gather(&idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2_common::Row;

    fn batch(rows: Vec<Vec<Value>>, types: &[DataType]) -> Batch {
        let rows: Vec<Row> = rows.into_iter().map(Row::new).collect();
        let cols: Vec<usize> = (0..types.len()).collect();
        Batch::from_rows(&rows, &cols, types).unwrap()
    }

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn inner_join_basic() {
        let left = batch(
            vec![ints(&[1, 10]), ints(&[2, 20]), ints(&[3, 30]), ints(&[2, 21])],
            &[DataType::Int64, DataType::Int64],
        );
        let right = batch(
            vec![ints(&[2, 200]), ints(&[3, 300]), ints(&[4, 400])],
            &[DataType::Int64, DataType::Int64],
        );
        let out = hash_join(&left, &right, &[0], &[0], JoinType::Inner, None).unwrap();
        assert_eq!(out.rows(), 3);
        assert_eq!(out.width(), 4);
        // Row with left key 3 joined right value 300.
        let found = (0..out.rows())
            .any(|r| out.value(0, r) == Value::Int(3) && out.value(3, r) == Value::Int(300));
        assert!(found);
    }

    #[test]
    fn left_join_pads_nulls() {
        let left = batch(vec![ints(&[1]), ints(&[2])], &[DataType::Int64]);
        let right = batch(vec![ints(&[2])], &[DataType::Int64]);
        let out = hash_join(&left, &right, &[0], &[0], JoinType::Left, None).unwrap();
        assert_eq!(out.rows(), 2);
        let nulls = (0..2).filter(|&r| out.columns[1].is_null(r)).count();
        assert_eq!(nulls, 1);
    }

    #[test]
    fn semi_and_anti() {
        let left = batch(vec![ints(&[1]), ints(&[2]), ints(&[3])], &[DataType::Int64]);
        let right = batch(vec![ints(&[2]), ints(&[2])], &[DataType::Int64]);
        let semi = hash_join(&left, &right, &[0], &[0], JoinType::Semi, None).unwrap();
        assert_eq!(semi.rows(), 1, "dup matches emit once");
        assert_eq!(semi.value(0, 0), Value::Int(2));
        let anti = hash_join(&left, &right, &[0], &[0], JoinType::Anti, None).unwrap();
        assert_eq!(anti.rows(), 2);
    }

    #[test]
    fn null_keys_never_match() {
        let left = batch(vec![vec![Value::Null], ints(&[1])], &[DataType::Int64]);
        let right = batch(vec![vec![Value::Null], ints(&[1])], &[DataType::Int64]);
        let out = hash_join(&left, &right, &[0], &[0], JoinType::Inner, None).unwrap();
        assert_eq!(out.rows(), 1);
    }

    #[test]
    fn join_residual_filter() {
        let left = batch(vec![ints(&[1, 5]), ints(&[1, 50])], &[DataType::Int64, DataType::Int64]);
        let right = batch(vec![ints(&[1, 10])], &[DataType::Int64, DataType::Int64]);
        // residual: left.col1 < right.col1  (positions: 0,1 left; 2,3 right)
        let res =
            Expr::Cmp(crate::expr::CmpOp::Lt, Box::new(Expr::Column(1)), Box::new(Expr::Column(3)));
        let out = hash_join(&left, &right, &[0], &[0], JoinType::Inner, Some(&res)).unwrap();
        assert_eq!(out.rows(), 1);
        assert_eq!(out.value(1, 0), Value::Int(5));
    }

    #[test]
    fn aggregate_grouped() {
        let b = batch(
            vec![
                vec![Value::str("a"), Value::Int(1)],
                vec![Value::str("b"), Value::Int(2)],
                vec![Value::str("a"), Value::Int(3)],
                vec![Value::str("a"), Value::Null],
            ],
            &[DataType::Str, DataType::Int64],
        );
        let out = hash_aggregate(
            &b,
            &[Expr::Column(0)],
            &[
                Aggregate { func: AggFunc::Count, input: Expr::Column(1) },
                Aggregate { func: AggFunc::Sum, input: Expr::Column(1) },
                Aggregate { func: AggFunc::Avg, input: Expr::Column(1) },
            ],
        )
        .unwrap();
        assert_eq!(out.rows(), 2);
        // Group "a": count 2 (null skipped), sum 4, avg 2.
        let a_row = (0..2).find(|&r| out.value(0, r) == Value::str("a")).unwrap();
        assert_eq!(out.value(1, a_row), Value::Int(2));
        assert_eq!(out.value(2, a_row), Value::Double(4.0));
        assert_eq!(out.value(3, a_row), Value::Double(2.0));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let b = Batch::empty(&[DataType::Int64]);
        let out =
            hash_aggregate(&b, &[], &[Aggregate { func: AggFunc::Count, input: Expr::Column(0) }])
                .unwrap();
        assert_eq!(out.rows(), 1);
        assert_eq!(out.value(0, 0), Value::Int(0));
    }

    #[test]
    fn min_max_strings() {
        let b = batch(
            vec![vec![Value::str("m")], vec![Value::str("a")], vec![Value::str("z")]],
            &[DataType::Str],
        );
        let out = hash_aggregate(
            &b,
            &[],
            &[
                Aggregate { func: AggFunc::Min, input: Expr::Column(0) },
                Aggregate { func: AggFunc::Max, input: Expr::Column(0) },
            ],
        )
        .unwrap();
        assert_eq!(out.value(0, 0), Value::str("a"));
        assert_eq!(out.value(1, 0), Value::str("z"));
    }

    #[test]
    fn sort_and_limit() {
        let b = batch(
            vec![ints(&[3, 1]), ints(&[1, 2]), ints(&[2, 3])],
            &[DataType::Int64, DataType::Int64],
        );
        let sorted = sort_batch(&b, &[(0, SortDir::Asc)], None);
        assert_eq!(sorted.value(0, 0), Value::Int(1));
        assert_eq!(sorted.value(0, 2), Value::Int(3));
        let top1 = sort_batch(&b, &[(0, SortDir::Desc)], Some(1));
        assert_eq!(top1.rows(), 1);
        assert_eq!(top1.value(0, 0), Value::Int(3));
    }
}
