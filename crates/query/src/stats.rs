//! The one cardinality estimator, and the static `(1 - P(X)) / cost(X)`
//! clause-ranking model from paper §5. The adaptive scan executor measures
//! true selectivities and per-clause costs at run time; before that, the
//! SQL planner (join order, clause order), `EXPLAIN` and the executor
//! (which side of each join runs first, [`runs_first`]) all read the same
//! *estimates* derived from segment metadata: row counts plus per-column
//! min/max ([`TableStats`]), folded up a plan by [`estimate`].
//!
//! A join's estimate is `est(L) · est(R) / max(ndv)`, where a key's ndv is
//! its min/max range capped by its side's rows — the distinct-count proxy
//! the equality selectivity already uses.

use std::sync::Arc;

use s2_common::{DataType, Value};
use s2_core::TableSnapshot;
use s2_exec::{CmpOp, Expr, JoinType};

use crate::plan::Plan;

/// Per-column statistics merged across every segment of every partition.
#[derive(Debug, Clone, Default)]
pub struct ColumnStats {
    /// Smallest and largest non-null value seen in segment metadata, if any
    /// segment recorded one.
    pub min_max: Option<(Value, Value)>,
}

/// Table-level statistics driving cost estimates.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Total live rows across all partitions (rowstore + segments).
    pub rows: f64,
    /// Column types in ordinal order.
    pub types: Vec<DataType>,
    /// Per-ordinal stats.
    pub cols: Vec<ColumnStats>,
}

impl TableStats {
    /// Collect stats from the snapshots backing one logical table.
    pub fn collect(snaps: &[Arc<TableSnapshot>]) -> TableStats {
        let width = snaps.first().map(|s| s.schema().len()).unwrap_or(0);
        let types = snaps
            .first()
            .map(|s| s.schema().columns().iter().map(|c| c.data_type).collect())
            .unwrap_or_default();
        let mut cols = vec![ColumnStats::default(); width];
        let mut rows = 0usize;
        for snap in snaps {
            rows += snap.live_row_count();
            for seg in &snap.segments {
                for (ord, mm) in seg.core.meta.min_max.iter().enumerate().take(width) {
                    let Some((lo, hi)) = mm else { continue };
                    let entry = &mut cols[ord].min_max;
                    match entry {
                        None => *entry = Some((lo.clone(), hi.clone())),
                        Some((cur_lo, cur_hi)) => {
                            if lo.total_cmp(cur_lo).is_lt() {
                                *cur_lo = lo.clone();
                            }
                            if hi.total_cmp(cur_hi).is_gt() {
                                *cur_hi = hi.clone();
                            }
                        }
                    }
                }
            }
        }
        TableStats { rows: rows as f64, types, cols }
    }

    /// Estimated fraction of rows passing `filter` (column refs are table
    /// ordinals).
    pub fn selectivity(&self, filter: &Expr) -> f64 {
        clamp01(self.sel(filter))
    }

    /// Estimated rows surviving an optional scan filter.
    pub fn filtered_rows(&self, filter: Option<&Expr>) -> f64 {
        match filter {
            Some(f) => self.rows * self.selectivity(f),
            None => self.rows,
        }
    }

    fn col_range(&self, ord: usize) -> Option<(f64, f64)> {
        let (lo, hi) = self.cols.get(ord)?.min_max.as_ref()?;
        Some((lo.as_double().ok()?, hi.as_double().ok()?))
    }

    /// Distinct-count proxy of a numeric column: its min/max range (`None`
    /// for strings and single-valued or unknown columns).
    fn ndv(&self, ord: usize) -> Option<f64> {
        match self.col_range(ord) {
            Some((lo, hi)) if hi > lo => Some(hi - lo + 1.0),
            _ => None,
        }
    }

    /// Selectivity of one equality against a column, using the value range
    /// as a proxy for distinct count on ints and a flat guess elsewhere.
    fn eq_sel(&self, ord: usize) -> f64 {
        match self.ndv(ord) {
            Some(ndv) => clamp01(1.0 / ndv).max(1e-4),
            None => 0.1,
        }
    }

    fn sel(&self, e: &Expr) -> f64 {
        match e {
            Expr::And(parts) => {
                // Bounds on one column make one range: a lower bound that
                // keeps `a` of the rows and an upper one that keeps `b`
                // keep `a + b - 1` together, not `a · b`.
                let mut ranges: Vec<(usize, f64, f64)> = Vec::new();
                let mut rest = 1.0;
                for p in parts {
                    let Some((ord, lower, sel)) = self.bound(p) else {
                        rest *= self.sel(p);
                        continue;
                    };
                    let i = match ranges.iter().position(|r| r.0 == ord) {
                        Some(i) => i,
                        None => {
                            ranges.push((ord, 1.0, 1.0));
                            ranges.len() - 1
                        }
                    };
                    let r = &mut ranges[i];
                    if lower {
                        r.1 = r.1.min(sel);
                    } else {
                        r.2 = r.2.min(sel);
                    }
                }
                ranges.iter().map(|&(_, a, b)| clamp01(a + b - 1.0)).product::<f64>() * rest
            }
            Expr::Or(parts) => {
                1.0 - parts.iter().map(|p| 1.0 - clamp01(self.sel(p))).product::<f64>()
            }
            Expr::Not(inner) => 1.0 - clamp01(self.sel(inner)),
            Expr::Cmp(op, a, b) => match (a.as_ref(), b.as_ref()) {
                (Expr::Column(ord), Expr::Literal(v)) => self.cmp_sel(*op, *ord, v),
                (Expr::Literal(v), Expr::Column(ord)) => self.cmp_sel(flip(*op), *ord, v),
                _ => 0.3,
            },
            Expr::InList(inner, list) => match inner.as_ref() {
                Expr::Column(ord) => clamp01(list.len() as f64 * self.eq_sel(*ord)),
                _ => 0.3,
            },
            Expr::Like(_, pattern) => {
                if pattern.starts_with('%') {
                    0.5
                } else {
                    0.25
                }
            }
            Expr::KeyFilter(inner, kf) => match inner.as_ref() {
                Expr::Column(ord) => clamp01(kf.keys() as f64 * self.eq_sel(*ord)),
                _ => 0.3,
            },
            Expr::IsNull(_) => 0.02,
            Expr::Literal(v) => {
                // A constant predicate either keeps or drops everything.
                match v {
                    Value::Int(0) | Value::Null => 0.0,
                    Value::Double(d) if *d == 0.0 => 0.0,
                    _ => 1.0,
                }
            }
            _ => 0.33,
        }
    }

    /// A one-sided range clause on a column with a known numeric range:
    /// (column, whether it is a lower bound, its selectivity).
    fn bound(&self, e: &Expr) -> Option<(usize, bool, f64)> {
        let Expr::Cmp(op, a, b) = e else { return None };
        let (ord, op, v) = match (a.as_ref(), b.as_ref()) {
            (Expr::Column(ord), Expr::Literal(v)) => (*ord, *op, v),
            (Expr::Literal(v), Expr::Column(ord)) => (*ord, flip(*op), v),
            _ => return None,
        };
        let lower = match op {
            CmpOp::Gt | CmpOp::Ge => true,
            CmpOp::Lt | CmpOp::Le => false,
            CmpOp::Eq | CmpOp::Ne => return None,
        };
        self.col_range(ord).filter(|(lo, hi)| hi > lo)?;
        v.as_double().ok()?;
        Some((ord, lower, self.cmp_sel(op, ord, v)))
    }

    fn cmp_sel(&self, op: CmpOp, ord: usize, v: &Value) -> f64 {
        match op {
            CmpOp::Eq => self.eq_sel(ord),
            CmpOp::Ne => 1.0 - self.eq_sel(ord),
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                let Some((lo, hi)) = self.col_range(ord) else { return 0.3 };
                let Ok(x) = v.as_double() else { return 0.3 };
                if hi <= lo {
                    return 0.5;
                }
                let frac = clamp01((x - lo) / (hi - lo));
                match op {
                    CmpOp::Lt | CmpOp::Le => frac,
                    _ => 1.0 - frac,
                }
            }
        }
    }

    /// Paper §5 ranking signal: clauses with the highest `(1 - P) / cost`
    /// run first. Higher is better.
    pub fn priority(&self, clause: &Expr) -> f64 {
        (1.0 - self.selectivity(clause)) / eval_cost(clause, &self.types).max(1.0)
    }
}

fn clamp01(x: f64) -> f64 {
    x.clamp(0.0, 1.0)
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Ne => op,
    }
}

/// Estimated per-row evaluation cost of an expression, in comparison units.
/// String work costs more than numeric work; LIKE dominates.
pub fn eval_cost(expr: &Expr, types: &[DataType]) -> f64 {
    match expr {
        Expr::Column(_) | Expr::Literal(_) => 0.0,
        Expr::Cmp(_, a, b) => {
            let string_side = [a, b].iter().any(|e| is_str(e, types));
            let base = if string_side { 3.0 } else { 1.0 };
            base + eval_cost(a, types) + eval_cost(b, types)
        }
        Expr::And(parts) | Expr::Or(parts) => parts.iter().map(|p| 0.2 + eval_cost(p, types)).sum(),
        Expr::Not(e) | Expr::IsNull(e) => 0.2 + eval_cost(e, types),
        Expr::InList(e, list) => 1.0 + 0.2 * list.len() as f64 + eval_cost(e, types),
        Expr::Like(e, _) => 8.0 + eval_cost(e, types),
        Expr::Arith(_, a, b) => 1.0 + eval_cost(a, types) + eval_cost(b, types),
        Expr::Case { when, else_ } => {
            let arms: f64 =
                when.iter().map(|(c, r)| eval_cost(c, types) + eval_cost(r, types)).sum();
            1.0 + arms + eval_cost(else_, types)
        }
        Expr::KeyFilter(e, _) => 2.0 + eval_cost(e, types),
        Expr::Year(e) => 2.0 + eval_cost(e, types),
        Expr::Substr(e, _, _) => 4.0 + eval_cost(e, types),
    }
}

/// Estimated output of a plan node: rows, and per output column the
/// distinct-count proxy of a column that is a plain copy of a numeric table
/// column (capped by `rows`; `None` for anything else).
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Estimated rows.
    pub rows: f64,
    /// Per output position: distinct-count proxy, if known.
    pub ndv: Vec<Option<f64>>,
}

impl Estimate {
    fn capped(rows: f64, ndv: impl IntoIterator<Item = Option<f64>>) -> Estimate {
        Estimate { rows, ndv: ndv.into_iter().map(|d| d.map(|d| d.min(rows))).collect() }
    }

    /// A key's distinct-count proxy: its ndv, else every row distinct.
    fn key_ndv(&self, pos: usize) -> f64 {
        self.ndv.get(pos).copied().flatten().unwrap_or(self.rows).max(1.0)
    }
}

/// Which input of a join runs first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The left input.
    Left,
    /// The right input.
    Right,
}

/// The input a join runs first: the one estimated smaller (the right one
/// on a tie). Its key set filters the other input's scans where the join
/// type allows.
pub fn runs_first(left: &Estimate, right: &Estimate) -> Side {
    if left.rows < right.rows {
        Side::Left
    } else {
        Side::Right
    }
}

/// Source of table statistics for [`estimate`] (`None`: unknown table).
pub type StatsLookup<'a> = &'a dyn Fn(&str) -> Option<Arc<TableStats>>;

/// Estimate `plan` bottom-up.
pub fn estimate(plan: &Plan, stats: StatsLookup<'_>) -> Estimate {
    match plan {
        Plan::Scan { table, projection, filter } => match stats(table) {
            Some(s) => {
                let rows = s.filtered_rows(filter.as_ref());
                Estimate::capped(rows, projection.iter().map(|&ord| s.ndv(ord)))
            }
            None => Estimate { rows: 0.0, ndv: vec![None; projection.len()] },
        },
        Plan::Filter { input, .. } => {
            let e = estimate(input, stats);
            Estimate::capped(e.rows * 0.33, e.ndv)
        }
        Plan::Project { input, exprs } => {
            let e = estimate(input, stats);
            let ndv = exprs.iter().map(|(x, _)| match x {
                Expr::Column(c) => e.ndv.get(*c).copied().flatten(),
                _ => None,
            });
            Estimate::capped(e.rows, ndv.collect::<Vec<_>>())
        }
        Plan::Join { left, right, left_keys, right_keys, join_type, .. } => {
            let (l, r) = (estimate(left, stats), estimate(right, stats));
            join_estimate(&l, &r, left_keys, right_keys, *join_type)
        }
        Plan::Aggregate { input, group_by, aggregates } => {
            let e = estimate(input, stats);
            let group_ndv: Vec<Option<f64>> = group_by
                .iter()
                .map(|g| match g {
                    Expr::Column(c) => e.ndv.get(*c).copied().flatten(),
                    _ => None,
                })
                .collect();
            let rows = if group_by.is_empty() {
                1.0
            } else if group_ndv.iter().all(Option::is_some) {
                group_ndv.iter().flatten().product::<f64>().min(e.rows).max(1.0)
            } else {
                (e.rows / 4.0).max(1.0)
            };
            Estimate::capped(rows, group_ndv.into_iter().chain(aggregates.iter().map(|_| None)))
        }
        Plan::Sort { input, limit, .. } => {
            let e = estimate(input, stats);
            let rows = limit.map_or(e.rows, |n| e.rows.min(n as f64));
            Estimate::capped(rows, e.ndv)
        }
        Plan::Limit { input, n } => {
            let e = estimate(input, stats);
            Estimate::capped(e.rows.min(*n as f64), e.ndv)
        }
    }
}

/// The join rule: inner rows are `L · R / max(ndv)` over the key pairs'
/// larger distinct-count proxies; a left join keeps at least every left
/// row, a semi join at most, and an anti join half of them.
fn join_estimate(
    l: &Estimate,
    r: &Estimate,
    left_keys: &[usize],
    right_keys: &[usize],
    join_type: JoinType,
) -> Estimate {
    let ndv = left_keys
        .iter()
        .zip(right_keys)
        .map(|(&lk, &rk)| l.key_ndv(lk).max(r.key_ndv(rk)))
        .fold(1.0, f64::max);
    let inner = l.rows * r.rows / ndv;
    match join_type {
        JoinType::Inner => Estimate::capped(inner, l.ndv.iter().chain(&r.ndv).copied()),
        JoinType::Left => Estimate::capped(inner.max(l.rows), l.ndv.iter().chain(&r.ndv).copied()),
        JoinType::Semi => Estimate::capped(inner.min(l.rows), l.ndv.iter().copied()),
        JoinType::Anti => Estimate::capped(l.rows * 0.5, l.ndv.iter().copied()),
    }
}

fn is_str(e: &Expr, types: &[DataType]) -> bool {
    match e {
        Expr::Column(ord) => types.get(*ord) == Some(&DataType::Str),
        Expr::Literal(v) => v.data_type() == Some(DataType::Str),
        Expr::Substr(..) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_stats(rows: f64, lo: i64, hi: i64) -> TableStats {
        TableStats {
            rows,
            types: vec![DataType::Int64],
            cols: vec![ColumnStats { min_max: Some((Value::Int(lo), Value::Int(hi))) }],
        }
    }

    #[test]
    fn range_selectivity_uses_min_max() {
        let s = int_stats(1000.0, 0, 99);
        let half = s.selectivity(&Expr::cmp(0, CmpOp::Lt, 50i64));
        assert!((half - 0.505).abs() < 0.01, "{half}");
        // Two bounds of one column: the width of the range between them.
        let tenth = s.selectivity(&Expr::between(0, 40i64, 49i64));
        assert!((tenth - 0.0909).abs() < 0.01, "{tenth}");
        let none = s.selectivity(&Expr::cmp(0, CmpOp::Lt, 0i64));
        assert!(none < 0.01);
        let all = s.selectivity(&Expr::cmp(0, CmpOp::Ge, 0i64));
        assert!(all > 0.99);
    }

    #[test]
    fn join_rule_divides_by_the_larger_key_range() {
        let orders = Estimate { rows: 1000.0, ndv: vec![Some(1000.0), Some(100.0)] };
        let customers = Estimate { rows: 50.0, ndv: vec![Some(100.0)] };
        // 1000 · 50 / max(100, 100): each order finds its customer half the time.
        let e = join_estimate(&orders, &customers, &[1], &[0], JoinType::Inner);
        assert_eq!(e.rows, 500.0);
        assert_eq!(e.ndv, vec![Some(500.0), Some(100.0), Some(100.0)]);
        // Unknown ndv: every row distinct, so the join is the smaller side.
        let blind = Estimate { rows: 40.0, ndv: vec![None] };
        assert_eq!(join_estimate(&orders, &blind, &[0], &[0], JoinType::Inner).rows, 40.0);
        assert_eq!(join_estimate(&blind, &orders, &[0], &[0], JoinType::Left).rows, 40.0);
        assert_eq!(runs_first(&orders, &customers), Side::Right);
        assert_eq!(runs_first(&customers, &orders), Side::Left);
        assert_eq!(runs_first(&blind, &blind), Side::Right, "ties run the right side first");
    }

    #[test]
    fn cheap_selective_clause_wins_priority() {
        let s = TableStats {
            rows: 1000.0,
            types: vec![DataType::Int64, DataType::Str],
            cols: vec![
                ColumnStats { min_max: Some((Value::Int(0), Value::Int(9))) },
                ColumnStats::default(),
            ],
        };
        // A selective int equality outranks an expensive LIKE.
        let eq = Expr::eq(0, 3i64);
        let like = Expr::Like(Box::new(Expr::Column(1)), "%x%".into());
        assert!(s.priority(&eq) > s.priority(&like));
    }
}
