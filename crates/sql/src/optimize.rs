//! Plan-level rewrites applied after lowering: constant folding and
//! cost-ranked ordering of scan-filter conjuncts.

use s2_exec::Expr;
use s2_query::Plan;

use crate::planner::Catalog;
use s2_query::stats::TableStats;

/// Fold constant subexpressions bottom-up. Only pure scalar operators over
/// literal operands fold; anything that errors at fold time (e.g. division
/// by zero) is left in place so the failure stays a runtime error.
pub fn fold_expr(e: Expr) -> Expr {
    let folded = match e {
        Expr::Column(_) | Expr::Literal(_) | Expr::KeyFilter(..) => return e,
        Expr::Cmp(op, a, b) => Expr::Cmp(op, Box::new(fold_expr(*a)), Box::new(fold_expr(*b))),
        Expr::And(parts) => Expr::And(parts.into_iter().map(fold_expr).collect()),
        Expr::Or(parts) => Expr::Or(parts.into_iter().map(fold_expr).collect()),
        Expr::Not(inner) => Expr::Not(Box::new(fold_expr(*inner))),
        Expr::IsNull(inner) => Expr::IsNull(Box::new(fold_expr(*inner))),
        Expr::InList(inner, vals) => Expr::InList(Box::new(fold_expr(*inner)), vals),
        Expr::Like(inner, pat) => Expr::Like(Box::new(fold_expr(*inner)), pat),
        Expr::Arith(op, a, b) => Expr::Arith(op, Box::new(fold_expr(*a)), Box::new(fold_expr(*b))),
        Expr::Case { when, else_ } => Expr::Case {
            when: when.into_iter().map(|(c, r)| (fold_expr(c), fold_expr(r))).collect(),
            else_: Box::new(fold_expr(*else_)),
        },
        Expr::Year(inner) => Expr::Year(Box::new(fold_expr(*inner))),
        Expr::Substr(inner, s, l) => Expr::Substr(Box::new(fold_expr(*inner)), s, l),
    };
    if foldable(&folded) && folded.referenced_columns().is_empty() {
        if let Ok(v) = folded.eval(&|_| s2_common::Value::Null) {
            return Expr::Literal(v);
        }
    }
    folded
}

/// Operators worth collapsing to a literal when all inputs are literals.
/// Boolean connectives are excluded: hand-built plans keep e.g. literal IN
/// lists intact, and folding them buys nothing for scans.
fn foldable(e: &Expr) -> bool {
    matches!(e, Expr::Cmp(..) | Expr::Arith(..) | Expr::Year(_) | Expr::Substr(..))
}

/// Reorder the conjuncts of a scan filter by descending `(1 - P) / cost`
/// (paper §5): cheap, selective clauses run first. The sort is stable so
/// equal-priority clauses keep their written order.
fn order_scan_clauses(filter: Expr, stats: &TableStats) -> Expr {
    match filter {
        Expr::And(parts) => {
            let mut ranked: Vec<(f64, Expr)> =
                parts.into_iter().map(|p| (stats.priority(&p), p)).collect();
            ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
            Expr::And(ranked.into_iter().map(|(_, p)| p).collect())
        }
        other => other,
    }
}

/// Apply all plan rewrites recursively, including inside derived subplans.
pub fn optimize(plan: Plan, cat: &Catalog<'_>) -> Plan {
    match plan {
        Plan::Scan { table, projection, filter } => {
            let filter = filter.map(fold_expr).map(|f| match cat.get(&table) {
                Ok(info) => order_scan_clauses(f, &info.stats),
                Err(_) => f,
            });
            Plan::Scan { table, projection, filter }
        }
        Plan::Filter { input, predicate } => {
            Plan::Filter { input: Box::new(optimize(*input, cat)), predicate: fold_expr(predicate) }
        }
        Plan::Project { input, exprs } => Plan::Project {
            input: Box::new(optimize(*input, cat)),
            exprs: exprs.into_iter().map(|(e, t)| (fold_expr(e), t)).collect(),
        },
        Plan::Join { left, right, left_keys, right_keys, join_type, residual } => Plan::Join {
            left: Box::new(optimize(*left, cat)),
            right: Box::new(optimize(*right, cat)),
            left_keys,
            right_keys,
            join_type,
            residual: residual.map(fold_expr),
        },
        Plan::Aggregate { input, group_by, aggregates } => Plan::Aggregate {
            input: Box::new(optimize(*input, cat)),
            group_by: group_by.into_iter().map(fold_expr).collect(),
            aggregates: aggregates
                .into_iter()
                .map(|a| s2_exec::Aggregate { func: a.func, input: fold_expr(a.input) })
                .collect(),
        },
        Plan::Sort { input, keys, limit } => {
            Plan::Sort { input: Box::new(optimize(*input, cat)), keys, limit }
        }
        Plan::Limit { input, n } => Plan::Limit { input: Box::new(optimize(*input, cat)), n },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2_common::Value;
    use s2_exec::{ArithOp, CmpOp};

    #[test]
    fn folds_constant_arithmetic() {
        // 0.05 - 1e-9 folds to the exact f64 a hand-written literal has.
        let e = Expr::Arith(
            ArithOp::Sub,
            Box::new(Expr::Literal(Value::Double(0.05))),
            Box::new(Expr::Literal(Value::Double(1e-9))),
        );
        assert_eq!(fold_expr(e), Expr::Literal(Value::Double(0.05 - 1e-9)));
    }

    #[test]
    fn division_by_zero_stays_runtime() {
        let e = Expr::Arith(
            ArithOp::Div,
            Box::new(Expr::Literal(Value::Int(1))),
            Box::new(Expr::Literal(Value::Int(0))),
        );
        assert!(matches!(fold_expr(e), Expr::Arith(..)));
    }

    #[test]
    fn column_expressions_do_not_fold() {
        let e =
            Expr::Cmp(CmpOp::Eq, Box::new(Expr::Column(0)), Box::new(Expr::Literal(Value::Int(1))));
        assert_eq!(fold_expr(e.clone()), e);
    }
}
