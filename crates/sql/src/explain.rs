//! `EXPLAIN` rendering: an indented plan tree annotated with the shared
//! cardinality estimator's numbers ([`s2_query::stats`], the ones the
//! executor decides by) and the §5 clause-ranking numbers.

use std::fmt::Write as _;

use s2_exec::{AggFunc, Expr, JoinType, SortDir};
use s2_query::stats::{estimate, eval_cost, runs_first, Side};
use s2_query::Plan;

use crate::planner::Catalog;

/// Render `plan` as an indented tree. Every node shows the estimator's
/// `est=` rows. Scan nodes also show the projected column names and the
/// table's live row count, plus one line per filter conjunct with its
/// estimated selectivity, cost and `(1-P)/cost` rank (the order the
/// conjuncts run in); join nodes show which input runs first (its key set
/// then filters the other input's scans).
pub fn explain_plan(plan: &Plan, cat: &Catalog<'_>) -> String {
    let mut out = String::new();
    render(plan, cat, 0, &mut out);
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn render(plan: &Plan, cat: &Catalog<'_>, depth: usize, out: &mut String) {
    let lookup = |t: &str| cat.stats(t);
    let est = estimate(plan, &lookup).rows;
    indent(out, depth);
    match plan {
        Plan::Scan { table, projection, filter } => {
            let info = cat.get(table).ok();
            let rows = info.as_ref().map_or(0.0, |i| i.stats.rows);
            let cols: Vec<String> = projection
                .iter()
                .map(|&ord| match &info {
                    Some(i) => i
                        .fields
                        .get(ord)
                        .map(|(n, _)| n.clone())
                        .unwrap_or_else(|| format!("#{ord}")),
                    None => format!("#{ord}"),
                })
                .collect();
            let _ = writeln!(out, "Scan {table} [{}] rows={rows:.0} est={est:.0}", cols.join(", "));
            if let Some(f) = filter {
                let conjuncts: Vec<&Expr> = match f {
                    Expr::And(parts) => parts.iter().collect(),
                    other => vec![other],
                };
                for c in conjuncts {
                    indent(out, depth + 1);
                    match &info {
                        Some(i) => {
                            let s = &i.stats;
                            let sel = s.selectivity(c);
                            let cost = eval_cost(c, &s.types);
                            let _ = writeln!(
                                out,
                                "filter {} [sel={sel:.4} cost={cost:.1} rank={:.4}]",
                                fmt_expr(c),
                                s.priority(c)
                            );
                        }
                        None => {
                            let _ = writeln!(out, "filter {}", fmt_expr(c));
                        }
                    }
                }
            }
        }
        Plan::Filter { input, predicate } => {
            let _ = writeln!(out, "Filter {} est={est:.0}", fmt_expr(predicate));
            render(input, cat, depth + 1, out);
        }
        Plan::Project { input, exprs } => {
            let rendered: Vec<String> = exprs.iter().map(|(e, _)| fmt_expr(e)).collect();
            let _ = writeln!(out, "Project [{}] est={est:.0}", rendered.join(", "));
            render(input, cat, depth + 1, out);
        }
        Plan::Join { left, right, left_keys, right_keys, join_type, residual } => {
            let first = match runs_first(&estimate(left, &lookup), &estimate(right, &lookup)) {
                Side::Left => "left",
                Side::Right => "right",
            };
            let kind = match join_type {
                JoinType::Inner => "Inner",
                JoinType::Left => "Left",
                JoinType::Semi => "Semi",
                JoinType::Anti => "Anti",
            };
            let keys: Vec<String> =
                left_keys.iter().zip(right_keys).map(|(l, r)| format!("#{l}=#{r}")).collect();
            let res = match residual {
                Some(r) => format!(" residual {}", fmt_expr(r)),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "HashJoin {kind} keys=[{}]{res} first={first} est={est:.0}",
                keys.join(", ")
            );
            render(left, cat, depth + 1, out);
            render(right, cat, depth + 1, out);
        }
        Plan::Aggregate { input, group_by, aggregates } => {
            let groups: Vec<String> = group_by.iter().map(fmt_expr).collect();
            let aggs: Vec<String> = aggregates
                .iter()
                .map(|a| format!("{}({})", agg_name(a.func), fmt_expr(&a.input)))
                .collect();
            let _ = writeln!(
                out,
                "Aggregate groups=[{}] aggs=[{}] est={est:.0}",
                groups.join(", "),
                aggs.join(", ")
            );
            render(input, cat, depth + 1, out);
        }
        Plan::Sort { input, keys, limit } => {
            let rendered: Vec<String> = keys
                .iter()
                .map(|(k, d)| {
                    format!("#{k}{}", if matches!(d, SortDir::Desc) { " DESC" } else { "" })
                })
                .collect();
            let lim = match limit {
                Some(n) => format!(" limit={n}"),
                None => String::new(),
            };
            let _ = writeln!(out, "Sort [{}]{lim} est={est:.0}", rendered.join(", "));
            render(input, cat, depth + 1, out);
        }
        Plan::Limit { input, n } => {
            let _ = writeln!(out, "Limit {n} est={est:.0}");
            render(input, cat, depth + 1, out);
        }
    }
}

fn agg_name(f: AggFunc) -> &'static str {
    match f {
        AggFunc::Count => "COUNT",
        AggFunc::Sum => "SUM",
        AggFunc::Avg => "AVG",
        AggFunc::Min => "MIN",
        AggFunc::Max => "MAX",
    }
}

/// Compact positional rendering of an exec expression (`#n` columns).
pub fn fmt_expr(e: &Expr) -> String {
    use s2_exec::{ArithOp, CmpOp};
    match e {
        Expr::Column(c) => format!("#{c}"),
        Expr::Literal(v) => format!("{v:?}"),
        Expr::Cmp(op, a, b) => {
            let sym = match op {
                CmpOp::Eq => "=",
                CmpOp::Ne => "<>",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
            };
            format!("({} {sym} {})", fmt_expr(a), fmt_expr(b))
        }
        Expr::And(parts) => {
            let inner: Vec<String> = parts.iter().map(fmt_expr).collect();
            format!("({})", inner.join(" AND "))
        }
        Expr::Or(parts) => {
            let inner: Vec<String> = parts.iter().map(fmt_expr).collect();
            format!("({})", inner.join(" OR "))
        }
        Expr::Not(inner) => format!("(NOT {})", fmt_expr(inner)),
        Expr::IsNull(inner) => format!("({} IS NULL)", fmt_expr(inner)),
        Expr::InList(inner, vals) => {
            let list: Vec<String> = vals.iter().map(|v| format!("{v:?}")).collect();
            format!("({} IN ({}))", fmt_expr(inner), list.join(", "))
        }
        Expr::Like(inner, pat) => format!("({} LIKE '{pat}')", fmt_expr(inner)),
        Expr::Arith(op, a, b) => {
            let sym = match op {
                ArithOp::Add => "+",
                ArithOp::Sub => "-",
                ArithOp::Mul => "*",
                ArithOp::Div => "/",
            };
            format!("({} {sym} {})", fmt_expr(a), fmt_expr(b))
        }
        Expr::Case { when, else_ } => {
            let mut s = String::from("(CASE");
            for (c, r) in when {
                let _ = write!(s, " WHEN {} THEN {}", fmt_expr(c), fmt_expr(r));
            }
            let _ = write!(s, " ELSE {} END)", fmt_expr(else_));
            s
        }
        Expr::Year(inner) => format!("YEAR({})", fmt_expr(inner)),
        Expr::Substr(inner, s, l) => format!("SUBSTR({}, {s}, {l})", fmt_expr(inner)),
        Expr::KeyFilter(inner, kf) => format!("({} IN KEYS({} keys))", fmt_expr(inner), kf.keys()),
    }
}
