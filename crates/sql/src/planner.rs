//! Name resolution, typing and lowering: turns a parsed [`Select`] into an
//! executable [`s2_query::Plan`].
//!
//! The lowering performs the classical logical optimizations inline:
//! single-relation WHERE/ON conjuncts are pushed into `Scan.filter` (table
//! ordinals), and so is the filter a cross-relation OR implies for each
//! relation it constrains in every disjunct; base-table projections are
//! pruned to the demanded column set, equality conjuncts become hash-join
//! keys, and comma-separated FROM lists are join-ordered by cost (largest
//! filtered relation drives, smallest connected relation builds next — the
//! §5 `(1-P)/cost` estimates feed the per-relation cardinalities). Explicit `JOIN ... ON` chains keep their
//! syntactic order so a query author (and the plan-equivalence tests) can
//! pin a join tree exactly.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use s2_common::{DataType, Error, Result, Value};
use s2_exec::{AggFunc, Aggregate, CmpOp, Expr, JoinType, SortDir};
use s2_query::{Plan, QueryContext};

use crate::ast::{FuncName, JoinKind, OrderItem, Select, SelectItem, SqlExpr, TableRef};
use s2_query::stats::{self, TableStats};

/// Virtual column ids encode (relation index, field ordinal) so expressions
/// can be bound before batch positions are known.
const REL_SHIFT: usize = 16;
const ORD_MASK: usize = (1 << REL_SHIFT) - 1;

fn vcol(rel: usize, ord: usize) -> usize {
    (rel << REL_SHIFT) | ord
}

/// One table known to the planner: schema fields plus stats.
pub struct TableInfo {
    /// Table name.
    pub name: String,
    /// (column name, type) in ordinal order.
    pub fields: Vec<(String, DataType)>,
    /// Merged statistics.
    pub stats: Arc<TableStats>,
}

/// Caching resolver from table names to schema + statistics, backed by the
/// query context's snapshots.
pub struct Catalog<'a> {
    ctx: &'a dyn QueryContext,
    cache: RefCell<HashMap<String, Arc<TableInfo>>>,
}

impl<'a> Catalog<'a> {
    /// Build a catalog over `ctx`.
    pub fn new(ctx: &'a dyn QueryContext) -> Catalog<'a> {
        Catalog { ctx, cache: RefCell::new(HashMap::new()) }
    }

    /// The statistics of one table (`None` when it cannot be resolved): the
    /// shared estimator's lookup.
    pub fn stats(&self, name: &str) -> Option<Arc<TableStats>> {
        self.get(name).ok().map(|info| Arc::clone(&info.stats))
    }

    /// Resolve one table, caching the result for the planning session.
    pub fn get(&self, name: &str) -> Result<Arc<TableInfo>> {
        if let Some(info) = self.cache.borrow().get(name) {
            return Ok(Arc::clone(info));
        }
        let snaps = self.ctx.snapshots(name)?;
        let first = snaps
            .first()
            .ok_or_else(|| Error::NotFound(format!("table {name:?} has no partitions")))?;
        let fields =
            first.schema().columns().iter().map(|c| (c.name.clone(), c.data_type)).collect();
        let info = Arc::new(TableInfo {
            name: name.to_string(),
            fields,
            stats: Arc::new(TableStats::collect(&snaps)),
        });
        self.cache.borrow_mut().insert(name.to_string(), Arc::clone(&info));
        Ok(info)
    }
}

/// A lowered SELECT: the plan plus its output shape.
pub(crate) struct LoweredSelect {
    /// Executable plan.
    pub plan: Plan,
    /// Output (name, type) per column.
    pub fields: Vec<(String, DataType)>,
}

enum Source {
    Base(Arc<TableInfo>),
    Derived(Box<LoweredSelect>),
}

struct Rel {
    source: Source,
    binding: String,
    kind: JoinKind,
    on: Option<SqlExpr>,
    /// Scan-filter conjuncts: table ordinals for base tables, output
    /// positions for derived tables (applied as a pre-join Filter).
    pushed: Vec<Expr>,
    fields: Vec<(String, DataType)>,
}

impl Rel {
    fn visible_after_join(&self) -> bool {
        !matches!(self.kind, JoinKind::Semi | JoinKind::Anti)
    }
}

/// One extracted equi-join edge from a comma-style WHERE clause.
struct Edge {
    a: usize,
    b: usize,
}

struct AggEnv {
    /// Group-by expressions in virtual-column space.
    groups: Vec<Expr>,
    /// Collected (function, virtual input) aggregates, in first-use order.
    aggs: Vec<(AggFunc, Expr)>,
}

struct Planner<'a, 'c> {
    cat: &'a Catalog<'c>,
    rels: Vec<Rel>,
}

/// Lower one SELECT into a plan (recursively lowering derived tables).
pub(crate) fn lower_select(sel: &Select, cat: &Catalog<'_>) -> Result<LoweredSelect> {
    let mut p = Planner { cat, rels: Vec::new() };
    p.run(sel)
}

fn err(msg: impl Into<String>) -> Error {
    Error::InvalidArgument(msg.into())
}

impl<'a, 'c> Planner<'a, 'c> {
    fn run(&mut self, sel: &Select) -> Result<LoweredSelect> {
        self.collect_rels(sel)?;
        let outer_mask: Vec<bool> = self.rels.iter().map(Rel::visible_after_join).collect();

        // ON clauses: keys, residuals and self-only pushdowns per relation,
        // plus what an OR residual implies for the relation it joins.
        let mut keys: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.rels.len()];
        let mut residuals: Vec<Vec<Expr>> = vec![Vec::new(); self.rels.len()];
        for i in 0..self.rels.len() {
            let Some(on) = self.rels[i].on.clone() else { continue };
            let mut mask: Vec<bool> = outer_mask[..i].to_vec();
            mask.push(true);
            mask.resize(self.rels.len(), false);
            for c in split_sql_conjuncts(&on) {
                let lowered = self.lower(c, &mask, None)?;
                let rset = rels_of(&lowered);
                if rset.len() == 1 && rset.contains(&i) {
                    self.push_down(i, lowered);
                } else if let Some(pair) = self.key_pair(&lowered, i) {
                    keys[i].push(pair);
                } else {
                    if let Some(implied) = self.implied_filter(&lowered, i) {
                        self.push_down(i, implied);
                    }
                    residuals[i].push(lowered);
                }
            }
        }

        // WHERE: single-relation conjuncts push down; comma-style equality
        // conjuncts become join edges; the rest filter after the joins, and
        // an OR among them also filters each relation a written conjunct on
        // it would reach by what it implies for that relation.
        let mut post: Vec<Expr> = Vec::new();
        let mut edges: Vec<Edge> = Vec::new();
        if let Some(w) = &sel.where_ {
            for c in split_sql_conjuncts(w) {
                let lowered = self.lower(c, &outer_mask, None)?;
                let rset = rels_of(&lowered);
                if rset.len() == 1 {
                    let r = *rset.iter().next().expect("nonempty");
                    if self.rels[r].kind == JoinKind::Left {
                        post.push(lowered);
                    } else {
                        self.push_down(r, lowered);
                    }
                } else if let Some(edge) = self.equi_edge(&lowered, &rset) {
                    edges.push(edge);
                } else {
                    for &r in &rset {
                        if self.rels[r].kind == JoinKind::Left {
                            continue;
                        }
                        if let Some(implied) = self.implied_filter(&lowered, r) {
                            self.push_down(r, implied);
                        }
                    }
                    post.push(lowered);
                }
            }
        }

        // Join order: explicit joins keep syntactic order; pure comma lists
        // are ordered by cost.
        let pure_comma = self.rels.iter().skip(1).all(|r| r.kind == JoinKind::Cross)
            && self.rels.iter().all(|r| r.on.is_none());
        let chain: Vec<usize> = if pure_comma && self.rels.len() > 1 && !edges.is_empty() {
            self.order_by_cost(&edges)
        } else {
            (0..self.rels.len()).collect()
        };
        // Attach comma edges as keys on the join step where their second
        // endpoint enters the chain.
        for e in &edges {
            let pa = chain.iter().position(|&r| r == e.a >> REL_SHIFT).expect("rel in chain");
            let pb = chain.iter().position(|&r| r == e.b >> REL_SHIFT).expect("rel in chain");
            let (later_rel, prefix_v, self_v) = if pa > pb {
                (e.a >> REL_SHIFT, e.b_col(), e.a_col())
            } else {
                (e.b >> REL_SHIFT, e.a_col(), e.b_col())
            };
            keys[later_rel].push((prefix_v, self_v));
        }

        // Output expressions, grouping and aggregation.
        let items = self.expand_items(&sel.items, &outer_mask)?;
        let aliases: Vec<Option<String>> = items.iter().map(|(_, a)| a.clone()).collect();
        let agg_mode = !sel.group_by.is_empty()
            || items.iter().any(|(e, _)| e.has_agg())
            || sel.having.as_ref().is_some_and(SqlExpr::has_agg);
        if sel.distinct && agg_mode {
            return Err(err("SELECT DISTINCT cannot be combined with aggregates"));
        }

        let mut env = AggEnv { groups: Vec::new(), aggs: Vec::new() };
        let mut outs: Vec<Expr> = Vec::new();
        let mut having_rewritten: Option<Expr> = None;
        if agg_mode {
            for g in &sel.group_by {
                let g = self.positional(g, &items)?;
                if g.has_agg() {
                    return Err(err("aggregates are not allowed in GROUP BY"));
                }
                let lowered = self.lower(g, &outer_mask, None)?;
                env.groups.push(lowered);
            }
            for (e, _) in &items {
                let r = self.lower(e, &outer_mask, Some(&mut env))?;
                outs.push(r);
            }
            if let Some(h) = &sel.having {
                having_rewritten = Some(self.lower(h, &outer_mask, Some(&mut env))?);
            }
        } else {
            for (e, _) in &items {
                outs.push(self.lower(e, &outer_mask, None)?);
            }
            if sel.having.is_some() {
                return Err(err("HAVING requires GROUP BY or aggregates"));
            }
        }

        // ORDER BY resolves against the output list (alias, 1-based
        // position, or a structurally matching expression).
        let mut sort_keys: Vec<(usize, SortDir)> = Vec::new();
        for o in &sel.order_by {
            let idx = self.resolve_order(o, &outs, &aliases, &outer_mask, &mut env, agg_mode)?;
            sort_keys.push((idx, if o.desc { SortDir::Desc } else { SortDir::Asc }));
        }

        // Demand analysis: every virtual column the plan evaluates above the
        // scans decides the pruned base-table projections.
        let mut demand: BTreeSet<usize> = BTreeSet::new();
        for ks in &keys {
            for (l, r) in ks {
                demand.insert(*l);
                demand.insert(*r);
            }
        }
        for rs in &residuals {
            for e in rs {
                demand.extend(rels_of_cols(e));
            }
        }
        for e in &post {
            demand.extend(rels_of_cols(e));
        }
        if agg_mode || sel.distinct {
            let group_src: &[Expr] = if sel.distinct { &outs } else { &env.groups };
            for e in group_src {
                demand.extend(rels_of_cols(e));
            }
            for (_, input) in &env.aggs {
                demand.extend(rels_of_cols(input));
            }
        } else {
            for e in &outs {
                demand.extend(rels_of_cols(e));
            }
        }

        // Build the join chain.
        let mut projections: Vec<Vec<usize>> = Vec::new();
        for (i, rel) in self.rels.iter().enumerate() {
            let mut proj: Vec<usize> =
                demand.iter().filter(|&&v| v >> REL_SHIFT == i).map(|&v| v & ORD_MASK).collect();
            if matches!(rel.source, Source::Derived(_)) {
                proj = (0..rel.fields.len()).collect();
            } else if proj.is_empty() {
                proj.push(0);
            }
            projections.push(proj);
        }

        let mut positions: HashMap<usize, usize> = HashMap::new();
        let mut chain_types: Vec<DataType> = Vec::new();
        let mut width = 0usize;
        let mut plan: Option<Plan> = None;
        for (step, &ri) in chain.iter().enumerate() {
            let rel = &self.rels[ri];
            let proj = &projections[ri];
            let rplan = self.build_rel(rel, proj);
            let rel_width = proj.len();
            let self_pos = |v: usize| -> Result<usize> {
                let ord = v & ORD_MASK;
                proj.iter()
                    .position(|&o| o == ord)
                    .ok_or_else(|| Error::Internal("column missing from projection".into()))
            };
            if step == 0 {
                for (idx, &ord) in proj.iter().enumerate() {
                    positions.insert(vcol(ri, ord), idx);
                    chain_types.push(self.field_type(ri, ord));
                }
                width = rel_width;
                plan = Some(rplan);
                continue;
            }
            let mut left_keys = Vec::new();
            let mut right_keys = Vec::new();
            for &(l, r) in &keys[ri] {
                left_keys.push(self.position_of(&positions, l)?);
                right_keys.push(self_pos(r)?);
            }
            let residual = if residuals[ri].is_empty() {
                None
            } else {
                let mapped: Result<Vec<Expr>> = residuals[ri]
                    .iter()
                    .map(|e| {
                        map_columns(e, &|v| {
                            if v >> REL_SHIFT == ri {
                                Ok(width + self_pos(v)?)
                            } else {
                                self.position_of(&positions, v)
                            }
                        })
                    })
                    .collect();
                and_all(mapped?)
            };
            let jt = match rel.kind {
                JoinKind::Inner | JoinKind::Cross => JoinType::Inner,
                JoinKind::Left => JoinType::Left,
                JoinKind::Semi => JoinType::Semi,
                JoinKind::Anti => JoinType::Anti,
            };
            plan = Some(
                plan.take()
                    .expect("chain started")
                    .join_full(rplan, left_keys, right_keys, jt, residual),
            );
            if rel.visible_after_join() {
                for (idx, &ord) in proj.iter().enumerate() {
                    positions.insert(vcol(ri, ord), width + idx);
                    chain_types.push(self.field_type(ri, ord));
                }
                width += rel_width;
            }
        }
        let mut plan = plan.ok_or_else(|| err("SELECT without FROM is not supported"))?;

        if !post.is_empty() {
            let mapped: Result<Vec<Expr>> =
                post.iter().map(|e| map_columns(e, &|v| self.position_of(&positions, v))).collect();
            let pred = and_all(mapped?).expect("nonempty post filter");
            plan = plan.filter(pred);
        }

        // Aggregation (or DISTINCT, which is an aggregate with no outputs).
        let mut out_types: Vec<DataType>;
        let mut final_outs: Vec<Expr>;
        if agg_mode || sel.distinct {
            let group_src: Vec<Expr> = if sel.distinct { outs.clone() } else { env.groups.clone() };
            let groups_mapped: Result<Vec<Expr>> = group_src
                .iter()
                .map(|e| map_columns(e, &|v| self.position_of(&positions, v)))
                .collect();
            let groups_mapped = groups_mapped?;
            let aggs_mapped: Result<Vec<Aggregate>> = env
                .aggs
                .iter()
                .map(|(func, input)| {
                    Ok(Aggregate {
                        func: *func,
                        input: map_columns(input, &|v| self.position_of(&positions, v))?,
                    })
                })
                .collect();
            let aggs_mapped = aggs_mapped?;
            out_types = Vec::new();
            for g in &groups_mapped {
                out_types.push(infer_type(g, &chain_types)?);
            }
            for a in &aggs_mapped {
                out_types.push(match a.func {
                    AggFunc::Count => DataType::Int64,
                    AggFunc::Sum | AggFunc::Avg => DataType::Double,
                    AggFunc::Min | AggFunc::Max => infer_type(&a.input, &chain_types)?,
                });
            }
            plan = plan.aggregate(groups_mapped, aggs_mapped);
            if let Some(h) = having_rewritten {
                plan = plan.filter(h);
            }
            final_outs =
                if sel.distinct { (0..group_src.len()).map(Expr::Column).collect() } else { outs };
        } else {
            final_outs = Vec::new();
            for e in &outs {
                final_outs.push(map_columns(e, &|v| self.position_of(&positions, v))?);
            }
            out_types = chain_types.clone();
        }

        // Final projection, skipped when it is the identity.
        let cur_width = out_types.len();
        let identity = final_outs.len() == cur_width
            && final_outs.iter().enumerate().all(|(i, e)| *e == Expr::Column(i));
        let fields: Vec<(String, DataType)>;
        if identity {
            fields = items
                .iter()
                .enumerate()
                .map(|(i, (e, a))| (output_name(e, a, i), out_types[i]))
                .collect();
        } else {
            let mut exprs = Vec::new();
            let mut out_fields = Vec::new();
            for (i, e) in final_outs.iter().enumerate() {
                let t = infer_type(e, &out_types)?;
                exprs.push((e.clone(), t));
                let (src, alias) = &items[i];
                out_fields.push((output_name(src, alias, i), t));
            }
            plan = plan.project(exprs);
            fields = out_fields;
        }

        if !sort_keys.is_empty() {
            plan = plan.sort(sort_keys, sel.limit.map(|n| n as usize));
        } else if let Some(n) = sel.limit {
            plan = plan.limit(n as usize);
        }
        Ok(LoweredSelect { plan, fields })
    }

    fn collect_rels(&mut self, sel: &Select) -> Result<()> {
        for (i, item) in sel.from.iter().enumerate() {
            let kind = if i == 0 { JoinKind::Inner } else { JoinKind::Cross };
            self.add_rel(&item.rel, kind, None)?;
            for j in &item.joins {
                self.add_rel(&j.rel, j.kind, j.on.clone())?;
            }
        }
        if self.rels.is_empty() {
            return Err(err("SELECT without FROM is not supported"));
        }
        Ok(())
    }

    fn add_rel(&mut self, r: &TableRef, kind: JoinKind, on: Option<SqlExpr>) -> Result<()> {
        let (source, binding, fields) = match r {
            TableRef::Table { name, alias } => {
                let info = self.cat.get(name)?;
                let fields = info.fields.clone();
                (Source::Base(info), alias.clone().unwrap_or_else(|| name.clone()), fields)
            }
            TableRef::Derived { select, alias } => {
                let lowered = lower_select(select, self.cat)?;
                let fields = lowered.fields.clone();
                (Source::Derived(Box::new(lowered)), alias.clone(), fields)
            }
        };
        if self.rels.iter().any(|r| r.binding == binding) {
            return Err(err(format!("duplicate table alias {binding:?}")));
        }
        if fields.len() > ORD_MASK {
            return Err(err(format!("relation {binding:?} has too many columns")));
        }
        self.rels.push(Rel { source, binding, kind, on, pushed: Vec::new(), fields });
        Ok(())
    }

    fn field_type(&self, rel: usize, ord: usize) -> DataType {
        self.rels[rel].fields.get(ord).map(|(_, t)| *t).unwrap_or(DataType::Int64)
    }

    fn push_down(&mut self, rel: usize, lowered: Expr) {
        // Base tables take the conjunct in table-ordinal space; derived
        // tables keep output positions (ordinal == position there).
        let remapped = map_columns(&lowered, &|v| Ok(v & ORD_MASK)).expect("infallible remap");
        self.rels[rel].pushed.push(remapped);
    }

    /// The filter a cross-relation OR implies for relation `rel` (DESIGN.md
    /// §12, derived filters): for `D1 OR … OR Dk` where `rel` has conjuncts
    /// of its own that cannot fail ([`Planner::cannot_fail`]) in every `Di`,
    /// `OR_i (those conjuncts of Di)`. Every row the OR keeps passes it, so
    /// `rel` may be filtered by it before the join while the OR stays where
    /// it is, and it raises no error of its own.
    fn implied_filter(&self, e: &Expr, rel: usize) -> Option<Expr> {
        let Expr::Or(disjuncts) = e else { return None };
        let mut parts: Vec<Expr> = Vec::new();
        for d in disjuncts {
            let own: Vec<Expr> = crate::optimize::fold_expr(d.clone())
                .split_conjuncts()
                .into_iter()
                .filter(|c| rels_of(c).into_iter().eq([rel]) && self.cannot_fail(c))
                .collect();
            let part = and_all(own)?;
            if !parts.contains(&part) {
                parts.push(part);
            }
        }
        Some(or_of(parts))
    }

    /// Whether `e` evaluates without error on every row: one column compared
    /// with literals of a compatible type (`= <> < <= > >=`, BETWEEN, IN,
    /// LIKE on a string column, IS NULL), and AND, OR and NOT of those.
    fn cannot_fail(&self, e: &Expr) -> bool {
        let column_type = |x: &Expr| match x {
            Expr::Column(v) => Some(self.field_type(v >> REL_SHIFT, v & ORD_MASK)),
            _ => None,
        };
        let fits = |t: DataType, v: &Value| match v.data_type() {
            None => true,
            Some(DataType::Str) => t == DataType::Str,
            Some(_) => t != DataType::Str,
        };
        match e {
            Expr::And(parts) | Expr::Or(parts) => parts.iter().all(|p| self.cannot_fail(p)),
            Expr::Not(inner) => self.cannot_fail(inner),
            Expr::IsNull(inner) => column_type(inner).is_some(),
            Expr::Like(inner, _) => column_type(inner) == Some(DataType::Str),
            Expr::InList(inner, vals) => {
                column_type(inner).is_some_and(|t| vals.iter().all(|v| fits(t, v)))
            }
            Expr::Cmp(_, a, b) => match (a.as_ref(), b.as_ref()) {
                (col, Expr::Literal(v)) | (Expr::Literal(v), col) => {
                    column_type(col).is_some_and(|t| fits(t, v))
                }
                _ => false,
            },
            _ => false,
        }
    }

    /// `left_prefix.col = self.col` in an ON clause becomes a hash-key pair
    /// unless either side is Double (float equality stays a residual so
    /// epsilon-style predicates keep their semantics).
    fn key_pair(&self, e: &Expr, this: usize) -> Option<(usize, usize)> {
        let Expr::Cmp(CmpOp::Eq, a, b) = e else { return None };
        let (Expr::Column(x), Expr::Column(y)) = (a.as_ref(), b.as_ref()) else { return None };
        let (rx, ry) = (x >> REL_SHIFT, y >> REL_SHIFT);
        if rx == ry {
            return None;
        }
        let (prefix_v, self_v) = if ry == this && rx < this {
            (*x, *y)
        } else if rx == this && ry < this {
            (*y, *x)
        } else {
            return None;
        };
        let t1 = self.field_type(prefix_v >> REL_SHIFT, prefix_v & ORD_MASK);
        let t2 = self.field_type(self_v >> REL_SHIFT, self_v & ORD_MASK);
        if t1 == DataType::Double || t2 == DataType::Double || t1 != t2 {
            return None;
        }
        Some((prefix_v, self_v))
    }

    /// A comma-style WHERE equality joining two cross-joined relations.
    fn equi_edge(&self, e: &Expr, rset: &BTreeSet<usize>) -> Option<Edge> {
        if rset.len() != 2 {
            return None;
        }
        let Expr::Cmp(CmpOp::Eq, a, b) = e else { return None };
        let (Expr::Column(x), Expr::Column(y)) = (a.as_ref(), b.as_ref()) else { return None };
        for &r in rset {
            let kind = self.rels[r].kind;
            if !(kind == JoinKind::Cross || (r == 0 && kind == JoinKind::Inner)) {
                return None;
            }
        }
        let t1 = self.field_type(x >> REL_SHIFT, x & ORD_MASK);
        let t2 = self.field_type(y >> REL_SHIFT, y & ORD_MASK);
        if t1 == DataType::Double || t1 != t2 {
            return None;
        }
        Some(Edge { a: *x, b: *y })
    }

    fn rel_est(&self, rel: &Rel, _ri: usize) -> f64 {
        match &rel.source {
            Source::Base(info) => {
                let filter = and_all(rel.pushed.clone());
                info.stats.filtered_rows(filter.as_ref())
            }
            Source::Derived(l) => stats::estimate(&l.plan, &|t| self.cat.stats(t)).rows,
        }
    }

    /// Greedy cost-based order for comma-joined relations: the largest
    /// filtered relation drives (probe side stays big, hash builds stay
    /// small), then repeatedly join the smallest relation connected to the
    /// prefix by an equality edge.
    fn order_by_cost(&self, edges: &[Edge]) -> Vec<usize> {
        let n = self.rels.len();
        let est: Vec<f64> = self.rels.iter().enumerate().map(|(i, r)| self.rel_est(r, i)).collect();
        let mut chain = Vec::with_capacity(n);
        let mut in_chain = vec![false; n];
        let start = (0..n).max_by(|&a, &b| est[a].total_cmp(&est[b]).then(b.cmp(&a))).unwrap_or(0);
        chain.push(start);
        in_chain[start] = true;
        while chain.len() < n {
            let connected = |r: usize| {
                edges.iter().any(|e| {
                    (e.a >> REL_SHIFT == r && in_chain[e.b >> REL_SHIFT])
                        || (e.b >> REL_SHIFT == r && in_chain[e.a >> REL_SHIFT])
                })
            };
            let candidates: Vec<usize> = (0..n).filter(|&r| !in_chain[r] && connected(r)).collect();
            let pool: Vec<usize> = if candidates.is_empty() {
                (0..n).filter(|&r| !in_chain[r]).collect()
            } else {
                candidates
            };
            let next = pool
                .iter()
                .copied()
                .min_by(|&a, &b| est[a].total_cmp(&est[b]).then(a.cmp(&b)))
                .expect("pool nonempty");
            chain.push(next);
            in_chain[next] = true;
        }
        chain
    }

    fn build_rel(&self, rel: &Rel, proj: &[usize]) -> Plan {
        match &rel.source {
            Source::Base(info) => {
                Plan::scan(info.name.clone(), proj.to_vec(), and_all(rel.pushed.clone()))
            }
            Source::Derived(l) => {
                let inner = l.plan.clone();
                match and_all(rel.pushed.clone()) {
                    Some(pred) => inner.filter(pred),
                    None => inner,
                }
            }
        }
    }

    fn position_of(&self, positions: &HashMap<usize, usize>, v: usize) -> Result<usize> {
        positions.get(&v).copied().ok_or_else(|| {
            let rel = v >> REL_SHIFT;
            let ord = v & ORD_MASK;
            let name = self.rels[rel]
                .fields
                .get(ord)
                .map(|(n, _)| n.clone())
                .unwrap_or_else(|| format!("#{ord}"));
            err(format!(
                "column {}.{name} is only visible inside its SEMI/ANTI JOIN condition",
                self.rels[rel].binding
            ))
        })
    }

    fn expand_items(
        &self,
        items: &[SelectItem],
        mask: &[bool],
    ) -> Result<Vec<(SqlExpr, Option<String>)>> {
        let mut out = Vec::new();
        for item in items {
            match item {
                SelectItem::Wildcard => {
                    for (i, rel) in self.rels.iter().enumerate() {
                        if !mask[i] {
                            continue;
                        }
                        for (name, _) in &rel.fields {
                            out.push((
                                SqlExpr::Column {
                                    qualifier: Some(rel.binding.clone()),
                                    name: name.clone(),
                                },
                                None,
                            ));
                        }
                    }
                }
                SelectItem::Expr { expr, alias } => out.push((expr.clone(), alias.clone())),
            }
        }
        if out.is_empty() {
            return Err(err("SELECT list is empty"));
        }
        Ok(out)
    }

    /// Resolve a GROUP BY entry: a bare integer is a 1-based reference to a
    /// select item.
    fn positional<'s>(
        &self,
        g: &'s SqlExpr,
        items: &'s [(SqlExpr, Option<String>)],
    ) -> Result<&'s SqlExpr> {
        if let SqlExpr::Int(k) = g {
            let idx = usize::try_from(*k - 1)
                .ok()
                .filter(|i| *i < items.len())
                .ok_or_else(|| err(format!("GROUP BY position {k} is out of range")))?;
            return Ok(&items[idx].0);
        }
        // An unqualified name matching a select alias refers to that item.
        if let SqlExpr::Column { qualifier: None, name } = g {
            if self.resolve(None, name, &vec![true; self.rels.len()]).is_err() {
                if let Some((e, _)) =
                    items.iter().find(|(_, a)| a.as_deref() == Some(name.as_str()))
                {
                    return Ok(e);
                }
            }
        }
        Ok(g)
    }

    fn resolve_order(
        &self,
        o: &OrderItem,
        outs: &[Expr],
        aliases: &[Option<String>],
        mask: &[bool],
        env: &mut AggEnv,
        agg_mode: bool,
    ) -> Result<usize> {
        if let SqlExpr::Int(k) = &o.expr {
            return usize::try_from(*k - 1)
                .ok()
                .filter(|i| *i < outs.len())
                .ok_or_else(|| err(format!("ORDER BY position {k} is out of range")));
        }
        if let SqlExpr::Column { qualifier: None, name } = &o.expr {
            if let Some(i) = aliases.iter().position(|a| a.as_deref() == Some(name.as_str())) {
                return Ok(i);
            }
        }
        let lowered = if agg_mode {
            self.lower(&o.expr, mask, Some(env))?
        } else {
            self.lower(&o.expr, mask, None)?
        };
        outs.iter()
            .position(|e| *e == lowered)
            .ok_or_else(|| err("ORDER BY expression must appear in the SELECT list"))
    }

    fn resolve(&self, qualifier: Option<&str>, name: &str, mask: &[bool]) -> Result<usize> {
        match qualifier {
            Some(q) => {
                let (i, rel) = self
                    .rels
                    .iter()
                    .enumerate()
                    .find(|(i, r)| r.binding == q && mask[*i])
                    .ok_or_else(|| Error::NotFound(format!("unknown table alias {q:?}")))?;
                let ord = rel
                    .fields
                    .iter()
                    .position(|(n, _)| n == name)
                    .ok_or_else(|| Error::NotFound(format!("unknown column {q}.{name}")))?;
                Ok(vcol(i, ord))
            }
            None => {
                let mut hit: Option<usize> = None;
                for (i, rel) in self.rels.iter().enumerate() {
                    if !mask[i] {
                        continue;
                    }
                    if let Some(ord) = rel.fields.iter().position(|(n, _)| n == name) {
                        if hit.is_some() {
                            return Err(err(format!("ambiguous column {name:?}")));
                        }
                        hit = Some(vcol(i, ord));
                    }
                }
                hit.ok_or_else(|| Error::NotFound(format!("unknown column {name:?}")))
            }
        }
    }

    /// Lower a scalar expression to virtual-column space. With `agg` set the
    /// result is in post-aggregate space: subexpressions matching a GROUP BY
    /// key become key positions, aggregates become aggregate positions, and
    /// any other column reference is an error.
    fn lower(&self, e: &SqlExpr, mask: &[bool], mut agg: Option<&mut AggEnv>) -> Result<Expr> {
        if let Some(env) = agg.as_deref_mut() {
            if !e.has_agg() {
                let scalar = self.lower(e, mask, None)?;
                if let Some(i) = env.groups.iter().position(|g| *g == scalar) {
                    return Ok(Expr::Column(i));
                }
                if scalar.referenced_columns().is_empty() {
                    return Ok(scalar);
                }
                // Fall through: operators recurse so `f(group_expr)` works;
                // bare columns outside any group expression error below.
            }
        }
        let low = |x: &SqlExpr, agg: &mut Option<&mut AggEnv>| -> Result<Expr> {
            self.lower(x, mask, agg.as_deref_mut())
        };
        match e {
            SqlExpr::Column { qualifier, name } => match agg {
                None => Ok(Expr::Column(self.resolve(qualifier.as_deref(), name, mask)?)),
                Some(_) => Err(err(format!(
                    "column {name:?} must appear in GROUP BY or inside an aggregate"
                ))),
            },
            SqlExpr::Int(v) => Ok(Expr::Literal(Value::Int(*v))),
            SqlExpr::Double(v) => Ok(Expr::Literal(Value::Double(*v))),
            SqlExpr::Str(s) => Ok(Expr::Literal(Value::str(s.clone()))),
            SqlExpr::Null => Ok(Expr::Literal(Value::Null)),
            SqlExpr::Cmp(op, a, b) => {
                Ok(Expr::Cmp(*op, Box::new(low(a, &mut agg)?), Box::new(low(b, &mut agg)?)))
            }
            SqlExpr::Arith(op, a, b) => {
                Ok(Expr::Arith(*op, Box::new(low(a, &mut agg)?), Box::new(low(b, &mut agg)?)))
            }
            SqlExpr::And(a, b) => Ok(low(a, &mut agg)?.and(low(b, &mut agg)?)),
            SqlExpr::Or(a, b) => Ok(or_flat(low(a, &mut agg)?, low(b, &mut agg)?)),
            SqlExpr::Not(inner) => Ok(Expr::Not(Box::new(low(inner, &mut agg)?))),
            SqlExpr::IsNull { expr, negated } => {
                let inner = Expr::IsNull(Box::new(low(expr, &mut agg)?));
                Ok(if *negated { Expr::Not(Box::new(inner)) } else { inner })
            }
            SqlExpr::InList { expr, list, negated } => {
                let mut values = Vec::with_capacity(list.len());
                for item in list {
                    let folded = crate::optimize::fold_expr(self.lower(item, mask, None)?);
                    match folded {
                        Expr::Literal(v) => values.push(v),
                        _ => return Err(err("IN list items must be constants")),
                    }
                }
                let inner = Expr::InList(Box::new(low(expr, &mut agg)?), values);
                Ok(if *negated { Expr::Not(Box::new(inner)) } else { inner })
            }
            SqlExpr::Like { expr, pattern, negated } => {
                let inner = Expr::Like(Box::new(low(expr, &mut agg)?), pattern.clone());
                Ok(if *negated { Expr::Not(Box::new(inner)) } else { inner })
            }
            SqlExpr::Between { expr, lo, hi, negated } => {
                let x = low(expr, &mut agg)?;
                let ge = Expr::Cmp(CmpOp::Ge, Box::new(x.clone()), Box::new(low(lo, &mut agg)?));
                let le = Expr::Cmp(CmpOp::Le, Box::new(x), Box::new(low(hi, &mut agg)?));
                let both = ge.and(le);
                Ok(if *negated { Expr::Not(Box::new(both)) } else { both })
            }
            SqlExpr::Case { when, else_ } => {
                let mut arms = Vec::with_capacity(when.len());
                for (c, r) in when {
                    arms.push((low(c, &mut agg)?, low(r, &mut agg)?));
                }
                let else_expr = match else_ {
                    Some(x) => low(x, &mut agg)?,
                    None => Expr::Literal(Value::Null),
                };
                Ok(Expr::Case { when: arms, else_: Box::new(else_expr) })
            }
            SqlExpr::Func(FuncName::Year, args) => {
                Ok(Expr::Year(Box::new(low(&args[0], &mut agg)?)))
            }
            SqlExpr::Func(FuncName::Substr, args) => {
                let start = const_usize(self.lower(&args[1], mask, None)?)?;
                let len = const_usize(self.lower(&args[2], mask, None)?)?;
                if start == 0 {
                    return Err(err("SUBSTR start position is 1-based"));
                }
                Ok(Expr::Substr(Box::new(low(&args[0], &mut agg)?), start, len))
            }
            SqlExpr::Agg { func, arg } => match agg {
                Some(env) => {
                    let input = match arg {
                        Some(a) => self.lower(a, mask, None)?,
                        None => Expr::Literal(Value::Int(1)),
                    };
                    let idx = match env.aggs.iter().position(|(f, i)| f == func && *i == input) {
                        Some(i) => i,
                        None => {
                            env.aggs.push((*func, input));
                            env.aggs.len() - 1
                        }
                    };
                    Ok(Expr::Column(env.groups.len() + idx))
                }
                None => Err(err("aggregates are not allowed in this clause")),
            },
        }
    }
}

impl Edge {
    fn a_col(&self) -> usize {
        self.a
    }
    fn b_col(&self) -> usize {
        self.b
    }
}

fn const_usize(e: Expr) -> Result<usize> {
    match crate::optimize::fold_expr(e) {
        Expr::Literal(Value::Int(v)) if v >= 0 => Ok(v as usize),
        _ => Err(err("expected a non-negative integer constant")),
    }
}

fn output_name(e: &SqlExpr, alias: &Option<String>, i: usize) -> String {
    if let Some(a) = alias {
        return a.clone();
    }
    if let SqlExpr::Column { name, .. } = e {
        return name.clone();
    }
    format!("col{i}")
}

fn split_sql_conjuncts(e: &SqlExpr) -> Vec<&SqlExpr> {
    match e {
        SqlExpr::And(a, b) => {
            let mut out = split_sql_conjuncts(a);
            out.extend(split_sql_conjuncts(b));
            out
        }
        other => vec![other],
    }
}

fn rels_of(e: &Expr) -> BTreeSet<usize> {
    e.referenced_columns().into_iter().map(|v| v >> REL_SHIFT).collect()
}

fn rels_of_cols(e: &Expr) -> Vec<usize> {
    e.referenced_columns()
}

fn or_flat(a: Expr, b: Expr) -> Expr {
    match (a, b) {
        (Expr::Or(mut xs), Expr::Or(ys)) => {
            xs.extend(ys);
            Expr::Or(xs)
        }
        (Expr::Or(mut xs), y) => {
            xs.push(y);
            Expr::Or(xs)
        }
        (x, Expr::Or(mut ys)) => {
            ys.insert(0, x);
            Expr::Or(ys)
        }
        (x, y) => Expr::Or(vec![x, y]),
    }
}

/// The disjunction of `parts`: one IN list when every part is an equality
/// or an IN list on the same column, else their flattened OR.
fn or_of(parts: Vec<Expr>) -> Expr {
    fn members(e: &Expr) -> Option<(&Expr, &[Value])> {
        match e {
            Expr::Cmp(CmpOp::Eq, a, b) => match (a.as_ref(), b.as_ref()) {
                (col @ Expr::Column(_), Expr::Literal(v))
                | (Expr::Literal(v), col @ Expr::Column(_)) => Some((col, std::slice::from_ref(v))),
                _ => None,
            },
            Expr::InList(col, vals) if matches!(col.as_ref(), Expr::Column(_)) => Some((col, vals)),
            _ => None,
        }
    }
    let lists: Option<Vec<(&Expr, &[Value])>> = parts.iter().map(members).collect();
    if let Some(lists) = lists.filter(|l| l.iter().all(|(col, _)| *col == l[0].0)) {
        let mut vals: Vec<Value> = Vec::new();
        for v in lists.iter().flat_map(|(_, vs)| vs.iter()) {
            if !vals.contains(v) {
                vals.push(v.clone());
            }
        }
        return Expr::InList(Box::new(lists[0].0.clone()), vals);
    }
    parts.into_iter().reduce(or_flat).expect("one part per disjunct")
}

/// Fold a conjunct list into one expression (flattening nested ANDs the same
/// way the hand-built plans do via [`Expr::and`]).
pub(crate) fn and_all(mut parts: Vec<Expr>) -> Option<Expr> {
    match parts.len() {
        0 => None,
        1 => parts.pop(),
        _ => {
            let mut it = parts.into_iter();
            let first = it.next().expect("len checked");
            Some(it.fold(first, Expr::and))
        }
    }
}

/// Rewrite every column reference through `f`.
pub(crate) fn map_columns(e: &Expr, f: &dyn Fn(usize) -> Result<usize>) -> Result<Expr> {
    Ok(match e {
        Expr::Column(c) => Expr::Column(f(*c)?),
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Cmp(op, a, b) => {
            Expr::Cmp(*op, Box::new(map_columns(a, f)?), Box::new(map_columns(b, f)?))
        }
        Expr::And(parts) => {
            Expr::And(parts.iter().map(|p| map_columns(p, f)).collect::<Result<_>>()?)
        }
        Expr::Or(parts) => {
            Expr::Or(parts.iter().map(|p| map_columns(p, f)).collect::<Result<_>>()?)
        }
        Expr::Not(inner) => Expr::Not(Box::new(map_columns(inner, f)?)),
        Expr::IsNull(inner) => Expr::IsNull(Box::new(map_columns(inner, f)?)),
        Expr::InList(inner, vals) => Expr::InList(Box::new(map_columns(inner, f)?), vals.clone()),
        Expr::Like(inner, pat) => Expr::Like(Box::new(map_columns(inner, f)?), pat.clone()),
        Expr::Arith(op, a, b) => {
            Expr::Arith(*op, Box::new(map_columns(a, f)?), Box::new(map_columns(b, f)?))
        }
        Expr::Case { when, else_ } => Expr::Case {
            when: when
                .iter()
                .map(|(c, r)| Ok((map_columns(c, f)?, map_columns(r, f)?)))
                .collect::<Result<_>>()?,
            else_: Box::new(map_columns(else_, f)?),
        },
        Expr::Year(inner) => Expr::Year(Box::new(map_columns(inner, f)?)),
        Expr::Substr(inner, s, l) => Expr::Substr(Box::new(map_columns(inner, f)?), *s, *l),
        Expr::KeyFilter(inner, kf) => Expr::KeyFilter(Box::new(map_columns(inner, f)?), kf.clone()),
    })
}

/// Infer the output type of an expression over inputs of the given types.
/// Must agree with runtime evaluation: the vector builder rejects doubles in
/// an Int64 column, so anything that can produce a double types as Double.
pub(crate) fn infer_type(e: &Expr, inputs: &[DataType]) -> Result<DataType> {
    Ok(infer_opt(e, inputs)?.unwrap_or(DataType::Int64))
}

fn infer_opt(e: &Expr, inputs: &[DataType]) -> Result<Option<DataType>> {
    Ok(match e {
        Expr::Column(c) => Some(
            *inputs.get(*c).ok_or_else(|| Error::Internal(format!("column #{c} out of range")))?,
        ),
        Expr::Literal(v) => v.data_type(),
        Expr::Cmp(..)
        | Expr::And(_)
        | Expr::Or(_)
        | Expr::Not(_)
        | Expr::IsNull(_)
        | Expr::InList(..)
        | Expr::Like(..)
        | Expr::KeyFilter(..)
        | Expr::Year(_) => Some(DataType::Int64),
        Expr::Substr(..) => Some(DataType::Str),
        Expr::Arith(_, a, b) => {
            let ta = infer_opt(a, inputs)?;
            let tb = infer_opt(b, inputs)?;
            if ta == Some(DataType::Str) || tb == Some(DataType::Str) {
                return Err(err("arithmetic over strings"));
            }
            match (ta, tb) {
                (Some(DataType::Int64) | None, Some(DataType::Int64) | None) => {
                    Some(DataType::Int64)
                }
                _ => Some(DataType::Double),
            }
        }
        Expr::Case { when, else_ } => {
            let mut unified: Option<DataType> = None;
            let mut arms: Vec<&Expr> = when.iter().map(|(_, r)| r).collect();
            arms.push(else_);
            for arm in arms {
                let Some(t) = infer_opt(arm, inputs)? else { continue };
                unified = Some(match unified {
                    None => t,
                    Some(u) if u == t => u,
                    Some(DataType::Str) | Some(_) if t == DataType::Str => {
                        return Err(err("CASE arms mix strings and numbers"))
                    }
                    Some(DataType::Str) => return Err(err("CASE arms mix strings and numbers")),
                    Some(_) => DataType::Double,
                });
            }
            unified
        }
    })
}
