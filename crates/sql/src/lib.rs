//! `s2-sql`: a zero-dependency SQL front end over the s2 engines.
//!
//! Pipeline: [`lexer`] → [`parser`] → [`ast`] → name resolution and typing →
//! lowering to [`s2_query::Plan`] ([`planner`]) → plan rewrites
//! ([`optimize`]): constant folding, predicate pushdown into `Scan.filter`
//! (with the per-relation filters a cross-relation OR implies),
//! projection pruning, and cost-based join ordering plus §5-style
//! `(1 - P) / cost` clause ranking fed by segment min/max metadata and row
//! counts ([`stats`], the estimator `s2-query` shares with the executor).
//!
//! Entry points: [`plan`] compiles SQL text into an executable plan,
//! [`query`] plans and runs it against any [`QueryContext`], and
//! [`explain`] renders the annotated plan tree. [`SqlContext`] adds
//! `ctx.query(sql)` / `ctx.explain(sql)` to every query context.

pub mod ast;
pub mod explain;
pub mod lexer;
mod optimize;
pub mod parser;
pub mod planner;
pub use s2_query::stats;

use std::time::Instant;

use s2_common::{DataType, Error, Result};
use s2_exec::Batch;
use s2_obs::{counter, histogram};
use s2_query::{ExecOptions, Plan, QueryContext};

pub use lexer::ParseError;
pub use parser::parse;
pub use planner::Catalog;

use ast::Statement;

/// A compiled SQL statement: the optimized plan plus output metadata.
pub struct CompiledQuery {
    /// Executable plan.
    pub plan: Plan,
    /// Output column names and types, in order.
    pub fields: Vec<(String, DataType)>,
    /// Whether the statement was an `EXPLAIN`.
    pub explain: bool,
}

fn parse_checked(sql: &str) -> Result<Statement> {
    counter!("sql.parse_total").inc();
    parse(sql).map_err(|e| {
        counter!("sql.parse_errors").inc();
        Error::InvalidArgument(e.render(sql))
    })
}

fn compile(sql: &str, cat: &Catalog<'_>) -> Result<CompiledQuery> {
    let stmt = parse_checked(sql)?;
    let start = Instant::now();
    let (sel, explain) = match &stmt {
        Statement::Select(s) => (s, false),
        Statement::Explain(s) => (s, true),
    };
    let lowered = planner::lower_select(sel, cat)?;
    let plan = optimize::optimize(lowered.plan, cat);
    counter!("sql.plan_total").inc();
    histogram!("sql.plan_ms").record(start.elapsed().as_millis() as u64);
    Ok(CompiledQuery { plan, fields: lowered.fields, explain })
}

/// Compile `sql` into an optimized plan against the tables visible in `ctx`.
/// `EXPLAIN` statements compile the inner SELECT and set
/// [`CompiledQuery::explain`].
pub fn plan(ctx: &dyn QueryContext, sql: &str) -> Result<CompiledQuery> {
    let cat = Catalog::new(ctx);
    compile(sql, &cat)
}

/// Render the annotated `EXPLAIN` output for `sql` (works on plain SELECTs
/// too).
pub fn explain(ctx: &dyn QueryContext, sql: &str) -> Result<String> {
    let cat = Catalog::new(ctx);
    let compiled = compile(sql, &cat)?;
    Ok(explain::explain_plan(&compiled.plan, &cat))
}

/// Plan and execute `sql` against `ctx`. An `EXPLAIN` statement returns a
/// single `plan` string column holding the annotated tree.
pub fn query(ctx: &dyn QueryContext, sql: &str) -> Result<Batch> {
    query_with(ctx, sql, &ExecOptions::default())
}

/// [`query`] with explicit execution options.
pub fn query_with(ctx: &dyn QueryContext, sql: &str, opts: &ExecOptions) -> Result<Batch> {
    let cat = Catalog::new(ctx);
    let compiled = compile(sql, &cat)?;
    if compiled.explain {
        let text = explain::explain_plan(&compiled.plan, &cat);
        let rows: Vec<s2_common::Row> =
            text.lines().map(|l| s2_common::Row::new(vec![s2_common::Value::str(l)])).collect();
        return Batch::from_rows(&rows, &[0], &[DataType::Str]);
    }
    s2_query::execute(&compiled.plan, ctx, opts)
}

/// SQL entry points on any query context: `ctx.query("SELECT ...")`.
pub trait SqlContext {
    /// Plan and execute a SQL string.
    fn query(&self, sql: &str) -> Result<Batch>;
    /// Render the annotated plan tree for a SQL string.
    fn explain(&self, sql: &str) -> Result<String>;
}

impl<T: QueryContext> SqlContext for T {
    fn query(&self, sql: &str) -> Result<Batch> {
        query(self, sql)
    }
    fn explain(&self, sql: &str) -> Result<String> {
        explain(self, sql)
    }
}
