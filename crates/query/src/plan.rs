//! Logical query plans. Queries are built through this typed API directly,
//! or compiled from SQL text by the `s2-sql` front end (lexer → parser →
//! planner → optimizer), which lowers every statement to these nodes; the
//! hand-built benchmark plans and their SQL-text forms are asserted
//! byte-identical in `s2-workloads`.

use s2_common::DataType;
use s2_exec::{Aggregate, Expr, JoinType, SortDir};

/// A logical plan node. Column references in expressions are *table
/// ordinals* inside `Scan.filter` and *batch positions* everywhere else.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Scan a table: project `projection` (table ordinals) from rows passing
    /// `filter`.
    Scan {
        /// Table name.
        table: String,
        /// Output columns as table ordinals.
        projection: Vec<usize>,
        /// Predicate over table ordinals (pushed into the adaptive scan).
        filter: Option<Expr>,
    },
    /// Filter rows of the input (batch positions).
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Predicate over batch positions.
        predicate: Expr,
    },
    /// Compute expressions over the input.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// (expression, output type) per output column.
        exprs: Vec<(Expr, DataType)>,
    },
    /// Hash equi-join. Output = left columns then right columns
    /// (Semi/Anti: left columns only).
    Join {
        /// Probe side.
        left: Box<Plan>,
        /// Build side.
        right: Box<Plan>,
        /// Probe-side key positions.
        left_keys: Vec<usize>,
        /// Build-side key positions.
        right_keys: Vec<usize>,
        /// Join type.
        join_type: JoinType,
        /// Residual predicate over combined positions (left then right).
        residual: Option<Expr>,
    },
    /// Hash aggregation. Output = group keys then aggregate results.
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Group-by expressions (batch positions).
        group_by: Vec<Expr>,
        /// Aggregates.
        aggregates: Vec<Aggregate>,
    },
    /// Sort (optionally top-N).
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// (batch position, direction) sort keys.
        keys: Vec<(usize, SortDir)>,
        /// Optional row limit applied after the sort.
        limit: Option<usize>,
    },
    /// Row limit without sorting.
    Limit {
        /// Input plan.
        input: Box<Plan>,
        /// Maximum rows.
        n: usize,
    },
}

impl Plan {
    /// Scan builder.
    pub fn scan(table: impl Into<String>, projection: Vec<usize>, filter: Option<Expr>) -> Plan {
        Plan::Scan { table: table.into(), projection, filter }
    }

    /// Filter builder.
    pub fn filter(self, predicate: Expr) -> Plan {
        Plan::Filter { input: Box::new(self), predicate }
    }

    /// Projection builder.
    pub fn project(self, exprs: Vec<(Expr, DataType)>) -> Plan {
        Plan::Project { input: Box::new(self), exprs }
    }

    /// Inner-join builder.
    pub fn join(self, right: Plan, left_keys: Vec<usize>, right_keys: Vec<usize>) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
            left_keys,
            right_keys,
            join_type: JoinType::Inner,
            residual: None,
        }
    }

    /// Join builder with explicit type and residual.
    pub fn join_full(
        self,
        right: Plan,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        join_type: JoinType,
        residual: Option<Expr>,
    ) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
            left_keys,
            right_keys,
            join_type,
            residual,
        }
    }

    /// Aggregation builder.
    pub fn aggregate(self, group_by: Vec<Expr>, aggregates: Vec<Aggregate>) -> Plan {
        Plan::Aggregate { input: Box::new(self), group_by, aggregates }
    }

    /// Sort builder.
    pub fn sort(self, keys: Vec<(usize, SortDir)>, limit: Option<usize>) -> Plan {
        Plan::Sort { input: Box::new(self), keys, limit }
    }

    /// Limit builder.
    pub fn limit(self, n: usize) -> Plan {
        Plan::Limit { input: Box::new(self), n }
    }

    /// Number of output columns.
    pub fn width(&self) -> usize {
        match self {
            Plan::Scan { projection, .. } => projection.len(),
            Plan::Filter { input, .. } | Plan::Sort { input, .. } | Plan::Limit { input, .. } => {
                input.width()
            }
            Plan::Project { exprs, .. } => exprs.len(),
            Plan::Join { left, right, join_type, .. } => match join_type {
                JoinType::Inner | JoinType::Left => left.width() + right.width(),
                JoinType::Semi | JoinType::Anti => left.width(),
            },
            Plan::Aggregate { group_by, aggregates, .. } => group_by.len() + aggregates.len(),
        }
    }
}
