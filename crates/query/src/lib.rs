//! Logical plans, the one cardinality estimator ([`stats`], shared with
//! the SQL planner and `EXPLAIN`) and the plan executor over the
//! vectorized kernels of `s2-exec`. Distributed (scatter/gather) execution
//! plugs in through the [`QueryContext`] trait, implemented for a single
//! partition here and for whole clusters in `s2-cluster`.

pub mod context;
pub mod exec;
pub mod plan;
pub mod stats;

pub use context::UnionContext;
pub use exec::{
    execute, execute_with_stats, format_batch, ExecOptions, ExecStats, OpKind, OpStat, QueryContext,
};
pub use plan::Plan;
