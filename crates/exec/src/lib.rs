//! Vectorized, adaptive query execution over unified table storage
//! (paper §5): expressions, column batches, the morsel-parallel adaptive
//! table scan (segment skipping, filter-strategy selection, dynamic clause
//! reordering, cached per-segment decisions) and relational kernels
//! (hash join, aggregation, sort). Parallel work runs on the process-wide
//! scoped, single-queue [`pool::ScanPool`].

pub mod batch;
pub mod cache;
pub mod encoded;
pub mod expr;
pub mod kernels;
pub mod keyfilter;
mod keys;
pub mod scan;
pub mod veval;

pub use batch::Batch;
pub use cache::DecisionCache;
pub use encoded::scan_aggregate;
pub use expr::{ArithOp, CmpOp, Expr};
pub use kernels::{
    hash_aggregate, hash_join, sort_batch, AggFunc, Aggregate, JoinTable, JoinType, SortDir,
};
pub use keyfilter::KeyFilter;
// The worker pool lives in the leaf crate `s2-pool` (so s2-core's parallel
// recovery can use it too); re-exported here to keep `s2_exec::pool::*`
// paths working.
// The metrics registry, for the query layer's operator timers. `s2-query`
// records them through this path: a dependency edge of its own would
// rewrite `ledger/Cargo.lock`, which the benchmark contract freezes.
pub use s2_obs as obs;
pub use s2_pool as pool;
pub use s2_pool::{effective_threads, ScanPool};
pub use scan::{scan, scan_partitions, ScanOptions, ScanStats};
pub use veval::{eval_vector, filter_mask, EvalVec};
