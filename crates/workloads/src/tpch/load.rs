//! Loaders and plan runners for the three engines under comparison.

use std::sync::Arc;

use s2_baseline::{CdbEngine, CdwEngine};
use s2_cluster::{Cluster, Workspace};
use s2_common::{Result, Row};
use s2_core::DuplicatePolicy;
use s2_exec::Batch;
use s2_query::{execute, ExecOptions, Plan, QueryContext};

use super::queries::{rows_to_batch, PlanRunner};
use super::TpchData;

/// Rows per comparator load batch.
const LOAD_BATCH: usize = 5000;

/// Rows per cluster load transaction: a bulk load (`LOAD DATA`), one
/// transaction per table up to SF ≈ 0.16, bounded beyond that.
const LOAD_TXN_ROWS: usize = 1_000_000;

/// Load the generated data into an S2DB cluster (unified table storage),
/// then flush + merge so scans run against settled columnstore segments —
/// the paper's "one cold run ... then warm runs" setup.
///
/// The segment layout is a function of the data alone. A partition's share
/// of a transaction commits atomically, so a flush — the forced one below or
/// the background flusher's, whichever takes the commit lock first — sees
/// all of it or none and writes the same sorted run either way, and the
/// merge policy has reached its fixpoint before the next transaction
/// starts. Loading in small transactions instead lets the 100 ms
/// maintenance tick cut runs wherever it happens to fire, and the same
/// query then costs ±10 % from one load to the next.
pub fn load_cluster(cluster: &Arc<Cluster>, data: &TpchData) -> Result<()> {
    for t in &data.tables {
        cluster.create_table(t.name, t.schema.clone(), t.options.clone())?;
        for chunk in t.rows.chunks(LOAD_TXN_ROWS) {
            let mut txn = cluster.begin();
            txn.insert_batch(t.name, chunk.to_vec(), DuplicatePolicy::Error)?;
            txn.commit()?;
            cluster.flush_table(t.name)?;
        }
    }
    Ok(())
}

/// Load into the CDW comparator (bulk batches, its strength).
pub fn load_cdw(engine: &CdwEngine, data: &TpchData) -> Result<()> {
    for t in &data.tables {
        engine.create_table(t.name, t.schema.clone())?;
        for chunk in t.rows.chunks(LOAD_BATCH * 10) {
            engine.load_batch(t.name, chunk.to_vec())?;
        }
    }
    Ok(())
}

/// Load into the CDB comparator (row-at-a-time inserts, as an operational
/// database would take them).
pub fn load_cdb(engine: &CdbEngine, data: &TpchData) -> Result<()> {
    for t in &data.tables {
        let pk = t
            .options
            .indexes
            .iter()
            .find(|d| d.unique)
            .map(|d| d.columns.clone())
            .unwrap_or_else(|| vec![0]);
        let secondary: Vec<Vec<usize>> =
            t.options.indexes.iter().filter(|d| !d.unique).map(|d| d.columns.clone()).collect();
        engine.create_table(t.name, t.schema.clone(), pk, secondary)?;
        for row in &t.rows {
            engine.insert(t.name, row.clone())?;
        }
    }
    Ok(())
}

/// Run plans on an S2DB cluster.
pub struct ClusterRunner<'a> {
    /// Target cluster.
    pub cluster: &'a Arc<Cluster>,
    /// Execution options.
    pub opts: ExecOptions,
}

impl PlanRunner for ClusterRunner<'_> {
    fn run(&self, plan: &Plan) -> Result<Batch> {
        self.cluster.execute(plan, &self.opts)
    }
}

/// Run plans on a read-only workspace.
pub struct WorkspaceRunner<'a> {
    /// Target workspace.
    pub workspace: &'a Workspace,
    /// Execution options.
    pub opts: ExecOptions,
}

impl PlanRunner for WorkspaceRunner<'_> {
    fn run(&self, plan: &Plan) -> Result<Batch> {
        self.workspace.execute(plan, &self.opts)
    }
}

/// Run plans against any [`QueryContext`] (single partition, fixed union).
pub struct ContextRunner<'a> {
    /// Snapshot source.
    pub ctx: &'a dyn QueryContext,
    /// Execution options.
    pub opts: ExecOptions,
}

impl PlanRunner for ContextRunner<'_> {
    fn run(&self, plan: &Plan) -> Result<Batch> {
        execute(plan, self.ctx, &self.opts)
    }
}

/// Run plans on the CDW comparator.
pub struct CdwRunner<'a>(pub &'a CdwEngine);

impl PlanRunner for CdwRunner<'_> {
    fn run(&self, plan: &Plan) -> Result<Batch> {
        self.0.execute(plan)
    }
}

/// Run plans on the CDB comparator (row output converted to a batch).
pub struct CdbRunner<'a>(pub &'a CdbEngine);

impl PlanRunner for CdbRunner<'_> {
    fn run(&self, plan: &Plan) -> Result<Batch> {
        let rows: Vec<Row> = self.0.execute(plan)?;
        rows_to_batch(&rows)
    }
}
