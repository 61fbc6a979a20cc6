//! Read-only workspaces (paper §3.2, figure 2): isolated compute provisioned
//! from blob storage, then kept fresh by replicating only the log tail from
//! the primary workspace. Workspace replicas never acknowledge commits —
//! they add read capacity without being on the durability path.

use std::sync::Arc;
use std::time::Duration;

use s2_blob::{ObjectStore, UploaderConfig};
use s2_common::{Result, TableId};
use s2_core::TableSnapshot;
use s2_exec::Batch;
use s2_query::{execute, ExecOptions, Plan, UnionContext};

use crate::cluster::Cluster;
use crate::pitr::restore_from_blob;
use crate::replica::Replica;
use crate::storage::BlobBackedFileStore;

/// A read-only workspace over a cluster's databases.
pub struct Workspace {
    /// Workspace name.
    pub name: String,
    replicas: Vec<Replica>,
    /// Per-partition blob-backed file stores (each workspace caches its own
    /// set of data files independently, paper §3.2).
    pub file_stores: Vec<Arc<BlobBackedFileStore>>,
    cluster: Arc<Cluster>,
}

impl Workspace {
    /// Provision a workspace: restore each partition from blob storage
    /// (snapshot + uploaded log chunks), then attach to the primary's log
    /// tail from the restore point. Data files are pulled from the blob
    /// store on demand — provisioning does not wait for them, which is what
    /// makes workspace creation fast.
    ///
    /// Cold reads share the cluster's `BlobHealth` breaker when it runs
    /// separated storage: a blob outage observed by the primaries makes
    /// workspace cold reads fail fast too (degraded mode), and vice versa.
    pub fn provision(
        name: impl Into<String>,
        cluster: &Arc<Cluster>,
        blob: &Arc<dyn ObjectStore>,
        cache_bytes: usize,
    ) -> Result<Workspace> {
        Self::provision_with_tuning(name, cluster, blob, cache_bytes, Duration::from_secs(2))
    }

    /// [`Workspace::provision`] with the cold-read deadline budget pinned
    /// (drills and tests use a short one).
    pub fn provision_with_tuning(
        name: impl Into<String>,
        cluster: &Arc<Cluster>,
        blob: &Arc<dyn ObjectStore>,
        cache_bytes: usize,
        read_budget: Duration,
    ) -> Result<Workspace> {
        let name = name.into();
        let mut replicas = Vec::with_capacity(cluster.partition_count());
        let mut file_stores = Vec::with_capacity(cluster.partition_count());
        // Restore reads (snapshots, sealed log chunks) go through a local
        // read cache too — the chunk that tells us the blob tail position is
        // the same one the log replay loads a moment later.
        let cached: Arc<dyn ObjectStore> =
            Arc::new(s2_blob::CachedStore::new(Arc::clone(blob), cache_bytes / 4));
        for pid in 0..cluster.partition_count() {
            // Kill point: a crash mid-provision unwinds out of here, dropping
            // the partial replica set (their apply threads stop cleanly) —
            // a half-provisioned workspace is never observable.
            s2_common::fault::crash_point("workspace.provision");
            let set = cluster.set(pid);
            let health = match cluster.blob_health() {
                Some(h) => Arc::clone(h),
                None => s2_blob::BlobHealth::new(format!("workspace-{name}#{pid}")),
            };
            // A workspace replica never flushes or merges, so its file store
            // only reads: the uploader keeps its default tuning.
            let files = BlobBackedFileStore::with_tuning(
                Arc::clone(blob),
                cache_bytes,
                UploaderConfig::default(),
                health,
                read_budget,
            );
            let restored = restore_from_blob(
                &cached,
                &set.name,
                files.clone() as Arc<dyn s2_core::DataFileStore>,
                None,
            )?;
            let from_lp = restored.log.end_lp();
            let master = set.master();
            // Tail replication from the primary (paper: "replicate the tail
            // of the log (not yet in blob storage) from the master").
            let replica = Replica::start(&master, restored, from_lp, false)?;
            replicas.push(replica);
            file_stores.push(files);
        }
        Ok(Workspace { name, replicas, file_stores, cluster: Arc::clone(cluster) })
    }

    /// Attach a workspace without blob storage: replicas replay the full
    /// log stream from the primaries and share their data-file stores
    /// (paper Table 3 test case 5: "no blob store", all data local). Slower
    /// to provision than the blob path — the whole history streams from the
    /// primary — which is exactly the elasticity cost §3.1 attributes to
    /// running without separated storage.
    pub fn attach_local(name: impl Into<String>, cluster: &Arc<Cluster>) -> Result<Workspace> {
        let name = name.into();
        let mut replicas = Vec::with_capacity(cluster.partition_count());
        for pid in 0..cluster.partition_count() {
            s2_common::fault::crash_point("workspace.provision");
            let set = cluster.set(pid);
            let master = set.master();
            let rp = crate::replica::empty_replica_partition(&set.name, set.file_store.clone(), 0);
            replicas.push(Replica::start(&master, rp, 0, false)?);
        }
        Ok(Workspace { name, replicas, file_stores: Vec::new(), cluster: Arc::clone(cluster) })
    }

    /// The replica partition backing shard `pid` — oracle access for drills
    /// and tests that diff workspace state against the primary's.
    pub fn replica_partition(&self, pid: usize) -> &Arc<s2_core::Partition> {
        &self.replicas[pid].partition
    }

    /// Current replication lag in log bytes, maxed over partitions.
    pub fn max_lag_bytes(&self) -> u64 {
        (0..self.replicas.len())
            .map(|pid| {
                let end = self.cluster.set(pid).master().log.end_lp();
                end.saturating_sub(self.replicas[pid].applied_lp())
            })
            .max()
            .unwrap_or(0)
    }

    /// Wait until lag is zero against the masters' current positions. Each
    /// replica parks on its applied-watermark condvar (woken per applied
    /// chunk), so waiting burns no CPU even across a long blob outage.
    pub fn catch_up(&self, timeout: Duration) -> bool {
        // Wall-clock use is fine here: the cluster crate is not one of the
        // deterministic modules the R1 lint covers; this is a caller-facing
        // deadline, same as `PartitionSet::wait_replicated`.
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let mut caught_up = true;
            for pid in 0..self.replicas.len() {
                let end = self.cluster.set(pid).master().log.end_lp();
                let now = std::time::Instant::now();
                if now >= deadline {
                    return self.max_lag_bytes() == 0;
                }
                if !self.replicas[pid].wait_applied(end, deadline - now) {
                    caught_up = false;
                }
            }
            // The masters may have advanced while we waited: re-check the
            // lag against their *current* positions before declaring parity.
            if caught_up && self.max_lag_bytes() == 0 {
                return true;
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
        }
    }

    /// Build a query context over the workspace's replicas.
    ///
    /// A table whose DDL has not replicated to *every* partition replica yet
    /// is skipped (with a `workspace.ddl_pending` event) rather than failing
    /// the whole context: a workspace racing a CREATE TABLE sees the catalog
    /// a moment stale, never an error.
    pub fn context(&self) -> Result<UnionContext> {
        let mut ctx = UnionContext::new();
        // Discover tables from the first replica (DDL replicates like data).
        let first = &self.replicas[0].partition;
        let ids: Vec<TableId> = first.table_ids();
        let mut names: Vec<(TableId, String)> = Vec::new();
        for id in ids {
            names.push((id, first.table(id)?.name.clone()));
        }
        let snaps: Vec<_> = self.replicas.iter().map(|r| r.partition.read_snapshot()).collect();
        'tables: for (id, name) in names {
            let mut per_table: Vec<Arc<TableSnapshot>> = Vec::new();
            for snap in &snaps {
                match snap.table(id) {
                    Ok(t) => per_table.push(Arc::clone(t)),
                    Err(_) => {
                        s2_obs::counter!("workspace.ddl_pending_skips").inc();
                        s2_obs::event(
                            "workspace.ddl_pending",
                            format!("table {name:?} not yet replicated on workspace {}", self.name),
                        );
                        continue 'tables;
                    }
                }
            }
            ctx.add_table(name, per_table);
        }
        Ok(ctx)
    }

    /// Run a read query on the workspace's own compute.
    pub fn execute(&self, plan: &Plan, opts: &ExecOptions) -> Result<Batch> {
        let ctx = self.context()?;
        execute(plan, &ctx, opts)
    }
}
