//! The cluster: hash-partitioned tables across master partitions with HA
//! replicas, synchronous in-memory replication on the commit path, blob
//! storage shipping, aggregator-style scatter/gather queries and failover
//! (paper §2, §3).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use s2_blob::{BlobHealth, ObjectStore, ResilientStore};
use s2_common::sync::{rank, Mutex, RwLock};
use s2_common::{
    Error, LogPosition, Result, RetryPolicy, Row, Schema, TableId, TableOptions, Timestamp, Value,
};
use s2_core::{DataFileStore, DuplicatePolicy, InsertReport, MemFileStore, Partition, Txn};
use s2_exec::Batch;
use s2_query::{execute_with_stats, ExecOptions, ExecStats, Plan, UnionContext};

use crate::replica::{empty_replica_partition, Replica};
use crate::storage::{BlobBackedFileStore, StorageConfig, StorageService};

/// Cluster construction parameters.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of data partitions.
    pub partitions: usize,
    /// HA replicas per partition.
    pub ha_replicas: usize,
    /// Wait for a replica ack before a commit returns (paper §3's default
    /// durability rule). Ignored when `ha_replicas == 0`.
    pub sync_replication: bool,
    /// Blob store for separated storage (None = shared-nothing mode,
    /// paper §3: "S2DB can run with and without access to a blob store").
    pub blob: Option<Arc<dyn ObjectStore>>,
    /// Local data-file cache per partition when blob storage is on.
    pub cache_bytes: usize,
    /// Log/snapshot shipping tuning.
    pub storage: StorageConfig,
    /// Blob-breaker tuning (None = production defaults). Drills use fast
    /// cooldowns so outage arcs play out in milliseconds.
    pub breaker: Option<s2_blob::BreakerConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            partitions: 4,
            ha_replicas: 1,
            sync_replication: true,
            blob: None,
            cache_bytes: 256 * 1024 * 1024,
            storage: StorageConfig::default(),
            breaker: None,
        }
    }
}

/// One partition slot: the current master, its HA replicas, and the
/// storage plumbing. Failover swaps the master in place.
pub struct PartitionSet {
    /// Partition name (stable across failovers).
    pub name: String,
    master: RwLock<Arc<Partition>>,
    replicas: Mutex<Vec<Replica>>,
    /// Data-file store shared by master and replicas (models file replication).
    pub file_store: Arc<dyn DataFileStore>,
    /// Blob-backed view of the file store, when separated storage is on.
    pub blob_files: Option<Arc<BlobBackedFileStore>>,
    storage_service: Mutex<Option<StorageService>>,
}

impl PartitionSet {
    /// Current master partition.
    pub fn master(&self) -> Arc<Partition> {
        Arc::clone(&self.master.read())
    }

    /// Block until the master's log is replicated up to `lp`. Parks on the
    /// log's replication condvar (woken by replica acks) rather than
    /// spinning; one wait on a batch-end position acks a whole group-commit
    /// batch.
    pub fn wait_replicated(&self, lp: LogPosition, timeout: Duration) -> bool {
        self.master().log.wait_replicated(lp, timeout)
    }

    /// Maximum replication lag (bytes) across this set's replicas.
    pub fn max_lag(&self) -> u64 {
        let end = self.master().log.end_lp();
        self.replicas.lock().iter().map(|r| end.saturating_sub(r.applied_lp())).max().unwrap_or(0)
    }
}

/// Per-table routing metadata cached at the aggregator.
struct TableMeta {
    id: TableId,
    shard_key: Vec<usize>,
    unique_cols: Option<Vec<usize>>,
}

/// An S2DB-style cluster in one process.
pub struct Cluster {
    /// Database name (prefixes partition names).
    pub name: String,
    config: ClusterConfig,
    sets: Vec<Arc<PartitionSet>>,
    tables: RwLock<HashMap<String, TableMeta>>,
    /// One breaker for the cluster's blob store, guarding every partition's
    /// uploads, cold reads and shipping: the first layer to see an outage
    /// shields all the others.
    blob_health: Option<Arc<BlobHealth>>,
    maintenance_stop: Arc<std::sync::atomic::AtomicBool>,
    maintenance_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

static CLUSTER_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl Cluster {
    /// Bring up a cluster.
    pub fn new(name: impl Into<String>, config: ClusterConfig) -> Result<Arc<Cluster>> {
        let name = name.into();
        // One breaker per cluster, shared by its partitions and layers
        // (wired below); parallel tests each get an isolated one.
        let blob_health = config.blob.as_ref().map(|_| {
            let seq = CLUSTER_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            match &config.breaker {
                Some(b) => BlobHealth::with_config(format!("{name}-blob#{seq}"), *b),
                None => BlobHealth::new(format!("{name}-blob#{seq}")),
            }
        });
        let mut sets = Vec::with_capacity(config.partitions);
        for pid in 0..config.partitions {
            let pname = format!("{name}_p{pid}");
            let blob = config.blob.as_ref().zip(blob_health.as_ref());
            let (file_store, blob_files): (Arc<dyn DataFileStore>, _) = match blob {
                Some((blob, health)) => {
                    let bf = BlobBackedFileStore::with_health(
                        Arc::clone(blob),
                        config.cache_bytes,
                        Arc::clone(health),
                    );
                    (bf.clone() as Arc<dyn DataFileStore>, Some(bf))
                }
                None => (Arc::new(MemFileStore::new()) as Arc<dyn DataFileStore>, None),
            };
            let master = Partition::new(
                pname.clone(),
                Arc::new(s2_wal::Log::in_memory()),
                file_store.clone(),
            );
            let mut replicas = Vec::with_capacity(config.ha_replicas);
            for _ in 0..config.ha_replicas {
                let rp = empty_replica_partition(&pname, file_store.clone(), 0);
                replicas.push(Replica::start(&master, rp, 0, true)?);
            }
            let storage_service =
                blob.map(|(blob, health)| start_shipping(&config, &master, blob, health));
            sets.push(Arc::new(PartitionSet {
                name: pname,
                master: RwLock::new(&rank::CLUSTER_TOPOLOGY, master),
                replicas: Mutex::new(&rank::CLUSTER_TOPOLOGY, replicas),
                file_store,
                blob_files,
                storage_service: Mutex::new(&rank::CLUSTER_TOPOLOGY, storage_service),
            }));
        }
        let cluster = Arc::new(Cluster {
            name,
            config,
            sets,
            tables: RwLock::new(&rank::CLUSTER_TABLES, HashMap::new()),
            blob_health,
            maintenance_stop: Arc::new(std::sync::atomic::AtomicBool::new(false)),
            maintenance_thread: Mutex::new(&rank::CLUSTER_TOPOLOGY, None),
        });
        // Background flusher/merger/vacuum (paper §2.1.2's background
        // processes): keeps rowstore levels small and reclaims MVCC garbage
        // while workloads run.
        {
            let stop = Arc::clone(&cluster.maintenance_stop);
            let sets: Vec<Arc<PartitionSet>> = cluster.sets.clone();
            let handle = std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    for set in &sets {
                        s2_obs::counter!("cluster.heartbeat.ticks").inc();
                        if set.max_lag() > 0 {
                            // A replica hasn't caught up to the master's log
                            // end at tick time: the health probe's
                            // lag-detected signal.
                            s2_obs::counter!("cluster.heartbeat.lagging").inc();
                        }
                        let _ = set.master().maintenance_pass();
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            });
            *cluster.maintenance_thread.lock() = Some(handle);
        }
        Ok(cluster)
    }

    /// The shared blob-store health view, when separated storage is on.
    pub fn blob_health(&self) -> Option<&Arc<BlobHealth>> {
        self.blob_health.as_ref()
    }

    /// The configured blob store, when separated storage is on (workspace
    /// provisioning restores from it).
    pub fn blob_store(&self) -> Option<&Arc<dyn ObjectStore>> {
        self.config.blob.as_ref()
    }

    /// Partition count.
    pub fn partition_count(&self) -> usize {
        self.sets.len()
    }

    /// Set every master's group-commit flush window: how long a leader waits
    /// for its batch to grow before appending (0 = append immediately).
    pub fn set_group_flush_window_us(&self, us: u64) {
        for set in &self.sets {
            set.master().set_group_flush_window_us(us);
        }
    }

    /// Partition set by ordinal.
    pub fn set(&self, pid: usize) -> &Arc<PartitionSet> {
        &self.sets[pid]
    }

    /// All partition sets.
    pub fn sets(&self) -> &[Arc<PartitionSet>] {
        &self.sets
    }

    /// Create a table on every partition (DDL broadcast).
    pub fn create_table(
        &self,
        name: impl Into<String>,
        schema: Schema,
        options: TableOptions,
    ) -> Result<()> {
        let name = name.into();
        let mut id = None;
        for set in &self.sets {
            let tid = set.master().create_table(name.clone(), schema.clone(), options.clone())?;
            match id {
                None => id = Some(tid),
                Some(prev) => {
                    if prev != tid {
                        return Err(Error::Internal(format!(
                            "table id divergence across partitions: {prev} vs {tid}"
                        )));
                    }
                }
            }
        }
        let unique_cols = options.indexes.iter().find(|d| d.unique).map(|d| d.columns.clone());
        self.tables.write().insert(
            name,
            TableMeta {
                id: id.expect("at least one partition"),
                shard_key: options.shard_key.clone(),
                unique_cols,
            },
        );
        Ok(())
    }

    fn table_meta<R>(&self, table: &str, f: impl FnOnce(&TableMeta) -> R) -> Result<R> {
        let tables = self.tables.read();
        let meta = tables.get(table).ok_or_else(|| Error::NotFound(format!("table {table:?}")))?;
        Ok(f(meta))
    }

    /// The partition that owns `row` of `table` (hash of the shard key;
    /// tables without a shard key hash the whole row).
    pub fn route_row(&self, table: &str, row: &Row) -> Result<usize> {
        self.table_meta(table, |m| {
            let h = if m.shard_key.is_empty() {
                s2_common::hash::hash_values(row.values().iter())
            } else {
                row.key_hash(&m.shard_key)
            };
            (h % self.sets.len() as u64) as usize
        })
    }

    /// The partition that owns a unique key, when the shard key is derivable
    /// from it (shard key ⊆ unique key).
    pub fn route_unique(&self, table: &str, key: &[Value]) -> Result<Option<usize>> {
        self.table_meta(table, |m| {
            let unique = m.unique_cols.as_ref()?;
            if m.shard_key.is_empty() {
                return None;
            }
            // Map table ordinals of the shard key to positions in the key.
            let mut shard_vals = Vec::with_capacity(m.shard_key.len());
            for sc in &m.shard_key {
                let pos = unique.iter().position(|c| c == sc)?;
                shard_vals.push(&key[pos]);
            }
            let h = s2_common::hash::hash_values(shard_vals);
            Some((h % self.sets.len() as u64) as usize)
        })
    }

    /// Begin a distributed transaction.
    pub fn begin(self: &Arc<Self>) -> ClusterTxn {
        ClusterTxn { cluster: Arc::clone(self), txns: HashMap::new() }
    }

    /// A consistent-per-partition query context over every master.
    pub fn context(&self) -> Result<UnionContext> {
        let mut ctx = UnionContext::new();
        // One snapshot per partition, shared across tables. Captured before
        // the tables map is locked: resolving a master takes the topology
        // lock, which ranks below the tables map.
        let snaps: Vec<_> = self.sets.iter().map(|s| s.master().read_snapshot()).collect();
        let tables = self.tables.read();
        for (name, meta) in tables.iter() {
            let mut per_table = Vec::with_capacity(snaps.len());
            for snap in &snaps {
                per_table.push(Arc::clone(snap.table(meta.id)?));
            }
            ctx.add_table(name.clone(), per_table);
        }
        Ok(ctx)
    }

    /// Execute a read query via scatter/gather.
    pub fn execute(&self, plan: &Plan, opts: &ExecOptions) -> Result<Batch> {
        let mut stats = ExecStats::default();
        self.execute_with_stats(plan, opts, &mut stats)
    }

    /// Execute, accumulating stats.
    pub fn execute_with_stats(
        &self,
        plan: &Plan,
        opts: &ExecOptions,
        stats: &mut ExecStats,
    ) -> Result<Batch> {
        let ctx = self.context()?;
        execute_with_stats(plan, &ctx, opts, stats)
    }

    /// Run flush/merge/vacuum across every partition. Partitions are
    /// independent (each pass runs under its own commit lock), so the passes
    /// fan out on the shared scan pool.
    pub fn maintenance(&self) -> Result<()> {
        let masters: Vec<Arc<Partition>> = self.sets.iter().map(|s| s.master()).collect();
        let threads = s2_exec::effective_threads(0);
        for r in
            s2_exec::ScanPool::global().run(threads, masters, |master| master.maintenance_pass())
        {
            r?;
        }
        Ok(())
    }

    /// Force-flush a table everywhere and reclaim the rowstore tombstones
    /// the flush leaves behind (benchmark / bulk-load setup). Fans out over
    /// partitions like [`Cluster::maintenance`].
    pub fn flush_table(&self, table: &str) -> Result<()> {
        let id = self.table_meta(table, |m| m.id)?;
        let masters: Vec<Arc<Partition>> = self.sets.iter().map(|s| s.master()).collect();
        let threads = s2_exec::effective_threads(0);
        for r in s2_exec::ScanPool::global().run(threads, masters, move |master| -> Result<()> {
            master.flush_table(id, true)?;
            while master.merge_table(id)? {}
            master.vacuum()?;
            Ok(())
        }) {
            r?;
        }
        Ok(())
    }

    /// Total live rows of a table across partitions.
    pub fn row_count(&self, table: &str) -> Result<usize> {
        let id = self.table_meta(table, |m| m.id)?;
        let mut n = 0;
        for set in &self.sets {
            let snap = set.master().read_snapshot();
            n += snap.table(id)?.live_row_count();
        }
        Ok(n)
    }

    /// Push every partition's log and a fresh snapshot to blob storage and
    /// wait for data-file uploads (used before PITR/workspace provisioning
    /// in tests and benches).
    pub fn sync_to_blob(&self) -> Result<()> {
        let Some(blob) = &self.config.blob else {
            return Err(Error::InvalidArgument("cluster has no blob store".into()));
        };
        for set in &self.sets {
            let master = set.master();
            // Everything appended is safe here: force a full ship.
            let cfg = StorageConfig {
                snapshot_interval_bytes: 0,
                require_replicated: false,
                ..self.config.storage.clone()
            };
            let marker = Arc::new(std::sync::atomic::AtomicU64::new(u64::MAX));
            StorageService::pass(&master, blob, &cfg, &marker)?;
            if let Some(bf) = &set.blob_files {
                bf.drain_uploads();
            }
        }
        Ok(())
    }

    /// Simulate a master failure on partition `pid`: promote the first HA
    /// replica (paper §2: "replica partitions ... will be promoted to master
    /// and take over running queries"). Remaining replicas re-subscribe to
    /// the new master. Returns an error when no replica exists.
    pub fn fail_master(&self, pid: usize) -> Result<()> {
        let set = &self.sets[pid];
        let mut replicas = set.replicas.lock();
        if replicas.is_empty() {
            return Err(Error::InvalidArgument(format!(
                "partition {pid} has no HA replica to promote"
            )));
        }
        // Stop the storage service attached to the dying master.
        *set.storage_service.lock() = None;
        let mut promoted = replicas.remove(0);
        promoted.stop();
        let new_master = Arc::clone(&promoted.partition);
        drop(promoted);
        // Re-point surviving replicas at the new master from their positions.
        let survivors: Vec<Replica> = replicas.drain(..).collect();
        for mut old in survivors {
            old.stop();
            let from = old.applied_lp();
            let part = Arc::clone(&old.partition);
            drop(old);
            replicas.push(Replica::start(&new_master, part, from, true)?);
        }
        // The new master has no replicas yet if none survived; commits in
        // sync mode would stall, so spin up a fresh one.
        if replicas.is_empty() && self.config.ha_replicas > 0 {
            let rp = empty_replica_partition(&set.name, set.file_store.clone(), 0);
            replicas.push(Replica::start(&new_master, rp, 0, true)?);
        }
        // Restart blob shipping from the new master.
        if let (Some(blob), Some(health)) = (&self.config.blob, &self.blob_health) {
            // The new master's uploaded watermark starts at 0; advance it to
            // what the old master already shipped so chunks aren't re-uploaded
            // out of order. Re-uploading is idempotent, so a simple approach:
            // mark everything known-uploaded in blob as uploaded.
            let shipped = crate::pitr::max_uploaded_lp(blob, &set.name)?;
            new_master.log.mark_uploaded(shipped);
            *set.storage_service.lock() =
                Some(start_shipping(&self.config, &new_master, blob, health));
        }
        *set.master.write() = new_master;
        s2_obs::counter!("cluster.failover.promotions").inc();
        s2_obs::event(
            "cluster.failover",
            format!("partition {pid}: master failed, HA replica promoted"),
        );
        Ok(())
    }

    /// Whether commits should wait for replication.
    fn sync_commits(&self) -> bool {
        self.config.sync_replication && self.config.ha_replicas > 0
    }
}

/// Start `master`'s shipping service, its puts guarded by the cluster's
/// breaker.
fn start_shipping(
    config: &ClusterConfig,
    master: &Arc<Partition>,
    blob: &Arc<dyn ObjectStore>,
    health: &Arc<BlobHealth>,
) -> StorageService {
    let cfg = StorageConfig {
        require_replicated: config.sync_replication && config.ha_replicas > 0,
        ..config.storage.clone()
    };
    let guarded =
        ResilientStore::new(Arc::clone(blob), Arc::clone(health), RetryPolicy::blob_default());
    StorageService::start(Arc::clone(master), Arc::new(guarded), cfg)
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.maintenance_stop.store(true, std::sync::atomic::Ordering::Release);
        if let Some(h) = self.maintenance_thread.lock().take() {
            let _ = h.join();
        }
    }
}

/// A transaction that may span partitions. Each involved partition runs a
/// local [`Txn`]; commit applies them in partition order and, in sync mode,
/// waits for each partition's replication ack (the paper's durability rule:
/// replicated to at least one replica "for every master partition involved
/// in a transaction").
pub struct ClusterTxn {
    cluster: Arc<Cluster>,
    txns: HashMap<usize, Txn>,
}

impl ClusterTxn {
    fn txn_for(&mut self, pid: usize) -> &mut Txn {
        let cluster = &self.cluster;
        self.txns.entry(pid).or_insert_with(|| cluster.sets[pid].master().begin())
    }

    fn table_id(&self, table: &str) -> Result<TableId> {
        self.cluster.table_meta(table, |m| m.id)
    }

    /// Insert a row (routed by shard key).
    pub fn insert(&mut self, table: &str, row: Row) -> Result<()> {
        let pid = self.cluster.route_row(table, &row)?;
        let id = self.table_id(table)?;
        self.txn_for(pid).insert(id, row)
    }

    /// Insert a batch with duplicate handling; rows are routed individually.
    pub fn insert_batch(
        &mut self,
        table: &str,
        rows: Vec<Row>,
        policy: DuplicatePolicy,
    ) -> Result<InsertReport> {
        let id = self.table_id(table)?;
        let mut by_pid: HashMap<usize, Vec<Row>> = HashMap::new();
        for row in rows {
            by_pid.entry(self.cluster.route_row(table, &row)?).or_default().push(row);
        }
        let mut total = InsertReport::default();
        for (pid, rows) in by_pid {
            let r = self.txn_for(pid).insert_batch(id, rows, policy)?;
            total.inserted += r.inserted;
            total.skipped += r.skipped;
            total.replaced += r.replaced;
            total.updated += r.updated;
        }
        Ok(total)
    }

    /// Point read by unique key.
    pub fn get_unique(&mut self, table: &str, key: &[Value]) -> Result<Option<Row>> {
        let id = self.table_id(table)?;
        match self.cluster.route_unique(table, key)? {
            Some(pid) => self.txn_for(pid).get_unique(id, key),
            None => {
                // Shard key not derivable: try every partition.
                for pid in 0..self.cluster.partition_count() {
                    if let Some(row) = self.txn_for(pid).get_unique(id, key)? {
                        return Ok(Some(row));
                    }
                }
                Ok(None)
            }
        }
    }

    /// Read-modify-write by unique key.
    pub fn update_unique_with(
        &mut self,
        table: &str,
        key: &[Value],
        f: impl FnOnce(&Row) -> Row,
    ) -> Result<bool> {
        let id = self.table_id(table)?;
        match self.cluster.route_unique(table, key)? {
            Some(pid) => self.txn_for(pid).update_unique_with(id, key, f),
            None => {
                let mut f = Some(f);
                for pid in 0..self.cluster.partition_count() {
                    let txn = self.txn_for(pid);
                    if txn.get_unique(id, key)?.is_some() {
                        let g = f.take().expect("applied once");
                        return txn.update_unique_with(id, key, g);
                    }
                }
                Ok(false)
            }
        }
    }

    /// Delete by unique key.
    pub fn delete_unique(&mut self, table: &str, key: &[Value]) -> Result<bool> {
        let id = self.table_id(table)?;
        match self.cluster.route_unique(table, key)? {
            Some(pid) => self.txn_for(pid).delete_unique(id, key),
            None => {
                for pid in 0..self.cluster.partition_count() {
                    if self.txn_for(pid).delete_unique(id, key)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
        }
    }

    /// Commit every involved partition. In sync-replication mode, waits for
    /// each partition's ack before returning. Returns the max commit
    /// timestamp observed.
    pub fn commit(self) -> Result<Timestamp> {
        let cluster = self.cluster;
        let mut max_ts = 0;
        let mut acks: Vec<(usize, LogPosition)> = Vec::new();
        let mut pids: Vec<usize> = self.txns.keys().copied().collect();
        pids.sort_unstable();
        let mut txns = self.txns;
        for pid in pids {
            let txn = txns.remove(&pid).expect("key from map");
            let (ts, end_lp) = txn.commit()?;
            max_ts = max_ts.max(ts);
            acks.push((pid, end_lp));
        }
        if cluster.sync_commits() {
            // `lp` is the group-commit batch end: every commit in the batch
            // waits on the same position, so the replica's single ack of the
            // batch releases all of them at once — one condvar wake per
            // batch — and the wait overlaps the next batch's append on the
            // commit path.
            for (pid, lp) in acks {
                let timer = s2_obs::histogram!("cluster.replication.ack_latency_us").start_timer();
                if !cluster.sets[pid].wait_replicated(lp, Duration::from_secs(10)) {
                    timer.cancel();
                    s2_obs::counter!("cluster.replication.ack_timeouts").inc();
                    s2_obs::event(
                        "cluster.ack_timeout",
                        format!("partition {pid} replication ack timed out at lp {lp}"),
                    );
                    return Err(Error::Unavailable(format!(
                        "partition {pid} replication ack timed out"
                    )));
                }
                timer.stop();
            }
        }
        Ok(max_ts)
    }

    /// Roll back every involved partition.
    pub fn rollback(self) {
        for (_, txn) in self.txns {
            txn.rollback();
        }
    }
}
