//! The ledger's only view of the engine at system level: cluster set-up,
//! TPC-C transactions, SQL queries, workspaces, crash recovery and the
//! counting blob store. Workloads call these wrappers and never name an
//! `s2_*` item themselves, so deleting a dual path in the engine breaks at
//! most this file (layer-level calls live in `probes.rs`).
//!
//! Engine defaults only: no `S2_*` variable is set, no A/B setter is called
//! and every config is built with `..Default::default()`.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use s2_baseline::CdwEngine;
use s2_blob::{MemoryStore, ObjectStore};
use s2_cluster::{
    find_snapshot, restore_from_blob, BlobBackedFileStore, Cluster, ClusterConfig, Workspace,
    WorkspaceManager, WorkspaceManagerConfig,
};
use s2_common::hash::{combine, hash_bytes};
use s2_common::schema::ColumnDef;
use s2_common::{DataType, Row, Schema, TableOptions, Value};
use s2_core::{DataFileStore, Partition};
use s2_query::{execute_with_stats, ExecOptions, ExecStats, Plan, QueryContext};
use s2_wal::{Log, Snapshot};
use s2_workloads::tpcc::backend::{
    gen_delivery, gen_new_order, gen_order_status, gen_payment, gen_stock_level, load_cluster,
    ClusterBackend, DeliveryParams, NewOrderParams, OrderStatusParams, PaymentParams,
    StockLevelParams, TpccBackend,
};
use s2_workloads::tpcc::{tables, TpccRng, TpccScale};
use s2_workloads::tpch::load::CdwRunner;
use s2_workloads::tpch::queries::run_query;
use s2_workloads::tpch::sql::{query_sql, SqlForm};
use s2_workloads::{ch, tpch};

pub use s2_common::{Error, Result};
pub use s2_exec::Batch;
pub use s2_workloads::tpch::TpchData;

use crate::trace::Local;

/// Local data-file cache for workspaces and recovered partitions: far above
/// the working set, so every miss is a cold miss, never an eviction.
const CACHE_BYTES: usize = 256 * 1024 * 1024;
/// Upper bound for waits that end as soon as their condition holds.
const WAIT: Duration = Duration::from_secs(30);

// ------------------------------------------------------------ counting blob

/// Blob traffic seen by a [`CountingStore`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BlobCounts {
    pub put_count: u64,
    pub put_bytes: u64,
    pub get_count: u64,
    pub get_bytes: u64,
}

/// In-memory object store that counts puts, gets and bytes stored.
pub struct CountingStore {
    inner: MemoryStore,
    put_count: AtomicU64,
    put_bytes: AtomicU64,
    get_count: AtomicU64,
    get_bytes: AtomicU64,
}

impl CountingStore {
    fn new() -> CountingStore {
        CountingStore {
            inner: MemoryStore::new(),
            put_count: AtomicU64::new(0),
            put_bytes: AtomicU64::new(0),
            get_count: AtomicU64::new(0),
            get_bytes: AtomicU64::new(0),
        }
    }

    pub fn counts(&self) -> BlobCounts {
        BlobCounts {
            put_count: self.put_count.load(Ordering::Relaxed),
            put_bytes: self.put_bytes.load(Ordering::Relaxed),
            get_count: self.get_count.load(Ordering::Relaxed),
            get_bytes: self.get_bytes.load(Ordering::Relaxed),
        }
    }

    /// Bytes of every object currently stored.
    pub fn stored_bytes(&self) -> u64 {
        self.inner.total_bytes() as u64
    }
}

impl ObjectStore for CountingStore {
    fn put(&self, key: &str, bytes: Arc<Vec<u8>>) -> Result<()> {
        self.put_count.fetch_add(1, Ordering::Relaxed);
        self.put_bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.put(key, bytes)
    }

    fn get(&self, key: &str) -> Result<Arc<Vec<u8>>> {
        let bytes = self.inner.get(key)?;
        self.get_count.fetch_add(1, Ordering::Relaxed);
        self.get_bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(bytes)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.inner.list(prefix)
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.inner.delete(key)
    }
}

// ------------------------------------------------------------------ hashing

/// Stable 64-bit hash of a text (fingerprints).
pub fn text_hash(text: &str) -> u64 {
    hash_bytes(text.as_bytes())
}

/// Order-sensitive combination of two hashes.
pub fn mix_hash(a: u64, b: u64) -> u64 {
    combine(a, b)
}

/// Payload bytes of a row: 8 per number, a string's length, 1 per NULL.
pub fn row_bytes(row: &Row) -> u64 {
    row.values()
        .iter()
        .map(|v| match v {
            Value::Null => 1,
            Value::Int(_) | Value::Double(_) => 8,
            Value::Str(s) => s.len() as u64,
        })
        .sum()
}

/// Canonical hash of a query result for the run fingerprint: its shape and
/// every cell that is not a double. Doubles are left out because any rounding
/// has boundaries, sums of decimal prices sit on them, and the order in which
/// doubles are summed may change with the segment layout; their values are
/// checked against the reference with a tolerance instead.
pub fn batch_shape_hash(b: &Batch) -> u64 {
    let mut h = mix_hash(b.rows() as u64, b.width() as u64);
    for ri in 0..b.rows() {
        for ci in 0..b.width() {
            let cell = match b.value(ci, ri) {
                Value::Double(_) => 0,
                other => other.hash64(),
            };
            h = mix_hash(h, cell);
        }
    }
    h
}

fn cells_match(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => {
            (x - y).abs() <= 1e-6 * x.abs().max(y.abs()).max(1.0)
        }
        (Value::Double(x), Value::Int(y)) | (Value::Int(y), Value::Double(x)) => {
            (x - *y as f64).abs() <= 1e-6 * x.abs().max(1.0)
        }
        _ => a == b,
    }
}

/// Whether two results hold the same rows: compared in order first, then as
/// multisets (rows sorted on a low-precision key, cells compared with a
/// relative tolerance, because engines may sum doubles in different orders
/// and break ORDER BY ties differently).
pub fn batches_match(a: &Batch, b: &Batch) -> bool {
    if a.rows() != b.rows() || a.width() != b.width() {
        return false;
    }
    let rows = |x: &Batch| -> Vec<Vec<Value>> {
        (0..x.rows()).map(|ri| (0..x.width()).map(|ci| x.value(ci, ri)).collect()).collect()
    };
    let same = |ra: &[Vec<Value>], rb: &[Vec<Value>]| {
        ra.iter().zip(rb).all(|(x, y)| x.iter().zip(y).all(|(p, q)| cells_match(p, q)))
    };
    let (mut ra, mut rb) = (rows(a), rows(b));
    if same(&ra, &rb) {
        return true;
    }
    let key = |r: &Vec<Value>| -> Vec<String> {
        r.iter()
            .map(|v| match v {
                Value::Double(d) => format!("{d:.2e}"),
                other => other.to_string(),
            })
            .collect()
    };
    ra.sort_by_cached_key(key);
    rb.sort_by_cached_key(key);
    same(&ra, &rb)
}

/// The first rows of a result as text, for a failed check's report.
pub fn show_batch(b: &Batch) -> String {
    let mut out = format!("{} rows x {} columns\n", b.rows(), b.width());
    for ri in 0..b.rows().min(12) {
        let cells: Vec<String> =
            (0..b.width()).map(|ci| format!("{:?}", b.value(ci, ri))).collect();
        out.push_str(&format!("  {}\n", cells.join(", ")));
    }
    out
}

// --------------------------------------------------------------- TPC-C ops

/// The five transaction types, in deck order.
pub const TXN_KINDS: [&str; 5] =
    ["new_order", "payment", "order_status", "delivery", "stock_level"];
const TXN_SPANS: [&str; 5] =
    ["tpcc.new_order", "tpcc.payment", "tpcc.order_status", "tpcc.delivery", "tpcc.stock_level"];
/// The spec's deck: 10 new-order, 10 payment, one each of the rest.
const DECK: [u8; 23] = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 3, 4];

/// One pre-generated TPC-C transaction.
#[derive(Debug, Clone)]
pub enum TpccOp {
    NewOrder(NewOrderParams),
    Payment(PaymentParams),
    OrderStatus(OrderStatusParams),
    Delivery(DeliveryParams),
    StockLevel(StockLevelParams),
}

impl TpccOp {
    /// Index into [`TXN_KINDS`].
    pub fn kind(&self) -> usize {
        match self {
            TpccOp::NewOrder(_) => 0,
            TpccOp::Payment(_) => 1,
            TpccOp::OrderStatus(_) => 2,
            TpccOp::Delivery(_) => 3,
            TpccOp::StockLevel(_) => 4,
        }
    }
}

/// The TPC-C scale every TPC-C-based workload loads.
pub fn tpcc_scale() -> TpccScale {
    TpccScale::bench(2)
}

/// `n` full-mix transactions from `seed`: shuffled decks of 23, parameters
/// from the spec's NURand generators.
pub fn tpcc_stream(seed: u64, n: usize) -> Vec<TpccOp> {
    let scale = tpcc_scale();
    let mut rng = TpccRng::new(seed);
    let mut deck = DECK;
    let mut ops = Vec::with_capacity(n);
    while ops.len() < n {
        for i in (1..deck.len()).rev() {
            deck.swap(i, rng.uniform(0, i as i64) as usize);
        }
        for &card in deck.iter().take(n - ops.len()) {
            ops.push(match card {
                0 => TpccOp::NewOrder(gen_new_order(&mut rng, &scale)),
                1 => TpccOp::Payment(gen_payment(&mut rng, &scale)),
                2 => TpccOp::OrderStatus(gen_order_status(&mut rng, &scale)),
                3 => TpccOp::Delivery(gen_delivery(&mut rng, &scale)),
                _ => TpccOp::StockLevel(gen_stock_level(&mut rng, &scale)),
            });
        }
    }
    ops
}

/// Hash of an operation stream (its `Debug` text), for the run fingerprint.
pub fn stream_hash(ops: &[TpccOp]) -> u64 {
    ops.iter().fold(ops.len() as u64, |h, op| mix_hash(h, text_hash(&format!("{op:?}"))))
}

/// How one transaction ended.
#[derive(Debug, Clone, Copy)]
pub struct TxnOutcome {
    /// False for the spec's intentional 1 % new-order rollback.
    pub committed: bool,
    /// Lock-conflict retries before it went through.
    pub retries: u32,
    /// Retries after a unique-key lookup missed a row that exists: a flush or
    /// merge moved it between the rowstore check and the segment probe. The
    /// engine reports `NotFound`; the attempt rolled back, so the driver runs
    /// the transaction again and counts it (`core.unique_miss_retries`).
    pub misses: u32,
}

// ------------------------------------------------------------- TPC-C set-up

/// Which cluster a TPC-C database runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// 2 partitions, 1 HA replica each, synchronous replication, no blob.
    SyncReplica,
    /// 2 partitions, no replicas, separated storage on a counting blob store.
    Blob,
}

/// A loaded TPC-C database.
pub struct TpccDb {
    cluster: Arc<Cluster>,
    backend: ClusterBackend,
    blob: Option<Arc<CountingStore>>,
}

const MARKER_DDL: &str = "marker";

impl TpccDb {
    /// Create the cluster, the nine tables (plus the one-row freshness marker
    /// table when `marker`), load and flush them.
    pub fn setup(topology: Topology, seed: u64, marker: bool) -> Result<TpccDb> {
        let blob = (topology == Topology::Blob).then(|| Arc::new(CountingStore::new()));
        let config = match topology {
            Topology::SyncReplica => ClusterConfig {
                partitions: 2,
                ha_replicas: 1,
                sync_replication: true,
                blob: None,
                ..Default::default()
            },
            Topology::Blob => ClusterConfig {
                partitions: 2,
                ha_replicas: 0,
                sync_replication: false,
                blob: blob.clone().map(|b| b as Arc<dyn ObjectStore>),
                ..Default::default()
            },
        };
        let cluster = Cluster::new("tpcc", config)?;
        let scale = tpcc_scale();
        load_cluster(&cluster, &scale, seed)?;
        if marker {
            let schema = Schema::new(vec![
                ColumnDef::new("k", DataType::Int64),
                ColumnDef::new("v", DataType::Int64),
            ])?;
            let options = TableOptions::new().with_shard_key(vec![0]).with_unique("pk", vec![0]);
            cluster.create_table(MARKER_DDL, schema, options)?;
            let mut txn = cluster.begin();
            txn.insert(MARKER_DDL, Row::new(vec![Value::Int(1), Value::Int(0)]))?;
            txn.commit()?;
        }
        let backend = ClusterBackend::new(Arc::clone(&cluster), scale);
        Ok(TpccDb { cluster, backend, blob })
    }

    /// Run one transaction, retrying lock conflicts as a terminal would.
    pub fn exec(&self, op: &TpccOp, tr: &mut Local<'_>, request_id: u64) -> Result<TxnOutcome> {
        tr.enter(TXN_SPANS[op.kind()], request_id);
        let (mut retries, mut misses) = (0, 0);
        let result = loop {
            let r = match op {
                TpccOp::NewOrder(p) => self.backend.new_order(p),
                TpccOp::Payment(p) => self.backend.payment(p).map(|()| true),
                TpccOp::OrderStatus(p) => self.backend.order_status(p).map(|()| true),
                TpccOp::Delivery(p) => self.backend.delivery(p).map(|()| true),
                TpccOp::StockLevel(p) => self.backend.stock_level(p).map(|_| true),
            };
            match r {
                Ok(committed) => break Ok(TxnOutcome { committed, retries, misses }),
                Err(e) if e.is_retryable() && retries < 7 => {
                    std::thread::sleep(Duration::from_micros(200 << retries));
                    retries += 1;
                }
                Err(Error::NotFound(_)) if misses < 7 => {
                    // The window lasts as long as the flush that opened it.
                    std::thread::sleep(Duration::from_micros(200 << misses));
                    misses += 1;
                }
                Err(e) => break Err(e),
            }
        };
        tr.exit();
        result
    }

    /// Commit marker value `seq`; returns when the commit is acknowledged.
    pub fn commit_marker(&self, seq: i64, tr: &mut Local<'_>) -> Result<()> {
        tr.enter("marker.commit", seq as u64);
        let mut txn = self.cluster.begin();
        let r = txn
            .update_unique_with(MARKER_DDL, &[Value::Int(1)], |_| {
                Row::new(vec![Value::Int(1), Value::Int(seq)])
            })
            .and_then(|found| {
                if found {
                    txn.commit().map(|_| ())
                } else {
                    Err(Error::NotFound("marker row".into()))
                }
            });
        tr.exit();
        r
    }

    /// Run a SQL statement on the primary.
    pub fn sql(&self, sql: &str) -> Result<Batch> {
        let ctx = self.cluster.context()?;
        s2_sql::query(&ctx, sql)
    }

    /// Ship every partition's log and a fresh snapshot to the blob store and
    /// wait for data-file uploads.
    pub fn sync_to_blob(&self) -> Result<()> {
        self.cluster.sync_to_blob()
    }

    /// Flush and merge every table, then [`TpccDb::sync_to_blob`]: a
    /// checkpoint whose snapshot does not depend on where the background
    /// flusher happened to be (a snapshot taken just before a flush carries
    /// up to a flush threshold of rowstore rows per table, one taken just
    /// after carries none, and restoring the two costs visibly different
    /// time).
    pub fn checkpoint(&self) -> Result<()> {
        for table in tables() {
            self.cluster.flush_table(table.name)?;
        }
        self.cluster.sync_to_blob()
    }

    /// The counting blob store ([`Topology::Blob`] only).
    pub fn blob(&self) -> &Arc<CountingStore> {
        self.blob.as_ref().expect("blob topology")
    }

    /// A workspace fleet manager over this database.
    pub fn fleet(&self) -> Result<Fleet> {
        Ok(Fleet { mgr: WorkspaceManager::new(&self.cluster, WorkspaceManagerConfig::default())? })
    }

    /// TPC-C consistency conditions 1–3 plus the committed new-order count:
    /// returns one line per violated condition.
    pub fn consistency_violations(&self, committed_new_orders: u64) -> Result<Vec<String>> {
        let mut bad = Vec::new();
        let int = |b: &Batch, c: usize, r: usize| b.value(c, r).as_int();
        let dbl = |b: &Batch, c: usize, r: usize| b.value(c, r).as_double();

        // 1: W_YTD = sum(D_YTD).
        let w = self.sql("SELECT w_id, w_ytd FROM warehouse ORDER BY w_id")?;
        let d =
            self.sql("SELECT d_w_id, SUM(d_ytd) FROM district GROUP BY d_w_id ORDER BY d_w_id")?;
        if w.rows() != d.rows() {
            bad.push(format!("warehouse count {} != district groups {}", w.rows(), d.rows()));
        }
        for r in 0..w.rows().min(d.rows()) {
            let (wy, dy) = (dbl(&w, 1, r)?, dbl(&d, 1, r)?);
            if (wy - dy).abs() > 1e-6 * wy.abs().max(1.0) {
                bad.push(format!("warehouse {}: w_ytd {wy} != sum(d_ytd) {dy}", int(&w, 0, r)?));
            }
        }

        // 2 and 3: D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID) per district.
        let next =
            self.sql("SELECT d_w_id, d_id, d_next_o_id FROM district ORDER BY d_w_id, d_id")?;
        let per_district = |sql: &str| -> Result<HashMap<(i64, i64), i64>> {
            let b = self.sql(sql)?;
            (0..b.rows()).map(|r| Ok(((int(&b, 0, r)?, int(&b, 1, r)?), int(&b, 2, r)?))).collect()
        };
        let max_o =
            per_district("SELECT o_w_id, o_d_id, MAX(o_id) FROM orders GROUP BY o_w_id, o_d_id")?;
        let max_no = per_district(
            "SELECT no_w_id, no_d_id, MAX(no_o_id) FROM new_order GROUP BY no_w_id, no_d_id",
        )?;
        let preload = tpcc_scale().preload_orders;
        let mut placed = 0;
        for r in 0..next.rows() {
            let key = (int(&next, 0, r)?, int(&next, 1, r)?);
            let next_o = int(&next, 2, r)?;
            placed += next_o - (preload + 1);
            if max_o.get(&key) != Some(&(next_o - 1)) {
                bad.push(format!(
                    "district {key:?}: next_o_id {next_o}, max(o_id) {:?}",
                    max_o.get(&key)
                ));
            }
            // A district whose orders are all delivered has no new_order rows.
            if max_no.get(&key).is_some_and(|&m| m != next_o - 1) {
                bad.push(format!(
                    "district {key:?}: next_o_id {next_o}, max(no_o_id) {:?}",
                    max_no.get(&key)
                ));
            }
        }
        if placed as u64 != committed_new_orders {
            bad.push(format!(
                "orders placed {placed} != new-orders committed {committed_new_orders}"
            ));
        }
        Ok(bad)
    }

    /// Everything a restart needs, cut at the acknowledged log position:
    /// per partition the snapshot taken at `snapshot_at` (positions recorded
    /// by [`TpccDb::log_ends`] right after a `sync_to_blob`), the durable log
    /// suffix after it, and the primary's table checksums.
    pub fn crash_image(&self, snapshot_at: &[u64]) -> Result<CrashImage> {
        let blob: Arc<dyn ObjectStore> = Arc::clone(self.blob()) as Arc<dyn ObjectStore>;
        let mut parts = Vec::new();
        for (set, &at) in self.cluster.sets().iter().zip(snapshot_at) {
            let master = set.master();
            let snapshot = find_snapshot(&blob, &set.name, Some(at))?
                .ok_or_else(|| Error::NotFound(format!("snapshot of {} at {at}", set.name)))?;
            // Bytes past the durable position were never acknowledged: the
            // crash discards them.
            let ack_lp = master.log.durable_lp();
            let log_bytes = master.log.read_range(snapshot.lp, ack_lp)?;
            parts.push(PartImage {
                name: set.name.clone(),
                snapshot,
                log_bytes,
                ack_lp,
                expected: partition_sums(&master)?,
            });
        }
        Ok(CrashImage { parts, blob })
    }

    /// Current log end of every partition.
    pub fn log_ends(&self) -> Vec<u64> {
        self.cluster.sets().iter().map(|s| s.master().log.end_lp()).collect()
    }
}

// --------------------------------------------------------------- checksums

/// Per-table `(rows, order-insensitive content hash, user bytes)`.
pub type TableSums = BTreeMap<String, (u64, u64, u64)>;

/// Row count, content checksum and row payload bytes of every table of one
/// partition, read through a scan of a fresh snapshot.
pub fn partition_sums(p: &Arc<Partition>) -> Result<TableSums> {
    let snap = p.read_snapshot();
    let mut out = TableSums::new();
    for id in snap.table_ids() {
        let name = p.table(id)?.name.clone();
        let width = snap.table(id)?.schema().len();
        let plan = Plan::scan(name.clone(), (0..width).collect(), None);
        let batch = s2_query::execute(&plan, &snap, &ExecOptions::default())?;
        let (mut hash, mut bytes) = (0u64, 0u64);
        for ri in 0..batch.rows() {
            let row = batch.row(ri);
            hash = hash.wrapping_add(s2_common::hash::hash_values(row.values()));
            bytes += row_bytes(&row);
        }
        out.insert(name, (batch.rows() as u64, hash, bytes));
    }
    Ok(out)
}

/// Total user bytes over a set of partition checksums.
pub fn user_bytes(sums: &[TableSums]) -> u64 {
    sums.iter().flat_map(|s| s.values()).map(|(_, _, b)| b).sum()
}

// ---------------------------------------------------------------- recovery

/// One partition's surviving state after a crash.
pub struct PartImage {
    pub name: String,
    snapshot: Snapshot,
    log_bytes: Vec<u8>,
    ack_lp: u64,
    /// The primary's checksums at the acknowledged position.
    pub expected: TableSums,
}

/// What survives a crash of every node: snapshots and data files in the blob
/// store, and each partition's durable log suffix.
pub struct CrashImage {
    pub parts: Vec<PartImage>,
    blob: Arc<dyn ObjectStore>,
}

impl CrashImage {
    /// Recover partition `i` on a fresh node: cold data-file cache, snapshot
    /// plus replay of the durable log suffix (the restart path).
    pub fn recover(&self, i: usize, tr: &mut Local<'_>, request_id: u64) -> Result<Arc<Partition>> {
        let part = &self.parts[i];
        tr.enter("core.recover", request_id);
        let files = BlobBackedFileStore::new(Arc::clone(&self.blob), CACHE_BYTES);
        let log = Arc::new(Log::in_memory_from(part.snapshot.lp));
        log.append_raw(&part.log_bytes);
        let r = Partition::recover(
            part.name.clone(),
            log,
            files as Arc<dyn DataFileStore>,
            Some(&part.snapshot),
            Some(part.ack_lp),
        );
        tr.exit();
        r
    }

    /// Point-in-time restore of partition `i` from blob storage alone, to the
    /// middle of the replayed log range, with a cold cache.
    pub fn restore_midway(
        &self,
        i: usize,
        tr: &mut Local<'_>,
        request_id: u64,
    ) -> Result<Arc<Partition>> {
        let part = &self.parts[i];
        let target = part.snapshot.lp + (part.ack_lp - part.snapshot.lp) / 2;
        tr.enter("cluster.restore", request_id);
        let files = BlobBackedFileStore::new(Arc::clone(&self.blob), CACHE_BYTES);
        let r = restore_from_blob(
            &self.blob,
            &part.name,
            files as Arc<dyn DataFileStore>,
            Some(target),
        );
        tr.exit();
        r
    }
}

// -------------------------------------------------------------- workspaces

/// A workspace fleet over one database.
pub struct Fleet {
    mgr: WorkspaceManager,
}

/// One attached read-only workspace.
pub struct Ws(Arc<Workspace>);

impl Fleet {
    /// Provision a workspace from blob storage and attach it to the log tail.
    pub fn provision(&self, name: &str, tr: &mut Local<'_>, request_id: u64) -> Result<Ws> {
        tr.enter("cluster.provision", request_id);
        let r = self.mgr.provision(name);
        tr.exit();
        r.map(Ws)
    }

    /// Detach a workspace and stop its replication threads.
    pub fn detach(&self, name: &str) -> Result<()> {
        self.mgr.detach(name)
    }
}

impl Ws {
    /// Wait until the workspace has applied everything the primaries hold.
    pub fn catch_up(&self, tr: &mut Local<'_>, request_id: u64) -> Result<()> {
        tr.enter("cluster.catch_up", request_id);
        let ok = self.0.catch_up(WAIT);
        tr.exit();
        if ok {
            Ok(())
        } else {
            Err(Error::Unavailable("workspace did not catch up".into()))
        }
    }

    /// Replication lag in log bytes, maxed over partitions.
    pub fn lag_bytes(&self) -> u64 {
        self.0.max_lag_bytes()
    }

    /// The marker value visible on the workspace right now.
    pub fn read_marker(&self) -> Result<i64> {
        let ctx = self.0.context()?;
        s2_sql::query(&ctx, "SELECT v FROM marker WHERE k = 1")?.value(0, 0).as_int()
    }

    /// Run a SQL statement on the workspace's own compute.
    pub fn query(&self, sql: &str, tr: &mut Local<'_>, request_id: u64) -> Result<Queried> {
        tr.enter("query", request_id);
        let r = self.0.context().and_then(|ctx| run_sql(&ctx, sql, tr, request_id));
        tr.exit();
        r
    }

    /// Table checksums of every workspace partition.
    pub fn sums(&self, partitions: usize) -> Result<Vec<TableSums>> {
        (0..partitions).map(|pid| partition_sums(self.0.replica_partition(pid))).collect()
    }
}

// --------------------------------------------------------------------- SQL

/// One executed statement.
pub struct Queried {
    pub batch: Batch,
    pub plan_us: f64,
    pub exec_us: f64,
    pub stats: QueryStats,
}

/// The `ExecStats` counters the ledger reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryStats {
    pub hash_joins: u64,
    pub join_index_filters: u64,
}

fn run_sql(
    ctx: &dyn QueryContext,
    sql: &str,
    tr: &mut Local<'_>,
    request_id: u64,
) -> Result<Queried> {
    tr.enter("sql.plan", request_id);
    let t0 = Instant::now();
    let compiled = s2_sql::plan(ctx, sql);
    let plan_us = t0.elapsed().as_secs_f64() * 1e6;
    tr.exit();
    let compiled = compiled?;
    tr.enter("query.execute", request_id);
    let t1 = Instant::now();
    let mut stats = ExecStats::default();
    let batch = execute_with_stats(&compiled.plan, ctx, &ExecOptions::default(), &mut stats);
    let exec_us = t1.elapsed().as_secs_f64() * 1e6;
    tr.exit();
    Ok(Queried {
        batch: batch?,
        plan_us,
        exec_us,
        stats: QueryStats {
            hash_joins: stats.hash_joins as u64,
            join_index_filters: stats.join_index_filters as u64,
        },
    })
}

/// The six CH-benCHmark analytical queries as `(name, sql)`.
pub fn ch_queries() -> Vec<(&'static str, &'static str)> {
    ch::queries_sql()
}

// ------------------------------------------------------------------- TPC-H

/// Generate the TPC-H tables at scale factor `sf` from `seed`.
pub fn tpch_generate(sf: f64, seed: u64) -> TpchData {
    tpch::generate(sf, seed)
}

/// A loaded TPC-H database (4 partitions, no replicas, no blob).
pub struct TpchDb {
    cluster: Arc<Cluster>,
}

impl TpchDb {
    /// Create the cluster and tables, load `data`, flush and merge.
    pub fn setup(data: &TpchData) -> Result<TpchDb> {
        let cluster = Cluster::new(
            "tpch",
            ClusterConfig {
                partitions: 4,
                ha_replicas: 0,
                sync_replication: false,
                blob: None,
                ..Default::default()
            },
        )?;
        tpch::load::load_cluster(&cluster, data)?;
        Ok(TpchDb { cluster })
    }

    /// Run TPC-H query `n` from its SQL text (two statements for Q11/Q22).
    pub fn query(&self, n: usize, tr: &mut Local<'_>, request_id: u64) -> Result<Queried> {
        tr.enter("query", request_id);
        let r = self.query_inner(n, tr, request_id);
        tr.exit();
        r
    }

    fn query_inner(&self, n: usize, tr: &mut Local<'_>, request_id: u64) -> Result<Queried> {
        let ctx = self.cluster.context()?;
        match query_sql(n)? {
            SqlForm::Single(sql) => run_sql(&ctx, sql, tr, request_id),
            SqlForm::TwoPhase { phase1, phase2 } => {
                let first = run_sql(&ctx, phase1, tr, request_id)?;
                let scalar = first.batch.value(0, 0).as_double().unwrap_or(0.0);
                let mut second = run_sql(&ctx, &phase2(scalar), tr, request_id)?;
                second.plan_us += first.plan_us;
                second.exec_us += first.exec_us;
                second.stats.hash_joins += first.stats.hash_joins;
                second.stats.join_index_filters += first.stats.join_index_filters;
                Ok(second)
            }
        }
    }
}

/// The cloud-data-warehouse model, used as the reference for TPC-H results.
pub struct CdwRef(CdwEngine);

impl CdwRef {
    pub fn load(data: &TpchData) -> Result<CdwRef> {
        let engine = CdwEngine::new(Arc::new(MemoryStore::new()));
        tpch::load::load_cdw(&engine, data)?;
        Ok(CdwRef(engine))
    }

    /// Reference result of TPC-H query `n` (hand-built plan).
    pub fn query(&self, n: usize) -> Result<Batch> {
        run_query(n, &CdwRunner(&self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(rows: &[(i64, f64)]) -> Batch {
        let rows: Vec<Row> =
            rows.iter().map(|(k, v)| Row::new(vec![Value::Int(*k), Value::Double(*v)])).collect();
        Batch::from_rows(&rows, &[0, 1], &[DataType::Int64, DataType::Double]).unwrap()
    }

    #[test]
    fn results_match_up_to_summation_order_and_tie_order() {
        // The q19 case: one sum, two summation orders, a rounding boundary.
        let a = batch(&[(1, 460084.4915), (2, 7.0)]);
        let b = batch(&[(1, 460084.49149999995), (2, 7.0)]);
        assert!(batches_match(&a, &b));
        assert_eq!(batch_shape_hash(&a), batch_shape_hash(&b));
        // Same rows in another order still match; other rows do not.
        assert!(batches_match(&a, &batch(&[(2, 7.0), (1, 460084.4915)])));
        assert!(!batches_match(&a, &batch(&[(1, 460084.4915), (2, 7.1)])));
        assert!(!batches_match(&a, &batch(&[(1, 460084.4915), (3, 7.0)])));
        assert!(!batches_match(&a, &batch(&[(1, 460084.4915)])));
        assert_ne!(batch_shape_hash(&a), batch_shape_hash(&batch(&[(1, 1.0), (3, 7.0)])));
    }

    #[test]
    fn counting_store_counts_traffic() {
        let store = CountingStore::new();
        store.put("a", Arc::new(vec![0; 10])).unwrap();
        store.put("b", Arc::new(vec![0; 5])).unwrap();
        assert_eq!(store.get("a").unwrap().len(), 10);
        assert!(store.get("missing").is_err());
        let c = store.counts();
        assert_eq!((c.put_count, c.put_bytes, c.get_count, c.get_bytes), (2, 15, 1, 10));
        assert_eq!(store.stored_bytes(), 15);
    }
}
