//! The partition: tables + write-ahead log + commit protocol + background
//! maintenance (flush, merge, vacuum) + snapshots + recovery.
//!
//! A partition is the unit of durability and replication in S2DB (paper §2,
//! §3): it owns one log, one commit-timestamp sequence, and the tables'
//! partition-local data. Every state-changing commit (user transaction,
//! flush, move, merge, and a replica's apply of one) runs under the
//! partition's commit lock, which also orders read-snapshot acquisition —
//! giving partition-local snapshot isolation (paper §2.1.2). Each
//! columnstore change is one [`Table::publish`] of a new table version
//! under that lock, and a row's new home is published before its old copy
//! is retired. Vacuum frees MVCC versions and deletes retired data files;
//! a retired segment's memory goes when the last version holding it does.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use s2_columnstore::{merge_segments, MergePolicy, SegmentMeta, SegmentReader};
use s2_common::io::{ByteReader, ByteWriter};
use s2_common::sync::{rank, Mutex, RwLock};
use s2_common::{
    Error, LogPosition, Result, Row, Schema, SegmentId, TableId, TableOptions, Timestamp, TxnId,
    Value,
};
use s2_rowstore::{CommittedVersion, RowStore};
use s2_wal::{GroupCommit, Log, RecordIter, Snapshot};

use crate::record::{self, EngineRecord, RowOp};
use crate::segfile::{file_name, DataFileStore, SegmentFile};
use crate::table::{SegmentCore, SegmentSnap, Table, TableSnapshot, TableVersion};

/// Snapshot blob magic ("S2PS").
const PARTITION_SNAPSHOT_MAGIC: u32 = 0x5350_3253;

/// Every committed row version recovery meets, per table and in log order:
/// snapshot rows first, then the replayed upserts, deletes, flush markers
/// and move inserts. Each table's rowstore is built once from its list
/// ([`RowStore::from_committed`]).
type RecoveredRows = HashMap<TableId, Vec<CommittedVersion>>;

/// The columnstore side of one table's replayed records, routed in log
/// order and applied by one replay worker.
#[derive(Default)]
struct ReplayCtx {
    /// `Flush` and `Merge` records in log order: the segments each drops
    /// (none for a flush) and the run it adds.
    runs: Vec<(Vec<SegmentId>, Vec<SegmentMeta>)>,
    /// `Move` tombstones. Delete bits only ever get set and segment ids are
    /// never reused, so setting them all after the runs is equivalent to
    /// setting them record by record.
    deletes: Vec<(SegmentId, Vec<u32>)>,
    /// Segments some `Merge` of this table's queue drops. Segment ids are
    /// never reused and a merge only drops what exists, so a flush or merge
    /// output found here is dropped by a *later* record of the replayed
    /// range: its data file is never fetched.
    doomed: HashSet<SegmentId>,
}

/// A partition of a database.
pub struct Partition {
    /// Partition name (also the data-file key prefix), e.g. `db0_p3`.
    pub name: String,
    /// The write-ahead log.
    pub log: Arc<Log>,
    /// Data-file storage (local cache + blob in the cluster layer).
    pub file_store: Arc<dyn DataFileStore>,
    tables: RwLock<HashMap<TableId, Arc<Table>>>,
    table_names: RwLock<HashMap<String, TableId>>,
    next_table_id: AtomicU64,
    /// Serializes commits and snapshot acquisition.
    commit_lock: Mutex<()>,
    /// Group-commit queue: commit redo records are submitted here under the
    /// commit lock and appended+synced in batches by a leader outside it.
    group: GroupCommit,
    commit_ts: AtomicU64,
    next_txn: AtomicU64,
    /// Active read snapshots: read_ts -> count (pins GC horizons).
    pinned: Mutex<BTreeMap<Timestamp, usize>>,
    merge_policy: MergePolicy,
    /// Log position of the newest rowstore snapshot: recovery replays only
    /// records at or after it, which bounds which data files replay can need.
    last_snapshot_lp: AtomicU64,
    /// Data files of segments a merge retired: (file, merge timestamp, log
    /// position just past the merge record).
    retired: Mutex<Vec<(String, Timestamp, LogPosition)>>,
}

impl Partition {
    /// Create an empty partition over `log` and `file_store`.
    pub fn new(
        name: impl Into<String>,
        log: Arc<Log>,
        file_store: Arc<dyn DataFileStore>,
    ) -> Arc<Partition> {
        Arc::new(Partition {
            name: name.into(),
            log,
            file_store,
            tables: RwLock::new(&rank::CORE_TABLES, HashMap::new()),
            table_names: RwLock::new(&rank::CORE_TABLES, HashMap::new()),
            next_table_id: AtomicU64::new(1),
            commit_lock: Mutex::new(&rank::CORE_COMMIT, ()),
            group: GroupCommit::new(),
            commit_ts: AtomicU64::new(0),
            next_txn: AtomicU64::new(1),
            pinned: Mutex::new(&rank::CORE_PINNED, BTreeMap::new()),
            merge_policy: MergePolicy::default(),
            last_snapshot_lp: AtomicU64::new(0),
            retired: Mutex::new(&rank::CORE_RETIRED, Vec::new()),
        })
    }

    /// Last committed timestamp.
    pub fn commit_ts(&self) -> Timestamp {
        self.commit_ts.load(Ordering::Acquire)
    }

    /// Set the leader flush window: how long a group-commit leader waits for
    /// its batch to grow before appending (0 = append immediately).
    pub fn set_group_flush_window_us(&self, us: u64) {
        self.group.set_flush_window_us(us);
    }

    /// Allocate a transaction id.
    pub(crate) fn alloc_txn(&self) -> TxnId {
        self.next_txn.fetch_add(1, Ordering::Relaxed)
    }

    /// Create a table. Returns its id. Logged as DDL.
    pub fn create_table(
        &self,
        name: impl Into<String>,
        schema: Schema,
        options: TableOptions,
    ) -> Result<TableId> {
        let name = name.into();
        let _g = self.commit_lock.lock();
        // Direct appenders drain the group-commit queue first: we hold the
        // commit lock (no submission can race), and every queued commit
        // record must precede ours in the stream so replay order matches
        // commit order.
        self.group.flush_queued(&self.log);
        if self.table_names.read().contains_key(&name) {
            return Err(Error::InvalidArgument(format!("table {name:?} already exists")));
        }
        let id = self.next_table_id.fetch_add(1, Ordering::Relaxed) as TableId;
        let table = Arc::new(Table::new(id, name.clone(), schema.clone(), options.clone())?);
        let rec = EngineRecord::CreateTable { table: id, name: name.clone(), schema, options };
        self.log.append(rec.kind(), &rec.encode());
        self.tables.write().insert(id, table);
        self.table_names.write().insert(name, id);
        Ok(id)
    }

    /// Look up a table by id.
    pub fn table(&self, id: TableId) -> Result<Arc<Table>> {
        self.tables.read().get(&id).cloned().ok_or_else(|| Error::NotFound(format!("table {id}")))
    }

    /// Look up a table by name.
    pub fn table_by_name(&self, name: &str) -> Result<Arc<Table>> {
        let id = *self
            .table_names
            .read()
            .get(name)
            .ok_or_else(|| Error::NotFound(format!("table {name:?}")))?;
        self.table(id)
    }

    /// All table ids.
    pub fn table_ids(&self) -> Vec<TableId> {
        let mut ids: Vec<TableId> = self.tables.read().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    // ---- snapshots ------------------------------------------------------

    fn pin(&self, ts: Timestamp) {
        *self.pinned.lock().entry(ts).or_insert(0) += 1;
    }

    fn unpin(&self, ts: Timestamp) {
        let mut p = self.pinned.lock();
        if let Some(c) = p.get_mut(&ts) {
            *c -= 1;
            if *c == 0 {
                p.remove(&ts);
            }
        }
    }

    fn oldest_pinned(&self) -> Option<Timestamp> {
        self.pinned.lock().keys().next().copied()
    }

    /// Take a consistent read snapshot of every table.
    pub fn read_snapshot(self: &Arc<Self>) -> PartitionSnapshot {
        self.snapshot_for(None)
    }

    /// Read snapshot that additionally sees `self_txn`'s uncommitted writes.
    pub fn snapshot_for(self: &Arc<Self>, self_txn: Option<TxnId>) -> PartitionSnapshot {
        let _g = self.commit_lock.lock();
        let read_ts = self.commit_ts();
        let tables = self.tables.read();
        let snaps: HashMap<TableId, Arc<TableSnapshot>> = tables
            .iter()
            .map(|(id, t)| (*id, Arc::new(TableSnapshot::capture(t, read_ts, self_txn))))
            .collect();
        drop(tables);
        self.pin(read_ts);
        PartitionSnapshot { read_ts, tables: snaps, partition: Arc::clone(self) }
    }

    // ---- commit protocol -------------------------------------------------

    /// Commit a user transaction's buffered writes: resolve rowstore versions
    /// at a fresh timestamp and log the redo record. Returns (commit
    /// timestamp, log position). The position is the end of the group-commit
    /// batch holding the record, already synced to the local log — the one
    /// replication must ack for the commit to be durable (paper §3).
    ///
    /// The commit lock covers only timestamp resolution and queueing the
    /// redo record; the append + fsync happen in the group-commit leader
    /// with the lock released, so the next commit's timestamp resolves while
    /// this batch is being made durable.
    pub(crate) fn commit_txn(
        &self,
        txn: TxnId,
        ops: Vec<RowOp>,
        keys_by_table: &HashMap<TableId, Vec<Vec<Value>>>,
    ) -> Result<(Timestamp, LogPosition)> {
        // Timed from before the lock to local durability: commit latency is
        // the full enqueue->durable span the committer experiences, including
        // waiting behind the group ahead of us and the batch fsync.
        let timer = s2_obs::histogram!("wal.commit.latency_us").start_timer();
        let (ts, ticket) = {
            let _g = self.commit_lock.lock();
            let ts = self.commit_ts() + 1;
            for (tid, keys) in keys_by_table {
                let table = self.table(*tid)?;
                table.rowstore.read().commit(txn, ts, keys);
            }
            s2_obs::counter!("core.txn.commit_ops").add(ops.len() as u64);
            let rec = EngineRecord::Commit { commit_ts: ts, ops };
            // Crash here = power loss after version resolution but before the
            // redo record exists: the commit was never acknowledged and must
            // be invisible after recovery.
            s2_common::fault::crash_point("core.commit.log");
            let ticket = self.group.submit(rec.kind(), rec.encode());
            self.commit_ts.store(ts, Ordering::Release);
            s2_obs::counter!("core.txn.commits").inc();
            (ts, ticket)
        };
        // Park outside the commit lock until a leader has appended and
        // fsynced the batch containing our record. The returned position is
        // the batch end — one replication ack there covers every commit in
        // the batch.
        let end_lp = self.group.wait_durable(&self.log, ticket)?;
        timer.stop();
        Ok((ts, end_lp))
    }

    /// Roll back a transaction's buffered writes (no log record: redo-only).
    pub(crate) fn rollback_txn(
        &self,
        txn: TxnId,
        keys_by_table: &HashMap<TableId, Vec<Vec<Value>>>,
    ) {
        s2_obs::counter!("core.txn.rollbacks").inc();
        for (tid, keys) in keys_by_table {
            if let Ok(table) = self.table(*tid) {
                table.rowstore.read().rollback(txn, keys);
            }
        }
    }

    /// Execute a move transaction (paper §4.2): copy the target segment rows
    /// into the rowstore (committed immediately, locks kept for `user_txn`)
    /// and set their deleted bits. Returns the rowstore keys + rows created.
    ///
    /// Runs entirely under the commit lock, so it cannot race merges — the
    /// paper's reordering of move vs. merge transactions collapses to
    /// serialization here, preserving the observable behaviour (moves never
    /// block on user transactions, only on other short system transactions).
    pub(crate) fn move_rows(
        &self,
        user_txn: TxnId,
        table: &Arc<Table>,
        targets: &[(Arc<SegmentCore>, u32)],
    ) -> Result<Vec<(Vec<Value>, Row)>> {
        let _g = self.commit_lock.lock();
        // Queued commit records must precede the Move record in the stream.
        self.group.flush_queued(&self.log);
        let ts = self.commit_ts() + 1;
        let version = table.version();
        let mut inserts: Vec<(Vec<Value>, Row)> = Vec::with_capacity(targets.len());
        let mut bits_by_seg: HashMap<SegmentId, Vec<u32>> = HashMap::new();
        let rs = table.rowstore.read();
        for (core, off) in targets {
            // Re-validate under the lock: the segment may have been merged
            // away or the row deleted since the caller located it.
            let (core, off) = match version.segment(core.meta.id) {
                Some(seg) if !seg.deleted.get(*off as usize) => (Arc::clone(&seg.core), *off),
                _ => match self.relocate(table, &version, core, *off)? {
                    Some(loc) => loc,
                    None => continue, // row no longer exists anywhere: skip
                },
            };
            let row = core.reader.row(off as usize)?;
            let key = table.rowstore_key(&row);
            rs.write(user_txn, &key, Some(row.clone()))?;
            bits_by_seg.entry(core.meta.id).or_default().push(off);
            inserts.push((key, row));
        }
        if inserts.is_empty() {
            return Ok(inserts);
        }
        // The rows' new home first: commit the rowstore copies, keeping the
        // locks for the user. Then retire the segment copies in one publish.
        let keys: Vec<Vec<Value>> = inserts.iter().map(|(k, _)| k.clone()).collect();
        rs.commit_keep_locked(user_txn, ts, &keys);
        drop(rs);
        // Canonical segment order keeps the record bytes (and therefore log
        // positions) independent of hash-map iteration order — replayable
        // runs depend on the log stream being a pure function of the workload.
        let mut deleted: Vec<(SegmentId, Vec<u32>)> = bits_by_seg.into_iter().collect();
        deleted.sort_by_key(|(seg, _)| *seg);
        let mut next = TableVersion::clone(&version);
        next.delete_rows(&deleted);
        table.publish(next);
        s2_obs::counter!("core.move.txns").inc();
        s2_obs::counter!("core.move.rows").add(inserts.len() as u64);
        let rec = EngineRecord::Move {
            table: table.id,
            commit_ts: ts,
            inserts: inserts.clone(),
            deleted,
        };
        self.log.append(rec.kind(), &rec.encode());
        self.commit_ts.store(ts, Ordering::Release);
        Ok(inserts)
    }

    /// Find where the row that used to live at (`stale`, `off`) lives in
    /// `version`: the paper's "extra scanning pass on newly created segments
    /// ... to find the latest versions of the locked rows".
    fn relocate(
        &self,
        table: &Table,
        version: &TableVersion,
        stale: &SegmentCore,
        off: u32,
    ) -> Result<Option<(Arc<SegmentCore>, u32)>> {
        let row = stale.reader.row(off as usize)?;
        // Prefer the unique index when one exists.
        if let Some(cols) = &table.unique_cols {
            let hits = version.probe(cols, &row.project(cols))?;
            return Ok(hits.into_iter().find_map(|(core, rows)| Some((core, *rows.first()?))));
        }
        // No unique key: scan live segments for an identical, live row.
        for seg in version.segments() {
            for ri in (0..seg.core.meta.row_count).filter(|&ri| !seg.deleted.get(ri)) {
                if seg.core.reader.row(ri)? == row {
                    return Ok(Some((Arc::clone(&seg.core), ri as u32)));
                }
            }
        }
        Ok(None)
    }

    // ---- flush -----------------------------------------------------------

    /// Convert accumulated rowstore rows into columnstore segment(s)
    /// (paper §2.1.2's background flusher; figure 1(b)). With `force` the
    /// flush runs even below the configured threshold. Returns segments
    /// created.
    pub fn flush_table(&self, table_id: TableId, force: bool) -> Result<usize> {
        let table = self.table(table_id)?;
        let _g = self.commit_lock.lock();
        // Queued commit records must precede the Flush record: the Flush
        // removes rowstore keys those commits wrote, so replaying it before
        // them would resurrect the rows.
        self.group.flush_queued(&self.log);
        if !force && table.rowstore_len() < table.options.flush_threshold_rows {
            return Ok(0);
        }
        let timer = s2_obs::histogram!("core.flush.latency_us").start_timer();
        let flush_txn = self.alloc_txn();
        let rs = table.rowstore.read();
        let mut keys: Vec<Vec<Value>> = Vec::new();
        let mut rows: Vec<Row> = Vec::new();
        rs.for_each_latest_committed(|key, row, owner| {
            // Skip rows a writer currently holds; they'll flush next time.
            if owner == 0 && rs.try_lock_key(flush_txn, key) {
                keys.push(key.to_vec());
                rows.push(row.clone());
            }
            true
        });
        if rows.is_empty() {
            drop(rs);
            timer.cancel();
            return Ok(0);
        }

        // Sort once so the physical segment order and the inverted indexes
        // agree (build_segment's sort is then a stable no-op).
        let sort_key = table.options.sort_key.clone();
        if !sort_key.is_empty() {
            rows.sort_by(|a, b| {
                sort_key
                    .iter()
                    .map(|&c| a.get(c).total_cmp(b.get(c)))
                    .find(|o| *o != std::cmp::Ordering::Equal)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }

        let file_id = self.log.end_lp();
        let ts = self.commit_ts() + 1;

        // Build one sorted run (possibly several segments) and its files.
        let mut built: Vec<(SegmentMeta, SegmentFile)> = Vec::new();
        for chunk in rows.chunks(table.options.segment_rows) {
            let id = table.next_segment_id.fetch_add(1, Ordering::Relaxed);
            let (mut meta, data) =
                s2_columnstore::build_segment(id, chunk.to_vec(), &table.schema, &sort_key)?;
            meta.file_id = file_id;
            built.push((meta, SegmentFile { data, inverted: table.build_inverted(chunk) }));
        }
        // Crash here = power loss before any flush effect reached disk; the
        // rowstore rows are still the only copy and recovery must keep them.
        s2_common::fault::crash_point("core.flush.write_files");
        for (meta, file) in &built {
            self.file_store
                .write_file(&file_name(&self.name, file_id, meta.id), Arc::new(file.encode()))?;
        }

        // State change at `ts`: publish the new run, then retire the flushed
        // keys' rowstore copies. A latest read checks the rowstore first, so
        // it finds every row in one place or the other.
        let n = built.len();
        // Fresh segments: every deleted bit in these metas is clear.
        let metas: Vec<SegmentMeta> = built.iter().map(|(m, _)| m.clone()).collect();
        let mut next = TableVersion::clone(&table.version());
        next.add_run(built.into_iter().map(|(m, f)| SegmentSnap::open(m, f)).collect(), true)?;
        for key in &keys {
            rs.write(flush_txn, key, None)?; // lock already held by flush_txn
        }
        table.publish(next);
        rs.commit(flush_txn, ts, &keys);
        drop(rs);

        // Log: ONE Flush record covering every segment plus the key removals.
        // A single frame is all-or-nothing under torn-tail truncation; with
        // one record per segment, a crash could persist the removals with
        // only a prefix of the segments and lose the rest of the rows.
        let rec = EngineRecord::Flush {
            table: table.id,
            commit_ts: ts,
            metas,
            removed_keys: keys.clone(),
        };
        // Crash here = files written and state installed but record unlogged:
        // recovery must come back with the rows still in the rowstore (the
        // orphaned data files are unreferenced and harmless).
        s2_common::fault::crash_point("core.flush.log");
        self.log.append(rec.kind(), &rec.encode());
        self.commit_ts.store(ts, Ordering::Release);
        s2_obs::counter!("core.flush.segments").add(n as u64);
        s2_obs::counter!("core.flush.rows").add(keys.len() as u64);
        timer.stop();
        Ok(n)
    }

    // ---- merge -----------------------------------------------------------

    /// Run one background merge step if the LSM has too many sorted runs
    /// (paper §2.1.2). Returns true if a merge happened.
    pub fn merge_table(&self, table_id: TableId) -> Result<bool> {
        let table = self.table(table_id)?;
        let _g = self.commit_lock.lock();
        // Queued commit records must precede the Merge record in the stream.
        self.group.flush_queued(&self.log);

        let current = table.version();
        let run_sizes: Vec<usize> =
            current.runs.iter().map(|run| run.iter().map(SegmentSnap::live_rows).sum()).collect();
        let Some(plan) = self.merge_policy.plan(&run_sizes) else {
            return Ok(false);
        };
        let inputs: Vec<&SegmentSnap> = plan.iter().flat_map(|&ri| &current.runs[ri]).collect();
        let timer = s2_obs::histogram!("core.merge.latency_us").start_timer();
        s2_obs::counter!("core.merge.segments_in").add(inputs.len() as u64);

        // Merge with each input's delete bits in the current version (no
        // move can race: we hold the commit lock).
        let metas: Vec<SegmentMeta> = inputs.iter().map(|s| s.meta_with_bits()).collect();
        let pairs: Vec<(&SegmentMeta, &SegmentReader)> =
            metas.iter().zip(&inputs).map(|(m, s)| (m, &s.core.reader)).collect();
        let sort_key = table.options.sort_key.clone();
        let mut next_id = table.next_segment_id.load(Ordering::Relaxed);
        let merged = merge_segments(
            &pairs,
            &table.schema,
            &sort_key,
            &mut next_id,
            table.options.segment_rows,
        )?;

        let file_id = self.log.end_lp();
        let ts = self.commit_ts() + 1;

        let mut built: Vec<(SegmentMeta, SegmentFile)> = Vec::new();
        for m in merged {
            let mut meta = m.meta;
            meta.file_id = file_id;
            let inverted = table.build_inverted(&m.rows);
            built.push((meta, SegmentFile { data: m.data, inverted }));
        }
        // A failed write aborts the merge before any state changed (inputs
        // are only retired below); a crash discards the engine outright.
        s2_common::fault::failpoint("core.merge.write_files")?;
        for (meta, file) in &built {
            self.file_store
                .write_file(&file_name(&self.name, file_id, meta.id), Arc::new(file.encode()))?;
        }

        // State change: one publish retires the inputs and installs the
        // output run.
        table.next_segment_id.fetch_max(next_id, Ordering::Relaxed);
        let dropped: Vec<SegmentId> = inputs.iter().map(|s| s.core.meta.id).collect();
        let out_metas: Vec<SegmentMeta> = built.iter().map(|(m, _)| m.clone()).collect();
        let mut next = TableVersion::clone(&current);
        next.retire(&dropped);
        next.add_run(built.into_iter().map(|(m, f)| SegmentSnap::open(m, f)).collect(), true)?;
        table.publish(next);

        let rec = EngineRecord::Merge { table: table.id, commit_ts: ts, dropped, metas: out_metas };
        // Crash here = merge applied in memory but unlogged: recovery replays
        // the pre-merge structure, which is content-equivalent (merges are
        // content-preserving reorganizations).
        s2_common::fault::crash_point("core.merge.log");
        let (_, merge_end_lp) = self.log.append(rec.kind(), &rec.encode());
        self.retired.lock().extend(inputs.iter().map(|s| {
            (file_name(&self.name, s.core.meta.file_id, s.core.meta.id), ts, merge_end_lp)
        }));
        self.commit_ts.store(ts, Ordering::Release);
        s2_obs::counter!("core.merge.runs").inc();
        timer.stop();
        Ok(true)
    }

    // ---- vacuum ----------------------------------------------------------

    /// Reclaim MVCC versions no active snapshot can observe, and delete the
    /// data files of retired segments. Returns (data files deleted,
    /// rowstore versions freed). A retired segment's memory needs no
    /// vacuum: it goes when the last table version holding it is dropped.
    pub fn vacuum(&self) -> Result<(usize, usize)> {
        let horizon = self.oldest_pinned().unwrap_or_else(|| self.commit_ts());
        let mut versions_freed = 0;
        let tables: Vec<Arc<Table>> = self.tables.read().values().cloned().collect();
        for table in tables {
            // Rowstore GC: anything below the horizon that is superseded.
            let (_, freed) = table.rowstore.write().gc(horizon);
            versions_freed += freed;
        }
        // A retired segment's data file goes once no snapshot can read the
        // segment and a durable rowstore snapshot covers the merge that
        // retired it: log replay from an older snapshot re-installs the
        // segment from its flush record and must find the file.
        let snapshot_lp = self.last_snapshot_lp.load(Ordering::Acquire);
        let dead: Vec<_> = self
            .retired
            .lock()
            .extract_if(.., |(_, ts, lp)| *ts <= horizon && *lp <= snapshot_lp)
            .collect();
        for (name, _, _) in &dead {
            self.file_store.delete_file(name)?;
        }
        s2_obs::counter!("core.vacuum.segments_reclaimed").add(dead.len() as u64);
        s2_obs::counter!("core.vacuum.versions_freed").add(versions_freed as u64);
        Ok((dead.len(), versions_freed))
    }

    /// Run one full maintenance pass: flush + merge every table, then vacuum.
    pub fn maintenance_pass(&self) -> Result<()> {
        for id in self.table_ids() {
            self.flush_table(id, false)?;
            while self.merge_table(id)? {}
        }
        self.vacuum()?;
        Ok(())
    }

    // ---- snapshots (durability) & recovery --------------------------------

    /// Serialize the partition state as a rowstore snapshot at the current
    /// log position (paper §2.1.1, §3.1). Only masters take snapshots; with
    /// separated storage they're written directly to blob storage.
    /// Note: serializing the snapshot does NOT advance the vacuum horizon
    /// (`last_snapshot_lp`) — the caller must persist the snapshot (and sync
    /// the log up to its position) first, then call
    /// [`Partition::mark_snapshot_durable`]. Advancing the horizon before the
    /// blob put succeeds would let vacuum delete data files that recovery
    /// still needs if the put fails or the node crashes mid-upload.
    pub fn write_snapshot(&self) -> Result<Snapshot> {
        let _g = self.commit_lock.lock();
        // The snapshot position must cover every committed record: drain any
        // queued commit records so `end_lp` includes them.
        self.group.flush_queued(&self.log);
        let lp = self.log.end_lp();
        let mut w = ByteWriter::new();
        w.put_u32(PARTITION_SNAPSHOT_MAGIC);
        w.put_u64(self.commit_ts());
        w.put_u64(self.next_table_id.load(Ordering::Relaxed));
        let tables = self.tables.read();
        let mut ids: Vec<TableId> = tables.keys().copied().collect();
        ids.sort_unstable();
        w.put_varint(ids.len() as u64);
        for id in ids {
            let t = &tables[&id];
            w.put_u32(t.id);
            w.put_str(&t.name);
            record::put_schema(&mut w, &t.schema);
            record::put_options(&mut w, &t.options);
            // Rowstore: latest committed rows.
            let mut pairs: Vec<(Vec<Value>, Row)> = Vec::new();
            t.rowstore.read().for_each_latest_committed(|k, row, _| {
                pairs.push((k.to_vec(), row.clone()));
                true
            });
            w.put_varint(pairs.len() as u64);
            for (k, row) in &pairs {
                record::put_key(&mut w, k);
                record::put_row(&mut w, row);
            }
            // Segments: the published version's, with its deleted bits, run
            // by run.
            let version = t.version();
            w.put_u64(t.next_segment_id.load(Ordering::Relaxed));
            w.put_varint(version.runs.len() as u64);
            for run in &version.runs {
                w.put_varint(run.len() as u64);
                for seg in run {
                    seg.meta_with_bits().write_to(&mut w);
                }
            }
        }
        Ok(Snapshot { lp, data: w.into_bytes() })
    }

    /// Record that a snapshot at `lp` is durably stored (uploaded to blob
    /// storage, with the log synced past `lp`). Monotonic. Vacuum uses this
    /// as its data-file retention bound: replay from the newest durable
    /// snapshot never revisits records below it.
    pub fn mark_snapshot_durable(&self, lp: LogPosition) {
        self.last_snapshot_lp.fetch_max(lp, Ordering::AcqRel);
    }

    /// Restore partition state from a snapshot blob. Each table's rowstore
    /// rows (key-sorted, committed at the snapshot timestamp) become the
    /// oldest entries of its list in `rows`; index registration is left to
    /// the post-replay [`Table::rebuild_indexes`] pass.
    fn load_snapshot_state(&self, data: &[u8], rows: &mut RecoveredRows) -> Result<()> {
        let mut r = ByteReader::new(data);
        let magic = r.get_u32()?;
        if magic != PARTITION_SNAPSHOT_MAGIC {
            return Err(Error::Corruption(format!("bad partition snapshot magic {magic:#x}")));
        }
        let commit_ts = r.get_u64()?;
        let next_table_id = r.get_u64()?;
        self.commit_ts.store(commit_ts, Ordering::Release);
        self.next_table_id.store(next_table_id, Ordering::Relaxed);
        let n_tables = r.get_varint()? as usize;
        for _ in 0..n_tables {
            let id = r.get_u32()?;
            let name = r.get_str()?.to_string();
            let schema = record::get_schema(&mut r)?;
            let options = record::get_options(&mut r)?;
            let table = Arc::new(Table::new(id, name.clone(), schema, options)?);
            let n_rows = r.get_varint()? as usize;
            let versions = rows.entry(id).or_default();
            for _ in 0..n_rows {
                let key = record::get_key(&mut r)?;
                versions.push((key, Some(record::get_row(&mut r)?), commit_ts));
            }
            // Segments.
            table.next_segment_id.fetch_max(r.get_u64()?, Ordering::Relaxed);
            let n_runs = r.get_varint()? as usize;
            let mut version = TableVersion::clone(&table.version());
            for _ in 0..n_runs {
                let n_segs = r.get_varint()? as usize;
                let metas: Vec<SegmentMeta> =
                    (0..n_segs).map(|_| SegmentMeta::read_from(&mut r)).collect::<Result<_>>()?;
                version.add_run(self.load_run(&table, metas, None)?, false)?;
            }
            table.publish(version);
            self.tables.write().insert(id, table);
            self.table_names.write().insert(name, id);
            let cur = self.next_table_id.load(Ordering::Relaxed);
            if u64::from(id) >= cur {
                self.next_table_id.store(u64::from(id) + 1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    fn note_auto_key(&self, table: &Table, key: &[Value]) {
        if table.unique_cols.is_none() {
            if let [Value::Int(n)] = key {
                table.bump_auto_key(*n);
            }
        }
    }

    /// Read the data files of one run (a snapshot's, or a flush or merge
    /// output's). Under replay, a segment in `doomed` (one that a later
    /// `Merge` of the replayed range drops) is left out — neither fetched
    /// nor decoded — but still consumes its id. A PITR target before that
    /// merge never sees the `Merge` record, so it loads the file as usual.
    fn load_run(
        &self,
        table: &Table,
        metas: Vec<SegmentMeta>,
        doomed: Option<&HashSet<SegmentId>>,
    ) -> Result<Vec<SegmentSnap>> {
        let mut run = Vec::with_capacity(metas.len());
        for meta in metas {
            table.next_segment_id.fetch_max(meta.id + 1, Ordering::Relaxed);
            if doomed.is_some_and(|d| d.contains(&meta.id)) {
                s2_obs::counter!("core.recover.segments_skipped").inc();
                continue;
            }
            let bytes = self.file_store.read_file(&file_name(&self.name, meta.file_id, meta.id))?;
            s2_obs::counter!("core.recover.segments_loaded").inc();
            run.push(SegmentSnap::open(meta, SegmentFile::decode(&bytes)?));
        }
        Ok(run)
    }

    /// Rebuild a partition from an optional snapshot plus the log suffix.
    /// This is the node-restart path, the replica-provisioning path and the
    /// PITR path (with `upto_lp` bounding replay).
    ///
    /// Replay fans decode and per-table columnstore application across the
    /// shared worker pool ([`Partition::replay`]); then every table's
    /// rowstore is built once and its indexes are rebuilt, each in a single
    /// pass.
    pub fn recover(
        name: impl Into<String>,
        log: Arc<Log>,
        file_store: Arc<dyn DataFileStore>,
        snapshot: Option<&Snapshot>,
        upto_lp: Option<LogPosition>,
    ) -> Result<Arc<Partition>> {
        let p = Partition::new(name, log, file_store);
        let mut rows = RecoveredRows::new();
        let start_lp = match snapshot {
            Some(s) => {
                let _t = s2_obs::histogram!("core.recover.snapshot_load_us").start_timer();
                p.load_snapshot_state(&s.data, &mut rows)?;
                p.last_snapshot_lp.store(s.lp, Ordering::Release);
                s.lp
            }
            None => 0,
        };
        let end_lp = upto_lp.unwrap_or_else(|| p.log.end_lp()).min(p.log.end_lp());
        let threads = s2_pool::effective_threads(0);
        if end_lp > start_lp {
            p.replay(start_lp, end_lp, threads, &mut rows)?;
        }
        p.build_rowstores(rows, threads)?;
        let _t = s2_obs::histogram!("core.recover.index_build_us").start_timer();
        p.rebuild_all_indexes(threads)?;
        Ok(p)
    }

    /// WAL replay (paper §3.1 restart; idiom after oxibase's two-phase
    /// `replay_wal` + `populate_all_indexes`):
    ///
    /// 1. **Frame scan** (serial): walk the checksummed frames, stopping at
    ///    the first torn one.
    /// 2. **Decode** (parallel): `EngineRecord::decode` fans across the
    ///    worker pool in input-ordered batches; the first error is surfaced
    ///    in log order.
    /// 3. **Route** (serial): apply `CreateTable` immediately; append every
    ///    row op — `Commit` upserts and deletes, `Flush` removed-key markers,
    ///    `Move` inserts — to its table's list in `rows`, and the columnstore
    ///    side of `Flush`, `Merge` and `Move` to its table's [`ReplayCtx`].
    ///    Every op and record touches exactly one table, so per-table lists
    ///    in log order keep all ordering that matters (transaction ids are
    ///    not observable state), and a table's rows and its columnstore
    ///    side never read each other.
    /// 4. **Apply** (parallel): one worker per table applies that table's
    ///    runs and tombstones to one next version and publishes it once,
    ///    deferring index registration and never fetching the data file of
    ///    a segment that a `Merge` further down the queue drops.
    ///
    /// The caller then builds every table's rowstore from `rows` and its
    /// indexes from its segments, one pass each, in place of per-op inserts
    /// and per-record index maintenance. Each phase is timed into its
    /// `core.recover.*_us` histogram (3 and 4 together are `apply_us`).
    fn replay(
        &self,
        start_lp: LogPosition,
        end_lp: LogPosition,
        threads: usize,
        rows: &mut RecoveredRows,
    ) -> Result<()> {
        let pool = s2_pool::ScanPool::global();
        let timer = s2_obs::histogram!("core.recover.frame_scan_us").start_timer();
        let bytes = self.log.read_range(start_lp, end_lp)?;
        // Phase 1: serial frame scan into (kind, payload) slices of `bytes`.
        let mut frames: Vec<(u8, &[u8])> = Vec::new();
        for rec in RecordIter::new(&bytes, start_lp) {
            match rec {
                Ok(rec) => frames.push((rec.kind, rec.payload)),
                Err(e) => {
                    // A corrupt frame ends replay: everything past the
                    // longest checksummed prefix is a torn tail from a
                    // crash mid-write. Nothing there was ever acknowledged
                    // — acks only cover synced, CRC-complete prefixes — so
                    // stopping is lossless.
                    s2_obs::counter!("core.recover.torn_tail_stops").add(1);
                    s2_obs::event("core.recover_truncated", format!("{e}"));
                    break;
                }
            }
        }
        timer.stop();
        // Phase 2: parallel decode in batches (input order preserved by the
        // pool; errors surfaced in log order).
        let timer = s2_obs::histogram!("core.recover.decode_us").start_timer();
        const DECODE_BATCH: usize = 256;
        let decoded: Vec<Vec<Result<EngineRecord>>> =
            pool.run(threads, frames.chunks(DECODE_BATCH).collect(), |batch| {
                batch.iter().map(|&(kind, payload)| EngineRecord::decode(kind, payload)).collect()
            });
        timer.stop();
        // Phase 3: serial routing into per-table lists, in log order.
        let _t = s2_obs::histogram!("core.recover.apply_us").start_timer();
        let mut ctxs: HashMap<TableId, ReplayCtx> = HashMap::new();
        let mut max_ts: Timestamp = 0;
        for rec in decoded.into_iter().flatten() {
            let rec = rec?;
            if let Some(ts) = rec.commit_ts() {
                max_ts = max_ts.max(ts);
            }
            match rec {
                rec @ EngineRecord::CreateTable { .. } => self.apply_record(rec)?,
                EngineRecord::Commit { commit_ts, ops } => {
                    for op in ops {
                        let (table, version) = match op {
                            RowOp::Upsert { table, key, row } => {
                                (table, (key, Some(row), commit_ts))
                            }
                            RowOp::Delete { table, key } => (table, (key, None, commit_ts)),
                        };
                        rows.entry(table).or_default().push(version);
                    }
                }
                EngineRecord::Flush { table, commit_ts, metas, removed_keys } => {
                    let markers = removed_keys.into_iter().map(|key| (key, None, commit_ts));
                    rows.entry(table).or_default().extend(markers);
                    ctxs.entry(table).or_default().runs.push((Vec::new(), metas));
                }
                EngineRecord::Move { table, commit_ts, inserts, deleted } => {
                    let copies = inserts.into_iter().map(|(key, row)| (key, Some(row), commit_ts));
                    rows.entry(table).or_default().extend(copies);
                    ctxs.entry(table).or_default().deletes.extend(deleted);
                }
                EngineRecord::Merge { table, dropped, metas, .. } => {
                    let ctx = ctxs.entry(table).or_default();
                    ctx.doomed.extend(&dropped);
                    ctx.runs.push((dropped, metas));
                }
            }
        }
        // Phase 4: parallel per-table columnstore apply.
        let mut work: Vec<(TableId, ReplayCtx)> = ctxs.into_iter().collect();
        work.sort_unstable_by_key(|(tid, _)| *tid);
        let results: Vec<Result<()>> =
            pool.run(threads, work, |(tid, ctx)| self.replay_columnstore(tid, ctx));
        for r in results {
            r?;
        }
        self.bump_commit_ts(max_ts);
        Ok(())
    }

    /// Replay phase 4 for one table: its runs in log order (merges retiring
    /// their inputs first), then its `Move` tombstones, all on one next
    /// version published once. Nothing reads a recovering partition.
    fn replay_columnstore(&self, table: TableId, ctx: ReplayCtx) -> Result<()> {
        let t = self.table(table)?;
        let mut next = TableVersion::clone(&t.version());
        for (dropped, metas) in ctx.runs {
            next.retire(&dropped);
            next.add_run(self.load_run(&t, metas, Some(&ctx.doomed))?, false)?;
        }
        next.delete_rows(&ctx.deletes);
        t.publish(next);
        Ok(())
    }

    /// Build every table's rowstore once from its recovered versions
    /// ([`RowStore::from_committed`]): what op-by-op replay followed by a
    /// vacuum at the recovered commit timestamp would leave, which is all a
    /// reader can see, since none can start below that timestamp. Largest
    /// tables go first, so the longest build starts at once. Synthetic-key
    /// allocators step past every recovered upsert's key.
    fn build_rowstores(&self, rows: RecoveredRows, threads: usize) -> Result<()> {
        let _t = s2_obs::histogram!("core.recover.rowstore_build_us").start_timer();
        let mut work: Vec<(TableId, Vec<CommittedVersion>)> = rows.into_iter().collect();
        work.sort_unstable_by_key(|(tid, versions)| (std::cmp::Reverse(versions.len()), *tid));
        let results = s2_pool::ScanPool::global().run(threads, work, |(tid, versions)| {
            let t = self.table(tid)?;
            for (key, row, _) in &versions {
                if row.is_some() {
                    self.note_auto_key(&t, key);
                }
            }
            *t.rowstore.write() = RowStore::from_committed(versions)?;
            Ok(())
        });
        results.into_iter().collect()
    }

    /// Rebuild every table's global indexes from its live segments.
    fn rebuild_all_indexes(&self, threads: usize) -> Result<()> {
        let tables: Vec<Arc<Table>> = {
            let map = self.tables.read();
            let mut ts: Vec<Arc<Table>> = map.values().cloned().collect();
            ts.sort_unstable_by_key(|t| t.id);
            ts
        };
        let results: Vec<Result<()>> =
            s2_pool::ScanPool::global().run(threads, tables, |t| t.rebuild_indexes());
        for r in results {
            r?;
        }
        Ok(())
    }

    /// Apply one record to a live partition: a replica or workspace
    /// following its primary's log tail (replay routes its `CreateTable`s
    /// here too). A `Flush`, `Move` or `Merge` reads its data files and
    /// builds the next version first — a failed read leaves the table
    /// untouched, so a replica can retry the record — then publishes it,
    /// changes the rowstore and bumps the commit timestamp under the commit
    /// lock, so a read snapshot sees the record whole or not at all.
    pub fn apply_record(&self, rec: EngineRecord) -> Result<()> {
        match rec {
            EngineRecord::CreateTable { table, name, schema, options } => {
                let t = Arc::new(Table::new(table, name.clone(), schema, options)?);
                self.tables.write().insert(table, t);
                self.table_names.write().insert(name, table);
                let cur = self.next_table_id.load(Ordering::Relaxed);
                if u64::from(table) >= cur {
                    self.next_table_id.store(u64::from(table) + 1, Ordering::Relaxed);
                }
            }
            EngineRecord::Commit { commit_ts, ops } => {
                // One table and rowstore lookup per run of same-table ops.
                let mut ops = ops.into_iter().peekable();
                while let Some(table) = ops.peek().map(RowOp::table) {
                    let t = self.table(table)?;
                    let rs = t.rowstore.read();
                    while let Some(op) = ops.next_if(|op| op.table() == table) {
                        match op {
                            RowOp::Upsert { key, row, .. } => {
                                self.note_auto_key(&t, &key);
                                rs.install_committed(&key, Some(row), commit_ts);
                            }
                            RowOp::Delete { key, .. } => {
                                rs.install_committed(&key, None, commit_ts);
                            }
                        }
                    }
                }
                self.bump_commit_ts(commit_ts);
            }
            EngineRecord::Flush { table, commit_ts, metas, removed_keys } => {
                let t = self.table(table)?;
                // Every segment goes in as ONE run, mirroring the live flush
                // (a flush produces a single sorted run).
                let mut next = TableVersion::clone(&t.version());
                next.add_run(self.load_run(&t, metas, None)?, true)?;
                let _g = self.commit_lock.lock();
                t.publish(next);
                let rs = t.rowstore.read();
                for key in &removed_keys {
                    rs.install_committed(key, None, commit_ts);
                }
                drop(rs);
                self.bump_commit_ts(commit_ts);
            }
            EngineRecord::Move { table, commit_ts, inserts, deleted } => {
                let t = self.table(table)?;
                let mut next = TableVersion::clone(&t.version());
                next.delete_rows(&deleted);
                let _g = self.commit_lock.lock();
                let rs = t.rowstore.read();
                for (key, row) in inserts {
                    self.note_auto_key(&t, &key);
                    rs.install_committed(&key, Some(row), commit_ts);
                }
                drop(rs);
                t.publish(next);
                self.bump_commit_ts(commit_ts);
            }
            EngineRecord::Merge { table, commit_ts, dropped, metas } => {
                let t = self.table(table)?;
                let mut next = TableVersion::clone(&t.version());
                next.retire(&dropped);
                next.add_run(self.load_run(&t, metas, None)?, true)?;
                let _g = self.commit_lock.lock();
                t.publish(next);
                self.bump_commit_ts(commit_ts);
            }
        }
        Ok(())
    }

    fn bump_commit_ts(&self, ts: Timestamp) {
        let cur = self.commit_ts();
        if ts > cur {
            self.commit_ts.store(ts, Ordering::Release);
        }
    }
}

/// A consistent multi-table read view of one partition. Pins GC horizons
/// while alive.
pub struct PartitionSnapshot {
    /// Snapshot timestamp.
    pub read_ts: Timestamp,
    tables: HashMap<TableId, Arc<TableSnapshot>>,
    partition: Arc<Partition>,
}

impl PartitionSnapshot {
    /// Per-table snapshot by id.
    pub fn table(&self, id: TableId) -> Result<&Arc<TableSnapshot>> {
        self.tables.get(&id).ok_or_else(|| Error::NotFound(format!("table {id} in snapshot")))
    }

    /// Per-table snapshot by name.
    pub fn table_by_name(&self, name: &str) -> Result<&Arc<TableSnapshot>> {
        let t = self.partition.table_by_name(name)?;
        self.table(t.id)
    }

    /// Ids of tables captured.
    pub fn table_ids(&self) -> Vec<TableId> {
        let mut ids: Vec<TableId> = self.tables.keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

impl Drop for PartitionSnapshot {
    fn drop(&mut self) {
        self.partition.unpin(self.read_ts);
    }
}
