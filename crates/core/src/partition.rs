//! The partition: tables + write-ahead log + commit protocol + background
//! maintenance (flush, merge, vacuum) + snapshots + recovery.
//!
//! A partition is the unit of durability and replication in S2DB (paper §2,
//! §3): it owns one log, one commit-timestamp sequence, and the tables'
//! partition-local data. Every state-changing commit (user transaction,
//! flush, move, merge) runs under the partition's commit lock, which also
//! orders read-snapshot acquisition — giving partition-local snapshot
//! isolation (paper §2.1.2).

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
use s2_wal::{GroupCommit, Log, RecordIter, Snapshot};

use crate::record::{self, EngineRecord, RowOp};
use crate::segfile::{file_name, DataFileStore, SegmentFile};
use crate::table::{SegmentCore, Table, TableSnapshot};

/// Snapshot blob magic ("S2PS").
const PARTITION_SNAPSHOT_MAGIC: u32 = 0x5350_3253;

/// Per-table state threaded through one replay worker.
#[derive(Default)]
struct ReplayCtx {
    /// `Move` tombstones, batched for a single copy-on-write install per
    /// surviving segment at queue end.
    pending_deletes: HashMap<SegmentId, Vec<u32>>,
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
        let mut inserts: Vec<(Vec<Value>, Row)> = Vec::with_capacity(targets.len());
        let mut bits_by_seg: HashMap<SegmentId, Vec<u32>> = HashMap::new();
        let rs = table.rowstore.read();
        for (core, off) in targets {
            // Re-validate under the lock: the segment may have been merged
            // away or the row deleted since the caller located it.
            let (core, off) = if core.is_dropped() || core.deleted.read().get(*off as usize) {
                match self.relocate(table, core, *off)? {
                    Some(loc) => loc,
                    None => continue, // row no longer exists anywhere: skip
                }
            } else {
                (Arc::clone(core), *off)
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
        // Commit the moved copies immediately, keeping locks for the user.
        let keys: Vec<Vec<Value>> = inserts.iter().map(|(k, _)| k.clone()).collect();
        rs.commit_keep_locked(user_txn, ts, &keys);
        drop(rs);
        // Install new deleted bit vectors (copy-on-write).
        let state = table.state.read();
        for (seg, offs) in &bits_by_seg {
            if let Some(core) = state.segments.get(seg) {
                let mut bits = (**core.deleted.read()).clone();
                for &o in offs {
                    bits.set(o as usize);
                }
                *core.deleted.write() = Arc::new(bits);
            }
        }
        drop(state);
        s2_obs::counter!("core.move.txns").inc();
        s2_obs::counter!("core.move.rows").add(inserts.len() as u64);
        // Canonical segment order keeps the record bytes (and therefore log
        // positions) independent of hash-map iteration order — replayable
        // runs depend on the log stream being a pure function of the workload.
        let mut deleted: Vec<(SegmentId, Vec<u32>)> = bits_by_seg.into_iter().collect();
        deleted.sort_by_key(|(seg, _)| *seg);
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

    /// Find the current location of the row that used to live at
    /// (`stale_core`, `off`): the paper's "extra scanning pass on newly
    /// created segments ... to find the latest versions of the locked rows".
    fn relocate(
        &self,
        table: &Arc<Table>,
        stale_core: &Arc<SegmentCore>,
        off: u32,
    ) -> Result<Option<(Arc<SegmentCore>, u32)>> {
        let row = stale_core.reader.row(off as usize)?;
        // Prefer the unique index when one exists.
        if let Some(cols) = &table.unique_cols {
            let key = row.project(cols);
            let hits = table.index_probe_latest(cols, &key)?;
            for (core, rows) in hits {
                if let Some(&r) = rows.first() {
                    return Ok(Some((core, r)));
                }
            }
            return Ok(None);
        }
        // No unique key: scan live segments for an identical, live row.
        for core in table.live_segments() {
            let deleted = core.deleted_bits();
            for ri in 0..core.meta.row_count {
                if deleted.get(ri) {
                    continue;
                }
                if core.reader.row(ri)? == row {
                    return Ok(Some((core, ri as u32)));
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

        let indexed_cols: Vec<usize> = {
            let state = table.state.read();
            state.indexes.indexed_columns()
        };
        let file_id = self.log.end_lp();
        let ts = self.commit_ts() + 1;

        // Build one sorted run (possibly several segments) and its files.
        let mut built: Vec<(SegmentMeta, SegmentFile)> = Vec::new();
        {
            let mut state = table.state.write();
            for chunk in rows.chunks(table.options.segment_rows) {
                let id = state.next_segment_id;
                state.next_segment_id += 1;
                let (mut meta, data) =
                    s2_columnstore::build_segment(id, chunk.to_vec(), &table.schema, &sort_key)?;
                meta.file_id = file_id;
                let inverted = table.build_inverted(chunk, &indexed_cols);
                built.push((meta, SegmentFile { data, inverted }));
            }
        }
        // Crash here = power loss before any flush effect reached disk; the
        // rowstore rows are still the only copy and recovery must keep them.
        s2_common::fault::crash_point("core.flush.write_files");
        for (meta, file) in &built {
            self.file_store
                .write_file(&file_name(&self.name, file_id, meta.id), Arc::new(file.encode()))?;
        }

        // Atomic state change: delete flushed keys from the rowstore and
        // install the new run, all at timestamp `ts`.
        for key in &keys {
            rs.write(flush_txn, key, None)?; // lock already held by flush_txn
        }
        rs.commit(flush_txn, ts, &keys);
        drop(rs);

        let n = built.len();
        // Fresh segments: every deleted bit in these metas is clear.
        let metas: Vec<SegmentMeta> = built.iter().map(|(m, _)| m.clone()).collect();
        table.install_run(built, true)?;

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

        let (input_ids, inputs, mut next_id) = {
            let state = table.state.read();
            let run_sizes: Vec<usize> = state
                .runs
                .iter()
                .map(|run| {
                    run.iter().filter_map(|id| state.segments.get(id)).map(|c| c.live_rows()).sum()
                })
                .collect();
            let Some(plan) = self.merge_policy.plan(&run_sizes) else {
                return Ok(false);
            };
            let mut ids = Vec::new();
            for &ri in &plan {
                ids.extend(state.runs[ri].iter().copied());
            }
            let inputs: Vec<Arc<SegmentCore>> =
                ids.iter().filter_map(|id| state.segments.get(id).cloned()).collect();
            (ids, inputs, state.next_segment_id)
        };
        if inputs.is_empty() {
            return Ok(false);
        }
        let timer = s2_obs::histogram!("core.merge.latency_us").start_timer();
        s2_obs::counter!("core.merge.segments_in").add(inputs.len() as u64);

        // Merge with each input's *current* deleted bits (no move can race:
        // we hold the commit lock).
        let metas: Vec<SegmentMeta> = inputs
            .iter()
            .map(|c| {
                let mut m = c.meta.clone();
                m.deleted = (*c.deleted_bits()).clone();
                m
            })
            .collect();
        let pairs: Vec<(&SegmentMeta, &SegmentReader)> =
            metas.iter().zip(inputs.iter()).map(|(m, c)| (m, &c.reader)).collect();
        let sort_key = table.options.sort_key.clone();
        let merged = merge_segments(
            &pairs,
            &table.schema,
            &sort_key,
            &mut next_id,
            table.options.segment_rows,
        )?;

        let indexed_cols: Vec<usize> = {
            let state = table.state.read();
            state.indexes.indexed_columns()
        };
        let file_id = self.log.end_lp();
        let ts = self.commit_ts() + 1;

        let mut built: Vec<(SegmentMeta, SegmentFile)> = Vec::new();
        for m in merged {
            let mut meta = m.meta;
            meta.file_id = file_id;
            let inverted = table.build_inverted(&m.rows, &indexed_cols);
            built.push((meta, SegmentFile { data: m.data, inverted }));
        }
        // A failed write aborts the merge before any state changed (inputs
        // are only retired below); a crash discards the engine outright.
        s2_common::fault::failpoint("core.merge.write_files")?;
        for (meta, file) in &built {
            self.file_store
                .write_file(&file_name(&self.name, file_id, meta.id), Arc::new(file.encode()))?;
        }

        // State change: retire inputs, install the output run.
        {
            let mut state = table.state.write();
            state.next_segment_id = state.next_segment_id.max(next_id);
            for id in &input_ids {
                if let Some(core) = state.segments.get(id) {
                    core.dropped_ts.store(ts, Ordering::Release);
                }
            }
            state.runs.retain(|run| run.iter().all(|id| !input_ids.contains(id)));
        }
        let out_metas: Vec<SegmentMeta> = built.iter().map(|(m, _)| m.clone()).collect();
        table.install_run(built, true)?;

        let rec = EngineRecord::Merge {
            table: table.id,
            commit_ts: ts,
            dropped: input_ids.clone(),
            metas: out_metas,
        };
        // Crash here = merge applied in memory but unlogged: recovery replays
        // the pre-merge structure, which is content-equivalent (merges are
        // content-preserving reorganizations).
        s2_common::fault::crash_point("core.merge.log");
        let (_, merge_end_lp) = self.log.append(rec.kind(), &rec.encode());
        {
            let state = table.state.read();
            for id in &input_ids {
                if let Some(core) = state.segments.get(id) {
                    core.dropped_lp.store(merge_end_lp, Ordering::Release);
                }
            }
        }
        self.commit_ts.store(ts, Ordering::Release);
        s2_obs::counter!("core.merge.runs").inc();
        timer.stop();
        Ok(true)
    }

    // ---- vacuum ----------------------------------------------------------

    /// Reclaim MVCC versions, retired segments and stale global-index levels
    /// that no active snapshot can observe. Returns (segments reclaimed,
    /// rowstore versions freed).
    pub fn vacuum(&self) -> Result<(usize, usize)> {
        let horizon = self.oldest_pinned().unwrap_or_else(|| self.commit_ts());
        let mut segs_reclaimed = 0;
        let mut versions_freed = 0;
        let tables: Vec<Arc<Table>> = self.tables.read().values().cloned().collect();
        for table in tables {
            // Rowstore GC: anything below the horizon that is superseded.
            {
                let mut rs = table.rowstore.write();
                let (_, freed) = rs.gc(horizon.saturating_sub(0));
                versions_freed += freed;
            }
            // Segment GC: retired segments no snapshot can still reference.
            let snapshot_lp = self.last_snapshot_lp.load(Ordering::Acquire);
            let mut dead: Vec<(SegmentId, LogPosition)> = Vec::new();
            {
                let mut state = table.state.write();
                let ids: Vec<SegmentId> = state.segments.keys().copied().collect();
                for id in ids {
                    let core = &state.segments[&id];
                    let dropped = core.dropped_ts.load(Ordering::Acquire);
                    if dropped != u64::MAX && dropped <= horizon {
                        // The in-memory segment can always be reclaimed; the
                        // data file only once a snapshot at/after the merge
                        // exists (log replay from that snapshot no longer
                        // revisits this segment's flush record).
                        if core.dropped_lp.load(Ordering::Acquire) <= snapshot_lp {
                            dead.push((id, core.meta.file_id));
                        }
                        state.segments.remove(&id);
                        segs_reclaimed += 1;
                    }
                }
                // Lazy-deletion maintenance on the global indexes.
                let live: std::collections::HashSet<SegmentId> = state
                    .segments
                    .iter()
                    .filter(|(_, c)| !c.is_dropped())
                    .map(|(id, _)| *id)
                    .collect();
                let is_live = move |s: SegmentId| live.contains(&s);
                for g in state.indexes.column.values_mut() {
                    g.maintain(&is_live);
                }
                for (_, g) in &mut state.indexes.tuple {
                    g.maintain(&is_live);
                }
            }
            for (id, file_id) in dead {
                self.file_store.delete_file(&file_name(&self.name, file_id, id))?;
            }
        }
        s2_obs::counter!("core.vacuum.segments_reclaimed").add(segs_reclaimed as u64);
        s2_obs::counter!("core.vacuum.versions_freed").add(versions_freed as u64);
        Ok((segs_reclaimed, versions_freed))
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
            // Segments: live ones only, with current deleted bits, run by run.
            let state = t.state.read();
            w.put_u64(state.next_segment_id);
            w.put_varint(state.runs.len() as u64);
            for run in &state.runs {
                let metas: Vec<SegmentMeta> = run
                    .iter()
                    .filter_map(|sid| state.segments.get(sid))
                    .map(|c| {
                        let mut m = c.meta.clone();
                        m.deleted = (*c.deleted_bits()).clone();
                        m
                    })
                    .collect();
                w.put_varint(metas.len() as u64);
                for m in &metas {
                    m.write_to(&mut w);
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

    /// Restore partition state from a snapshot blob. Index registration is
    /// left to the post-replay [`Table::rebuild_indexes`] pass.
    fn load_snapshot_state(&self, data: &[u8]) -> Result<()> {
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
            // Rowstore rows, committed at the snapshot timestamp.
            let n_rows = r.get_varint()? as usize;
            {
                let rs = table.rowstore.read();
                for _ in 0..n_rows {
                    let key = record::get_key(&mut r)?;
                    let row = record::get_row(&mut r)?;
                    self.note_auto_key(&table, &key);
                    rs.install_committed(&key, Some(row), commit_ts);
                }
            }
            // Segments.
            let next_segment_id = r.get_u64()?;
            let n_runs = r.get_varint()? as usize;
            for _ in 0..n_runs {
                let n_segs = r.get_varint()? as usize;
                let metas: Vec<SegmentMeta> =
                    (0..n_segs).map(|_| SegmentMeta::read_from(&mut r)).collect::<Result<_>>()?;
                table.install_run(self.load_run(&table, metas, None)?, false)?;
            }
            {
                let mut state = table.state.write();
                state.next_segment_id = state.next_segment_id.max(next_segment_id);
            }
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
    /// output's). Under replay, a segment that a later `Merge` of the
    /// replayed range drops is left out — neither fetched nor decoded — but
    /// still consumes its id. A PITR target before that merge never sees the
    /// `Merge` record, so it loads the file as usual.
    fn load_run(
        &self,
        table: &Table,
        metas: Vec<SegmentMeta>,
        replay: Option<&ReplayCtx>,
    ) -> Result<Vec<(SegmentMeta, SegmentFile)>> {
        let mut run = Vec::with_capacity(metas.len());
        for meta in metas {
            if replay.is_some_and(|ctx| ctx.doomed.contains(&meta.id)) {
                let mut state = table.state.write();
                state.next_segment_id = state.next_segment_id.max(meta.id + 1);
                s2_obs::counter!("core.recover.segments_skipped").inc();
                continue;
            }
            let bytes = self.file_store.read_file(&file_name(&self.name, meta.file_id, meta.id))?;
            s2_obs::counter!("core.recover.segments_loaded").inc();
            run.push((meta, SegmentFile::decode(&bytes)?));
        }
        Ok(run)
    }

    /// Rebuild a partition from an optional snapshot plus the log suffix.
    /// This is the node-restart path, the replica-provisioning path and the
    /// PITR path (with `upto_lp` bounding replay).
    ///
    /// Replay fans decode and per-table application across the shared worker
    /// pool ([`Partition::replay`]), then rebuilds indexes in a single pass.
    pub fn recover(
        name: impl Into<String>,
        log: Arc<Log>,
        file_store: Arc<dyn DataFileStore>,
        snapshot: Option<&Snapshot>,
        upto_lp: Option<LogPosition>,
    ) -> Result<Arc<Partition>> {
        let p = Partition::new(name, log, file_store);
        let start_lp = match snapshot {
            Some(s) => {
                let _t = s2_obs::histogram!("core.recover.snapshot_load_us").start_timer();
                p.load_snapshot_state(&s.data)?;
                p.last_snapshot_lp.store(s.lp, Ordering::Release);
                s.lp
            }
            None => 0,
        };
        let end_lp = upto_lp.unwrap_or_else(|| p.log.end_lp()).min(p.log.end_lp());
        let threads = s2_pool::effective_threads(0);
        if end_lp > start_lp {
            p.replay(start_lp, end_lp, threads)?;
        }
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
    /// 3. **Partition** (serial): apply `CreateTable` immediately; split
    ///    each multi-table `Commit` into per-table sub-commits (same
    ///    timestamp — transaction ids are not observable state) and bucket
    ///    everything else by table. Every non-DDL record touches exactly one
    ///    table, so per-table queues preserve all ordering that matters.
    /// 4. **Apply** (parallel): one worker per table replays that table's
    ///    queue in log order, deferring index registration, batching `Move`
    ///    tombstones (delete bits only ever get set and segment ids are
    ///    never reused, so one copy-on-write install per surviving segment
    ///    at the end is equivalent to per-record installs) and never
    ///    fetching the data file of a segment that a `Merge` further down
    ///    the queue drops.
    ///
    /// The caller then rebuilds every table's indexes in one pass, replacing
    /// per-record index maintenance. Each phase is timed into its
    /// `core.recover.*_us` histogram (3 and 4 together are `apply_us`).
    fn replay(
        self: &Arc<Partition>,
        start_lp: LogPosition,
        end_lp: LogPosition,
        threads: usize,
    ) -> Result<()> {
        let pool = s2_pool::ScanPool::global();
        let timer = s2_obs::histogram!("core.recover.frame_scan_us").start_timer();
        let bytes = Arc::new(self.log.read_range(start_lp, end_lp)?);
        // Phase 1: serial frame scan. Frames are (kind, payload range); the
        // payload range is resolved against the shared buffer so decode jobs
        // borrow nothing.
        let base = bytes.as_ptr() as usize;
        let mut frames: Vec<(u8, usize, usize)> = Vec::new();
        for rec in RecordIter::new(&bytes, start_lp) {
            match rec {
                Ok(rec) => {
                    let off = rec.payload.as_ptr() as usize - base;
                    frames.push((rec.kind, off, off + rec.payload.len()));
                }
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
        let batches: Vec<Vec<(u8, usize, usize)>> =
            frames.chunks(DECODE_BATCH).map(<[_]>::to_vec).collect();
        let buf = Arc::clone(&bytes);
        let decoded: Vec<Vec<Result<EngineRecord>>> = pool.run(threads, batches, move |batch| {
            batch.into_iter().map(|(kind, s, e)| EngineRecord::decode(kind, &buf[s..e])).collect()
        });
        timer.stop();
        // Phase 3: serial partition into per-table ordered queues.
        let _t = s2_obs::histogram!("core.recover.apply_us").start_timer();
        let mut queues: HashMap<TableId, Vec<EngineRecord>> = HashMap::new();
        let mut max_ts: Timestamp = 0;
        for rec in decoded.into_iter().flatten() {
            let rec = rec?;
            if let Some(ts) = rec.commit_ts() {
                max_ts = max_ts.max(ts);
            }
            match rec {
                rec @ EngineRecord::CreateTable { .. } => self.apply_record(rec)?,
                EngineRecord::Commit { commit_ts, ops } => {
                    let mut by_table: HashMap<TableId, Vec<RowOp>> = HashMap::new();
                    for op in ops {
                        by_table.entry(op.table()).or_default().push(op);
                    }
                    for (tid, ops) in by_table {
                        queues
                            .entry(tid)
                            .or_default()
                            .push(EngineRecord::Commit { commit_ts, ops });
                    }
                }
                EngineRecord::Flush { table, .. }
                | EngineRecord::Move { table, .. }
                | EngineRecord::Merge { table, .. } => {
                    queues.entry(table).or_default().push(rec);
                }
            }
        }
        // Phase 4: parallel per-table apply (log order within each table).
        let mut work: Vec<(TableId, Vec<EngineRecord>)> = queues.into_iter().collect();
        work.sort_unstable_by_key(|(tid, _)| *tid);
        let replayer = Arc::clone(self);
        let results: Vec<Result<()>> = pool.run(threads, work, move |(tid, recs)| {
            let mut ctx = ReplayCtx::default();
            for rec in &recs {
                if let EngineRecord::Merge { dropped, .. } = rec {
                    ctx.doomed.extend(dropped);
                }
            }
            for rec in recs {
                replayer.apply_record_inner(rec, Some(&mut ctx))?;
            }
            replayer.install_replay_deletes(tid, ctx)
        });
        for r in results {
            r?;
        }
        self.bump_commit_ts(max_ts);
        Ok(())
    }

    /// Rebuild every table's global indexes from its live segments.
    fn rebuild_all_indexes(self: &Arc<Partition>, threads: usize) -> Result<()> {
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

    /// Apply the batched `Move` tombstones for one table: one copy-on-write
    /// delete-vector install per still-live segment.
    fn install_replay_deletes(&self, table: TableId, ctx: ReplayCtx) -> Result<()> {
        if ctx.pending_deletes.is_empty() {
            return Ok(());
        }
        let t = self.table(table)?;
        let state = t.state.read();
        for (seg, offs) in ctx.pending_deletes {
            if let Some(core) = state.segments.get(&seg) {
                let mut bits = (**core.deleted.read()).clone();
                for o in offs {
                    bits.set(o as usize);
                }
                *core.deleted.write() = Arc::new(bits);
            }
        }
        Ok(())
    }

    /// Apply one replayed (or replicated) record.
    pub fn apply_record(&self, rec: EngineRecord) -> Result<()> {
        self.apply_record_inner(rec, None)
    }

    /// [`Partition::apply_record`] with an optional replay context:
    /// when present, index registration is deferred (rebuilt in one pass
    /// afterwards), `Move` tombstones are batched into the context, and the
    /// commit-timestamp bump is skipped (the replay driver folds the maximum
    /// serially — the bump is a non-atomic read-modify-write that must not
    /// race across table workers).
    fn apply_record_inner(&self, rec: EngineRecord, replay: Option<&mut ReplayCtx>) -> Result<()> {
        let deferred = replay.is_some();
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
                // One table and rowstore lookup per run of same-table ops
                // (replay hands over single-table sub-commits).
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
                if !deferred {
                    self.bump_commit_ts(commit_ts);
                }
            }
            EngineRecord::Flush { table, commit_ts, metas, removed_keys } => {
                let t = self.table(table)?;
                // Install every segment as ONE run, mirroring the live flush
                // (a flush produces a single sorted run).
                t.install_run(self.load_run(&t, metas, replay.as_deref())?, !deferred)?;
                let rs = t.rowstore.read();
                for key in &removed_keys {
                    rs.install_committed(key, None, commit_ts);
                }
                drop(rs);
                if !deferred {
                    self.bump_commit_ts(commit_ts);
                }
            }
            EngineRecord::Move { table, commit_ts, inserts, deleted } => {
                let t = self.table(table)?;
                let rs = t.rowstore.read();
                for (key, row) in inserts {
                    self.note_auto_key(&t, &key);
                    rs.install_committed(&key, Some(row), commit_ts);
                }
                drop(rs);
                match replay {
                    Some(ctx) => {
                        // Batched: delete bits only ever get set, so folding
                        // them into one install at queue end is equivalent.
                        for (seg, offs) in deleted {
                            ctx.pending_deletes.entry(seg).or_default().extend(offs);
                        }
                    }
                    None => {
                        let state = t.state.read();
                        for (seg, offs) in deleted {
                            if let Some(core) = state.segments.get(&seg) {
                                let mut bits = (**core.deleted.read()).clone();
                                for o in offs {
                                    bits.set(o as usize);
                                }
                                *core.deleted.write() = Arc::new(bits);
                            }
                        }
                    }
                }
                if !deferred {
                    self.bump_commit_ts(commit_ts);
                }
            }
            EngineRecord::Merge { table, commit_ts, dropped, metas } => {
                let t = self.table(table)?;
                // Files first: a failed read leaves the table untouched, so
                // a replica can retry the record.
                let run = self.load_run(&t, metas, replay.as_deref())?;
                {
                    let mut state = t.state.write();
                    for id in &dropped {
                        state.segments.remove(id);
                    }
                    state.runs.retain(|run| run.iter().all(|id| !dropped.contains(id)));
                }
                t.install_run(run, !deferred)?;
                if !deferred {
                    self.bump_commit_ts(commit_ts);
                }
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
