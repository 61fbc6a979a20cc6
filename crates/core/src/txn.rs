//! The transaction API: inserts with uniqueness enforcement (paper §4.1.2),
//! updates and deletes with row-level locking via move transactions
//! (paper §4.2), point reads, commit and rollback.
//!
//! Writes buffer in the rowstore as uncommitted MVCC versions (visible to
//! this transaction only) and are logged as one redo record at commit.

use std::collections::HashMap;
use std::sync::Arc;

use s2_common::{Error, LogPosition, Result, Row, TableId, Timestamp, TxnId, Value};

use crate::partition::Partition;
use crate::record::RowOp;
use crate::table::{SegmentCore, Table};

/// What to do when an inserted row violates a unique key (paper §4.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DuplicatePolicy {
    /// Report an error (default).
    Error,
    /// Skip the new row (`SKIP DUPLICATE KEY ERRORS`).
    Skip,
    /// Delete the conflicting row, then insert the new one (`REPLACE`).
    Replace,
    /// Update the conflicting row with the new values (`ON DUPLICATE KEY UPDATE`).
    Update,
}

/// Outcome of a batch insert.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct InsertReport {
    /// Rows inserted as new.
    pub inserted: usize,
    /// Rows skipped due to duplicates.
    pub skipped: usize,
    /// Rows that replaced an existing row.
    pub replaced: usize,
    /// Rows merged into an existing row via update.
    pub updated: usize,
}

/// Where a row currently lives (used by DML planning).
#[derive(Clone)]
pub enum RowLocation {
    /// In the rowstore, under this key.
    Rowstore(Vec<Value>),
    /// In a columnstore segment at this offset.
    Segment(Arc<SegmentCore>, u32),
}

/// Where [`Txn::find_live_by_unique`] found the latest live row.
enum Latest {
    /// A live rowstore version, this transaction's own writes included.
    Rowstore(Row),
    /// A live segment row.
    Segment(Arc<SegmentCore>, u32),
}

/// An interactive read-write transaction on one partition.
pub struct Txn {
    partition: Arc<Partition>,
    id: TxnId,
    ops: Vec<RowOp>,
    /// Rowstore keys this transaction holds locks on, per table.
    locked: HashMap<TableId, Vec<Vec<Value>>>,
    finished: bool,
}

impl Partition {
    /// Begin a read-write transaction.
    pub fn begin(self: &Arc<Self>) -> Txn {
        Txn {
            partition: Arc::clone(self),
            id: self.alloc_txn(),
            ops: Vec::new(),
            locked: HashMap::new(),
            finished: false,
        }
    }
}

impl Txn {
    /// This transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    fn check_active(&self) -> Result<()> {
        if self.finished {
            return Err(Error::TxnAborted("transaction already finished".into()));
        }
        Ok(())
    }

    fn note_lock(&mut self, table: TableId, key: Vec<Value>) {
        self.locked.entry(table).or_default().push(key);
    }

    /// Insert a single row (duplicates are errors).
    pub fn insert(&mut self, table: TableId, row: Row) -> Result<()> {
        let report = self.insert_batch(table, vec![row], DuplicatePolicy::Error)?;
        debug_assert_eq!(report.inserted, 1);
        Ok(())
    }

    /// Insert a batch of rows with the given duplicate-key handling
    /// (paper §4.1.2: each batch is checked together to amortize index
    /// lookups: lock keys, probe indexes, then resolve conflicts).
    pub fn insert_batch(
        &mut self,
        table_id: TableId,
        rows: Vec<Row>,
        policy: DuplicatePolicy,
    ) -> Result<InsertReport> {
        self.check_active()?;
        let table = self.partition.table(table_id)?;
        let mut report = InsertReport::default();
        for row in rows {
            let row = Row::checked(row.into_values(), &table.schema)?;
            match &table.unique_cols {
                None => {
                    // No unique key: plain append under a synthetic key.
                    let key = table.rowstore_key(&row);
                    table.rowstore.read().write(self.id, &key, Some(row.clone()))?;
                    self.note_lock(table_id, key.clone());
                    self.ops.push(RowOp::Upsert { table: table_id, key, row });
                    report.inserted += 1;
                }
                Some(cols) => {
                    let cols = cols.clone();
                    self.insert_unique(&table, row, &cols, policy, &mut report)?;
                }
            }
        }
        Ok(report)
    }

    fn insert_unique(
        &mut self,
        table: &Arc<Table>,
        row: Row,
        unique_cols: &[usize],
        policy: DuplicatePolicy,
        report: &mut InsertReport,
    ) -> Result<()> {
        let key = row.project(unique_cols);
        if key.iter().any(Value::is_null) {
            return Err(Error::InvalidArgument("NULL in unique key".into()));
        }
        // Step 1 (paper §4.1.2): lock the unique key value. The rowstore's
        // primary key acts as the lock manager.
        table.rowstore.read().lock_key(self.id, &key)?;
        self.note_lock(table.id, key.clone());

        // Step 2: duplicate lookup. Own uncommitted writes count too.
        let existing = self.find_live_by_unique(table, &key)?;

        match existing {
            None => {
                table.rowstore.read().write(self.id, &key, Some(row.clone()))?;
                self.ops.push(RowOp::Upsert { table: table.id, key, row });
                report.inserted += 1;
            }
            Some(loc) => match policy {
                DuplicatePolicy::Error => {
                    return Err(Error::DuplicateKey(format!(
                        "table {:?}, key {:?}",
                        table.name, key
                    )));
                }
                DuplicatePolicy::Skip => {
                    report.skipped += 1;
                }
                DuplicatePolicy::Replace | DuplicatePolicy::Update => {
                    // Both write the new row over the old one; REPLACE is
                    // delete+insert, which for a full-row payload is the same
                    // final state.
                    self.ensure_in_rowstore(table, loc)?;
                    table.rowstore.read().write(self.id, &key, Some(row.clone()))?;
                    self.ops.push(RowOp::Upsert { table: table.id, key, row });
                    if policy == DuplicatePolicy::Replace {
                        report.replaced += 1;
                    } else {
                        report.updated += 1;
                    }
                }
            },
        }
        Ok(())
    }

    /// Latest live row under a unique key: rowstore first (including our own
    /// uncommitted writes), then the columnstore via the unique index.
    ///
    /// Rows move between the levels under a lock-free reader: a move
    /// commits the rowstore copy before it publishes the segment's delete
    /// bit, a flush publishes the new segment before it retires the rowstore
    /// copy. So the read is validated: load the table version, read the
    /// rowstore, load the version again, and retry if a publish came in
    /// between. With no publish across the rowstore read, a row that read
    /// missed is still live in the version's segments, and a rowstore copy
    /// it found retired was already in them.
    fn find_live_by_unique(&self, table: &Table, key: &[Value]) -> Result<Option<Latest>> {
        let Some(cols) = &table.unique_cols else {
            return Err(Error::InvalidArgument(format!(
                "table {:?} has no unique key",
                table.name
            )));
        };
        // Rowstore delete markers do NOT mean "row deleted": a flush leaves a
        // marker behind when it moves a row into a segment, and a logical
        // delete of a segment row always sets the segment's deleted bit as
        // well (via the move transaction). So a live rowstore version decides
        // immediately; a marker or a miss falls through to the segment probe,
        // whose deleted bits are the source of truth.
        //
        // Reads use latest-committed (not snapshot) visibility. Reading at
        // TS_MAX_COMMITTED instead of `commit_ts()` matters to DML, which
        // holds the row lock: a competing writer resolves its versions and
        // releases the row lock *before* the partition publishes the new
        // commit timestamp, so "every committed version" is exactly "every
        // version the previous lock holder wrote".
        let latest = s2_common::TS_MAX_COMMITTED;
        loop {
            let version = table.version();
            if let Some(Some(row)) = table.rowstore.read().get(key, latest, Some(self.id)) {
                return Ok(Some(Latest::Rowstore(row)));
            }
            // Park here = a reorganization publishes between the two loads.
            s2_common::fault::crash_point("core.unique.read");
            if !Arc::ptr_eq(&version, &table.version()) {
                continue;
            }
            let hits = version.probe(cols, key)?;
            return Ok(hits
                .into_iter()
                .find_map(|(core, rows)| rows.first().map(|&r| Latest::Segment(core, r))));
        }
    }

    /// Guarantee the row at `loc` is modifiable in the rowstore: segment rows
    /// go through a move transaction (paper §4.2) which locks them for us.
    fn ensure_in_rowstore(&mut self, table: &Arc<Table>, loc: Latest) -> Result<()> {
        match loc {
            Latest::Rowstore(_) => Ok(()), // already there; key locked above
            Latest::Segment(core, off) => {
                let moved = self.partition.move_rows(self.id, table, &[(core, off)])?;
                for (key, _) in moved {
                    self.note_lock(table.id, key);
                }
                Ok(())
            }
        }
    }

    /// Point read by unique key at the latest committed state (plus this
    /// transaction's own writes). OLTP reads that precede an update use this.
    pub fn get_unique(&self, table_id: TableId, key: &[Value]) -> Result<Option<Row>> {
        self.check_active()?;
        let table = self.partition.table(table_id)?;
        Ok(match self.find_live_by_unique(&table, key)? {
            None => None,
            Some(Latest::Rowstore(row)) => Some(row),
            Some(Latest::Segment(core, r)) => Some(core.reader.row(r as usize)?),
        })
    }

    /// Update the row under a unique key with `new_row`. Returns false when
    /// no live row exists.
    pub fn update_unique(
        &mut self,
        table_id: TableId,
        key: &[Value],
        new_row: Row,
    ) -> Result<bool> {
        self.check_active()?;
        let table = self.partition.table(table_id)?;
        let new_row = Row::checked(new_row.into_values(), &table.schema)?;
        let Some(cols) = &table.unique_cols else {
            return Err(Error::InvalidArgument(format!(
                "table {:?} has no unique key",
                table.name
            )));
        };
        if new_row.project(cols) != key {
            return Err(Error::InvalidArgument(
                "update_unique cannot change the unique key".into(),
            ));
        }
        table.rowstore.read().lock_key(self.id, key)?;
        self.note_lock(table_id, key.to_vec());
        match self.find_live_by_unique(&table, key)? {
            None => Ok(false),
            Some(loc) => {
                self.ensure_in_rowstore(&table, loc)?;
                table.rowstore.read().write(self.id, key, Some(new_row.clone()))?;
                self.ops.push(RowOp::Upsert { table: table_id, key: key.to_vec(), row: new_row });
                Ok(true)
            }
        }
    }

    /// Read-modify-write by unique key: `f` receives the current row and
    /// returns the new one. Returns false when no live row exists.
    pub fn update_unique_with(
        &mut self,
        table_id: TableId,
        key: &[Value],
        f: impl FnOnce(&Row) -> Row,
    ) -> Result<bool> {
        self.check_active()?;
        let table = self.partition.table(table_id)?;
        table.rowstore.read().lock_key(self.id, key)?;
        self.note_lock(table_id, key.to_vec());
        let Some(loc) = self.find_live_by_unique(&table, key)? else {
            return Ok(false);
        };
        self.ensure_in_rowstore(&table, loc)?;
        // After ensure_in_rowstore the row is in the rowstore.
        let latest = table.rowstore.read().get(key, s2_common::TS_MAX_COMMITTED, Some(self.id));
        let Some(Some(current)) = latest else {
            return Ok(false);
        };
        let new_row = Row::checked(f(&current).into_values(), &table.schema)?;
        table.rowstore.read().write(self.id, key, Some(new_row.clone()))?;
        self.ops.push(RowOp::Upsert { table: table_id, key: key.to_vec(), row: new_row });
        Ok(true)
    }

    /// Delete the row under a unique key. Returns false when absent.
    pub fn delete_unique(&mut self, table_id: TableId, key: &[Value]) -> Result<bool> {
        self.check_active()?;
        let table = self.partition.table(table_id)?;
        table.rowstore.read().lock_key(self.id, key)?;
        self.note_lock(table_id, key.to_vec());
        match self.find_live_by_unique(&table, key)? {
            None => Ok(false),
            Some(loc) => {
                self.ensure_in_rowstore(&table, loc)?;
                table.rowstore.read().write(self.id, key, None)?;
                self.ops.push(RowOp::Delete { table: table_id, key: key.to_vec() });
                Ok(true)
            }
        }
    }

    /// Delete rows at explicit locations (the query-engine DML path for
    /// non-unique predicates). Returns the number of rows deleted.
    pub fn delete_at(&mut self, table_id: TableId, locations: Vec<RowLocation>) -> Result<usize> {
        self.check_active()?;
        let table = self.partition.table(table_id)?;
        let mut n = 0;
        // Partition into rowstore keys and segment targets.
        let mut seg_targets: Vec<(Arc<SegmentCore>, u32)> = Vec::new();
        for loc in locations {
            match loc {
                RowLocation::Rowstore(key) => {
                    let rs = table.rowstore.read();
                    rs.lock_key(self.id, &key)?;
                    self.note_lock(table_id, key.clone());
                    // The row may have been deleted since it was located.
                    if matches!(rs.get_latest_committed(&key), Some(Some(_)))
                        || matches!(
                            rs.get(&key, s2_common::TS_MAX_COMMITTED, Some(self.id)),
                            Some(Some(_))
                        )
                    {
                        rs.write(self.id, &key, None)?;
                        self.ops.push(RowOp::Delete { table: table_id, key });
                        n += 1;
                    }
                }
                RowLocation::Segment(core, off) => seg_targets.push((core, off)),
            }
        }
        if !seg_targets.is_empty() {
            let moved = self.partition.move_rows(self.id, &table, &seg_targets)?;
            let rs = table.rowstore.read();
            for (key, _) in moved {
                rs.write(self.id, &key, None)?;
                self.ops.push(RowOp::Delete { table: table_id, key: key.clone() });
                self.note_lock(table_id, key);
                n += 1;
            }
        }
        Ok(n)
    }

    /// Update rows at explicit locations, applying `f` to each current row.
    pub fn update_at(
        &mut self,
        table_id: TableId,
        locations: Vec<RowLocation>,
        mut f: impl FnMut(&Row) -> Row,
    ) -> Result<usize> {
        self.check_active()?;
        let table = self.partition.table(table_id)?;
        let mut n = 0;
        let mut seg_targets: Vec<(Arc<SegmentCore>, u32)> = Vec::new();
        for loc in locations {
            match loc {
                RowLocation::Rowstore(key) => {
                    let rs = table.rowstore.read();
                    rs.lock_key(self.id, &key)?;
                    self.note_lock(table_id, key.clone());
                    let current =
                        rs.get(&key, s2_common::TS_MAX_COMMITTED, Some(self.id)).flatten();
                    if let Some(current) = current {
                        let new_row = Row::checked(f(&current).into_values(), &table.schema)?;
                        rs.write(self.id, &key, Some(new_row.clone()))?;
                        self.ops.push(RowOp::Upsert { table: table_id, key, row: new_row });
                        n += 1;
                    }
                }
                RowLocation::Segment(core, off) => seg_targets.push((core, off)),
            }
        }
        if !seg_targets.is_empty() {
            let moved = self.partition.move_rows(self.id, &table, &seg_targets)?;
            let rs = table.rowstore.read();
            for (key, current) in moved {
                let new_row = Row::checked(f(&current).into_values(), &table.schema)?;
                rs.write(self.id, &key, Some(new_row.clone()))?;
                self.ops.push(RowOp::Upsert { table: table_id, key: key.clone(), row: new_row });
                self.note_lock(table_id, key);
                n += 1;
            }
        }
        Ok(n)
    }

    /// Commit. Returns (commit timestamp, log position replication must ack
    /// — the containing group-commit batch's end position, already fsynced
    /// by the batch leader before this returns).
    pub fn commit(mut self) -> Result<(Timestamp, LogPosition)> {
        self.check_active()?;
        self.finished = true;
        let ops = std::mem::take(&mut self.ops);
        let locked = std::mem::take(&mut self.locked);
        self.partition.commit_txn(self.id, ops, &locked)
    }

    /// Roll back all buffered writes and release locks.
    pub fn rollback(mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let locked = std::mem::take(&mut self.locked);
        self.partition.rollback_txn(self.id, &locked);
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if !self.finished {
            // Implicit rollback on drop (e.g. on an error path).
            self.finished = true;
            let locked = std::mem::take(&mut self.locked);
            self.partition.rollback_txn(self.id, &locked);
        }
    }
}
