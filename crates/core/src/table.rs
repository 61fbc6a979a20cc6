//! Unified table storage: one table = an in-memory rowstore level plus
//! columnstore segments with secondary indexes (paper §4).
//!
//! Concurrency model: the columnstore side of a table is one immutable
//! [`TableVersion`] — the sorted runs of segments, each with its delete
//! bits, and the global-index levels over them — held in one slot.
//! Flush, merge, move, replica apply and replay each build the next version
//! off to the side and install it with [`Table::publish`], the slot's only
//! writer, so a reader that clones the slot's `Arc` never sees half a
//! change. On a live partition every publish happens under the partition's
//! *commit lock*, which also allocates commit timestamps and orders read
//! snapshots: a snapshot pairs a prefix of the commit order with the
//! version of that moment, and keeps both readable for as long as it lives.
//! A row's new home is published before its old copy is retired, and a
//! latest read looks at the rowstore first, then the version. Row-level
//! concurrency inside the rowstore is handled by its own MVCC + row locks
//! and does not take the commit lock until commit time.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use s2_columnstore::{SegmentMeta, SegmentReader};
use s2_common::sync::{rank, RwLock};
use s2_common::{
    hash, BitVec, Error, Result, Row, Schema, SegmentId, TableId, TableOptions, Timestamp, TxnId,
    Value,
};
use s2_index::{intersect, GlobalIndex, InvertedIndex, InvertedIndexBuilder, LevelInput};
use s2_rowstore::RowStore;

use crate::segfile::SegmentFile;

/// An immutable columnstore segment: metadata, column readers and the
/// inverted index of every indexed column. Its delete bits belong to the
/// table versions that hold it ([`SegmentSnap::deleted`]).
pub struct SegmentCore {
    /// Static metadata (the `deleted` field inside is unused here).
    pub meta: SegmentMeta,
    /// Decoded column readers.
    pub reader: SegmentReader,
    /// Per-segment inverted indexes keyed by column ordinal.
    pub inverted: HashMap<usize, Arc<InvertedIndex>>,
}

/// One segment as a table version holds it. Cloning is two `Arc` bumps.
#[derive(Clone)]
pub struct SegmentSnap {
    /// Shared segment core (metadata + readers + inverted indexes).
    pub core: Arc<SegmentCore>,
    /// Deleted bits as of the version.
    pub deleted: Arc<BitVec>,
}

impl SegmentSnap {
    /// A segment over its data file; the metadata's delete bits become the
    /// snap's.
    pub(crate) fn open(mut meta: SegmentMeta, file: SegmentFile) -> SegmentSnap {
        let deleted = Arc::new(std::mem::replace(&mut meta.deleted, BitVec::zeros(0)));
        let core = SegmentCore {
            meta,
            reader: SegmentReader::new(file.data),
            inverted: file.inverted.into_iter().map(|(c, ix)| (c, Arc::new(ix))).collect(),
        };
        SegmentSnap { core: Arc::new(core), deleted }
    }

    /// Live rows under the version's bits.
    pub fn live_rows(&self) -> usize {
        self.core.meta.row_count - self.deleted.count_ones()
    }

    /// The metadata carrying the version's delete bits, as a snapshot blob
    /// or a merge input takes it.
    pub(crate) fn meta_with_bits(&self) -> SegmentMeta {
        let mut meta = self.core.meta.clone();
        meta.deleted = (*self.deleted).clone();
        meta
    }
}

/// Secondary-index state for one table. Cloning shares every level.
#[derive(Clone)]
pub struct TableIndexes {
    /// Arity-1 global index per indexed column (shared across index defs,
    /// paper §4.1.1).
    pub column: HashMap<usize, GlobalIndex>,
    /// Tuple global index per multi-column index def: (columns, index).
    pub tuple: Vec<(Vec<usize>, GlobalIndex)>,
}

impl TableIndexes {
    fn new(options: &TableOptions) -> TableIndexes {
        let mut column = HashMap::new();
        let mut tuple = Vec::new();
        for def in &options.indexes {
            for &c in &def.columns {
                column.entry(c).or_insert_with(|| GlobalIndex::new(1));
            }
            if def.columns.len() > 1 && !tuple.iter().any(|(cols, _)| cols == &def.columns) {
                tuple.push((def.columns.clone(), GlobalIndex::new(def.columns.len())));
            }
        }
        TableIndexes { column, tuple }
    }

    /// Register `segments` in the global indexes, one new level per index.
    /// Everything comes from the segments' inverted indexes — which their
    /// data files carry (paper §4.1) — so no row is ever decoded: the index
    /// build is a function of the data files alone.
    fn add_segments(&mut self, segments: &[SegmentSnap]) -> Result<()> {
        // Per-column entries: every distinct value hash -> entry offset.
        for (col, global) in &mut self.column {
            let mut level = LevelInput::new(1);
            for seg in segments {
                if let Some(ix) = seg.core.inverted.get(col) {
                    for (hash, off) in ix.iter_entries() {
                        level.push(hash, seg.core.meta.id, &[off]);
                    }
                }
            }
            global.add_level(level);
        }
        // Tuple entries: distinct tuples -> the per-column entry offsets
        // (paper §4.1.1 structure (3)). One walk over each key column's
        // postings fills, per row, the running tuple hash (the same fold as
        // `hash_values`) and that column's entry offset. The level build
        // stores equal tuples once; it tells them apart by their entry
        // offsets, not by the hash, so colliding keys are both indexed.
        for (cols, global) in &mut self.tuple {
            let arity = cols.len();
            let mut level = LevelInput::new(arity);
            for seg in segments {
                let core = &seg.core;
                let n = core.meta.row_count;
                let mut hashes = vec![hash::VALUES_SEED; n];
                let mut offs = vec![0u32; n * arity];
                // Key columns seen non-NULL so far, per row.
                let mut filled = vec![0usize; n];
                for (j, col) in cols.iter().enumerate() {
                    let ix = core.inverted.get(col).ok_or_else(|| {
                        Error::Internal(format!("missing inverted index for column {col}"))
                    })?;
                    let mut in_range = true;
                    ix.for_each_posting(|value_hash, entry_off, row| {
                        let row = row as usize;
                        if row >= n {
                            in_range = false;
                        } else if filled[row] == j {
                            filled[row] = j + 1;
                            hashes[row] = hash::combine(hashes[row], value_hash);
                            offs[row * arity + j] = entry_off;
                        }
                    })?;
                    if !in_range {
                        return Err(Error::Corruption(format!(
                            "segment {} column {col}: posting past row {n}",
                            core.meta.id
                        )));
                    }
                }
                // Rows missing from some column's postings hold a NULL there
                // and are not indexed.
                for row in (0..n).filter(|&r| filled[r] == arity) {
                    level.push(hashes[row], core.meta.id, &offs[row * arity..(row + 1) * arity]);
                }
            }
            global.add_level(level);
        }
        Ok(())
    }
}

/// One published state of a table's columnstore side. Immutable once
/// published: a change clones it, edits the clone and publishes that.
#[derive(Clone)]
pub struct TableVersion {
    /// Sorted runs of live segments (LSM structure), oldest first.
    pub runs: Vec<Vec<SegmentSnap>>,
    /// Secondary indexes over these segments, shared with every version
    /// that did not change them. Pairs of segments a merge retired stay in
    /// a level until maintenance rewrites it (paper §4.1's lazy deletion);
    /// lookups skip them.
    pub indexes: Arc<TableIndexes>,
}

impl TableVersion {
    /// Every live segment in run order.
    pub fn segments(&self) -> impl Iterator<Item = &SegmentSnap> {
        self.runs.iter().flatten()
    }

    pub(crate) fn segment(&self, id: SegmentId) -> Option<&SegmentSnap> {
        self.segments().find(|s| s.core.meta.id == id)
    }

    /// Add `run` as the newest sorted run (a flush or merge output, or one
    /// read back from its data files), registering it in the indexes when
    /// `index`. Recovery passes `false` and indexes every surviving segment
    /// once at the end ([`Table::rebuild_indexes`]).
    pub(crate) fn add_run(&mut self, run: Vec<SegmentSnap>, index: bool) -> Result<()> {
        if run.is_empty() {
            return Ok(());
        }
        if index {
            Arc::make_mut(&mut self.indexes).add_segments(&run)?;
        }
        self.runs.push(run);
        Ok(())
    }

    /// Retire the runs holding any of `dropped` (a merge's inputs), then
    /// rewrite every index level at least half of whose segments are gone.
    pub(crate) fn retire(&mut self, dropped: &[SegmentId]) {
        self.runs.retain(|run| run.iter().all(|s| !dropped.contains(&s.core.meta.id)));
        let live: HashSet<SegmentId> = self.segments().map(|s| s.core.meta.id).collect();
        let is_live = |s: SegmentId| live.contains(&s);
        let indexes = Arc::make_mut(&mut self.indexes);
        for global in indexes.column.values_mut() {
            global.maintain(&is_live);
        }
        for (_, global) in &mut indexes.tuple {
            global.maintain(&is_live);
        }
    }

    /// Set the delete bit of every `(segment, offsets)` row, copying each
    /// touched segment's bits once. Segments no longer here are skipped.
    pub(crate) fn delete_rows(&mut self, deletes: &[(SegmentId, Vec<u32>)]) {
        for seg in self.runs.iter_mut().flatten() {
            let id = seg.core.meta.id;
            let mut offs = deletes.iter().filter(|(s, _)| *s == id).flat_map(|(_, o)| o).peekable();
            if offs.peek().is_some() {
                let mut bits = (*seg.deleted).clone();
                for &o in offs {
                    bits.set(o as usize);
                }
                seg.deleted = Arc::new(bits);
            }
        }
    }

    /// Rows of this version where `key_cols = key_vals`, found through the
    /// two-level index: per segment, the matching offsets this version's
    /// delete bits leave live.
    pub fn probe(
        &self,
        key_cols: &[usize],
        key_vals: &[Value],
    ) -> Result<Vec<(Arc<SegmentCore>, Vec<u32>)>> {
        if key_cols.is_empty() || key_cols.len() != key_vals.len() {
            return Err(Error::InvalidArgument("bad index probe arity".into()));
        }
        if key_vals.iter().any(|v| v.is_null()) {
            return Ok(Vec::new()); // NULLs are not indexed
        }
        let is_live = |s: SegmentId| self.segment(s).is_some();
        // Fast path: a tuple index covering exactly these columns skips
        // segments that don't contain the full tuple (paper §4.1.1).
        let hits: Vec<(SegmentId, Vec<u32>)> =
            match self.indexes.tuple.iter().find(|(cols, _)| cols.as_slice() == key_cols) {
                Some((_, global)) => global.lookup(hash::hash_values(key_vals.iter()), &is_live),
                None => {
                    // General path: probe each single-column global index;
                    // candidate segments must appear in every column's hits.
                    let mut per_col: Vec<HashMap<SegmentId, u32>> = Vec::new();
                    for (&col, val) in key_cols.iter().zip(key_vals) {
                        let global = self.indexes.column.get(&col).ok_or_else(|| {
                            Error::NotFound(format!("no secondary index on column {col}"))
                        })?;
                        let hits = global.lookup(val.hash64(), &is_live);
                        per_col.push(hits.into_iter().map(|(seg, offs)| (seg, offs[0])).collect());
                    }
                    let mut candidates: Vec<SegmentId> = per_col[0].keys().copied().collect();
                    candidates.retain(|s| per_col.iter().all(|m| m.contains_key(s)));
                    candidates.sort_unstable();
                    candidates
                        .into_iter()
                        .map(|seg| (seg, per_col.iter().map(|m| m[&seg]).collect()))
                        .collect()
                }
            };
        let mut out = Vec::new();
        for (seg, offs) in hits {
            if let Some(seg) = self.segment(seg) {
                let rows = resolve(seg, key_cols, key_vals, &offs)?;
                if !rows.is_empty() {
                    out.push((Arc::clone(&seg.core), rows));
                }
            }
        }
        Ok(out)
    }
}

/// Open `seg`'s postings at the given entry offsets (verifying values to
/// resolve hash collisions), intersect them and drop deleted rows.
fn resolve(
    seg: &SegmentSnap,
    cols: &[usize],
    vals: &[Value],
    entry_offs: &[u32],
) -> Result<Vec<u32>> {
    let mut readers = Vec::with_capacity(cols.len());
    for ((&col, val), &off) in cols.iter().zip(vals).zip(entry_offs) {
        let Some(ix) = seg.core.inverted.get(&col) else { return Ok(Vec::new()) };
        match ix.postings_at(off, val)? {
            Some(p) => readers.push(p),
            None => return Ok(Vec::new()), // hash collision: value not actually present
        }
    }
    let mut rows = intersect(readers)?;
    rows.retain(|&r| !seg.deleted.get(r as usize));
    Ok(rows)
}

/// A unified table.
pub struct Table {
    /// Table id, unique within the database.
    pub id: TableId,
    /// Table name.
    pub name: String,
    /// Column schema.
    pub schema: Schema,
    /// Sort key, shard key, indexes, thresholds.
    pub options: TableOptions,
    /// LSM level 0 + row-lock manager.
    pub(crate) rowstore: RwLock<RowStore>,
    /// The published columnstore version.
    version: RwLock<Arc<TableVersion>>,
    /// Columns of the first unique index (the rowstore key), if any.
    pub(crate) unique_cols: Option<Vec<usize>>,
    /// Synthetic rowstore key allocator for tables without a unique key.
    auto_key: AtomicU64,
    /// Segment id allocator: ids are never reused.
    pub(crate) next_segment_id: AtomicU64,
}

impl Table {
    /// Create an empty table.
    pub fn new(id: TableId, name: String, schema: Schema, options: TableOptions) -> Result<Table> {
        options.validate(&schema)?;
        let unique_cols = options.indexes.iter().find(|d| d.unique).map(|d| d.columns.clone());
        let indexes = Arc::new(TableIndexes::new(&options));
        let version = TableVersion { runs: Vec::new(), indexes };
        Ok(Table {
            id,
            name,
            schema,
            options,
            rowstore: RwLock::new(&rank::CORE_ROWSTORE, RowStore::new()),
            version: RwLock::new(&rank::CORE_TABLE_VERSION, Arc::new(version)),
            unique_cols,
            auto_key: AtomicU64::new(1),
            next_segment_id: AtomicU64::new(1),
        })
    }

    /// The rowstore key for a row: unique-key values if the table has a
    /// unique key, otherwise a fresh synthetic key. The rowstore's primary
    /// key doubles as the lock manager (paper §4.2).
    pub fn rowstore_key(&self, row: &Row) -> Vec<Value> {
        match &self.unique_cols {
            Some(cols) => row.project(cols),
            None => vec![Value::Int(self.auto_key.fetch_add(1, Ordering::Relaxed) as i64)],
        }
    }

    /// Advance the synthetic key allocator past `seen` (recovery).
    pub(crate) fn bump_auto_key(&self, seen: i64) {
        let mut cur = self.auto_key.load(Ordering::Relaxed);
        while (cur as i64) <= seen {
            match self.auto_key.compare_exchange(
                cur,
                seen as u64 + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Approximate rowstore key count (flush trigger).
    pub fn rowstore_len(&self) -> usize {
        self.rowstore.read().key_count()
    }

    /// The published columnstore version.
    pub fn version(&self) -> Arc<TableVersion> {
        Arc::clone(&self.version.read())
    }

    /// Install `next` as the table's version: the one store every
    /// columnstore change goes through.
    pub(crate) fn publish(&self, next: TableVersion) {
        // Crash or park here = the next version is built but not visible.
        s2_common::fault::crash_point("core.publish");
        let old = std::mem::replace(&mut *self.version.write(), Arc::new(next));
        // Freeing the old version, and with it any segment no version holds
        // any more, happens after the write guard is gone.
        drop(old);
    }

    /// Build the per-segment inverted indexes of every indexed column over
    /// `rows` (called at flush/merge while the segment is being created).
    pub(crate) fn build_inverted(&self, rows: &[Row]) -> Vec<(usize, InvertedIndex)> {
        let mut cols: Vec<usize> =
            self.options.indexes.iter().flat_map(|d| d.columns.iter().copied()).collect();
        cols.sort_unstable();
        cols.dedup();
        cols.into_iter()
            .map(|col| {
                let mut b = InvertedIndexBuilder::new();
                for (i, row) in rows.iter().enumerate() {
                    b.add(row.get(col), i as u32);
                }
                (col, b.finish())
            })
            .collect()
    }

    /// Rebuild the global indexes from the live segments in one pass
    /// (recovery's last phase, the oxibase-style `populate_all_indexes`).
    /// Every physical row of every live segment is registered — same as the
    /// live path, which indexes at install time and filters deleted rows at
    /// probe time.
    pub(crate) fn rebuild_indexes(&self) -> Result<()> {
        let mut next = TableVersion::clone(&self.version());
        let segments: Vec<SegmentSnap> = next.segments().cloned().collect();
        let mut indexes = TableIndexes::new(&self.options);
        indexes.add_segments(&segments)?;
        next.indexes = Arc::new(indexes);
        self.publish(next);
        Ok(())
    }

    /// Lookup live segment row locations for `key_cols == key_vals` using the
    /// two-level index, at the *latest* version (unique checks and DML need
    /// latest, not snapshot, state).
    pub fn index_probe_latest(
        &self,
        key_cols: &[usize],
        key_vals: &[Value],
    ) -> Result<Vec<(Arc<SegmentCore>, Vec<u32>)>> {
        self.version.read().probe(key_cols, key_vals)
    }

    /// Whether every column in `cols` is covered by a secondary index.
    pub fn columns_indexed(&self, cols: &[usize]) -> bool {
        cols.iter().all(|c| self.options.indexes.iter().any(|d| d.columns.contains(c)))
    }
}

/// A consistent per-table read view: a table version + rowstore
/// visibility at `read_ts`.
pub struct TableSnapshot {
    /// The table (rowstore reads go through it with `read_ts`).
    pub table: Arc<Table>,
    /// Snapshot timestamp.
    pub read_ts: Timestamp,
    /// Transaction whose own uncommitted writes are visible, if any.
    pub self_txn: Option<TxnId>,
    /// Live segments of the captured version with their delete bits.
    pub segments: Vec<SegmentSnap>,
    version: Arc<TableVersion>,
    rowstore_rows: OnceLock<Vec<(Vec<Value>, Row)>>,
}

impl TableSnapshot {
    /// Capture a snapshot. Must be called under the partition commit lock so
    /// `read_ts` and the version agree.
    pub(crate) fn capture(
        table: &Arc<Table>,
        read_ts: Timestamp,
        self_txn: Option<TxnId>,
    ) -> TableSnapshot {
        let version = table.version();
        TableSnapshot {
            table: Arc::clone(table),
            read_ts,
            self_txn,
            segments: version.segments().cloned().collect(),
            version,
            rowstore_rows: OnceLock::new(),
        }
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.table.schema
    }

    /// Rowstore rows visible to this snapshot, materialized once.
    pub fn rowstore_rows(&self) -> &[(Vec<Value>, Row)] {
        self.rowstore_rows.get_or_init(|| {
            let mut out = Vec::new();
            self.table.rowstore.read().for_each_visible(self.read_ts, self.self_txn, |k, r| {
                out.push((k.to_vec(), r.clone()));
            });
            out
        })
    }

    /// Total live rows visible (rowstore + segments).
    pub fn live_row_count(&self) -> usize {
        self.rowstore_rows().len() + self.segments.iter().map(SegmentSnap::live_rows).sum::<usize>()
    }

    /// Equality index probe within this snapshot: segment hits plus matching
    /// rowstore rows. Returns `None` when some probed column is not indexed
    /// (caller falls back to a scan).
    pub fn index_probe(
        &self,
        key_cols: &[usize],
        key_vals: &[Value],
    ) -> Result<Option<IndexProbe>> {
        if !self.table.columns_indexed(key_cols) {
            return Ok(None);
        }
        // The snapshot's own version and delete bits: a row deleted after
        // the snapshot was taken is still visible here.
        let segments = self.version.probe(key_cols, key_vals)?;
        let rowstore: Vec<(Vec<Value>, Row)> = self
            .rowstore_rows()
            .iter()
            .filter(|(_, row)| key_cols.iter().zip(key_vals).all(|(&c, v)| row.get(c) == v))
            .cloned()
            .collect();
        Ok(Some(IndexProbe { segments, rowstore }))
    }

    /// Index probe for the rows whose column `col` equals any of `vals`
    /// (an IN list or a join's key set): each distinct non-NULL value
    /// probes the segments' index once, and one pass over the rowstore
    /// keeps the rows holding a member, in rowstore order — each matching
    /// row once, however often the list names its value. `None` when `col`
    /// is not indexed.
    pub fn index_probe_any(&self, col: usize, vals: &[Value]) -> Result<Option<IndexProbe>> {
        if !self.table.columns_indexed(&[col]) {
            return Ok(None);
        }
        let mut members: Vec<&Value> = vals.iter().filter(|v| !v.is_null()).collect();
        members.sort_unstable();
        members.dedup();
        let mut by_segment: HashMap<u64, (Arc<SegmentCore>, Vec<u32>)> = HashMap::new();
        for v in &members {
            for (core, rows) in self.version.probe(&[col], std::slice::from_ref(*v))? {
                by_segment.entry(core.meta.id).or_insert_with(|| (core, Vec::new())).1.extend(rows);
            }
        }
        let segments = by_segment
            .into_values()
            .map(|(core, mut rows)| {
                rows.sort_unstable();
                rows.dedup();
                (core, rows)
            })
            .collect();
        let rowstore: Vec<(Vec<Value>, Row)> = self
            .rowstore_rows()
            .iter()
            .filter(|(_, row)| members.binary_search(&row.get(col)).is_ok())
            .cloned()
            .collect();
        Ok(Some(IndexProbe { segments, rowstore }))
    }
}

// The parallel scan executor ships snapshots and segments across threads;
// these compile-time assertions are the audit that everything a reader can
// reach is `Send + Sync` (interior mutability is confined to locks and
// atomics). A non-thread-safe field added to any of these types fails the
// build here rather than at a distant pool call site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SegmentCore>();
    assert_send_sync::<SegmentSnap>();
    assert_send_sync::<TableVersion>();
    assert_send_sync::<TableSnapshot>();
    assert_send_sync::<IndexProbe>();
    assert_send_sync::<Table>();
};

/// Result of a snapshot index probe.
pub struct IndexProbe {
    /// Matching live segment rows.
    pub segments: Vec<(Arc<SegmentCore>, Vec<u32>)>,
    /// Matching rowstore rows (key, row).
    pub rowstore: Vec<(Vec<Value>, Row)>,
}

impl IndexProbe {
    /// Total matching rows.
    pub fn row_count(&self) -> usize {
        self.rowstore.len() + self.segments.iter().map(|(_, r)| r.len()).sum::<usize>()
    }

    /// Materialize every matching row.
    pub fn materialize(&self) -> Result<Vec<Row>> {
        let mut out: Vec<Row> = self.rowstore.iter().map(|(_, r)| r.clone()).collect();
        for (core, rows) in &self.segments {
            for &r in rows {
                out.push(core.reader.row(r as usize)?);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2_common::schema::ColumnDef;
    use s2_common::DataType;

    /// `ix` with the directory hash of entry `i` overwritten: a forged
    /// 64-bit collision. Layout (see `InvertedIndexBuilder::finish`): u32
    /// magic, one-byte varint entry count (< 128 entries), then 12-byte
    /// `(hash, offset)` directory slots.
    fn forge_hash(ix: &InvertedIndex, i: usize, hash: u64) -> InvertedIndex {
        let mut bytes = (**ix.as_bytes()).clone();
        bytes[5 + 12 * i..5 + 12 * i + 8].copy_from_slice(&hash.to_le_bytes());
        InvertedIndex::from_bytes(Arc::new(bytes)).unwrap()
    }

    /// Two distinct keys of one segment whose 64-bit tuple hashes collide
    /// must both be indexed: tuples are told apart by their entry offsets.
    /// (De-duplicating on the hash alone left the second key unindexed, so a
    /// unique-key lookup of it missed.)
    #[test]
    fn colliding_key_tuples_are_both_indexed() {
        let schema = Schema::new(vec![
            ColumnDef::new("a", DataType::Int64),
            ColumnDef::new("b", DataType::Int64),
        ])
        .unwrap();
        let options = TableOptions::new().with_unique("pk", vec![0, 1]);
        let table = Table::new(1, "t".into(), schema.clone(), options).unwrap();
        // Keys (1,10), (1,20), (2,10): force hash(b=20) := hash(b=10), so
        // (1,10) and (1,20) fold to the same tuple hash.
        let rows: Vec<Row> = [(1, 10), (1, 20), (2, 10)]
            .map(|(a, b)| Row::new(vec![Value::Int(a), Value::Int(b)]))
            .to_vec();
        let (meta, data) = s2_columnstore::build_segment(7, rows.clone(), &schema, &[]).unwrap();
        let mut inverted = table.build_inverted(&rows);
        inverted[1].1 = forge_hash(&inverted[1].1, 1, Value::Int(10).hash64());
        let mut next = TableVersion::clone(&table.version());
        next.add_run(vec![SegmentSnap::open(meta, SegmentFile { data, inverted })], true).unwrap();
        table.publish(next);

        let version = table.version();
        let (_, tuple_index) = &version.indexes.tuple[0];
        let collided = hash::hash_values([Value::Int(1), Value::Int(10)].iter());
        let mut pairs = tuple_index.lookup(collided, &|_| true);
        pairs.sort();
        assert_eq!(pairs.len(), 2, "both colliding tuples registered: {pairs:?}");
        assert_ne!(pairs[0].1, pairs[1].1, "told apart by entry offsets");
        // The probe verifies values at the inverted index, so the colliding
        // neighbour is filtered out and the real key resolves to its row.
        let hits = version.probe(&[0, 1], &[Value::Int(1), Value::Int(10)]).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, vec![0]);
    }
}
