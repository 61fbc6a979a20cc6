//! Unified table storage: one table = an in-memory rowstore level plus
//! columnstore segments with secondary indexes (paper §4).
//!
//! Concurrency model: the partition's *commit lock* serializes every
//! state-changing commit (user commits, flushes, moves, merges) and the
//! allocation of commit timestamps; the table's internal `RwLock` protects
//! the segment map for shared readers. Read snapshots are taken under the
//! commit lock, so a snapshot always observes a prefix of the commit order.
//! Row-level concurrency inside the rowstore is handled by its own MVCC +
//! row locks and does not take the commit lock until commit time.

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

/// A live (or recently retired) columnstore segment.
pub struct SegmentCore {
    /// Static metadata (the `deleted` field inside is unused here; current
    /// bits live in [`SegmentCore::deleted`]).
    pub meta: SegmentMeta,
    /// Current deleted bits, copy-on-write so snapshots pin a version cheaply.
    pub deleted: RwLock<Arc<BitVec>>,
    /// Timestamp at which a merge retired this segment (`u64::MAX` = live).
    /// Retired segments stay readable until no snapshot can reference them.
    pub dropped_ts: AtomicU64,
    /// Log position just past the merge record that retired this segment
    /// (`u64::MAX` = live). The data file may only be physically deleted once
    /// a rowstore snapshot at or after this position exists — otherwise log
    /// replay would re-install the segment from its flush record and fail to
    /// find the file.
    pub dropped_lp: AtomicU64,
    /// Decoded column readers.
    pub reader: SegmentReader,
    /// Per-segment inverted indexes keyed by column ordinal.
    pub inverted: HashMap<usize, Arc<InvertedIndex>>,
}

impl SegmentCore {
    /// Current deleted bits.
    pub fn deleted_bits(&self) -> Arc<BitVec> {
        Arc::clone(&self.deleted.read())
    }

    /// Live rows under the current bits.
    pub fn live_rows(&self) -> usize {
        self.meta.row_count - self.deleted.read().count_ones()
    }

    /// Whether the segment was retired by a merge.
    pub fn is_dropped(&self) -> bool {
        self.dropped_ts.load(Ordering::Acquire) != u64::MAX
    }
}

/// Secondary-index state for one table.
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

    /// All indexed column ordinals.
    pub fn indexed_columns(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.column.keys().copied().collect();
        cols.sort_unstable();
        cols
    }
}

/// Mutable columnstore-side state of a table.
pub struct TableState {
    /// Segments by id, including recently retired ones awaiting vacuum.
    pub segments: HashMap<SegmentId, Arc<SegmentCore>>,
    /// Sorted runs of live segments (LSM structure).
    pub runs: Vec<Vec<SegmentId>>,
    /// Secondary indexes.
    pub indexes: TableIndexes,
    /// Next segment id.
    pub next_segment_id: SegmentId,
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
    /// Columnstore state.
    pub(crate) state: RwLock<TableState>,
    /// Columns of the first unique index (the rowstore key), if any.
    pub(crate) unique_cols: Option<Vec<usize>>,
    /// Synthetic rowstore key allocator for tables without a unique key.
    auto_key: AtomicU64,
}

impl Table {
    /// Create an empty table.
    pub fn new(id: TableId, name: String, schema: Schema, options: TableOptions) -> Result<Table> {
        options.validate(&schema)?;
        let unique_cols = options.indexes.iter().find(|d| d.unique).map(|d| d.columns.clone());
        let indexes = TableIndexes::new(&options);
        Ok(Table {
            id,
            name,
            schema,
            options,
            rowstore: RwLock::new(&rank::CORE_ROWSTORE, RowStore::new()),
            state: RwLock::new(
                &rank::CORE_TABLE_STATE,
                TableState {
                    segments: HashMap::new(),
                    runs: Vec::new(),
                    indexes,
                    next_segment_id: 1,
                },
            ),
            unique_cols,
            auto_key: AtomicU64::new(1),
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

    /// Build the per-segment inverted indexes for all indexed columns over
    /// `rows` (called at flush/merge while the segment is being created).
    pub(crate) fn build_inverted(
        &self,
        rows: &[Row],
        indexed_cols: &[usize],
    ) -> Vec<(usize, InvertedIndex)> {
        let mut out = Vec::with_capacity(indexed_cols.len());
        for &col in indexed_cols {
            let mut b = InvertedIndexBuilder::new();
            for (i, row) in rows.iter().enumerate() {
                b.add(row.get(col), i as u32);
            }
            out.push((col, b.finish()));
        }
        out
    }

    /// Register `segments` in the global indexes, one new level per index.
    /// Everything comes from the segments' inverted indexes — which their
    /// data files carry (paper §4.1) — so no row is ever decoded: the index
    /// build is a function of the data files alone.
    pub(crate) fn index_segments(
        indexes: &mut TableIndexes,
        segments: &[Arc<SegmentCore>],
    ) -> Result<()> {
        // Per-column entries: every distinct value hash -> entry offset.
        for (col, global) in &mut indexes.column {
            let mut level = LevelInput::new(1);
            for core in segments {
                if let Some(ix) = core.inverted.get(col) {
                    for (hash, off) in ix.iter_entries() {
                        level.push(hash, core.meta.id, &[off]);
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
        for (cols, global) in &mut indexes.tuple {
            let arity = cols.len();
            let mut level = LevelInput::new(arity);
            for core in segments {
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

    /// Install a new sorted run of segments (a flush or merge output, or one
    /// read back from its data files) under the state write lock. Metadata
    /// may carry non-zero deleted bits during recovery. Recovery passes
    /// `build_indexes: false` and registers every surviving segment once at
    /// the end via [`Table::rebuild_indexes`], instead of indexing
    /// intermediate segments that a later merge drops.
    pub(crate) fn install_run(
        &self,
        items: Vec<(SegmentMeta, SegmentFile)>,
        build_indexes: bool,
    ) -> Result<()> {
        let mut state = self.state.write();
        let mut cores = Vec::with_capacity(items.len());
        for (mut meta, file) in items {
            // Bits live in SegmentCore::deleted.
            let deleted = Arc::new(std::mem::replace(&mut meta.deleted, BitVec::zeros(0)));
            cores.push(Arc::new(SegmentCore {
                meta,
                deleted: RwLock::new(&rank::CORE_SEG_DELETED, deleted),
                dropped_ts: AtomicU64::new(u64::MAX),
                dropped_lp: AtomicU64::new(u64::MAX),
                reader: SegmentReader::new(file.data),
                inverted: file.inverted.into_iter().map(|(c, ix)| (c, Arc::new(ix))).collect(),
            }));
        }
        if build_indexes {
            Table::index_segments(&mut state.indexes, &cores)?;
        }
        let run: Vec<SegmentId> = cores.iter().map(|c| c.meta.id).collect();
        for core in cores {
            state.next_segment_id = state.next_segment_id.max(core.meta.id + 1);
            state.segments.insert(core.meta.id, core);
        }
        if !run.is_empty() {
            state.runs.push(run);
        }
        Ok(())
    }

    /// Rebuild the global indexes from the live segments in one pass
    /// (recovery's last phase, the oxibase-style `populate_all_indexes`).
    /// Every physical row of every live segment is registered — same as the
    /// live path, which indexes at install time and filters deleted rows at
    /// probe time.
    pub(crate) fn rebuild_indexes(&self) -> Result<()> {
        let mut state = self.state.write();
        let live: Vec<Arc<SegmentCore>> =
            state
                .runs
                .iter()
                .flatten()
                .map(|id| {
                    state.segments.get(id).cloned().ok_or_else(|| {
                        Error::Internal(format!("run references missing segment {id}"))
                    })
                })
                .collect::<Result<_>>()?;
        let mut fresh = TableIndexes::new(&self.options);
        Table::index_segments(&mut fresh, &live)?;
        state.indexes = fresh;
        Ok(())
    }

    /// Current live segments in run order.
    pub fn live_segments(&self) -> Vec<Arc<SegmentCore>> {
        let state = self.state.read();
        state.runs.iter().flatten().filter_map(|id| state.segments.get(id).cloned()).collect()
    }

    /// Lookup live segment row locations for `key_cols == key_vals` using the
    /// two-level index, at the *latest* state (unique checks and DML need
    /// latest, not snapshot, state). Returns (segment, matching row offsets
    /// with currently-deleted rows filtered out).
    pub fn index_probe_latest(
        &self,
        key_cols: &[usize],
        key_vals: &[Value],
    ) -> Result<Vec<(Arc<SegmentCore>, Vec<u32>)>> {
        let state = self.state.read();
        let hits = probe_state(&state, key_cols, key_vals, None)?;
        drop(state);
        let mut out = Vec::new();
        for (core, rows) in hits {
            let deleted = core.deleted_bits();
            let rows: Vec<u32> = rows.into_iter().filter(|&r| !deleted.get(r as usize)).collect();
            if !rows.is_empty() {
                out.push((core, rows));
            }
        }
        Ok(out)
    }

    /// Whether every column in `cols` is covered by a secondary index.
    pub fn columns_indexed(&self, cols: &[usize]) -> bool {
        let state = self.state.read();
        cols.iter().all(|c| state.indexes.column.contains_key(c))
    }
}

/// Probe the index state for an equality match on `key_cols = key_vals`.
/// `restrict` optionally limits results to a snapshot's segment set.
pub(crate) fn probe_state(
    state: &TableState,
    key_cols: &[usize],
    key_vals: &[Value],
    restrict: Option<&HashSet<SegmentId>>,
) -> Result<Vec<(Arc<SegmentCore>, Vec<u32>)>> {
    if key_cols.is_empty() || key_cols.len() != key_vals.len() {
        return Err(Error::InvalidArgument("bad index probe arity".into()));
    }
    if key_vals.iter().any(|v| v.is_null()) {
        return Ok(Vec::new()); // NULLs are not indexed
    }
    let is_live = |state: &TableState, seg: SegmentId| -> bool {
        match restrict {
            Some(set) => set.contains(&seg),
            None => state.segments.get(&seg).is_some_and(|core| !core.is_dropped()),
        }
    };

    // Fast path: a tuple index covering exactly these columns skips segments
    // that don't contain the full tuple (paper §4.1.1).
    if key_cols.len() > 1 {
        if let Some((cols, global)) =
            state.indexes.tuple.iter().find(|(cols, _)| cols.as_slice() == key_cols)
        {
            let h = s2_common::hash::hash_values(key_vals.iter());
            let hits = global.lookup(h, &|s| is_live(state, s));
            return resolve_hits(state, cols, key_vals, hits);
        }
    }

    // General path: probe each single-column global index and intersect
    // per-segment postings.
    let mut per_col: Vec<HashMap<SegmentId, u32>> = Vec::with_capacity(key_cols.len());
    for (&col, val) in key_cols.iter().zip(key_vals) {
        let global = state
            .indexes
            .column
            .get(&col)
            .ok_or_else(|| Error::NotFound(format!("no secondary index on column {col}")))?;
        let hits = global.lookup(val.hash64(), &|s| is_live(state, s));
        let mut map = HashMap::new();
        for (seg, offs) in hits {
            map.insert(seg, offs[0]);
        }
        per_col.push(map);
    }
    // Candidate segments must appear in every column's hit set.
    let mut candidates: Vec<SegmentId> = per_col[0].keys().copied().collect();
    candidates.retain(|s| per_col.iter().all(|m| m.contains_key(s)));
    candidates.sort_unstable();
    let mut out = Vec::new();
    for seg in candidates {
        let offs: Vec<u32> = per_col.iter().map(|m| m[&seg]).collect();
        resolve_one(state, seg, key_cols, key_vals, &offs, &mut out)?;
    }
    Ok(out)
}

fn resolve_hits(
    state: &TableState,
    cols: &[usize],
    vals: &[Value],
    hits: Vec<(SegmentId, Vec<u32>)>,
) -> Result<Vec<(Arc<SegmentCore>, Vec<u32>)>> {
    let mut out = Vec::new();
    for (seg, offs) in hits {
        resolve_one(state, seg, cols, vals, &offs, &mut out)?;
    }
    Ok(out)
}

/// Open per-column postings at the given entry offsets (verifying values to
/// resolve hash collisions) and intersect them. Deleted-row filtering is the
/// caller's job: `index_probe_latest` uses current bits, snapshot probes use
/// the snapshot's pinned bits.
fn resolve_one(
    state: &TableState,
    seg: SegmentId,
    cols: &[usize],
    vals: &[Value],
    entry_offs: &[u32],
    out: &mut Vec<(Arc<SegmentCore>, Vec<u32>)>,
) -> Result<()> {
    let Some(core) = state.segments.get(&seg) else {
        return Ok(()); // raced with vacuum; lazily-deleted reference
    };
    let mut readers = Vec::with_capacity(cols.len());
    for ((&col, val), &off) in cols.iter().zip(vals).zip(entry_offs) {
        let Some(ix) = core.inverted.get(&col) else { return Ok(()) };
        match ix.postings_at(off, val)? {
            Some(p) => readers.push(p),
            None => return Ok(()), // hash collision: value not actually present
        }
    }
    let rows = intersect(readers)?;
    if !rows.is_empty() {
        out.push((Arc::clone(core), rows));
    }
    Ok(())
}

/// A consistent per-table read view: segment set + pinned deleted bits +
/// rowstore visibility at `read_ts`.
pub struct TableSnapshot {
    /// The table (rowstore reads go through it with `read_ts`).
    pub table: Arc<Table>,
    /// Snapshot timestamp.
    pub read_ts: Timestamp,
    /// Transaction whose own uncommitted writes are visible, if any.
    pub self_txn: Option<TxnId>,
    /// Live segments at snapshot time with their pinned deleted bits.
    pub segments: Vec<SegmentSnap>,
    seg_ids: HashSet<SegmentId>,
    rowstore_rows: OnceLock<Vec<(Vec<Value>, Row)>>,
}

/// One segment as seen by a snapshot. Cloning is two `Arc` bumps, which is
/// what lets the parallel scan executor hand segments to pool workers as
/// owned (`'static`) morsels.
#[derive(Clone)]
pub struct SegmentSnap {
    /// Shared segment core (metadata + readers + inverted indexes).
    pub core: Arc<SegmentCore>,
    /// Deleted bits as of the snapshot.
    pub deleted: Arc<BitVec>,
}

impl SegmentSnap {
    /// Live rows under the snapshot's bits.
    pub fn live_rows(&self) -> usize {
        self.core.meta.row_count - self.deleted.count_ones()
    }
}

impl TableSnapshot {
    /// Capture a snapshot. Must be called under the partition commit lock so
    /// `read_ts` and the segment state agree.
    pub(crate) fn capture(
        table: &Arc<Table>,
        read_ts: Timestamp,
        self_txn: Option<TxnId>,
    ) -> TableSnapshot {
        let state = table.state.read();
        let mut segments = Vec::new();
        let mut seg_ids = HashSet::new();
        for id in state.runs.iter().flatten() {
            if let Some(core) = state.segments.get(id) {
                seg_ids.insert(*id);
                segments.push(SegmentSnap { core: Arc::clone(core), deleted: core.deleted_bits() });
            }
        }
        TableSnapshot {
            table: Arc::clone(table),
            read_ts,
            self_txn,
            segments,
            seg_ids,
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
        {
            let state = self.table.state.read();
            if !key_cols.iter().all(|c| state.indexes.column.contains_key(c)) {
                return Ok(None);
            }
        }
        let state = self.table.state.read();
        let seg_hits = probe_state(&state, key_cols, key_vals, Some(&self.seg_ids))?;
        drop(state);
        // Apply the *snapshot's* pinned deleted bits: a row deleted after the
        // snapshot was taken is still visible here.
        let mut segments = Vec::new();
        for (core, rows) in seg_hits {
            let snap_deleted = self
                .segments
                .iter()
                .find(|s| s.core.meta.id == core.meta.id)
                .map(|s| Arc::clone(&s.deleted));
            let Some(deleted) = snap_deleted else { continue };
            let rows: Vec<u32> = rows.into_iter().filter(|&r| !deleted.get(r as usize)).collect();
            if !rows.is_empty() {
                segments.push((core, rows));
            }
        }
        let rowstore: Vec<(Vec<Value>, Row)> = self
            .rowstore_rows()
            .iter()
            .filter(|(_, row)| key_cols.iter().zip(key_vals).all(|(&c, v)| row.get(c) == v))
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
        let mut inverted = table.build_inverted(&rows, &[0, 1]);
        inverted[1].1 = forge_hash(&inverted[1].1, 1, Value::Int(10).hash64());
        table.install_run(vec![(meta, SegmentFile { data, inverted })], true).unwrap();

        let state = table.state.read();
        let (_, tuple_index) = &state.indexes.tuple[0];
        let collided = hash::hash_values([Value::Int(1), Value::Int(10)].iter());
        let mut pairs = tuple_index.lookup(collided, &|_| true);
        pairs.sort();
        assert_eq!(pairs.len(), 2, "both colliding tuples registered: {pairs:?}");
        assert_ne!(pairs[0].1, pairs[1].1, "told apart by entry offsets");
        // The probe verifies values at the inverted index, so the colliding
        // neighbour is filtered out and the real key resolves to its row.
        let hits = probe_state(&state, &[0, 1], &[Value::Int(1), Value::Int(10)], None).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, vec![0]);
    }
}
