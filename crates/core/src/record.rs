//! Log record semantics for the unified storage engine.
//!
//! The WAL (`s2-wal`) frames opaque payloads; this module defines what those
//! payloads mean: table DDL, transaction commits (redo-only row operations),
//! rowstore→segment flushes, move transactions (paper §4.2) and segment
//! merges. Replaying these records reconstructs a partition exactly — which
//! is also how replicas apply the replication stream and how PITR works.

use s2_columnstore::SegmentMeta;
use s2_common::io::{ByteReader, ByteWriter};
use s2_common::schema::IndexDef;
use s2_common::{
    ColumnDef, DataType, Error, Result, Row, Schema, SegmentId, TableId, TableOptions, Timestamp,
    Value,
};

/// Record kind: table creation.
pub const REC_CREATE_TABLE: u8 = 1;
/// Record kind: user transaction commit (row ops).
pub const REC_COMMIT: u8 = 2;
/// Record kind: rowstore flush into a columnstore segment.
pub const REC_FLUSH: u8 = 3;
/// Record kind: move transaction (deleted bits + rowstore copies).
pub const REC_MOVE: u8 = 4;
/// Record kind: segment merge.
pub const REC_MERGE: u8 = 5;

/// One row operation inside a committed transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowOp {
    /// Write `row` under `key` in the table's rowstore level.
    Upsert {
        /// Target table.
        table: TableId,
        /// Rowstore key (unique-key values or synthetic).
        key: Vec<Value>,
        /// New row contents.
        row: Row,
    },
    /// Write a delete marker under `key`.
    Delete {
        /// Target table.
        table: TableId,
        /// Rowstore key.
        key: Vec<Value>,
    },
}

impl RowOp {
    /// The table the operation writes.
    pub fn table(&self) -> TableId {
        match self {
            RowOp::Upsert { table, .. } | RowOp::Delete { table, .. } => *table,
        }
    }
}

/// A decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineRecord {
    /// DDL: create a table.
    CreateTable {
        /// Assigned table id.
        table: TableId,
        /// Table name.
        name: String,
        /// Column definitions.
        schema: Schema,
        /// Sort/shard/index options.
        options: TableOptions,
    },
    /// A committed user transaction (redo only — aborted work is never logged).
    Commit {
        /// Commit timestamp.
        commit_ts: Timestamp,
        /// Row operations in execution order.
        ops: Vec<RowOp>,
    },
    /// A flush: `removed_keys` left the rowstore, `metas` (and their data
    /// files, named by each meta's `file_id`) entered the columnstore,
    /// atomically. One flush is always ONE record, even when it produces
    /// several segments: if the segments and the key removals were split
    /// across frames, a torn tail could persist the removals with only some
    /// of the segments and recovery would lose the rest of the flushed rows.
    Flush {
        /// Target table.
        table: TableId,
        /// Commit timestamp of the flush transaction.
        commit_ts: Timestamp,
        /// Metadata of every segment the flush produced, in run order.
        metas: Vec<SegmentMeta>,
        /// Rowstore keys whose rows moved into the segments.
        removed_keys: Vec<Vec<Value>>,
    },
    /// A move transaction (paper §4.2): rows copied from segments into the
    /// rowstore (content-preserving) and their segment offsets tombstoned in
    /// the deleted bit vectors.
    Move {
        /// Target table.
        table: TableId,
        /// Commit timestamp of the move transaction.
        commit_ts: Timestamp,
        /// Rows inserted into the rowstore, already committed.
        inserts: Vec<(Vec<Value>, Row)>,
        /// Per-segment row offsets newly marked deleted.
        deleted: Vec<(SegmentId, Vec<u32>)>,
    },
    /// A segment merge: inputs dropped, outputs (and their data files) added.
    Merge {
        /// Target table.
        table: TableId,
        /// Commit timestamp of the merge transaction.
        commit_ts: Timestamp,
        /// Segments removed.
        dropped: Vec<SegmentId>,
        /// Replacement segments.
        metas: Vec<SegmentMeta>,
    },
}

pub(crate) fn put_key(w: &mut ByteWriter, key: &[Value]) {
    w.put_varint(key.len() as u64);
    for v in key {
        w.put_value(v);
    }
}

pub(crate) fn get_key(r: &mut ByteReader<'_>) -> Result<Vec<Value>> {
    let n = r.get_varint()? as usize;
    (0..n).map(|_| r.get_value()).collect()
}

pub(crate) fn put_row(w: &mut ByteWriter, row: &Row) {
    w.put_varint(row.len() as u64);
    for v in row.values() {
        w.put_value(v);
    }
}

pub(crate) fn get_row(r: &mut ByteReader<'_>) -> Result<Row> {
    let n = r.get_varint()? as usize;
    Ok(Row::new((0..n).map(|_| r.get_value()).collect::<Result<_>>()?))
}

pub(crate) fn put_schema(w: &mut ByteWriter, schema: &Schema) {
    w.put_varint(schema.len() as u64);
    for c in schema.columns() {
        w.put_str(&c.name);
        w.put_u8(match c.data_type {
            DataType::Int64 => 0,
            DataType::Double => 1,
            DataType::Str => 2,
        });
        w.put_u8(c.nullable as u8);
    }
}

pub(crate) fn get_schema(r: &mut ByteReader<'_>) -> Result<Schema> {
    let n = r.get_varint()? as usize;
    let mut cols = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.get_str()?.to_string();
        let dt = match r.get_u8()? {
            0 => DataType::Int64,
            1 => DataType::Double,
            2 => DataType::Str,
            t => return Err(Error::Corruption(format!("bad data type tag {t}"))),
        };
        let nullable = r.get_u8()? != 0;
        cols.push(ColumnDef { name, data_type: dt, nullable });
    }
    Schema::new(cols)
}

pub(crate) fn put_usizes(w: &mut ByteWriter, xs: &[usize]) {
    w.put_varint(xs.len() as u64);
    for &x in xs {
        w.put_varint(x as u64);
    }
}

pub(crate) fn get_usizes(r: &mut ByteReader<'_>) -> Result<Vec<usize>> {
    let n = r.get_varint()? as usize;
    (0..n).map(|_| Ok(r.get_varint()? as usize)).collect()
}

pub(crate) fn put_options(w: &mut ByteWriter, o: &TableOptions) {
    put_usizes(w, &o.sort_key);
    put_usizes(w, &o.shard_key);
    w.put_varint(o.indexes.len() as u64);
    for ix in &o.indexes {
        w.put_str(&ix.name);
        put_usizes(w, &ix.columns);
        w.put_u8(ix.unique as u8);
    }
    w.put_varint(o.flush_threshold_rows as u64);
    w.put_varint(o.segment_rows as u64);
}

pub(crate) fn get_options(r: &mut ByteReader<'_>) -> Result<TableOptions> {
    let sort_key = get_usizes(r)?;
    let shard_key = get_usizes(r)?;
    let n = r.get_varint()? as usize;
    let mut indexes = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.get_str()?.to_string();
        let columns = get_usizes(r)?;
        let unique = r.get_u8()? != 0;
        indexes.push(IndexDef { name, columns, unique });
    }
    let flush_threshold_rows = r.get_varint()? as usize;
    let segment_rows = r.get_varint()? as usize;
    Ok(TableOptions { sort_key, shard_key, indexes, flush_threshold_rows, segment_rows })
}

impl EngineRecord {
    /// The WAL kind byte for this record.
    pub fn kind(&self) -> u8 {
        match self {
            EngineRecord::CreateTable { .. } => REC_CREATE_TABLE,
            EngineRecord::Commit { .. } => REC_COMMIT,
            EngineRecord::Flush { .. } => REC_FLUSH,
            EngineRecord::Move { .. } => REC_MOVE,
            EngineRecord::Merge { .. } => REC_MERGE,
        }
    }

    /// The commit timestamp carried by the record, if any.
    pub fn commit_ts(&self) -> Option<Timestamp> {
        match self {
            EngineRecord::CreateTable { .. } => None,
            EngineRecord::Commit { commit_ts, .. }
            | EngineRecord::Flush { commit_ts, .. }
            | EngineRecord::Move { commit_ts, .. }
            | EngineRecord::Merge { commit_ts, .. } => Some(*commit_ts),
        }
    }

    /// Serialize the payload (kind byte travels in the WAL frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            EngineRecord::CreateTable { table, name, schema, options } => {
                w.put_u32(*table);
                w.put_str(name);
                put_schema(&mut w, schema);
                put_options(&mut w, options);
            }
            EngineRecord::Commit { commit_ts, ops } => {
                w.put_u64(*commit_ts);
                w.put_varint(ops.len() as u64);
                for op in ops {
                    match op {
                        RowOp::Upsert { table, key, row } => {
                            w.put_u8(1);
                            w.put_u32(*table);
                            put_key(&mut w, key);
                            put_row(&mut w, row);
                        }
                        RowOp::Delete { table, key } => {
                            w.put_u8(2);
                            w.put_u32(*table);
                            put_key(&mut w, key);
                        }
                    }
                }
            }
            EngineRecord::Flush { table, commit_ts, metas, removed_keys } => {
                w.put_u32(*table);
                w.put_u64(*commit_ts);
                w.put_varint(metas.len() as u64);
                for m in metas {
                    m.write_to(&mut w);
                }
                w.put_varint(removed_keys.len() as u64);
                for k in removed_keys {
                    put_key(&mut w, k);
                }
            }
            EngineRecord::Move { table, commit_ts, inserts, deleted } => {
                w.put_u32(*table);
                w.put_u64(*commit_ts);
                w.put_varint(inserts.len() as u64);
                for (k, row) in inserts {
                    put_key(&mut w, k);
                    put_row(&mut w, row);
                }
                w.put_varint(deleted.len() as u64);
                for (seg, offsets) in deleted {
                    w.put_u64(*seg);
                    w.put_varint(offsets.len() as u64);
                    for &o in offsets {
                        w.put_u32(o);
                    }
                }
            }
            EngineRecord::Merge { table, commit_ts, dropped, metas } => {
                w.put_u32(*table);
                w.put_u64(*commit_ts);
                w.put_varint(dropped.len() as u64);
                for d in dropped {
                    w.put_u64(*d);
                }
                w.put_varint(metas.len() as u64);
                for m in metas {
                    m.write_to(&mut w);
                }
            }
        }
        w.into_bytes()
    }

    /// Decode a payload of the given WAL kind.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<EngineRecord> {
        let mut r = ByteReader::new(payload);
        match kind {
            REC_CREATE_TABLE => {
                let table = r.get_u32()?;
                let name = r.get_str()?.to_string();
                let schema = get_schema(&mut r)?;
                let options = get_options(&mut r)?;
                Ok(EngineRecord::CreateTable { table, name, schema, options })
            }
            REC_COMMIT => {
                let commit_ts = r.get_u64()?;
                let n = r.get_varint()? as usize;
                let mut ops = Vec::with_capacity(n);
                for _ in 0..n {
                    match r.get_u8()? {
                        1 => {
                            let table = r.get_u32()?;
                            let key = get_key(&mut r)?;
                            let row = get_row(&mut r)?;
                            ops.push(RowOp::Upsert { table, key, row });
                        }
                        2 => {
                            let table = r.get_u32()?;
                            let key = get_key(&mut r)?;
                            ops.push(RowOp::Delete { table, key });
                        }
                        t => return Err(Error::Corruption(format!("bad row op tag {t}"))),
                    }
                }
                Ok(EngineRecord::Commit { commit_ts, ops })
            }
            REC_FLUSH => {
                let table = r.get_u32()?;
                let commit_ts = r.get_u64()?;
                let m = r.get_varint()? as usize;
                let metas =
                    (0..m).map(|_| SegmentMeta::read_from(&mut r)).collect::<Result<Vec<_>>>()?;
                let n = r.get_varint()? as usize;
                let removed_keys = (0..n).map(|_| get_key(&mut r)).collect::<Result<_>>()?;
                Ok(EngineRecord::Flush { table, commit_ts, metas, removed_keys })
            }
            REC_MOVE => {
                let table = r.get_u32()?;
                let commit_ts = r.get_u64()?;
                let n = r.get_varint()? as usize;
                let mut inserts = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = get_key(&mut r)?;
                    let row = get_row(&mut r)?;
                    inserts.push((k, row));
                }
                let m = r.get_varint()? as usize;
                let mut deleted = Vec::with_capacity(m);
                for _ in 0..m {
                    let seg = r.get_u64()?;
                    let c = r.get_varint()? as usize;
                    let offsets = (0..c).map(|_| r.get_u32()).collect::<Result<_>>()?;
                    deleted.push((seg, offsets));
                }
                Ok(EngineRecord::Move { table, commit_ts, inserts, deleted })
            }
            REC_MERGE => {
                let table = r.get_u32()?;
                let commit_ts = r.get_u64()?;
                let n = r.get_varint()? as usize;
                let dropped = (0..n).map(|_| r.get_u64()).collect::<Result<_>>()?;
                let m = r.get_varint()? as usize;
                let metas =
                    (0..m).map(|_| SegmentMeta::read_from(&mut r)).collect::<Result<_>>()?;
                Ok(EngineRecord::Merge { table, commit_ts, dropped, metas })
            }
            t => Err(Error::Corruption(format!("unknown engine record kind {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2_common::BitVec;

    fn roundtrip(rec: EngineRecord) {
        let enc = rec.encode();
        let back = EngineRecord::decode(rec.kind(), &enc).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn create_table_roundtrip() {
        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int64),
            ColumnDef::nullable("name", DataType::Str),
        ])
        .unwrap();
        let options = TableOptions::new()
            .with_sort_key(vec![0])
            .with_shard_key(vec![0])
            .with_unique("pk", vec![0])
            .with_index("by_name", vec![1]);
        roundtrip(EngineRecord::CreateTable { table: 3, name: "users".into(), schema, options });
    }

    #[test]
    fn commit_roundtrip() {
        roundtrip(EngineRecord::Commit {
            commit_ts: 42,
            ops: vec![
                RowOp::Upsert {
                    table: 1,
                    key: vec![Value::Int(7)],
                    row: Row::new(vec![Value::Int(7), Value::str("x"), Value::Null]),
                },
                RowOp::Delete { table: 1, key: vec![Value::Int(8)] },
            ],
        });
    }

    #[test]
    fn flush_and_merge_roundtrip() {
        let meta = SegmentMeta {
            id: 5,
            file_id: 12345,
            row_count: 3,
            encodings: vec![s2_encoding::Encoding::PlainInt],
            min_max: vec![Some((Value::Int(1), Value::Int(9)))],
            deleted: BitVec::zeros(3),
            sorted: true,
        };
        let mut meta2 = meta.clone();
        meta2.id = 6;
        roundtrip(EngineRecord::Flush {
            table: 1,
            commit_ts: 10,
            metas: vec![meta.clone(), meta2],
            removed_keys: vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        });
        roundtrip(EngineRecord::Merge {
            table: 1,
            commit_ts: 20,
            dropped: vec![1, 2],
            metas: vec![meta],
        });
    }

    #[test]
    fn move_roundtrip() {
        roundtrip(EngineRecord::Move {
            table: 2,
            commit_ts: 99,
            inserts: vec![(vec![Value::str("k")], Row::new(vec![Value::str("k"), Value::Int(1)]))],
            deleted: vec![(7, vec![0, 5, 11])],
        });
    }

    #[test]
    fn unknown_kind_rejected() {
        assert!(EngineRecord::decode(99, &[]).is_err());
    }
}
