//! Recovery builds each table's rowstore once, bottom-up, from every
//! committed row version it meets in log order (snapshot rows first), in
//! place of inserting op by op. The build must leave exactly the store that
//! op-by-op replay through `RowStore::install_committed` leaves once
//! `RowStore::gc` runs at the newest replayed timestamp: no reader older
//! than the recovered commit timestamp can exist. Over random per-table op
//! streams — multi-column Int/Str/Double/NULL keys from small domains (so
//! keys repeat), upserts, deletes, flush markers, move inserts and snapshot
//! rows — this suite checks that at two levels:
//!
//! - `RowStore::from_committed` against the op-by-op store: key count,
//!   the latest committed rows in key order, and `get_latest_committed`
//!   plus `get(TS_MAX_COMMITTED)` of every key ever written;
//! - `Partition::recover` (with and without a mid-stream snapshot) against a
//!   partition that applies the same records one at a time and then
//!   vacuums: `write_snapshot` bytes, rowstore key counts, unique-key reads
//!   of every key ever written, visible rowstore rows and the next
//!   synthetic key.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s2_common::schema::ColumnDef;
use s2_common::{DataType, Row, Schema, TableId, TableOptions, Timestamp, Value, TS_MAX_COMMITTED};
use s2_core::{DataFileStore, EngineRecord, MemFileStore, Partition, RowOp};
use s2_rowstore::{CommittedVersion, RowStore};
use s2_wal::{Log, Snapshot};

const NAME: &str = "rb_p0";

/// One generated table: its key columns' schema (empty for a table keyed
/// by synthetic integers) and every key written to it.
struct GenTable {
    id: TableId,
    key_cols: Vec<ColumnDef>,
    written: BTreeSet<Vec<Value>>,
}

impl GenTable {
    fn unique(&self) -> bool {
        !self.key_cols.is_empty()
    }

    /// A key from a domain of four values per column (NULL one time in five
    /// where the column allows it); synthetic keys from 0..24.
    fn key(&self, rng: &mut StdRng) -> Vec<Value> {
        if !self.unique() {
            return vec![Value::Int(rng.random_range(0..24))];
        }
        self.key_cols
            .iter()
            .map(|def| {
                if def.nullable && rng.random_range(0..5) == 0 {
                    return Value::Null;
                }
                let k = rng.random_range(0..4i64);
                match def.data_type {
                    DataType::Int64 => Value::Int(k),
                    DataType::Str => Value::str(format!("s{k}")),
                    DataType::Double => Value::Double(k as f64 / 2.0 - 0.5),
                }
            })
            .collect()
    }

    /// A row under `key`: the key columns (or the synthetic id) then a value.
    fn row(&self, key: &[Value], rng: &mut StdRng) -> Row {
        let mut values = key.to_vec();
        values.push(Value::Int(rng.random_range(0..1000)));
        Row::new(values)
    }
}

struct Stream {
    tables: Vec<GenTable>,
    /// `CreateTable`s first, then row-carrying records, one timestamp each.
    records: Vec<EngineRecord>,
    /// Records before the snapshot point, if the case takes one.
    snapshot_at: Option<usize>,
}

fn random_stream(seed: u64) -> Stream {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut records = Vec::new();
    let mut tables = Vec::new();
    for i in 0..rng.random_range(2..=4usize) {
        // The first table is keyed by synthetic integers, the rest by a
        // unique key of one to three columns.
        let key_cols: Vec<ColumnDef> = if i == 0 {
            Vec::new()
        } else {
            (0..rng.random_range(1..=3usize))
                .map(|c| {
                    let ty = [DataType::Int64, DataType::Str, DataType::Double]
                        [rng.random_range(0..3usize)];
                    if rng.random_bool(0.5) {
                        ColumnDef::nullable(format!("k{c}"), ty)
                    } else {
                        ColumnDef::new(format!("k{c}"), ty)
                    }
                })
                .collect()
        };
        let mut columns = key_cols.clone();
        if columns.is_empty() {
            columns.push(ColumnDef::new("id", DataType::Int64));
        }
        columns.push(ColumnDef::new("v", DataType::Int64));
        let mut options = TableOptions::new();
        if !key_cols.is_empty() {
            options = options.with_unique("pk", (0..key_cols.len()).collect());
        }
        let id = i as TableId + 1;
        records.push(EngineRecord::CreateTable {
            table: id,
            name: format!("t{i}"),
            schema: Schema::new(columns).unwrap(),
            options,
        });
        tables.push(GenTable { id, key_cols, written: BTreeSet::new() });
    }
    let n = tables.len();
    for ts in 1..=rng.random_range(10..60 as Timestamp) {
        let choice = rng.random_range(0..10u32);
        let ti = rng.random_range(0..n);
        let record = if choice < 6 {
            let ops = (0..rng.random_range(1..=6usize))
                .map(|_| {
                    let t = &mut tables[rng.random_range(0..n)];
                    let key = t.key(&mut rng);
                    t.written.insert(key.clone());
                    if rng.random_range(0..10) < 3 {
                        RowOp::Delete { table: t.id, key }
                    } else {
                        RowOp::Upsert { table: t.id, row: t.row(&key, &mut rng), key }
                    }
                })
                .collect();
            EngineRecord::Commit { commit_ts: ts, ops }
        } else if choice < 8 {
            let t = &mut tables[ti];
            let removed_keys: Vec<Vec<Value>> =
                (0..rng.random_range(1..=4)).map(|_| t.key(&mut rng)).collect();
            t.written.extend(removed_keys.iter().cloned());
            EngineRecord::Flush { table: t.id, commit_ts: ts, metas: Vec::new(), removed_keys }
        } else {
            let t = &mut tables[ti];
            let inserts: Vec<(Vec<Value>, Row)> = (0..rng.random_range(1..=3))
                .map(|_| {
                    let key = t.key(&mut rng);
                    let row = t.row(&key, &mut rng);
                    (key, row)
                })
                .collect();
            t.written.extend(inserts.iter().map(|(k, _)| k.clone()));
            EngineRecord::Move { table: t.id, commit_ts: ts, inserts, deleted: Vec::new() }
        };
        records.push(record);
    }
    let snapshot_at = rng.random_bool(0.7).then(|| rng.random_range(n..=records.len()));
    Stream { tables, records, snapshot_at }
}

/// Table `id`'s committed versions in log order: what the bulk build gets.
fn versions_of(records: &[EngineRecord], id: TableId) -> Vec<CommittedVersion> {
    let mut out = Vec::new();
    for rec in records {
        match rec {
            EngineRecord::Commit { commit_ts, ops } => {
                for op in ops {
                    match op {
                        RowOp::Upsert { table, key, row } if *table == id => {
                            out.push((key.clone(), Some(row.clone()), *commit_ts))
                        }
                        RowOp::Delete { table, key } if *table == id => {
                            out.push((key.clone(), None, *commit_ts))
                        }
                        _ => {}
                    }
                }
            }
            EngineRecord::Flush { table, commit_ts, removed_keys, .. } if *table == id => {
                out.extend(removed_keys.iter().map(|k| (k.clone(), None, *commit_ts)));
            }
            EngineRecord::Move { table, commit_ts, inserts, .. } if *table == id => {
                out.extend(inserts.iter().map(|(k, r)| (k.clone(), Some(r.clone()), *commit_ts)));
            }
            _ => {}
        }
    }
    out
}

/// The latest committed rows in key order.
fn latest_rows(rs: &RowStore) -> Vec<(Vec<Value>, Row)> {
    let mut out = Vec::new();
    rs.for_each_latest_committed(|k, row, _| {
        out.push((k.to_vec(), row.clone()));
        true
    });
    out
}

fn log_of(records: &[EngineRecord]) -> Log {
    let log = Log::in_memory();
    for rec in records {
        log.append(rec.kind(), &rec.encode());
    }
    log
}

/// A partition that applies `records` one at a time, the way a replica
/// follows its primary's log tail.
fn apply_one_by_one(files: &Arc<MemFileStore>, records: &[EngineRecord]) -> Arc<Partition> {
    let p = Partition::new(
        NAME,
        Arc::new(log_of(records)),
        Arc::clone(files) as Arc<dyn DataFileStore>,
    );
    for rec in records {
        p.apply_record(rec.clone()).unwrap();
    }
    p
}

/// `from_log`: `got` was recovered from the whole log, not a snapshot.
fn assert_same_partition(
    got: &Arc<Partition>,
    want: &Arc<Partition>,
    tables: &[GenTable],
    from_log: bool,
) {
    assert_eq!(got.write_snapshot().unwrap().data, want.write_snapshot().unwrap().data);
    let (sg, sw) = (got.read_snapshot(), want.read_snapshot());
    let (tg, tw) = (got.begin(), want.begin());
    for t in tables {
        let (a, b) = (got.table(t.id).unwrap(), want.table(t.id).unwrap());
        assert_eq!(a.rowstore_len(), b.rowstore_len(), "table {} key count", t.id);
        let (ra, rb) = (sg.table(t.id).unwrap(), sw.table(t.id).unwrap());
        assert_eq!(ra.rowstore_rows(), rb.rowstore_rows(), "table {} visible rows", t.id);
        if t.unique() {
            for key in &t.written {
                assert_eq!(
                    tg.get_unique(t.id, key).unwrap(),
                    tw.get_unique(t.id, key).unwrap(),
                    "table {} key {key:?}",
                    t.id
                );
            }
        } else {
            // Every replayed upsert advances the synthetic-key allocator. A
            // snapshot holds only the rows live at it, so from one a deleted
            // key may be issued again; the next key need only clear every
            // live one.
            let probe = Row::new(vec![Value::Int(0), Value::Int(0)]);
            let next = a.rowstore_key(&probe);
            if from_log {
                assert_eq!(next, b.rowstore_key(&probe), "next synthetic key");
            }
            assert!(ra.rowstore_rows().iter().all(|(k, _)| *k < next), "next key {next:?}");
        }
    }
    tg.rollback();
    tw.rollback();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The bulk-built store equals op-by-op `install_committed` plus
    /// `gc(max_ts)`, table by table.
    #[test]
    fn bulk_build_equals_op_by_op_then_gc(seed in any::<u64>()) {
        let s = random_stream(seed);
        for t in &s.tables {
            let versions = versions_of(&s.records, t.id);
            let mut reference = RowStore::new();
            for (key, row, ts) in versions.iter().cloned() {
                reference.install_committed(&key, row, ts);
            }
            let max_ts = versions.iter().map(|v| v.2).max().unwrap_or(0);
            reference.gc(max_ts);
            let built = RowStore::from_committed(versions).unwrap();
            prop_assert_eq!(built.key_count(), reference.key_count());
            prop_assert_eq!(latest_rows(&built), latest_rows(&reference));
            for key in &t.written {
                prop_assert_eq!(built.get_latest_committed(key), reference.get_latest_committed(key));
                prop_assert_eq!(
                    built.get(key, TS_MAX_COMMITTED, None),
                    reference.get(key, TS_MAX_COMMITTED, None)
                );
            }
        }
    }

    /// Recovery (from the log alone, and from a mid-stream snapshot plus
    /// the log suffix) equals record-by-record apply followed by a vacuum.
    #[test]
    fn recovered_partition_equals_record_apply_then_vacuum(seed in any::<u64>()) {
        let s = random_stream(seed);
        let files = Arc::new(MemFileStore::new());
        let snapshot: Option<Snapshot> = s.snapshot_at.map(|cut| {
            let at_cut = apply_one_by_one(&files, &s.records[..cut]);
            at_cut.write_snapshot().unwrap()
        });
        for snap in [None, snapshot.as_ref()] {
            let reference = apply_one_by_one(&files, &s.records);
            reference.vacuum().unwrap();
            let recovered = Partition::recover(
                NAME,
                Arc::new(log_of(&s.records)),
                Arc::clone(&files) as Arc<dyn DataFileStore>,
                snap,
                None,
            )
            .unwrap();
            assert_same_partition(&recovered, &reference, &s.tables, snap.is_none());
        }
    }
}
