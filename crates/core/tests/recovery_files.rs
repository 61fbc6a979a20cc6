//! Which data files recovery reads. Replay knows, before it applies a table's
//! queue, every segment some `Merge` in the replayed range drops; a flush or
//! merge output among them is never fetched (it still consumes its segment
//! id). A PITR target before the merge never sees the `Merge` record and so
//! loads the pre-merge files as usual.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use s2_common::schema::ColumnDef;
use s2_common::{DataType, Result, Row, Schema, TableOptions, Value};
use s2_core::{DataFileStore, EngineRecord, MemFileStore, Partition};
use s2_wal::{Log, RecordIter};

/// A file store that remembers the order of writes and counts reads.
#[derive(Default)]
struct CountingStore {
    inner: MemFileStore,
    written: Mutex<Vec<String>>,
    reads: Mutex<BTreeMap<String, usize>>,
}

impl DataFileStore for CountingStore {
    fn write_file(&self, name: &str, bytes: Arc<Vec<u8>>) -> Result<()> {
        self.written.lock().unwrap().push(name.to_string());
        self.inner.write_file(name, bytes)
    }
    fn read_file(&self, name: &str) -> Result<Arc<Vec<u8>>> {
        *self.reads.lock().unwrap().entry(name.to_string()).or_default() += 1;
        self.inner.read_file(name)
    }
    fn delete_file(&self, name: &str) -> Result<()> {
        self.inner.delete_file(name)
    }
}

impl CountingStore {
    /// Reads since the last call, by file.
    fn take_reads(&self) -> BTreeMap<String, usize> {
        std::mem::take(&mut *self.reads.lock().unwrap())
    }
}

fn once(names: &[&String]) -> BTreeMap<String, usize> {
    names.iter().map(|n| ((*n).clone(), 1)).collect()
}

fn recover(bytes: &[u8], files: &Arc<CountingStore>, upto: Option<u64>) -> Arc<Partition> {
    let log = Log::in_memory();
    log.append_raw(bytes);
    Partition::recover(
        "rf_p0",
        Arc::new(log),
        Arc::clone(files) as Arc<dyn DataFileStore>,
        None,
        upto,
    )
    .unwrap()
}

/// The record-at-a-time path: an empty partition that applies the log the
/// way a replica follows its primary's tail.
fn tail_apply(bytes: &[u8], files: &Arc<CountingStore>, upto: u64) -> Arc<Partition> {
    let p = recover(bytes, files, Some(0));
    for rec in RecordIter::new(&bytes[..upto as usize], 0) {
        let rec = rec.unwrap();
        p.apply_record(EngineRecord::decode(rec.kind, rec.payload).unwrap()).unwrap();
    }
    p
}

#[test]
fn replay_reads_surviving_files_once_and_dropped_files_never() {
    let files = Arc::new(CountingStore::default());
    let p = Partition::new(
        "rf_p0",
        Arc::new(Log::in_memory()),
        Arc::clone(&files) as Arc<dyn DataFileStore>,
    );
    let schema = Schema::new(vec![
        ColumnDef::new("k", DataType::Int64),
        ColumnDef::new("v", DataType::Int64),
    ])
    .unwrap();
    let options = TableOptions::new()
        .with_sort_key(vec![0])
        .with_unique("pk", vec![0])
        .with_flush_threshold(1 << 20)
        .with_segment_rows(1 << 20);
    let t = p.create_table("kv", schema, options).unwrap();
    let mut next_key = 0i64;
    let mut flush_rows = |n: usize| {
        let mut txn = p.begin();
        for _ in 0..n {
            txn.insert(t, Row::new(vec![Value::Int(next_key), Value::Int(7)])).unwrap();
            next_key += 1;
        }
        txn.commit().unwrap();
        assert_eq!(p.flush_table(t, true).unwrap(), 1);
    };

    // Five runs: two small (files F1, F2), three large (F3..F5).
    for n in [2, 3, 20, 20, 20] {
        flush_rows(n);
    }
    let before_merge = p.log.end_lp();
    // More than four runs: the two smallest merge into M.
    assert!(p.merge_table(t).unwrap());
    // A sixth, smallest run (F6) tips the count again: F6 and M merge into
    // M2, so M is created *and* dropped inside the log.
    flush_rows(1);
    assert!(p.merge_table(t).unwrap());
    assert!(!p.merge_table(t).unwrap());
    p.log.sync().unwrap();

    let written = files.written.lock().unwrap().clone();
    let [f1, f2, f3, f4, f5, m, f6, m2] = &written[..] else {
        panic!("one file per flush and merge, got {written:?}");
    };
    let bytes = p.log.read_range(0, p.log.end_lp()).unwrap();
    files.take_reads();

    // Full replay: F1, F2, F6 and M are dropped by a later merge.
    let rec = recover(&bytes, &files, None);
    assert_eq!(files.take_reads(), once(&[f3, f4, f5, m2]));
    // Same partition as the record-at-a-time path, which reads every file:
    // the snapshot bytes cover rows, runs, deleted bits and next_segment_id.
    let reference = tail_apply(&bytes, &files, bytes.len() as u64);
    assert_eq!(files.take_reads(), once(&[f1, f2, f3, f4, f5, m, f6, m2]));
    assert_eq!(rec.write_snapshot().unwrap().data, reference.write_snapshot().unwrap().data);
    assert_eq!(rec.write_snapshot().unwrap().data, p.write_snapshot().unwrap().data);

    // PITR to a target between the fifth flush and the first merge: no merge
    // in the replayed range, so the pre-merge files are loaded.
    let rec = recover(&bytes, &files, Some(before_merge));
    assert_eq!(files.take_reads(), once(&[f1, f2, f3, f4, f5]));
    let reference = tail_apply(&bytes, &files, before_merge);
    assert_eq!(rec.write_snapshot().unwrap().data, reference.write_snapshot().unwrap().data);
    let snap = rec.read_snapshot();
    assert_eq!(snap.table(t).unwrap().live_row_count(), 65);
    assert_eq!(snap.table(t).unwrap().segments.len(), 5);
}
