//! A columnstore reorganization is invisible to readers. Flush, merge and a
//! replica's apply of a `Flush`, `Merge` or `Move` record each change what a
//! table holds; a reader that lands in the middle of one must still find
//! every acknowledged row exactly once. A fault hook parks the reorganizing
//! thread at the `core.publish` site while the test thread reads:
//!
//! - on the primary, every acknowledged key through `Txn::get_unique` (the
//!   latest-committed read that checks the rowstore, then the segments);
//! - on a replica, every key the same way, plus `live_row_count` of a fresh
//!   read snapshot, which must equal the count before or after the record.

use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use s2_common::fault::{self, FaultAction, FaultHook};
use s2_common::schema::ColumnDef;
use s2_common::{DataType, LogPosition, Row, Schema, TableId, TableOptions, Value};
use s2_core::{DataFileStore, EngineRecord, MemFileStore, Partition};
use s2_wal::{Log, RecordIter};

/// The fault hook is process-global: one test at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[derive(Clone, Copy, PartialEq)]
enum Stage {
    Armed,
    Parked,
    Released,
}

/// Parks the first thread that reaches `core.publish` until released.
struct Park {
    stage: Mutex<Stage>,
    cv: Condvar,
}

impl FaultHook for Park {
    fn evaluate(&self, site: &str) -> FaultAction {
        if site == "core.publish" {
            let mut stage = self.stage.lock().unwrap();
            if *stage == Stage::Armed {
                *stage = Stage::Parked;
                self.cv.notify_all();
                while *stage != Stage::Released {
                    stage = self.cv.wait(stage).unwrap();
                }
            }
        }
        FaultAction::Continue
    }
}

/// An installed [`Park`] hook; dropping it releases the parked thread and
/// uninstalls the hook, so a failing assertion cannot wedge the next test.
struct Parking(Arc<Park>);

impl Parking {
    fn install() -> Parking {
        let park = Arc::new(Park { stage: Mutex::new(Stage::Armed), cv: Condvar::new() });
        fault::install(Arc::clone(&park) as Arc<dyn FaultHook>);
        Parking(park)
    }

    /// Wait until some thread is parked at the site.
    fn wait_parked(&self) {
        let stage = self.0.stage.lock().unwrap();
        let (stage, _) = self
            .0
            .cv
            .wait_timeout_while(stage, Duration::from_secs(10), |s| *s == Stage::Armed)
            .unwrap();
        assert!(*stage == Stage::Parked, "no thread reached core.publish");
    }

    fn release(&self) {
        *self.0.stage.lock().unwrap() = Stage::Released;
        self.0.cv.notify_all();
    }
}

impl Drop for Parking {
    fn drop(&mut self) {
        self.release();
        fault::clear();
    }
}

const NAME: &str = "pub_p0";

fn partition(files: &Arc<MemFileStore>) -> Arc<Partition> {
    Partition::new(NAME, Arc::new(Log::in_memory()), Arc::clone(files) as Arc<dyn DataFileStore>)
}

fn kv_table(p: &Arc<Partition>) -> TableId {
    let schema = Schema::new(vec![
        ColumnDef::new("k", DataType::Int64),
        ColumnDef::new("v", DataType::Int64),
    ])
    .unwrap();
    let options = TableOptions::new()
        .with_sort_key(vec![0])
        .with_unique("pk", vec![0])
        .with_flush_threshold(1 << 20)
        .with_segment_rows(16);
    p.create_table("kv", schema, options).unwrap()
}

/// Commit keys `keys` in one transaction.
fn insert(p: &Arc<Partition>, t: TableId, keys: std::ops::Range<i64>) {
    let mut txn = p.begin();
    for k in keys {
        txn.insert(t, Row::new(vec![Value::Int(k), Value::Int(k * 10)])).unwrap();
    }
    txn.commit().unwrap();
}

/// `n` keys flushed as five runs: one more than the merge policy keeps.
fn five_runs(p: &Arc<Partition>, t: TableId, n: i64) {
    for b in 0..5 {
        insert(p, t, b * n / 5..(b + 1) * n / 5);
        assert!(p.flush_table(t, true).unwrap() >= 1);
    }
}

/// Keys in `0..n` that a latest-committed unique lookup does not find.
fn unreadable(p: &Arc<Partition>, t: TableId, n: i64) -> Vec<i64> {
    let txn = p.begin();
    let missing =
        (0..n).filter(|&k| txn.get_unique(t, &[Value::Int(k)]).unwrap().is_none()).collect();
    txn.rollback();
    missing
}

/// Apply the master's log records in `[from, to)` to `replica`.
fn apply(replica: &Partition, master: &Partition, from: LogPosition, to: LogPosition) {
    let bytes = master.log.read_range(from, to).unwrap();
    for rec in RecordIter::new(&bytes, from) {
        let rec = rec.unwrap();
        replica.apply_record(EngineRecord::decode(rec.kind, rec.payload).unwrap()).unwrap();
    }
}

/// Park `worker` at `core.publish`, then read every key and the row count
/// of a fresh snapshot, as a reader racing it would. Returns the keys the
/// reader could not find and the row count it saw.
fn read_while_parked<T: Send + 'static>(
    p: &Arc<Partition>,
    t: TableId,
    n: i64,
    worker: impl FnOnce() -> T + Send + 'static,
) -> (Vec<i64>, usize, T) {
    let parking = Parking::install();
    let worker = std::thread::spawn(worker);
    parking.wait_parked();
    let missing = unreadable(p, t, n);
    // A snapshot either lands before the parked change or waits for it to
    // finish: give it a moment, then let the worker go.
    let (tx, rx) = mpsc::channel();
    let snap_p = Arc::clone(p);
    let reader = std::thread::spawn(move || {
        let count = snap_p.read_snapshot().table(t).unwrap().live_row_count();
        tx.send(count).unwrap();
    });
    let early = rx.recv_timeout(Duration::from_millis(300)).ok();
    drop(parking);
    let count = early.unwrap_or_else(|| rx.recv().unwrap());
    reader.join().unwrap();
    (missing, count, worker.join().unwrap())
}

#[test]
fn flush_keeps_acked_rows_readable() {
    let _serial = serial();
    let files = Arc::new(MemFileStore::new());
    let p = partition(&files);
    let t = kv_table(&p);
    insert(&p, t, 0..64);
    let flusher = Arc::clone(&p);
    let (missing, count, flushed) =
        read_while_parked(&p, t, 64, move || flusher.flush_table(t, true));
    assert!(flushed.unwrap() >= 1);
    assert_eq!(missing, Vec::<i64>::new(), "acked keys unreadable mid-flush");
    assert_eq!(count, 64, "snapshot row count mid-flush");
    assert!(unreadable(&p, t, 64).is_empty());
}

#[test]
fn merge_keeps_acked_rows_readable() {
    let _serial = serial();
    let files = Arc::new(MemFileStore::new());
    let p = partition(&files);
    let t = kv_table(&p);
    five_runs(&p, t, 80);
    let merger = Arc::clone(&p);
    let (missing, count, merged) = read_while_parked(&p, t, 80, move || merger.merge_table(t));
    assert!(merged.unwrap());
    assert_eq!(missing, Vec::<i64>::new(), "acked keys unreadable mid-merge");
    assert_eq!(count, 80, "snapshot row count mid-merge");
    assert!(unreadable(&p, t, 80).is_empty());
}

/// A replica at `applied` of the master, applying the rest of the master's
/// log on a worker that parks at `core.publish`.
fn replica_case(
    files: &Arc<MemFileStore>,
    master: &Arc<Partition>,
    t: TableId,
    n: i64,
    applied: LogPosition,
) {
    let replica = partition(files);
    apply(&replica, master, 0, applied);
    let before = replica.read_snapshot().table(t).unwrap().live_row_count();
    assert_eq!(before, n as usize);
    let end = master.log.end_lp();
    let (applier, source) = (Arc::clone(&replica), Arc::clone(master));
    let (missing, count, ()) =
        read_while_parked(&replica, t, n, move || apply(&applier, &source, applied, end));
    assert_eq!(count, before, "replica snapshot mid-apply saw a third row count");
    assert_eq!(missing, Vec::<i64>::new(), "acked keys unreadable mid-apply");
    assert_eq!(replica.read_snapshot().table(t).unwrap().live_row_count(), before);
    assert!(unreadable(&replica, t, n).is_empty());
}

#[test]
fn replica_flush_apply_is_atomic() {
    let _serial = serial();
    let files = Arc::new(MemFileStore::new());
    let master = partition(&files);
    let t = kv_table(&master);
    insert(&master, t, 0..48);
    let applied = master.log.end_lp();
    assert!(master.flush_table(t, true).unwrap() >= 1);
    replica_case(&files, &master, t, 48, applied);
}

#[test]
fn replica_merge_apply_is_atomic() {
    let _serial = serial();
    let files = Arc::new(MemFileStore::new());
    let master = partition(&files);
    let t = kv_table(&master);
    five_runs(&master, t, 80);
    let applied = master.log.end_lp();
    assert!(master.merge_table(t).unwrap());
    replica_case(&files, &master, t, 80, applied);
}

#[test]
fn replica_move_apply_is_atomic() {
    let _serial = serial();
    let files = Arc::new(MemFileStore::new());
    let master = partition(&files);
    let t = kv_table(&master);
    insert(&master, t, 0..32);
    assert!(master.flush_table(t, true).unwrap() >= 1);
    let applied = master.log.end_lp();
    // Updating a segment row moves it to the rowstore first (paper §4.2).
    let mut txn = master.begin();
    assert!(txn
        .update_unique(t, &[Value::Int(7)], Row::new(vec![Value::Int(7), Value::Int(-7)]))
        .unwrap());
    txn.commit().unwrap();
    replica_case(&files, &master, t, 32, applied);
}
