//! End-to-end tests of the unified storage engine: the write path of
//! figure 1, uniqueness enforcement (§4.1.2), move transactions (§4.2),
//! flush/merge behaviour (§2.1.2) and recovery.

use std::collections::BTreeSet;
use std::sync::Arc;

use s2_common::schema::ColumnDef;
use s2_common::{DataType, Row, Schema, TableOptions, Value};
use s2_core::{file_name, DataFileStore, DuplicatePolicy, MemFileStore, Partition, RowLocation};
use s2_wal::Log;

fn users_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("id", DataType::Int64),
        ColumnDef::new("name", DataType::Str),
        ColumnDef::nullable("score", DataType::Double),
    ])
    .unwrap()
}

fn user(id: i64, name: &str, score: f64) -> Row {
    Row::new(vec![Value::Int(id), Value::str(name), Value::Double(score)])
}

fn new_partition() -> Arc<Partition> {
    Partition::new("t_p0", Arc::new(Log::in_memory()), Arc::new(MemFileStore::new()))
}

fn users_options() -> TableOptions {
    TableOptions::new()
        .with_sort_key(vec![0])
        .with_unique("pk", vec![0])
        .with_index("by_name", vec![1])
        .with_flush_threshold(64)
        .with_segment_rows(128)
}

#[test]
fn insert_read_commit_visibility() {
    let p = new_partition();
    let t = p.create_table("users", users_schema(), users_options()).unwrap();

    let mut txn = p.begin();
    txn.insert(t, user(1, "alice", 1.0)).unwrap();
    // Own write visible before commit; other snapshots don't see it.
    assert!(txn.get_unique(t, &[Value::Int(1)]).unwrap().is_some());
    let snap = p.read_snapshot();
    assert_eq!(snap.table(t).unwrap().live_row_count(), 0);
    txn.commit().unwrap();

    let snap2 = p.read_snapshot();
    assert_eq!(snap2.table(t).unwrap().live_row_count(), 1);
    // The old snapshot still sees nothing (snapshot isolation).
    assert_eq!(snap.table(t).unwrap().live_row_count(), 0);
}

#[test]
fn duplicate_key_policies() {
    let p = new_partition();
    let t = p.create_table("users", users_schema(), users_options()).unwrap();

    let mut txn = p.begin();
    txn.insert(t, user(1, "alice", 1.0)).unwrap();
    txn.commit().unwrap();

    // Error (default).
    let mut txn = p.begin();
    let err = txn.insert(t, user(1, "imposter", 0.0)).unwrap_err();
    assert!(matches!(err, s2_common::Error::DuplicateKey(_)));
    txn.rollback();

    // Skip.
    let mut txn = p.begin();
    let r = txn
        .insert_batch(t, vec![user(1, "imposter", 0.0), user(2, "bob", 2.0)], DuplicatePolicy::Skip)
        .unwrap();
    assert_eq!((r.inserted, r.skipped), (1, 1));
    txn.commit().unwrap();

    // Replace.
    let mut txn = p.begin();
    let r = txn.insert_batch(t, vec![user(1, "alice2", 9.0)], DuplicatePolicy::Replace).unwrap();
    assert_eq!(r.replaced, 1);
    txn.commit().unwrap();
    let txn = p.begin();
    let row = txn.get_unique(t, &[Value::Int(1)]).unwrap().unwrap();
    assert_eq!(row.get(1), &Value::str("alice2"));
    txn.rollback();
}

#[test]
fn unique_enforced_across_flush() {
    let p = new_partition();
    let t = p.create_table("users", users_schema(), users_options()).unwrap();
    let mut txn = p.begin();
    for i in 0..100 {
        txn.insert(t, user(i, &format!("u{i}"), i as f64)).unwrap();
    }
    txn.commit().unwrap();
    // Move everything into a columnstore segment.
    assert!(p.flush_table(t, true).unwrap() >= 1);
    let snap = p.read_snapshot();
    let ts = snap.table(t).unwrap();
    assert_eq!(ts.rowstore_rows().len(), 0, "rowstore drained");
    assert_eq!(ts.live_row_count(), 100);

    // Duplicate check must consult the segment via the unique index.
    let mut txn = p.begin();
    let err = txn.insert(t, user(42, "dup", 0.0)).unwrap_err();
    assert!(matches!(err, s2_common::Error::DuplicateKey(_)), "{err}");
    txn.rollback();

    // Point read through the index hits the segment.
    let txn = p.begin();
    let row = txn.get_unique(t, &[Value::Int(42)]).unwrap().unwrap();
    assert_eq!(row.get(1), &Value::str("u42"));
    txn.rollback();
}

#[test]
fn update_of_segment_row_uses_move_transaction() {
    let p = new_partition();
    let t = p.create_table("users", users_schema(), users_options()).unwrap();
    let mut txn = p.begin();
    for i in 0..50 {
        txn.insert(t, user(i, &format!("u{i}"), 0.0)).unwrap();
    }
    txn.commit().unwrap();
    p.flush_table(t, true).unwrap();

    // A reader that starts *before* the update must keep seeing the old row.
    let old_snap = p.read_snapshot();

    let mut txn = p.begin();
    assert!(txn.update_unique(t, &[Value::Int(7)], user(7, "updated", 5.0)).unwrap());
    txn.commit().unwrap();

    let new_snap = p.read_snapshot();
    // New snapshot: exactly one row with id 7, updated.
    let probe = new_snap.table(t).unwrap().index_probe(&[0], &[Value::Int(7)]).unwrap().unwrap();
    assert_eq!(probe.row_count(), 1);
    let rows = probe.materialize().unwrap();
    assert_eq!(rows[0].get(1), &Value::str("updated"));

    // Old snapshot: still exactly one row, with the old value.
    let probe = old_snap.table(t).unwrap().index_probe(&[0], &[Value::Int(7)]).unwrap().unwrap();
    assert_eq!(probe.row_count(), 1);
    let rows = probe.materialize().unwrap();
    assert_eq!(rows[0].get(1), &Value::str("u7"));

    // Total row count unchanged (move preserved logical content).
    assert_eq!(new_snap.table(t).unwrap().live_row_count(), 50);
}

#[test]
fn delete_and_row_count() {
    let p = new_partition();
    let t = p.create_table("users", users_schema(), users_options()).unwrap();
    let mut txn = p.begin();
    for i in 0..30 {
        txn.insert(t, user(i, "x", 0.0)).unwrap();
    }
    txn.commit().unwrap();
    p.flush_table(t, true).unwrap();

    let mut txn = p.begin();
    assert!(txn.delete_unique(t, &[Value::Int(5)]).unwrap());
    assert!(!txn.delete_unique(t, &[Value::Int(999)]).unwrap());
    txn.commit().unwrap();

    let snap = p.read_snapshot();
    assert_eq!(snap.table(t).unwrap().live_row_count(), 29);
    let txn = p.begin();
    assert!(txn.get_unique(t, &[Value::Int(5)]).unwrap().is_none());
    txn.rollback();

    // Deleting again reports absence.
    let mut txn = p.begin();
    assert!(!txn.delete_unique(t, &[Value::Int(5)]).unwrap());
    txn.rollback();
}

#[test]
fn rollback_undoes_everything_including_moves() {
    let p = new_partition();
    let t = p.create_table("users", users_schema(), users_options()).unwrap();
    let mut txn = p.begin();
    txn.insert(t, user(1, "keep", 1.0)).unwrap();
    txn.commit().unwrap();
    p.flush_table(t, true).unwrap();

    let mut txn = p.begin();
    assert!(txn.update_unique(t, &[Value::Int(1)], user(1, "changed", 2.0)).unwrap());
    txn.rollback();

    // Content preserved: exactly one live row with the old values (the move
    // itself is content-preserving and survives the rollback).
    let snap = p.read_snapshot();
    assert_eq!(snap.table(t).unwrap().live_row_count(), 1);
    let txn = p.begin();
    let row = txn.get_unique(t, &[Value::Int(1)]).unwrap().unwrap();
    assert_eq!(row.get(1), &Value::str("keep"));
    txn.rollback();

    // And the row is updatable afterwards (locks were released).
    let mut txn = p.begin();
    assert!(txn.update_unique(t, &[Value::Int(1)], user(1, "final", 3.0)).unwrap());
    txn.commit().unwrap();
}

#[test]
fn merge_reduces_runs_and_drops_deleted_rows() {
    let p = new_partition();
    let t = p.create_table("users", users_schema(), users_options()).unwrap();
    // Create many single-segment runs.
    for batch in 0..6 {
        let mut txn = p.begin();
        for i in 0..40 {
            txn.insert(t, user(batch * 40 + i, "row", 0.0)).unwrap();
        }
        txn.commit().unwrap();
        p.flush_table(t, true).unwrap();
    }
    // Delete some rows (sets deleted bits).
    let mut txn = p.begin();
    for id in [3i64, 77, 141] {
        assert!(txn.delete_unique(t, &[Value::Int(id)]).unwrap());
    }
    txn.commit().unwrap();

    let table = p.table(t).unwrap();
    let runs_before = table.version().segments().count();
    assert!(runs_before >= 5);
    while p.merge_table(t).unwrap() {}
    p.vacuum().unwrap();
    let segs_after = table.version().segments().count();
    assert!(segs_after < runs_before, "{segs_after} vs {runs_before}");

    let snap = p.read_snapshot();
    assert_eq!(snap.table(t).unwrap().live_row_count(), 6 * 40 - 3);
    // Deleted rows stay gone; survivors stay reachable through the index.
    let txn = p.begin();
    assert!(txn.get_unique(t, &[Value::Int(77)]).unwrap().is_none());
    assert!(txn.get_unique(t, &[Value::Int(78)]).unwrap().is_some());
    txn.rollback();
}

#[test]
fn secondary_index_by_non_unique_column() {
    let p = new_partition();
    let t = p.create_table("users", users_schema(), users_options()).unwrap();
    let mut txn = p.begin();
    for i in 0..60 {
        txn.insert(t, user(i, ["red", "green", "blue"][(i % 3) as usize], 0.0)).unwrap();
    }
    txn.commit().unwrap();
    p.flush_table(t, true).unwrap();
    // A few more rows stay in the rowstore.
    let mut txn = p.begin();
    for i in 60..66 {
        txn.insert(t, user(i, "green", 0.0)).unwrap();
    }
    txn.commit().unwrap();

    let snap = p.read_snapshot();
    let probe = snap.table(t).unwrap().index_probe(&[1], &[Value::str("green")]).unwrap().unwrap();
    assert_eq!(probe.row_count(), 26, "20 in the segment + 6 in the rowstore");
    // Unindexed column probe falls back to None.
    assert!(snap.table(t).unwrap().index_probe(&[2], &[Value::Double(0.0)]).unwrap().is_none());
}

#[test]
fn recovery_replays_log_exactly() {
    let log = Arc::new(Log::in_memory());
    let files = Arc::new(MemFileStore::new());
    let p = Partition::new("t_p0", Arc::clone(&log), files.clone());
    let t = p.create_table("users", users_schema(), users_options()).unwrap();
    let mut txn = p.begin();
    for i in 0..100 {
        txn.insert(t, user(i, &format!("u{i}"), i as f64)).unwrap();
    }
    txn.commit().unwrap();
    p.flush_table(t, true).unwrap();
    let mut txn = p.begin();
    txn.update_unique(t, &[Value::Int(10)], user(10, "updated", -1.0)).unwrap();
    txn.delete_unique(t, &[Value::Int(11)]).unwrap();
    txn.insert(t, user(1000, "late", 0.0)).unwrap();
    txn.commit().unwrap();

    // Recover from log only (no snapshot).
    let p2 = Partition::recover("t_p0", Arc::clone(&log), files.clone(), None, None).unwrap();
    let t2 = p2.table_by_name("users").unwrap().id;
    let snap = p2.read_snapshot();
    assert_eq!(snap.table(t2).unwrap().live_row_count(), 100);
    let txn = p2.begin();
    assert_eq!(
        txn.get_unique(t2, &[Value::Int(10)]).unwrap().unwrap().get(1),
        &Value::str("updated")
    );
    assert!(txn.get_unique(t2, &[Value::Int(11)]).unwrap().is_none());
    assert!(txn.get_unique(t2, &[Value::Int(1000)]).unwrap().is_some());
    txn.rollback();

    // The recovered partition accepts new writes without key collisions.
    let mut txn = p2.begin();
    txn.insert(t2, user(2000, "after-recovery", 0.0)).unwrap();
    txn.commit().unwrap();
}

#[test]
fn recovery_from_snapshot_plus_log_suffix() {
    let log = Arc::new(Log::in_memory());
    let files = Arc::new(MemFileStore::new());
    let p = Partition::new("t_p0", Arc::clone(&log), files.clone());
    let t = p.create_table("users", users_schema(), users_options()).unwrap();
    let mut txn = p.begin();
    for i in 0..50 {
        txn.insert(t, user(i, "pre-snapshot", 0.0)).unwrap();
    }
    txn.commit().unwrap();
    p.flush_table(t, true).unwrap();

    let snapshot = p.write_snapshot().unwrap();

    // Post-snapshot activity that must come from the log suffix.
    let mut txn = p.begin();
    txn.insert(t, user(100, "post-snapshot", 0.0)).unwrap();
    txn.update_unique(t, &[Value::Int(3)], user(3, "patched", 0.0)).unwrap();
    txn.commit().unwrap();

    let p2 =
        Partition::recover("t_p0", Arc::clone(&log), files.clone(), Some(&snapshot), None).unwrap();
    let t2 = p2.table_by_name("users").unwrap().id;
    let snap = p2.read_snapshot();
    assert_eq!(snap.table(t2).unwrap().live_row_count(), 51);
    let txn = p2.begin();
    assert_eq!(
        txn.get_unique(t2, &[Value::Int(3)]).unwrap().unwrap().get(1),
        &Value::str("patched")
    );
    assert!(txn.get_unique(t2, &[Value::Int(100)]).unwrap().is_some());
    txn.rollback();
}

#[test]
fn pitr_style_bounded_replay() {
    let log = Arc::new(Log::in_memory());
    let files = Arc::new(MemFileStore::new());
    let p = Partition::new("t_p0", Arc::clone(&log), files.clone());
    let t = p.create_table("users", users_schema(), users_options()).unwrap();
    let mut txn = p.begin();
    txn.insert(t, user(1, "early", 0.0)).unwrap();
    txn.commit().unwrap();
    let cut_lp = log.end_lp();
    let mut txn = p.begin();
    txn.insert(t, user(2, "late", 0.0)).unwrap();
    txn.commit().unwrap();

    // Restore only up to cut_lp: the "late" row must not exist.
    let p2 = Partition::recover("t_p0", Arc::clone(&log), files, None, Some(cut_lp)).unwrap();
    let t2 = p2.table_by_name("users").unwrap().id;
    let txn = p2.begin();
    assert!(txn.get_unique(t2, &[Value::Int(1)]).unwrap().is_some());
    assert!(txn.get_unique(t2, &[Value::Int(2)]).unwrap().is_none());
    txn.rollback();
}

#[test]
fn concurrent_writers_to_same_key_serialize() {
    let p = new_partition();
    let t = p.create_table("users", users_schema(), users_options()).unwrap();
    let mut txn = p.begin();
    txn.insert(t, user(1, "base", 0.0)).unwrap();
    txn.commit().unwrap();

    let p2 = Arc::clone(&p);
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let p = Arc::clone(&p2);
            std::thread::spawn(move || {
                // Each thread increments the score by 1, retrying conflicts.
                loop {
                    let mut txn = p.begin();
                    let r = txn.update_unique_with(t, &[Value::Int(1)], |row| {
                        let score = row.get(2).as_double().unwrap();
                        Row::new(vec![
                            Value::Int(1),
                            Value::str(format!("w{i}")),
                            Value::Double(score + 1.0),
                        ])
                    });
                    match r {
                        Ok(true) => {
                            txn.commit().unwrap();
                            return;
                        }
                        Ok(false) => panic!("row vanished"),
                        Err(e) if e.is_retryable() => {
                            txn.rollback();
                            std::thread::yield_now();
                        }
                        Err(e) => panic!("{e}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let txn = p.begin();
    let row = txn.get_unique(t, &[Value::Int(1)]).unwrap().unwrap();
    assert_eq!(row.get(2), &Value::Double(8.0), "all increments applied");
    txn.rollback();
}

#[test]
fn delete_at_segment_locations() {
    let p = new_partition();
    // No unique key: synthetic rowstore keys + full-scan DML path.
    let options = TableOptions::new()
        .with_sort_key(vec![0])
        .with_index("by_name", vec![1])
        .with_flush_threshold(32)
        .with_segment_rows(64);
    let t = p.create_table("events", users_schema(), options).unwrap();
    let mut txn = p.begin();
    for i in 0..40 {
        txn.insert(t, user(i, ["keep", "drop"][(i % 2) as usize], 0.0)).unwrap();
    }
    txn.commit().unwrap();
    p.flush_table(t, true).unwrap();

    // Locate all "drop" rows via the secondary index and delete them.
    let snap = p.read_snapshot();
    let probe = snap.table(t).unwrap().index_probe(&[1], &[Value::str("drop")]).unwrap().unwrap();
    let mut locations: Vec<RowLocation> = Vec::new();
    for (core, rows) in &probe.segments {
        for &r in rows {
            locations.push(RowLocation::Segment(Arc::clone(core), r));
        }
    }
    assert_eq!(locations.len(), 20);
    let mut txn = p.begin();
    assert_eq!(txn.delete_at(t, locations).unwrap(), 20);
    txn.commit().unwrap();

    let snap = p.read_snapshot();
    assert_eq!(snap.table(t).unwrap().live_row_count(), 20);
}

#[test]
fn flush_skips_locked_rows() {
    let p = new_partition();
    let t = p.create_table("users", users_schema(), users_options()).unwrap();
    let mut setup = p.begin();
    for i in 0..20 {
        setup.insert(t, user(i, "x", 0.0)).unwrap();
    }
    setup.commit().unwrap();

    // An open transaction holds a lock on id 0.
    let mut open = p.begin();
    open.update_unique(t, &[Value::Int(0)], user(0, "locked", 1.0)).unwrap();

    // Flush proceeds, skipping the locked row.
    p.flush_table(t, true).unwrap();
    let snap = p.read_snapshot();
    let ts = snap.table(t).unwrap();
    assert_eq!(ts.live_row_count(), 20);
    assert_eq!(ts.rowstore_rows().len(), 1, "locked row stayed in the rowstore");

    open.commit().unwrap();
    let snap = p.read_snapshot();
    assert_eq!(snap.table(t).unwrap().live_row_count(), 20);
}

#[test]
fn vacuum_reclaims_after_snapshot_release() {
    let p = new_partition();
    let t = p.create_table("users", users_schema(), users_options()).unwrap();
    for batch in 0..6 {
        let mut txn = p.begin();
        for i in 0..40 {
            txn.insert(t, user(batch * 40 + i, "row", 0.0)).unwrap();
        }
        txn.commit().unwrap();
        p.flush_table(t, true).unwrap();
    }
    let pinned = p.read_snapshot(); // pins pre-merge state
    while p.merge_table(t).unwrap() {}

    let (reclaimed, _) = p.vacuum().unwrap();
    assert_eq!(reclaimed, 0, "snapshot still pins the merged-away segments");
    // The pinned snapshot still scans correctly.
    assert_eq!(pinned.table(t).unwrap().live_row_count(), 240);
    drop(pinned);
    // Their data files go once a durable snapshot covers the merge too.
    let snapshot = p.write_snapshot().unwrap();
    p.mark_snapshot_durable(snapshot.lp);
    let (reclaimed, _) = p.vacuum().unwrap();
    assert!(reclaimed > 0, "retired segments reclaimed once unpinned");
    // Data intact afterwards.
    let snap = p.read_snapshot();
    assert_eq!(snap.table(t).unwrap().live_row_count(), 240);
}

/// A snapshot pinned before a merge keeps its own table version: through a
/// merge and a vacuum it still probes and scans exactly its pre-merge rows.
/// The merged-away segments' data files outlive the snapshot until a
/// durable rowstore snapshot covers the merge (log replay from an older
/// one re-installs those segments from their flush records).
#[test]
fn pinned_snapshot_outlives_merge_and_vacuum() {
    let files = Arc::new(MemFileStore::new());
    let p = Partition::new("t_p0", Arc::new(Log::in_memory()), Arc::clone(&files) as _);
    let t = p.create_table("users", users_schema(), users_options()).unwrap();
    let colors = ["red", "green", "blue"];
    for batch in 0..6 {
        let mut txn = p.begin();
        for i in 0..40 {
            let id = batch * 40 + i;
            txn.insert(t, user(id, colors[(id % 3) as usize], 0.0)).unwrap();
        }
        txn.commit().unwrap();
        p.flush_table(t, true).unwrap();
    }
    let pinned = p.read_snapshot();
    while p.merge_table(t).unwrap() {}
    // Deletes after the pin set bits in the new version only.
    let mut txn = p.begin();
    for id in [1i64, 4, 100] {
        assert!(txn.delete_unique(t, &[Value::Int(id)]).unwrap());
    }
    txn.commit().unwrap();
    p.vacuum().unwrap();

    let live: BTreeSet<u64> =
        p.table(t).unwrap().version().segments().map(|s| s.core.meta.id).collect();
    let ts = pinned.table(t).unwrap();
    let merged_away: Vec<String> = ts
        .segments
        .iter()
        .filter(|s| !live.contains(&s.core.meta.id))
        .map(|s| file_name("t_p0", s.core.meta.file_id, s.core.meta.id))
        .collect();
    assert!(!merged_away.is_empty(), "the merge retired some pinned segments");

    // Scan: every pre-merge row, deleted ones included.
    let mut ids = BTreeSet::new();
    for seg in &ts.segments {
        for ri in (0..seg.core.meta.row_count).filter(|&ri| !seg.deleted.get(ri)) {
            ids.insert(seg.core.reader.row(ri).unwrap().get(0).as_int().unwrap());
        }
    }
    assert_eq!(ids, (0..240).collect::<BTreeSet<i64>>());
    assert_eq!(ts.live_row_count(), 240);
    // Probe: through the snapshot's own index levels and delete bits.
    let green = ts.index_probe(&[1], &[Value::str("green")]).unwrap().unwrap();
    assert_eq!(green.row_count(), 80);
    for id in [1i64, 4, 100, 239] {
        let probe = ts.index_probe(&[0], &[Value::Int(id)]).unwrap().unwrap();
        assert_eq!(probe.materialize().unwrap(), vec![user(id, colors[(id % 3) as usize], 0.0)]);
    }

    let exists = |name: &String| files.read_file(name).is_ok();
    assert!(merged_away.iter().all(exists), "files of segments a snapshot can read");
    drop(pinned);
    assert_eq!(p.vacuum().unwrap().0, 0, "no durable snapshot covers the merge yet");
    assert!(merged_away.iter().all(exists));
    let snapshot = p.write_snapshot().unwrap();
    p.mark_snapshot_durable(snapshot.lp);
    assert_eq!(p.vacuum().unwrap().0, merged_away.len());
    assert!(!merged_away.iter().any(exists), "retired files deleted");
    let snap = p.read_snapshot();
    assert_eq!(snap.table(t).unwrap().live_row_count(), 237);
    for seg in &snap.table(t).unwrap().segments {
        assert!(exists(&file_name("t_p0", seg.core.meta.file_id, seg.core.meta.id)));
    }
}
