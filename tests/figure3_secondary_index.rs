//! Figure 3's two-level secondary index structure, observed directly:
//! per-segment inverted indexes map values to postings lists of row offsets,
//! and the global hash-table LSM maps value hashes to (segment, postings
//! offset) pairs — lookups probe O(levels), not O(segments).

use std::sync::Arc;

use s2db_repro::common::schema::ColumnDef;
use s2db_repro::common::{DataType, Row, Schema, TableOptions, Value};
use s2db_repro::core::{MemFileStore, Partition};
use s2db_repro::wal::Log;

#[test]
fn figure3_two_level_lookup() {
    let p = Partition::new("f3", Arc::new(Log::in_memory()), Arc::new(MemFileStore::new()));
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int64),
        ColumnDef::new("user", DataType::Str),
    ])
    .unwrap();
    let t = p
        .create_table(
            "events",
            schema,
            TableOptions::new().with_unique("pk", vec![0]).with_index("by_user", vec![1]),
        )
        .unwrap();

    // Several flushes -> several segments, each with its own inverted index.
    let users = ["ada", "grace", "edsger"];
    for batch in 0..4i64 {
        let mut txn = p.begin();
        for i in 0..90 {
            let id = batch * 90 + i;
            txn.insert(t, Row::new(vec![Value::Int(id), Value::str(users[(id % 3) as usize])]))
                .unwrap();
        }
        txn.commit().unwrap();
        p.flush_table(t, true).unwrap();
    }

    let table = p.table(t).unwrap();
    let version = table.version();
    assert_eq!(version.segments().count(), 4);

    // Level 1: every segment has an inverted index on the user column whose
    // postings are exact row offsets.
    for seg in version.segments().map(|s| &s.core) {
        let ix = seg.inverted.get(&1).expect("inverted index on user column");
        assert_eq!(ix.entry_count(), 3, "three distinct users per segment");
        let mut postings = ix.lookup(&Value::str("grace")).unwrap().unwrap();
        let rows = postings.collect_remaining().unwrap();
        assert_eq!(rows.len(), 30);
        for &r in &rows {
            assert_eq!(seg.reader.value(1, r as usize).unwrap(), Value::str("grace"));
        }
    }

    // Level 2: the global probe finds every segment containing the value and
    // lands directly on each segment's postings list.
    let hits = table.index_probe_latest(&[1], &[Value::str("ada")]).unwrap();
    assert_eq!(hits.len(), 4, "all four segments contain 'ada'");
    let total: usize = hits.iter().map(|(_, rows)| rows.len()).sum();
    assert_eq!(total, 120);

    // A value that exists nowhere probes to nothing (hash collisions are
    // verified against the stored values in the inverted index).
    assert!(table.index_probe_latest(&[1], &[Value::str("nobody")]).unwrap().is_empty());

    // After deleting one user's rows, probes skip them via the deleted bits.
    let mut txn = p.begin();
    for id in (0..360).filter(|i| i % 3 == 1) {
        txn.delete_unique(t, &[Value::Int(id)]).unwrap();
    }
    txn.commit().unwrap();
    let hits = table.index_probe_latest(&[1], &[Value::str("grace")]).unwrap();
    let total: usize = hits.iter().map(|(_, rows)| rows.len()).sum();
    assert_eq!(total, 0, "deleted rows filtered out of probe results");
}
